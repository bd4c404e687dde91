"""Canonical entry point for running one (workload, configuration) pair.

Every layer — CLI, experiments, validation, benchmarks, the
:class:`repro.api.Session` facade — funnels through ``run_workload``,
which makes it core machinery rather than experiment plumbing.

The paper runs each application five times and reports averages
(Section 4.1); experiment helpers do the same over deterministic seeds —
both the machine's timing-jitter seed (run-to-run hardware variation)
and the PMU's sampling-jitter seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.context import current
from repro.core.profiler import CheetahConfig, CheetahProfiler, CheetahReport
from repro.errors import SchemaError
from repro.heap.allocator import CheetahAllocator
from repro.obs import ObsConfig, Observability
from repro.pmu.sampler import PMU, PMUConfig
from repro.sim.engine import Engine, Observer, RunResult
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig
from repro.symbols.table import SymbolTable
from repro.workloads.base import Workload

DEFAULT_SEEDS: Tuple[int, ...] = (11, 22, 33)

#: Version of the serialized :class:`RunOutcome` JSON schema (see
#: ``docs/api.md``). Bump whenever the dict shape produced by
#: :meth:`RunOutcome.to_dict` changes incompatibly; the result store
#: folds this number into its content hashes, so a bump naturally
#: invalidates every cached entry instead of mis-decoding it.
#:
#: v2 (the service PR) adds the top-level ``tenant`` and
#: ``streaming_findings`` fields; v1 payloads still rehydrate (tenant
#: ``None``, no findings).
SCHEMA_VERSION = 2

#: Schema versions :meth:`RunOutcome.from_dict` can still rehydrate.
READABLE_SCHEMA_VERSIONS = (1, 2)


@dataclass
class ThreadSummary:
    """Serializable per-thread statistics (the stable subset of
    :class:`~repro.runtime.thread.SimThread`)."""

    tid: int
    name: str
    core: int
    start_clock: int
    end_clock: Optional[int]
    instructions: int
    mem_accesses: int
    mem_cycles: int
    barrier_waits: int

    @property
    def runtime(self) -> int:
        end = self.end_clock if self.end_clock is not None else self.start_clock
        return end - self.start_clock

    @classmethod
    def from_thread(cls, thread: Any) -> "ThreadSummary":
        return cls(tid=thread.tid, name=thread.name, core=thread.core,
                   start_clock=thread.start_clock, end_clock=thread.end_clock,
                   instructions=thread.instructions,
                   mem_accesses=thread.mem_accesses,
                   mem_cycles=thread.mem_cycles,
                   barrier_waits=thread.barrier_waits)


@dataclass
class RunSummary:
    """The serializable view of a :class:`~repro.sim.engine.RunResult`.

    A live ``RunResult`` drags the whole simulation behind it (machine,
    allocator, symbol table, suspended generators) — none of which can
    round-trip through JSON. ``RunSummary`` keeps the stable, numeric
    surface that every downstream consumer (experiments, CLI output,
    benches) reads: runtimes, access totals, ground-truth invalidations
    and per-thread statistics. Cached outcomes served by
    :mod:`repro.service` carry one of these in :attr:`RunOutcome.result`.
    """

    runtime: int
    steps: int
    invalidations: int
    threads: Dict[int, ThreadSummary] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.threads.values())

    @property
    def total_accesses(self) -> int:
        return sum(t.mem_accesses for t in self.threads.values())

    def thread_runtime(self, tid: int) -> int:
        return self.threads[tid].runtime


def _jsonable(value: Any) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False


@dataclass
class RunOutcome:
    """Result of one workload run, optionally with a Cheetah report.

    When the run was observed (``obs`` passed to :func:`run_workload`, or
    an ambient ``obs`` collector, see :mod:`repro.context`), the
    finalized :class:`~repro.obs.Observability` rides along and
    :attr:`metrics` exposes its registry snapshot.

    ``result`` is a live :class:`~repro.sim.engine.RunResult` for freshly
    executed runs, or a :class:`RunSummary` when the outcome was
    rehydrated from the serialized form (:meth:`from_dict` — the format
    the :mod:`repro.service` result store persists).
    """

    result: Union[RunResult, RunSummary]
    report: Optional[CheetahReport] = None
    obs: Optional[Observability] = None
    #: Metrics snapshot carried by a deserialized outcome (live outcomes
    #: read the snapshot off ``obs`` instead).
    cached_metrics: Optional[Dict[str, Any]] = None
    #: True for outcomes that carry a :class:`RunSummary` like cached
    #: outcomes do, but were computed for this call, not served from a
    #: cache: fresh predictions of the analytical modes
    #: (``mode="predict"``/``"sampled"``), fresh trace replays and runs
    #: that worker processes simulated for the serve daemon or
    #: ``RunService.run_many``. Not serialized; a rehydrated payload
    #: reads as cached (a prediction's ``predicted`` metadata survives).
    fresh: bool = False
    #: Live PMU / profiler of a freshly simulated cheetah run (for
    #: inspecting sampling state — adaptive period history, streaming
    #: findings). ``None`` on native, cached and predicted outcomes;
    #: never serialized.
    pmu: Optional[Any] = None
    profiler: Optional[Any] = None
    #: Tenant the run was executed for (schema v2). The daemon records
    #: tenancy at the job/sink level and leaves this ``None`` inside
    #: cached payloads, so one tenant's cache entries never carry
    #: another's identity; set it explicitly to stamp an outcome.
    tenant: Optional[str] = None
    #: Incremental findings carried by a deserialized outcome (live
    #: outcomes read them off the profiler's windowed detector instead).
    cached_streaming_findings: Optional[List[Dict[str, Any]]] = None

    @property
    def runtime(self) -> int:
        return self.result.runtime

    @property
    def invalidations(self) -> int:
        """Ground-truth invalidation total (live or rehydrated)."""
        result = self.result
        if isinstance(result, RunSummary):
            return result.invalidations
        return result.machine.directory.total_invalidations()

    @property
    def from_cache(self) -> bool:
        """True when this outcome was rehydrated from serialized form
        rather than computed for this call (see :attr:`fresh`)."""
        return isinstance(self.result, RunSummary) and not self.fresh

    @property
    def predicted(self) -> bool:
        """True when this outcome is an estimate from a non-default
        execution mode (fresh or rehydrated), not a full simulation."""
        return bool(self.result.metadata.get("predicted"))

    @property
    def metrics(self) -> Dict[str, Any]:
        """Metrics snapshot of the run (``{}`` when metrics were off)."""
        if self.obs is not None:
            return self.obs.metrics_snapshot()
        return dict(self.cached_metrics) if self.cached_metrics else {}

    @property
    def streaming_findings(self) -> List[Dict[str, Any]]:
        """Incremental windowed-detector findings, as JSON-ready dicts.

        Empty for native runs and for profiled runs using the offline
        detector. Live outcomes read the profiler's detector; rehydrated
        outcomes return the findings serialized with the payload, so a
        cached windowed run replays the same finding list the original
        simulation emitted.
        """
        if self.cached_streaming_findings is not None:
            return list(self.cached_streaming_findings)
        detector = getattr(self.profiler, "detector", None)
        findings = getattr(detector, "findings", None)
        if not findings:
            return []
        return [finding.to_dict() for finding in findings]

    # -- versioned serialization (see docs/api.md) ---------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict form, tagged with :data:`SCHEMA_VERSION`.

        The inverse of :meth:`from_dict`:
        ``RunOutcome.from_dict(o.to_dict()).to_dict() == o.to_dict()``
        for every outcome. Live simulation state (machine, allocator,
        symbols) is summarized, not serialized; non-JSON metadata values
        are dropped.
        """
        result = self.result
        threads: Dict[int, ThreadSummary] = {}
        if isinstance(result, RunSummary):
            threads = result.threads
            invalidations = result.invalidations
            metadata = result.metadata
        else:
            threads = {tid: ThreadSummary.from_thread(t)
                       for tid, t in result.threads.items()}
            invalidations = result.machine.directory.total_invalidations()
            metadata = result.metadata
        report_dict = None
        if self.report is not None:
            from repro.core.export import report_to_dict
            report_dict = report_to_dict(self.report)
        return {
            "schema_version": SCHEMA_VERSION,
            "tenant": self.tenant,
            "streaming_findings": self.streaming_findings,
            "result": {
                "runtime": result.runtime,
                "steps": result.steps,
                "invalidations": invalidations,
                "total_accesses": result.total_accesses,
                "total_instructions": result.total_instructions,
                "threads": {
                    str(tid): {
                        "name": t.name,
                        "core": t.core,
                        "start_clock": t.start_clock,
                        "end_clock": t.end_clock,
                        "instructions": t.instructions,
                        "mem_accesses": t.mem_accesses,
                        "mem_cycles": t.mem_cycles,
                        "barrier_waits": t.barrier_waits,
                    }
                    for tid, t in sorted(threads.items())
                },
                "metadata": {k: v for k, v in metadata.items()
                             if _jsonable(v)},
            },
            "report": report_dict,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunOutcome":
        """Rehydrate an outcome from :meth:`to_dict` form.

        Raises :class:`~repro.errors.SchemaError` for payloads that are
        not mappings, carry no ``schema_version``, or declare a version
        this code does not understand.
        """
        if not isinstance(data, Mapping):
            raise SchemaError(
                f"RunOutcome payload must be a mapping, "
                f"got {type(data).__name__}")
        version = data.get("schema_version")
        if version is None:
            raise SchemaError("RunOutcome payload has no schema_version")
        if version not in READABLE_SCHEMA_VERSIONS:
            raise SchemaError(
                f"unsupported RunOutcome schema_version {version!r} "
                f"(this build reads versions "
                f"{', '.join(map(str, READABLE_SCHEMA_VERSIONS))}); "
                "re-run without the cache or clear it with "
                "'repro cache clear'")
        try:
            result_data = data["result"]
            threads = {
                int(tid): ThreadSummary(
                    tid=int(tid),
                    name=t["name"],
                    core=t["core"],
                    start_clock=t["start_clock"],
                    end_clock=t["end_clock"],
                    instructions=t["instructions"],
                    mem_accesses=t["mem_accesses"],
                    mem_cycles=t["mem_cycles"],
                    barrier_waits=t["barrier_waits"],
                )
                for tid, t in result_data["threads"].items()
            }
            summary = RunSummary(
                runtime=result_data["runtime"],
                steps=result_data["steps"],
                invalidations=result_data["invalidations"],
                threads=threads,
                metadata=dict(result_data.get("metadata", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(
                f"malformed RunOutcome v{version} payload: {exc!r}") from exc
        report = None
        if data.get("report") is not None:
            from repro.core.export import report_from_dict
            report = report_from_dict(data["report"])
        # v2 fields; a v1 payload simply has neither.
        tenant = data.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise SchemaError(
                f"malformed RunOutcome v{version} payload: tenant must be "
                f"a string or null, got {type(tenant).__name__}")
        findings = data.get("streaming_findings", [])
        if not isinstance(findings, list) or any(
                not isinstance(f, Mapping) for f in findings):
            raise SchemaError(
                f"malformed RunOutcome v{version} payload: "
                "streaming_findings must be a list of objects")
        return cls(result=summary, report=report, obs=None,
                   cached_metrics=dict(data.get("metrics") or {}) or None,
                   tenant=tenant,
                   cached_streaming_findings=[dict(f) for f in findings])


def run_workload(workload: Workload, *,
                 machine_config: Optional[MachineConfig] = None,
                 jitter_seed: int = 0xC0FFEE,
                 pmu_config: Optional[PMUConfig] = None,
                 with_cheetah: bool = False,
                 cheetah_config: Optional[CheetahConfig] = None,
                 observer: Optional[Observer] = None,
                 check: bool = False,
                 obs: Optional[Union[ObsConfig, Observability]] = None,
                 ) -> RunOutcome:
    """Run ``workload`` once on a fresh machine.

    ``with_cheetah`` attaches the PMU and the Cheetah profiler;
    ``observer`` attaches a full-instrumentation tool (Predator baseline);
    ``check`` runs in sanitizer mode (every access shadowed against the
    reference MESI oracle — slow, raises
    :class:`~repro.errors.ValidationError` on divergence);
    ``obs`` attaches the observability layer — pass an
    :class:`~repro.obs.ObsConfig` (a fresh per-run
    :class:`~repro.obs.Observability` is built from it) or an unwired
    ``Observability`` instance. When ``None``, the ambient ``obs``
    collector (see :mod:`repro.context`) applies, if any.
    """
    config = machine_config or MachineConfig()
    if config.mode != "simulate":
        return _run_analytical(workload, config, jitter_seed, pmu_config,
                               with_cheetah, cheetah_config, observer,
                               check, obs)
    symbols = SymbolTable()
    workload.setup(symbols)
    machine = Machine(config, jitter_seed=jitter_seed, check=check)
    observability = None
    if obs is not None:
        observability = (obs if isinstance(obs, Observability)
                         else Observability(obs))
    else:
        default = current().obs
        if default is not None:
            observability = default.new_observability()
    pmu = None
    profiler = None
    if with_cheetah:
        pmu = PMU(pmu_config or PMUConfig())
    # Engine(obs=...) wires the observability before the profiler
    # attaches, so the detector picks up the promotion hook.
    engine = Engine(config=config, machine=machine, symbols=symbols,
                    pmu=pmu, observer=observer, obs=observability,
                    allocator=CheetahAllocator(line_size=config.cache_line_size))
    if with_cheetah:
        profiler = CheetahProfiler(cheetah_config)
        profiler.attach(engine)
    result = engine.run(workload.main)
    if pmu is not None:
        # Recorded in the metadata so it survives serialization: the
        # findings sink reads it off cached and relayed outcomes too.
        result.metadata["pmu_overhead_cycles"] = sum(
            pmu.overhead_by_tid.values())
    report = profiler.finalize(result) if profiler else None
    if observability is not None:
        observability.finalize(result, pmu=pmu, profiler=profiler)
    return RunOutcome(result=result, report=report, obs=observability,
                      pmu=pmu, profiler=profiler)


def _run_analytical(workload, config, jitter_seed, pmu_config,
                    with_cheetah, cheetah_config, observer, check,
                    obs) -> RunOutcome:
    """Route ``mode="predict"``/``"sampled"`` to :mod:`repro.predict`.

    Combinations that cannot mean anything are rejected here (the CLI
    layer rejects the flag spellings earlier, with flag names — see
    ``build_configs``): full-instrumentation observers need to see every
    access of the actual run, and the sanitizer needs a full simulation
    to shadow, which ``predict`` never performs.
    """
    from repro.errors import ConfigError
    from repro.predict import predict_outcome, sampled_outcome

    mode = config.mode
    if observer is not None:
        raise ConfigError(
            f"mode '{mode}' cannot attach a full-instrumentation "
            "observer: only a short prefix/burst is simulated, so the "
            "observer would see a sliver of the run; use mode='simulate'")
    if obs is not None:
        raise ConfigError(
            f"mode '{mode}' cannot attach observability explicitly: "
            "predicted runs have no simulation timeline to trace; use "
            "mode='simulate'")
    if mode == "predict":
        if check:
            raise ConfigError(
                "mode 'predict' cannot run the coherence sanitizer "
                "(check=True): prediction performs no full simulation "
                "to shadow; use mode='sampled' (bursts run sanitized) "
                "or mode='simulate'")
        return predict_outcome(
            workload, machine_config=config, jitter_seed=jitter_seed,
            pmu_config=pmu_config, with_cheetah=with_cheetah,
            cheetah_config=cheetah_config)
    return sampled_outcome(
        workload, machine_config=config, jitter_seed=jitter_seed,
        pmu_config=pmu_config, with_cheetah=with_cheetah,
        cheetah_config=cheetah_config, check=check)
