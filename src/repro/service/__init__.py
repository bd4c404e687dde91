"""Persistent run service: content-addressed result cache + scheduler.

``repro.service`` layers reuse on top of :func:`repro.run.run_workload`:
runs are deterministic and byte-identical given their inputs (the
PR-1/3/4 invariants), so a finished result is perfectly cacheable under
the content hash of its :class:`~repro.service.spec.RunSpec`. The
service consults the on-disk :class:`~repro.service.store.ResultStore`
before simulating, executes misses through the resilient
:class:`~repro.service.scheduler.Scheduler`, and commits outcomes back
atomically — so a repeated ``repro experiment`` is served from cache
instead of re-simulated.

The pieces (see ``docs/service.md``):

- :class:`RunSpec` — the content-addressed name of one simulation;
- :class:`ResultStore` — crash-safe on-disk cache (atomic commits,
  corrupt-entry quarantine);
- :class:`Scheduler` / :class:`JobFailure` — dedupe, per-job timeout,
  bounded retry with backoff, graceful degradation;
- :class:`RunService` — the front door tying them together;
- the ambient service (``using_service(svc)``, the ``service`` of the
  :class:`~repro.context.RunContext`), which is how the experiment
  helpers and :class:`repro.api.Session` pick the cache up without
  threading a handle through every call.

Observed runs (an ambient ``obs`` collector in the run context) always
bypass the cache: their purpose is to watch a simulation happen.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.context import current, install, using
from repro.errors import ServiceError
from repro.obs import MetricsRegistry
from repro.run import RunOutcome, run_workload
from repro.service.scheduler import JobFailure, Scheduler
from repro.service.spec import (
    RunSpec,
    canonical_json,
    content_key,
    spec_for_workload_cls,
)
from repro.service.store import ResultStore

__all__ = [
    "JobFailure",
    "ResultStore",
    "RunService",
    "RunSpec",
    "Scheduler",
    "cached_run",
    "canonical_json",
    "content_key",
    "default_cache_dir",
    "spec_for_workload_cls",
    "using_service",
]

#: Environment variable overriding the default store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class RunService:
    """Cache-first runner for :class:`RunSpec` simulations.

    Args:
        cache_dir: store root (defaults to :func:`default_cache_dir`);
            ignored when an explicit ``store`` is given.
        store: a ready :class:`ResultStore` (tests inject one).
        enabled: with False, every run executes and nothing is cached —
            the ``--no-cache`` switch.
        registry: shared metrics registry; store and scheduler counters
            land here. A private one is created when omitted.
        jobs / timeout / retries / backoff_* / jitter_seed / sleep /
        fault_hook: scheduler construction defaults for
            :meth:`run_many` (see :class:`Scheduler`).
    """

    def __init__(self, cache_dir=None, store: Optional[ResultStore] = None,
                 enabled: bool = True,
                 registry: Optional[MetricsRegistry] = None,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_cap: float = 2.0,
                 jitter_seed: int = 0,
                 sleep: Optional[Callable[[float], None]] = None,
                 fault_hook: Optional[Callable[[str, int], None]] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.enabled = enabled
        if store is not None:
            self.store = store
        else:
            root = Path(cache_dir) if cache_dir is not None \
                else default_cache_dir()
            self.store = ResultStore(root, registry=self.registry)
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_cap = backoff_cap
        self.jitter_seed = jitter_seed
        self._sleep = sleep
        self._fault_hook = fault_hook
        self._runs = self.registry.counter(
            "service_runs_total",
            "RunService.run calls by how they were served.",
            label="outcome")

    # -- single runs ---------------------------------------------------------

    def run(self, spec: RunSpec, force: bool = False,
            execute: Optional[Callable[[RunSpec], RunOutcome]] = None
            ) -> RunOutcome:
        """The outcome for ``spec``: from cache when possible, else run.

        ``force`` re-executes even on a hit (and refreshes the entry).
        An ambient ``obs`` collector (see :mod:`repro.context`) bypasses
        the cache entirely — observed runs exist to be watched, not
        replayed.
        ``execute`` runs the spec whenever the store does not serve it
        (default :meth:`RunSpec.execute`, in this process); the serve
        daemon passes one that simulates in its worker process.
        """
        if not isinstance(spec, RunSpec):
            raise ServiceError(
                f"RunService.run expects a RunSpec, got "
                f"{type(spec).__name__}")
        if execute is None:
            execute = RunSpec.execute
        if current().obs is not None:
            self._runs.inc(label_value="bypassed")
            return execute(spec)
        if not self.enabled:
            self._runs.inc(label_value="disabled")
            return execute(spec)
        key = spec.key()
        if not force:
            cached = self.store.get(key)
            if cached is not None:
                self._runs.inc(label_value="hit")
                return cached
        outcome = execute(spec)
        self.store.put(key, outcome)
        self._runs.inc(label_value="executed")
        return outcome

    def run_request(self, request: Any, force: bool = False) -> RunOutcome:
        """Cache-first execution of a :class:`repro.request.RunRequest`.

        The v2 spelling of :meth:`run`: the request resolves to its
        content-addressed spec and is served identically to a hand-built
        :class:`RunSpec` — same key, same cache entry.
        """
        from repro.request import RunRequest
        if not isinstance(request, RunRequest):
            raise ServiceError(
                f"RunService.run_request expects a RunRequest, got "
                f"{type(request).__name__}")
        return self.run(request.to_spec(), force=force)

    # -- batched runs --------------------------------------------------------

    def make_scheduler(self, jobs: Optional[int] = None,
                       initializer: Optional[Callable[..., None]] = None,
                       initargs: tuple = ()) -> Scheduler:
        """A scheduler configured with this service's resilience knobs."""
        kwargs: Dict[str, Any] = dict(
            jobs=jobs if jobs is not None else self.jobs,
            timeout=self.timeout, retries=self.retries,
            backoff_base=self.backoff_base,
            backoff_factor=self.backoff_factor,
            backoff_cap=self.backoff_cap,
            jitter_seed=self.jitter_seed,
            registry=self.registry,
            fault_hook=self._fault_hook,
            initializer=initializer, initargs=initargs)
        if self._sleep is not None:
            kwargs["sleep"] = self._sleep
        return Scheduler(**kwargs)

    def run_many(self, specs: Sequence[RunSpec],
                 jobs: Optional[int] = None) -> List[Any]:
        """Outcomes for ``specs`` in order; failures degrade gracefully.

        Cache hits never enter the scheduler; identical pending specs
        dedupe onto one execution. Each slot holds a
        :class:`~repro.run.RunOutcome` or a :class:`JobFailure` — the
        matrix survives individual cells dying. Outcomes computed by
        worker processes come back in serialized form and are
        rehydrated, so their ``result`` is a
        :class:`~repro.run.RunSummary`; they read as fresh, not
        ``from_cache``.
        """
        results: List[Any] = [None] * len(specs)
        keys = [spec.key() for spec in specs]
        pending: List[int] = []
        use_cache = self.enabled and current().obs is None
        for index, key in enumerate(keys):
            cached = self.store.get(key) if use_cache else None
            if cached is not None:
                results[index] = cached
                self._runs.inc(label_value="hit")
            else:
                pending.append(index)
        if not pending:
            return results
        scheduler = self.make_scheduler(jobs)
        payloads = scheduler.map(
            _execute_spec_payload,
            [specs[i].to_dict() for i in pending],
            keys=[keys[i] for i in pending])
        for index, payload in zip(pending, payloads):
            if isinstance(payload, JobFailure):
                results[index] = payload
                continue
            outcome = _fresh_outcome(payload)
            if use_cache:
                self.store.put(keys[index], outcome)
            self._runs.inc(label_value="executed")
            results[index] = outcome
        return results

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Store stats plus the service-level run counters."""
        stats = self.store.stats()
        stats["enabled"] = self.enabled
        stats["runs"] = {str(label): value for label, value
                         in self._runs.series().items()}
        return stats

    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache this session."""
        hits = self.store.stats()["hits"]
        misses = self.store.stats()["misses"]
        total = hits + misses
        return hits / total if total else 0.0

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()


def _execute_spec_payload(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-process body of :meth:`RunService.run_many` and of the
    serve daemon's cold jobs (picklable)."""
    return RunSpec.from_dict(spec_dict).execute().to_dict()


def _fresh_outcome(payload: Dict[str, Any]) -> RunOutcome:
    """The outcome of an ``_execute_spec_payload`` call: rehydrated, and
    fresh, since it was simulated for this call, not read from a store."""
    outcome = RunOutcome.from_dict(payload)
    outcome.fresh = True
    return outcome


# -- ambient service ---------------------------------------------------------

@contextmanager
def using_service(service: RunService) -> Iterator[RunService]:
    """``with using_service(svc): ...`` — ``using(service=svc)`` (see
    :mod:`repro.context`), yielding the service."""
    with using(service=service):
        yield service


def open_worker_service(cache_dir: Optional[str]) -> None:
    """Worker-process initializer: recreate the ambient service.

    Runs once in each worker process as it starts. Ambient state does
    not cross process boundaries (under the spawn start method nothing
    does), so workers re-open the store by path. ``None`` means the
    parent had no live cache; the worker then runs uncached.
    """
    if cache_dir is None:
        return
    install(service=RunService(cache_dir=cache_dir))


# -- the one helper every experiment funnels through -------------------------

def cached_run(workload_cls, *, num_threads: Optional[int] = None,
               scale: float = 1.0, fixed: bool = False, seed: int = 0,
               jitter_seed: int = 0xC0FFEE, with_cheetah: bool = False,
               machine_config=None, pmu_config=None,
               cheetah_config=None) -> RunOutcome:
    """Run a registry workload through the ambient service, if any.

    Drop-in for the ``run_workload(workload_cls(...), ...)`` pattern the
    experiment helpers use. Without an ambient cache
    (:attr:`RunContext.cache <repro.context.RunContext.cache>`), or for
    a non-canonical workload class (subclass or unregistered), this is
    exactly a direct :func:`~repro.run.run_workload` call.
    """
    service = current().cache
    if service is not None:
        spec = spec_for_workload_cls(
            workload_cls, num_threads=num_threads, scale=scale, fixed=fixed,
            seed=seed, jitter_seed=jitter_seed, with_cheetah=with_cheetah,
            machine_config=machine_config, pmu_config=pmu_config,
            cheetah_config=cheetah_config)
        if spec is not None:
            return service.run(spec)
    workload = workload_cls(num_threads=num_threads, scale=scale,
                            fixed=fixed, seed=seed)
    return run_workload(workload, machine_config=machine_config,
                        jitter_seed=jitter_seed, pmu_config=pmu_config,
                        with_cheetah=with_cheetah,
                        cheetah_config=cheetah_config)
