"""The analytical fast-forward model (O(lines), no full simulation).

Prediction replaces a full simulated run with:

1. one or two short simulated **prefix** runs at reduced scale (and at
   most ``max_profile_threads`` threads), profiled access-by-access into
   :class:`~repro.predict.profile.AccessProfile` objects;
2. a closed-form extrapolation of every reported quantity —
   invalidations, PMU sample counts, per-thread clocks, application
   runtime, and the false-sharing report itself — to the target scale
   and thread count.

**Calibration.** Each extensive metric ``m`` (accesses, cycles,
invalidations, runtime, ...) is assumed affine in the workload scale,
``m(s) = a + b*s``: the intercept absorbs constant startup work (cold
misses, spawn/join, setup loops) that would otherwise be over-amplified
by a proportional rule. Two prefix points ``p1 < p2`` pin the line; if
only one point exists (tiny targets, trace-sourced profiles) the model
falls back to proportionality. Implausible fits (negative intercept, or
an intercept exceeding the value at ``p1``) also fall back — both
signal jitter noise rather than real startup cost.

**Thread extrapolation** is *weak scaling*: each added thread is assumed
to bring its own data (more contended lines, same per-line behavior), so
totals scale by ``thread_factor = target_threads / profiled_threads``
while per-line/per-thread intensities stay fixed. This matches the
registry workloads, which partition work per thread; workloads where a
*fixed* set of lines absorbs every thread would need a contention model
instead (documented in ``docs/prediction.md``). The main thread
additionally pays ``spawn_cost + join_cost`` per extra thread.

**Findings.** The prefix detector sees *every* access (period 1) while a
real profiled run samples one in ``PMUConfig.period``; predicted object
counts are therefore scaled into the PMU-sampled domain
(``x volume_factor / period``) and handed to
:func:`repro.core.profiler.build_report` — the report policy the online
profiler applies (thresholds, classification, assessment), fed predicted
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import ConfigBase
from repro.core.assessment import ThreadObservation, serial_average
from repro.core.detection import ObjectProfile
from repro.core.profiler import CheetahConfig, build_report
from repro.errors import ConfigError
from repro.pmu.sampler import PMUConfig
from repro.predict.profile import AccessProfile, extract_profile
from repro.run import RunOutcome, RunSummary, ThreadSummary
from repro.runtime.phases import MAIN_TID, Phase
from repro.sim.params import MachineConfig
from repro.workloads.base import Workload


@dataclass(frozen=True)
class PredictConfig(ConfigBase):
    """Knobs of the analytical fast-forward mode.

    Attributes:
        prefix_fraction: prefix scale as a fraction of the target scale
            (before clamping).
        min_prefix_scale: prefix scale floor — very small prefixes are
            dominated by startup noise.
        max_prefix_scale: prefix scale ceiling — the knob that makes
            huge targets cheap: a scale-1000 run is profiled at scale
            <= this, never at a fraction of 1000.
        calibrate: run a second prefix at twice the first scale and fit
            an affine model through both points (absorbs constant
            startup offsets). Off: proportional extrapolation.
        max_profile_threads: thread-count cap for prefix runs; targets
            beyond it are extrapolated with the weak-scaling rule.
        bursts: replica count for ``mode="sampled"``
            (:mod:`repro.predict.sampled`).
        burst_fraction / min_burst_scale / max_burst_scale: burst scale
            selection, analogous to the prefix knobs.
    """

    prefix_fraction: float = 0.1
    min_prefix_scale: float = 0.05
    max_prefix_scale: float = 1.0
    calibrate: bool = True
    max_profile_threads: int = 64
    bursts: int = 3
    burst_fraction: float = 0.1
    min_burst_scale: float = 0.05
    max_burst_scale: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise ConfigError("prefix_fraction must be in (0, 1]")
        if self.min_prefix_scale <= 0:
            raise ConfigError("min_prefix_scale must be positive")
        if self.max_prefix_scale < self.min_prefix_scale:
            raise ConfigError("max_prefix_scale must be >= min_prefix_scale")
        if self.max_profile_threads < 1:
            raise ConfigError("max_profile_threads must be >= 1")
        if self.bursts < 1:
            raise ConfigError("bursts must be >= 1")
        if not 0.0 < self.burst_fraction <= 1.0:
            raise ConfigError("burst_fraction must be in (0, 1]")
        if self.min_burst_scale <= 0:
            raise ConfigError("min_burst_scale must be positive")
        if self.max_burst_scale < self.min_burst_scale:
            raise ConfigError("max_burst_scale must be >= min_burst_scale")

    def prefix_scales(self, target_scale: float) -> Tuple[float, Optional[float]]:
        """The one or two prefix scales for a given target scale."""
        p1 = min(max(target_scale * self.prefix_fraction,
                     self.min_prefix_scale),
                 self.max_prefix_scale, target_scale)
        if not self.calibrate:
            return p1, None
        p2 = min(2.0 * p1, target_scale)
        if p2 <= p1:
            return p1, None
        return p1, p2

    def burst_scale(self, target_scale: float) -> float:
        return min(max(target_scale * self.burst_fraction,
                       self.min_burst_scale),
                   self.max_burst_scale, target_scale)


class _Fit:
    """Affine extrapolator through one or two (scale, value) points."""

    def __init__(self, x1: float, x2: Optional[float]):
        self.x1 = x1
        self.x2 = x2

    def __call__(self, y1: float, y2: Optional[float], x: float) -> float:
        x1, x2 = self.x1, self.x2
        if x2 is None or y2 is None or x2 == x1:
            base_x = x2 if (x2 is not None and y2 is not None) else x1
            base_y = y2 if (x2 is not None and y2 is not None) else y1
            return max(0.0, base_y * (x / base_x)) if base_x else 0.0
        b = (y2 - y1) / (x2 - x1)
        a = y1 - b * x1
        if a < 0 or a > y1:
            # Implausible intercept — jitter noise; fall back to
            # proportionality through the larger (more stable) point.
            return max(0.0, y2 * (x / x2))
        return max(0.0, a + b * x)


class _SyntheticPhases:
    """Duck-typed stand-in for :class:`PhaseTracker` built from
    predicted phase boundaries (``.phases`` + ``.fork_join_ok`` is all
    the assessment reads)."""

    def __init__(self, phases: List[Phase], fork_join_ok: bool):
        self.phases = phases
        self.fork_join_ok = fork_join_ok


def _scaled_phases(source, factor: float) -> _SyntheticPhases:
    phases = []
    for phase in source.phases:
        if phase.end is None:
            continue
        phases.append(Phase(kind=phase.kind,
                            start=int(phase.start * factor),
                            end=int(phase.end * factor),
                            threads=set(phase.threads)))
    return _SyntheticPhases(phases, source.fork_join_ok)


def _int(value: float) -> int:
    return max(0, int(round(value)))


def predict_from_profiles(primary: AccessProfile,
                          secondary: Optional[AccessProfile] = None, *,
                          target_threads: int,
                          target_scale: float,
                          machine_config: Optional[MachineConfig] = None,
                          pmu_config: Optional[PMUConfig] = None,
                          with_cheetah: bool = False,
                          cheetah_config: Optional[CheetahConfig] = None,
                          profiled_accesses: Optional[int] = None,
                          ) -> RunOutcome:
    """Extrapolate profiles to a target (threads, scale); O(lines).

    ``primary`` is the larger-scale profile (the extrapolation anchor);
    ``secondary``, when present, is the smaller calibration point. The
    function is pure arithmetic over the profiles — no simulation — and
    fully deterministic.
    """
    config = machine_config or MachineConfig()
    cheetah = cheetah_config or CheetahConfig()
    pmu = pmu_config or PMUConfig()
    period = float(pmu.period)

    fit = _Fit(x1=(secondary.scale if secondary is not None else primary.scale),
               x2=(primary.scale if secondary is not None else None))

    def extrapolate(pick) -> float:
        if secondary is not None:
            return fit(pick(secondary), pick(primary), target_scale)
        return fit(pick(primary), None, target_scale)

    profiled_threads = max(1, primary.threads)
    thread_factor = max(1.0, target_threads / profiled_threads)

    # -- per-thread clocks and totals (volume extrapolation) ---------------
    sec_threads = secondary.thread_stats if secondary is not None else {}
    pred_threads: Dict[int, Dict[str, float]] = {}
    for tid, stat in primary.thread_stats.items():
        other = sec_threads.get(tid)

        def metric(name, stat=stat, other=other):
            y1 = getattr(other, name) if other is not None else None
            if secondary is not None and other is not None:
                return fit(y1, getattr(stat, name), target_scale)
            return fit(getattr(stat, name), None, target_scale)

        pred_threads[tid] = {
            "instructions": metric("instructions"),
            "mem_accesses": metric("mem_accesses"),
            "mem_cycles": metric("mem_cycles"),
            "runtime": metric("runtime"),
            "barrier_waits": metric("barrier_waits"),
            "start_clock": metric("start_clock"),
        }

    # PMU overhead: profiled runs charge sampling costs to thread clocks;
    # prefix runs carry no PMU, so predicted clocks must add it back to
    # be comparable with profiled simulate runs.
    overhead: Dict[int, float] = {}
    for tid, pred in pred_threads.items():
        if not with_cheetah:
            overhead[tid] = 0.0
            continue
        fires = pred["instructions"] / period
        mem_fraction = (pred["mem_accesses"] / pred["instructions"]
                        if pred["instructions"] else 0.0)
        overhead[tid] = (pmu.thread_setup_cost
                         + fires * (mem_fraction * pmu.handler_cost
                                    + (1.0 - mem_fraction) * pmu.trap_cost))
        pred["runtime"] += overhead[tid]

    extra_threads = max(0, target_threads - profiled_threads)
    spawn_adjust = extra_threads * (config.spawn_cost + config.join_cost)
    main_pred = pred_threads.get(MAIN_TID)
    if main_pred is not None:
        main_pred["runtime"] += spawn_adjust
        app_runtime = main_pred["runtime"]
    else:
        app_runtime = extrapolate(lambda p: p.runtime) + spawn_adjust

    # -- totals -------------------------------------------------------------
    pred_invalidations = extrapolate(lambda p: p.invalidations) * thread_factor
    pred_steps = extrapolate(lambda p: p.steps) * thread_factor
    volume_factor = 0.0
    if primary.total_accesses:
        volume_factor = (extrapolate(lambda p: p.total_accesses)
                         * thread_factor / primary.total_accesses)

    aver_nofs = serial_average(primary.serial_latencies, cheetah.assessment)

    # Predicted cycles that would disappear without false sharing
    # (paper EQ 1 applied per contended line, then volume-scaled).
    excess = 0.0
    for line_profile in primary.contended_lines().values():
        excess += max(0.0, line_profile.cycles
                      - line_profile.accesses * aver_nofs)
    pred_excess = excess * volume_factor

    # -- report (detector objects, scaled into the PMU-sampled domain) ----
    report = None
    predicted_pmu: Optional[Dict[str, float]] = None
    if with_cheetah and primary.detector is not None:
        runtime_factor = (app_runtime / primary.runtime
                          if primary.runtime else 1.0)

        observations: Dict[int, ThreadObservation] = {}
        for tid, pred in pred_threads.items():
            observations[tid] = ThreadObservation(
                tid=tid,
                runtime=_int(pred["runtime"]),
                accesses=_int(pred["mem_accesses"] / period),
                cycles=_int(pred["mem_cycles"] / period),
                barrier_waits=_int(pred["barrier_waits"]),
                profiler_overhead=_int(overhead.get(tid, 0.0)),
            )

        if primary.phases is not None:
            phases = _scaled_phases(primary.phases, runtime_factor)
        else:
            # Trace-sourced profile: no phase timeline — model the run
            # as a single parallel phase over the worker threads.
            workers = set(primary.worker_tids())
            phases = _SyntheticPhases(
                [Phase(kind="parallel", start=0, end=_int(app_runtime),
                       threads=workers)], fork_join_ok=True)

        primary_objects = primary.detector.build_objects(
            primary.allocator, primary.symbols)
        secondary_objects: Dict[Tuple[str, object], ObjectProfile] = {}
        if secondary is not None and secondary.detector is not None:
            secondary_objects = {
                o.key: o for o in secondary.detector.build_objects(
                    secondary.allocator, secondary.symbols)}

        scaled: List[ObjectProfile] = []
        for obj in primary_objects:
            twin = secondary_objects.get(obj.key)

            def counts(name, obj=obj, twin=twin):
                y2 = getattr(obj, name)
                if twin is not None:
                    return fit(getattr(twin, name), y2, target_scale)
                return fit(y2, None, target_scale)

            scaled.append(_scale_object(obj, counts, thread_factor,
                                        sample_period=period))

        pred_instr = sum(p["instructions"] for p in pred_threads.values())
        pred_acc = sum(p["mem_accesses"] for p in pred_threads.values())
        samples_fired = pred_instr * thread_factor / period
        memory_samples = pred_acc * thread_factor / period
        predicted_pmu = {
            "period": pmu.period,
            "samples_fired": _int(samples_fired),
            "memory_samples": _int(memory_samples),
        }
        report = build_report(
            scaled, observations, phases, aver_nofs, cheetah,
            sampling_period=period, runtime=_int(app_runtime),
            serial_samples=len(primary.serial_latencies),
            total_samples=_int(memory_samples))

    # -- assemble the RunSummary -------------------------------------------
    threads: Dict[int, ThreadSummary] = {}
    worker_templates = primary.worker_tids()
    if main_pred is not None:
        threads[MAIN_TID] = _thread_summary(
            MAIN_TID, primary.thread_stats[MAIN_TID].name,
            core=primary.thread_stats[MAIN_TID].core,
            pred=main_pred, end_override=_int(app_runtime))
    if worker_templates:
        for tid in range(1, target_threads + 1):
            template = worker_templates[(tid - 1) % len(worker_templates)]
            stat = primary.thread_stats[template]
            threads[tid] = _thread_summary(
                tid, stat.name, core=tid % config.num_cores,
                pred=pred_threads[template])

    slowdown = None
    if report is not None and report.best() is not None:
        slowdown = report.best().assessment.improvement
    elif app_runtime and app_runtime > pred_excess / max(1, target_threads):
        denominator = app_runtime - pred_excess / max(1, target_threads)
        slowdown = app_runtime / denominator if denominator > 0 else None

    metadata: Dict[str, object] = {
        "kernel": "predict",
        "mode": config.mode if config.mode != "simulate" else "predict",
        "predicted": True,
        "profile": dict(primary.summary(),
                        calibration_points=1 + (secondary is not None),
                        profiled_accesses=(
                            profiled_accesses
                            if profiled_accesses is not None
                            else primary.total_accesses
                            + (secondary.total_accesses
                               if secondary is not None else 0))),
        "target": {
            "threads": target_threads,
            "scale": target_scale,
            "thread_factor": thread_factor,
        },
        "predicted_excess_cycles": _int(pred_excess),
        "predicted_slowdown": slowdown,
    }
    if predicted_pmu is not None:
        metadata["predicted_pmu"] = predicted_pmu

    summary = RunSummary(
        runtime=_int(app_runtime),
        steps=_int(pred_steps),
        invalidations=_int(pred_invalidations),
        threads=threads,
        metadata=metadata,
    )
    return RunOutcome(result=summary, report=report, obs=None,
                      fresh=True)


def _scale_object(obj: ObjectProfile, counts, thread_factor: float,
                  sample_period: float) -> ObjectProfile:
    """A fresh ObjectProfile with counts extrapolated to the target and
    rescaled into the PMU-sampled domain (``/ sample_period``)."""
    factor = thread_factor / sample_period if sample_period else 0.0
    scaled_accesses = counts("accesses") * factor
    ratio = scaled_accesses / obj.accesses if obj.accesses else 0.0
    scaled = ObjectProfile(
        key=obj.key, kind=obj.kind, start=obj.start, end=obj.end,
        size=obj.size, label=obj.label, lines=set(obj.lines),
        accesses=_int(scaled_accesses),
        writes=_int(counts("writes") * factor),
        invalidations=_int(counts("invalidations") * factor),
        total_latency=_int(counts("total_latency") * factor),
        shared_word_accesses=_int(counts("shared_word_accesses") * factor),
    )
    for tid, value in obj.per_tid_accesses.items():
        scaled.per_tid_accesses[tid] = _int(value * ratio)
    for tid, value in obj.per_tid_cycles.items():
        scaled.per_tid_cycles[tid] = _int(value * ratio)
    for word, info in obj.word_summary.items():
        scaled.word_summary[word] = {
            "tids": list(info["tids"]),
            "reads": _int(info["reads"] * ratio),
            "writes": _int(info["writes"] * ratio),
            "shared": info["shared"],
        }
    return scaled


def _thread_summary(tid: int, name: str, core: int,
                    pred: Dict[str, float],
                    end_override: Optional[int] = None) -> ThreadSummary:
    start = _int(pred["start_clock"]) if tid != MAIN_TID else 0
    end = (end_override if end_override is not None
           else start + _int(pred["runtime"]))
    return ThreadSummary(
        tid=tid, name=name, core=core,
        start_clock=start, end_clock=end,
        instructions=_int(pred["instructions"]),
        mem_accesses=_int(pred["mem_accesses"]),
        mem_cycles=_int(pred["mem_cycles"]),
        barrier_waits=_int(pred["barrier_waits"]),
    )


def predict_outcome(workload: Workload, *,
                    machine_config: Optional[MachineConfig] = None,
                    jitter_seed: int = 0xC0FFEE,
                    pmu_config: Optional[PMUConfig] = None,
                    with_cheetah: bool = False,
                    cheetah_config: Optional[CheetahConfig] = None,
                    predict_config: Optional[PredictConfig] = None,
                    ) -> RunOutcome:
    """End-to-end prediction for a workload: profile prefixes, then
    extrapolate. This is what ``mode="predict"`` routes to.

    The prefix runs are plain simulate-mode executions driven directly
    through :func:`repro.run.run_workload` — they never touch the run
    service or cache (only the *prediction* is a cacheable outcome).
    """
    config = machine_config or MachineConfig()
    predict = predict_config or PredictConfig()
    cheetah = cheetah_config or CheetahConfig()

    target_scale = workload.scale
    target_threads = workload.num_threads
    profile_threads = min(target_threads, predict.max_profile_threads)
    p1, p2 = predict.prefix_scales(target_scale)

    prefix1 = workload.clone(scale=p1, num_threads=profile_threads)
    profile1 = extract_profile(prefix1, machine_config=config,
                               jitter_seed=jitter_seed,
                               detector_config=cheetah.detector)
    profile2 = None
    if p2 is not None:
        prefix2 = workload.clone(scale=p2, num_threads=profile_threads)
        profile2 = extract_profile(prefix2, machine_config=config,
                                   jitter_seed=jitter_seed,
                                   detector_config=cheetah.detector)

    primary = profile2 if profile2 is not None else profile1
    secondary = profile1 if profile2 is not None else None
    # Clamping inside the workload ctor may reduce the thread count the
    # profile actually ran with; trust the profile.
    primary.threads = prefix1.num_threads

    profiled = profile1.total_accesses + (
        profile2.total_accesses if profile2 is not None else 0)
    outcome = predict_from_profiles(
        primary, secondary,
        target_threads=target_threads,
        target_scale=target_scale,
        machine_config=config,
        pmu_config=pmu_config,
        with_cheetah=with_cheetah,
        cheetah_config=cheetah,
        profiled_accesses=profiled,
    )
    outcome.result.metadata["mode"] = "predict"
    outcome.result.metadata["profile"]["prefix_scales"] = (
        [p1] if p2 is None else [p1, p2])
    return outcome
