"""Wiring between the simulator and the tracing/metrics collectors.

:class:`Observability` is the one object the rest of the codebase talks
to. It is wired onto an :class:`~repro.sim.engine.Engine` before the run
(``obs.wire(engine)``, or ``Engine(obs=...)``); the engine, machine, PMU
and detector then invoke the ``on_*`` hook methods below at the
interesting moments of the simulation. Every hook call site is guarded
by a plain ``obs is not None`` check, and the machine's per-access
instrumentation is installed by *rebinding* ``machine.access_tuple`` on
the instance (the same pattern the coherence sanitizer uses), so a run
without observability executes exactly the unmodified hot path.

Timestamps passed into hooks are simulated clocks — the resulting trace
and metrics are fully deterministic for a fixed seed.

A :class:`DefaultObs` collector set as the ambient ``obs`` of the
:class:`~repro.context.RunContext` (``with using(obs=DefaultObs(config))``)
gives every ``run_workload`` call underneath it its own per-run
:class:`Observability` without threading the parameter through each
experiment's signature.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObsError
from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (CORE_TRACK_BASE, DETECTOR_TRACK, PHASE_TRACK,
                              Tracer)

# Coherence outcome kinds that represent cross-core transitions; these
# get instant events on the per-core tracks when trace_coherence is on.
_COHERENCE_EVENT_KINDS = frozenset(
    ("coherence_read", "coherence_write", "upgrade"))


class Observability:
    """Per-run tracing + metrics state and the hook methods that feed it.

    One instance observes one run: :meth:`wire` attaches it to exactly
    one engine, and :meth:`finalize` (called by ``run_workload`` or
    manually after ``engine.run``) folds the run's ground-truth totals
    into the metrics registry and emits the phase spans.
    """

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig()
        self.tracer: Optional[Tracer] = (
            Tracer(self.config.max_events) if self.config.trace else None)
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None)
        self._engine: Optional[Any] = None
        self._finalized = False
        # Per-outcome accesses and cycles, kept in plain dicts on the
        # access path (a metric update takes a lock); finalize folds them.
        self._accesses: Dict[str, int] = {}
        self._cycles: Dict[str, int] = {}
        reg = self.registry
        if reg is not None:
            # Hot-path metrics are pre-created so hooks never pay the
            # registry lookup.
            self._acc_counter = reg.counter(
                "machine_accesses_total",
                "Simulated memory accesses by coherence outcome.",
                label="outcome")
            self._cyc_counter = reg.counter(
                "machine_cycles_total",
                "Machine-charged cycles by coherence outcome.",
                label="outcome")
            self._quanta_counter = reg.counter(
                "engine_quanta_total", "Scheduling quanta executed.")
            self._spawn_counter = reg.counter(
                "engine_threads_spawned_total",
                "Simulated threads created (including main).")
            self._barrier_rounds = reg.counter(
                "engine_barrier_rounds_total", "Barrier rounds released.")
            self._barrier_wait = reg.counter(
                "engine_barrier_wait_cycles_total",
                "Cycles threads spent waiting at barriers.")
            self._handler_hist = reg.histogram(
                "pmu_handler_cost_cycles",
                "Cycles charged per delivered memory sample.")
            self._promotions = reg.counter(
                "detector_promotions_total",
                "Lines promoted to detailed tracking.")
            self._streaming_findings = reg.counter(
                "streaming_findings_total",
                "Incremental findings emitted by the windowed detector.")

    # -- wiring ----------------------------------------------------------------

    def wire(self, engine: Any) -> "Observability":
        """Attach to ``engine`` (once); installs every needed hook."""
        if self._engine is not None:
            raise ObsError(
                "Observability instance is already wired to an engine; "
                "use a fresh instance per run")
        self._engine = engine
        engine.obs = self
        if self.registry is not None or (
                self.tracer is not None and (self.config.trace_coherence
                                             or self.config.trace_accesses)):
            self._attach_machine(engine.machine)
        if engine.pmu is not None:
            engine.pmu.obs = self
        if self.tracer is not None:
            self.tracer.name_track(PHASE_TRACK, "phases")
        return self

    def _attach_machine(self, machine: Any) -> None:
        """Wrap the machine's per-access entry point.

        The wrapper composes with whatever ``access_tuple`` is currently
        bound on the instance — in sanitizer mode that is the checked
        entry point, so shadowing still sees every access. The engine
        routes bursts through its general loop whenever ``machine.obs``
        is set, so the fused kernel cannot bypass this wrapper.
        """
        machine.obs = self
        inner = machine.access_tuple
        config = self.config
        registry = self.registry
        accesses = self._accesses if registry is not None else None
        cycles = self._cycles
        tracer = self.tracer
        coh = tracer is not None and config.trace_coherence
        raw = tracer is not None and config.trace_accesses

        def observed_access_tuple(core: int, addr: int, is_write: bool,
                                  now: int = 0):
            latency, kind, line = inner(core, addr, is_write, now)
            if accesses is not None:
                accesses[kind] = accesses.get(kind, 0) + 1
                cycles[kind] = cycles.get(kind, 0) + latency
            if coh and kind in _COHERENCE_EVENT_KINDS:
                track = CORE_TRACK_BASE + core
                tracer.name_track(track, f"core {core}")
                tracer.instant(kind, "coherence", now, track, {
                    "addr": addr, "line": line, "write": is_write,
                    "latency": latency})
            if raw:
                track = CORE_TRACK_BASE + core
                tracer.name_track(track, f"core {core}")
                tracer.instant("access", "memory", now, track, {
                    "addr": addr, "kind": kind, "write": is_write,
                    "latency": latency})
            return latency, kind, line

        machine.access_tuple = observed_access_tuple

    # -- engine hooks ----------------------------------------------------------

    def note_quantum(self, thread: Any, start_clock: int) -> None:
        """One scheduling quantum of ``thread`` ended (clock advanced to
        ``thread.clock`` from ``start_clock``)."""
        if self.registry is not None:
            self._quanta_counter.inc()
        tracer = self.tracer
        if tracer is not None and self.config.trace_quanta:
            dur = thread.clock - start_clock
            if dur > 0:
                tracer.span("quantum", "engine", start_clock, dur,
                            thread.tid)

    def on_thread_spawn(self, thread: Any) -> None:
        """A thread (including main) was created and armed."""
        if self.registry is not None:
            self._spawn_counter.inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.name_track(thread.tid, f"{thread.name}/{thread.tid}")
            tracer.instant("thread_spawn", "thread", thread.start_clock,
                           thread.tid, {"core": thread.core,
                                        "parent": thread.parent_tid})

    def on_thread_finish(self, thread: Any) -> None:
        """A thread finished; emits its lifetime span."""
        tracer = self.tracer
        if tracer is not None and thread.end_clock is not None:
            tracer.span(thread.name, "thread", thread.start_clock,
                        thread.end_clock - thread.start_clock, thread.tid,
                        {"accesses": thread.mem_accesses,
                         "instructions": thread.instructions})

    def on_join(self, parent: Any, child: Any) -> None:
        """``parent`` completed a join on ``child``."""
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("join", "sync", parent.clock, parent.tid,
                           {"child": child.tid})

    def on_barrier_release(self, key: Any,
                           arrivals: List[Tuple[int, int]],
                           release: int, cost: int) -> None:
        """A barrier round released.

        ``arrivals`` holds each waiter's ``(tid, arrival clock)``;
        ``release`` is the common clock all waiters resume at and
        ``cost`` the barrier's crossing cost (the wait charged to a
        thread is ``release - cost - arrival``, matching the engine's
        ``barrier_waits`` accounting).
        """
        if self.registry is not None:
            self._barrier_rounds.inc()
            self._barrier_wait.inc(
                sum(release - cost - arrival for _, arrival in arrivals))
        tracer = self.tracer
        if tracer is not None:
            for tid, arrival in arrivals:
                tracer.span("barrier_wait", "sync", arrival,
                            release - arrival, tid, {"barrier": str(key)})

    # -- PMU hooks -------------------------------------------------------------

    def on_pmu_sample(self, tid: int, core: int, addr: int, is_write: bool,
                      cost: int, now: int) -> None:
        """The PMU delivered a memory sample to its handler."""
        if self.registry is not None:
            self._handler_hist.observe(cost)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("pmu_sample", "pmu", now, tid,
                           {"addr": addr, "write": is_write, "cost": cost})

    def on_pmu_trap(self, tid: int, fires: int, cost: int,
                    now: Optional[int]) -> None:
        """PMU fires landed on non-memory instructions (trap only)."""
        tracer = self.tracer
        if tracer is not None and now is not None:
            tracer.instant("pmu_trap", "pmu", now, tid,
                           {"fires": fires, "cost": cost})

    # -- detector hooks --------------------------------------------------------

    def on_detector_promotion(self, line: int, writes: int,
                              sample: Any) -> None:
        """The detector promoted ``line`` to detailed tracking."""
        if self.registry is not None:
            self._promotions.inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("detector_promotion", "detector",
                           sample.timestamp, sample.tid,
                           {"line": line, "writes": writes})

    def on_streaming_finding(self, finding: Any) -> None:
        """The windowed detector emitted an incremental mid-run finding."""
        if self.registry is not None:
            self._streaming_findings.inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.name_track(DETECTOR_TRACK, "detector")
            tracer.instant("streaming_finding", "detector",
                           finding.timestamp, DETECTOR_TRACK,
                           finding.to_dict())

    # -- finalization ----------------------------------------------------------

    def finalize(self, result: Any, pmu: Optional[Any] = None,
                 profiler: Optional[Any] = None) -> "Observability":
        """Fold the run's ground-truth totals in; idempotent.

        Ground-truth counters (total accesses, invalidations, PMU
        overhead decomposition, detector table occupancy) are taken from
        the finished run's own state rather than accumulated per event,
        so they are exact regardless of which live hooks were enabled.
        """
        if self._finalized:
            return self
        self._finalized = True
        tracer = self.tracer
        if tracer is not None:
            for phase in result.phases.phases:
                end = phase.end if phase.end is not None else result.runtime
                if end > phase.start:
                    tracer.span(phase.kind, "phase", phase.start,
                                end - phase.start, PHASE_TRACK)
        reg = self.registry
        if reg is None:
            return self

        for kind, count in self._accesses.items():
            self._acc_counter.inc(count, kind)
            self._cyc_counter.inc(self._cycles[kind], kind)
        reg.gauge("sim_runtime_cycles",
                  "Main-thread runtime of the run.").set(result.runtime)
        reg.gauge("sim_steps", "Simulation steps executed.").set(result.steps)
        reg.counter("sim_accesses_total",
                    "Ground-truth memory accesses (all threads)."
                    ).inc(result.total_accesses)
        reg.counter("sim_instructions_total",
                    "Ground-truth instructions retired (all threads)."
                    ).inc(result.total_instructions)

        directory = result.machine.directory
        reg.counter("coherence_invalidations_total",
                    "Ground-truth cache-line invalidations."
                    ).inc(directory.total_invalidations())
        per_line = reg.histogram(
            "coherence_invalidations_per_line",
            "Distribution of invalidation counts over invalidated lines.")
        invalidated = directory.lines_with_invalidations(1)
        for line in sorted(invalidated):
            per_line.observe(invalidated[line])

        phase_cycles = reg.counter(
            "phase_cycles_total", "Cycles spent per phase kind.",
            label="kind")
        for kind in ("serial", "parallel"):
            total = sum(
                (p.end if p.end is not None else result.runtime) - p.start
                for p in result.phases.phases if p.kind == kind)
            phase_cycles.inc(total, kind)

        if pmu is not None:
            traps = pmu.samples_fired - pmu.memory_samples
            samples = reg.counter(
                "pmu_samples_total", "PMU fires by delivery kind.",
                label="kind")
            samples.inc(pmu.memory_samples, "memory")
            samples.inc(traps, "trap")
            overhead = reg.counter(
                "pmu_overhead_cycles_total",
                "PMU-charged cycles by source.", label="source")
            overhead.inc(
                pmu.threads_set_up * pmu.config.thread_setup_cost, "setup")
            overhead.inc(
                pmu.memory_samples * pmu.config.handler_cost, "handler")
            overhead.inc(traps * pmu.config.trap_cost, "trap")
            reg.gauge("pmu_threads_armed",
                      "Threads the PMU was armed for.").set(pmu.threads_set_up)
            if getattr(pmu, "period_changes", 0):
                reg.counter(
                    "pmu_period_changes_total",
                    "Live sampling-period retunes during the run."
                    ).inc(pmu.period_changes)
                reg.gauge("pmu_period_current",
                          "Sampling period at end of run.").set(pmu.period)
            if getattr(pmu, "rotation_skipped", 0):
                reg.counter(
                    "pmu_rotation_skipped_total",
                    "Memory fires discarded by the rotation schedule."
                    ).inc(pmu.rotation_skipped)
            controller = getattr(pmu, "controller", None)
            if controller is not None:
                reg.gauge("pmu_hot_lines",
                          "Hot lines at the last adaptive evaluation."
                          ).set(controller.hot_lines)

        detector = getattr(profiler, "detector", None)
        if detector is not None:
            reg.gauge("detector_tracked_lines",
                      "Lines with at least one sampled write."
                      ).set(len(detector._line_writes))
            reg.gauge("detector_detailed_lines",
                      "Lines under detailed (word-level) tracking."
                      ).set(len(detector._detailed))
            reg.gauge("detector_pending_lines",
                      "Lines buffering pre-promotion samples."
                      ).set(len(detector._pending))
            det_samples = reg.counter(
                "detector_samples_total",
                "Samples seen vs recorded in word detail.", label="stage")
            det_samples.inc(detector.samples_seen, "seen")
            det_samples.inc(detector.samples_recorded, "recorded")
            det_samples.inc(getattr(detector, "samples_dropped", 0),
                            "dropped")
            findings = getattr(detector, "findings", None)
            if findings is not None:
                reg.gauge("streaming_window_lines",
                          "Window entries live at end of run."
                          ).set(len(detector._window))
                reg.counter("streaming_windows_expired_total",
                            "Window entries expired or evicted."
                            ).inc(detector.windows_expired)

        if tracer is not None:
            reg.gauge("obs_trace_events_retained",
                      "Trace events retained under the cap."
                      ).set(len(tracer.events))
            reg.gauge("obs_trace_events_dropped",
                      "Trace events dropped at the cap.").set(tracer.dropped)
        return self

    # -- convenience exports ---------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The registry snapshot, or ``{}`` when metrics are disabled."""
        return self.registry.snapshot() if self.registry is not None else {}

    def render_prometheus(self) -> str:
        return (self.registry.render_prometheus()
                if self.registry is not None else "")

    def write_trace(self, path: str, format: str = "chrome") -> None:
        """Write the trace to ``path`` (``"chrome"`` or ``"jsonl"``)."""
        if self.tracer is None:
            raise ObsError("tracing is disabled for this Observability")
        if format == "chrome":
            self.tracer.write_chrome(path)
        elif format == "jsonl":
            self.tracer.write_jsonl(path)
        else:
            raise ObsError(f"unknown trace format {format!r} "
                           "(expected 'chrome' or 'jsonl')")


# -- ambient collector ---------------------------------------------------------


class DefaultObs:
    """An ambient observability collector.

    Set with ``using(obs=DefaultObs(config))`` (:mod:`repro.context`);
    holds the :class:`ObsConfig` plus every per-run
    :class:`Observability` built from it while it was active, so a driver
    (e.g. ``repro experiment --metrics``) can aggregate across the runs
    it triggered without threading a parameter through each experiment.
    """

    def __init__(self, config: ObsConfig):
        self.config = config
        self.collected: List[Observability] = []

    def new_observability(self) -> Observability:
        obs = Observability(self.config)
        self.collected.append(obs)
        return obs
