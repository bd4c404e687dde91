"""The Cheetah profiler: PMU samples in, false-sharing report out.

Mirrors the runtime-library architecture of the paper's Figure 2: the
*data collection* module (the PMU handler installed here) filters samples
to heap and global addresses and feeds the *FS detection* module; at the
end of the execution the *FS assessment* module predicts the impact of
each instance and the *FS report* module keeps only the significant ones
(:func:`build_report`, which predict mode calls too).

Typical use::

    profiler = CheetahProfiler()
    engine = Engine(pmu=PMU(PMUConfig()))
    profiler.attach(engine)
    result = engine.run(my_program)
    report = profiler.finalize(result)
    print(report.render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.assessment import (
    AssessmentConfig,
    ThreadObservation,
    assess_object,
    serial_average,
)
from repro.config import ConfigBase
from repro.core.detection import (DetectorConfig, FalseSharingDetector,
                                  ObjectProfile, SharingKind)
from repro.core.report import ObjectReport, render_report
from repro.core.streaming import StreamingConfig, StreamingDetector
from repro.errors import ConfigError, ProfilerError
from repro.pmu.sample import MemorySample
from repro.sim.engine import Engine, RunResult


@dataclass(frozen=True)
class CheetahConfig(ConfigBase):
    """End-to-end profiler configuration.

    Attributes:
        detector: detection thresholds.
        assessment: assessment parameters.
        min_improvement: only instances whose predicted improvement is at
            least this factor are reported as significant (the paper rules
            out "trivial instances ... leading to little or no performance
            improvement").
        report_true_sharing: include true-sharing instances in the full
            report (they are never in the significant list).
        detector_mode: ``"offline"`` (the classic whole-run detector) or
            ``"windowed"`` (the :class:`StreamingDetector`, which emits
            incremental findings mid-run while producing the identical
            end-of-run report).
        streaming: windowed-detector policy, used only when
            ``detector_mode == "windowed"``.
    """

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    assessment: AssessmentConfig = field(default_factory=AssessmentConfig)
    min_improvement: float = 1.01
    report_true_sharing: bool = False
    detector_mode: str = "offline"
    streaming: StreamingConfig = field(default_factory=StreamingConfig)

    def __post_init__(self) -> None:
        if self.detector_mode not in ("offline", "windowed"):
            raise ConfigError(
                f"detector_mode must be 'offline' or 'windowed', "
                f"got {self.detector_mode!r}")


@dataclass
class CheetahReport:
    """Full output of a profiled run."""

    significant: List[ObjectReport]
    all_instances: List[ObjectReport]
    runtime: int
    fork_join_ok: bool
    aver_nofs_cycles: float
    serial_samples: int
    total_samples: int

    def render(self) -> str:
        """Text report in the paper's Figure 5 format."""
        return render_report(self.significant, self.runtime,
                             self.fork_join_ok)

    def false_sharing_instances(self) -> List[ObjectReport]:
        return [r for r in self.all_instances if r.is_false_sharing]

    def best(self) -> Optional[ObjectReport]:
        """The most impactful significant instance, if any."""
        return self.significant[0] if self.significant else None


def build_report(objects: Iterable[ObjectProfile],
                 observations: Dict[int, ThreadObservation], phases,
                 aver_nofs: float, config: CheetahConfig, *,
                 sampling_period: Optional[float], runtime: int,
                 serial_samples: int, total_samples: int) -> CheetahReport:
    """Cheetah's report policy (Section 3), for the profiler and predict.

    Objects with ``min_invalidations`` and some sharing are assessed (EQ
    1-4); false sharing reaching ``min_improvement`` is significant, true
    sharing is listed only with ``report_true_sharing``, and both lists
    run from the largest improvement."""
    detector = config.detector
    instances: List[ObjectReport] = []
    for profile in objects:
        if profile.invalidations < detector.min_invalidations:
            continue
        kind = profile.classify(detector.true_sharing_fraction)
        if kind is SharingKind.NO_SHARING:
            continue
        assessment = assess_object(profile, observations, phases, aver_nofs,
                                   config.assessment,
                                   sampling_period=sampling_period)
        instances.append(ObjectReport(profile=profile, assessment=assessment,
                                      kind=kind))
    instances.sort(key=lambda r: r.assessment.improvement, reverse=True)
    false_sharing = [r for r in instances if r.is_false_sharing]
    return CheetahReport(
        significant=[r for r in false_sharing
                     if r.assessment.improvement >= config.min_improvement],
        all_instances=(instances if config.report_true_sharing
                       else false_sharing),
        runtime=runtime,
        fork_join_ok=phases.fork_join_ok,
        aver_nofs_cycles=aver_nofs,
        serial_samples=serial_samples,
        total_samples=total_samples,
    )


class CheetahProfiler:
    """Wires the PMU into detection and assessment.

    The profiler must be :meth:`attach`\\ ed to an engine *before* the run
    so it can install the sample handler and observe phase state; after
    ``engine.run`` returns, :meth:`finalize` produces the report.
    """

    def __init__(self, config: Optional[CheetahConfig] = None):
        self.config = config or CheetahConfig()
        self.detector: Optional[FalseSharingDetector] = None
        self._engine: Optional[Engine] = None
        # Per-thread sampled totals (Section 3.2: Accesses_t, Cycles_t).
        self._thread_accesses: Dict[int, int] = {}
        self._thread_cycles: Dict[int, int] = {}
        # Serial-phase latency statistics (Section 3.1). Latencies are
        # retained (bounded) so the estimator can be robust; see
        # AssessmentConfig.serial_estimator.
        self._serial_latencies: List[int] = []
        self._total_samples = 0
        self._filtered_samples = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, engine: Engine) -> None:
        """Install this profiler's sample handler on the engine's PMU."""
        if engine.pmu is None:
            raise ProfilerError(
                "engine has no PMU; construct it with Engine(pmu=PMU(...))"
            )
        if self._engine is not None:
            raise ProfilerError("profiler is already attached")
        self._engine = engine
        if self.config.detector_mode == "windowed":
            self.detector = StreamingDetector(
                self.config.detector,
                streaming=self.config.streaming,
                line_size=engine.config.cache_line_size,
                word_size=engine.config.word_size,
            )
        else:
            self.detector = FalseSharingDetector(
                self.config.detector,
                line_size=engine.config.cache_line_size,
                word_size=engine.config.word_size,
            )
        self.detector.obs = getattr(engine, "obs", None)
        engine.pmu.install_handler(self.handle_sample)

    def handle_sample(self, sample: MemorySample) -> None:
        """The PMU "signal handler": filter, then feed detection.

        Cheetah "filters out memory accesses associated with heap or
        globals" from everything else (kernel, libraries, stack); here
        that means dropping samples outside the heap arena and the globals
        segment.
        """
        engine = self._engine
        assert engine is not None and self.detector is not None
        self._total_samples += 1
        addr = sample.addr
        if not (engine.allocator.contains(addr)
                or engine.symbols.contains(addr)):
            self._filtered_samples += 1
            return
        in_parallel = engine.phase_tracker.in_parallel_phase
        if not in_parallel:
            if len(self._serial_latencies) < self._SERIAL_CAP:
                self._serial_latencies.append(sample.latency)
        tid = sample.tid
        self._thread_accesses[tid] = self._thread_accesses.get(tid, 0) + 1
        self._thread_cycles[tid] = (
            self._thread_cycles.get(tid, 0) + sample.latency)
        self.detector.on_sample(sample, in_parallel)

    # -- reporting ---------------------------------------------------------------

    def finalize(self, result: RunResult) -> CheetahReport:
        """Assess every detected instance and build the end-of-run report."""
        if self._engine is None or self.detector is None:
            raise ProfilerError("profiler was never attached to an engine")
        if isinstance(self.detector, StreamingDetector):
            # Final sweep: emit any window that crossed its thresholds
            # in the tail of the run after the last in-band flush.
            self.detector.flush(result.runtime, force=True)
        return self._build_report(result.threads, result.phases,
                                  result.runtime)

    def report_now(self, now: Optional[int] = None) -> CheetahReport:
        """Build a report from the state observed so far, mid-run.

        The paper's Cheetah reports "either at the end of an execution,
        or when interrupted by the user"; this is the interruption path.
        Typically invoked from an engine checkpoint::

            engine.add_checkpoint(500_000,
                                  lambda eng, t: print(
                                      profiler.report_now(t).render()))
        """
        if self._engine is None or self.detector is None:
            raise ProfilerError("profiler was never attached to an engine")
        engine = self._engine
        if now is None:
            now = max((t.clock for t in engine.threads.values()), default=0)
        phases = engine.phase_tracker.snapshot(now)
        return self._build_report(engine.threads, phases, now,
                                  clock_floor=now)

    def _build_report(self, threads, phases, runtime: int,
                      clock_floor: Optional[int] = None) -> CheetahReport:
        engine = self._engine
        observations = {}
        for tid, thread in threads.items():
            if thread.end_clock is not None:
                rt = thread.runtime
            else:
                # Live thread at interruption time: runtime so far.
                end = clock_floor if clock_floor is not None else thread.clock
                rt = max(0, min(end, thread.clock) - thread.start_clock)
            overhead = 0
            if engine.pmu is not None:
                overhead = engine.pmu.overhead_by_tid.get(tid, 0)
            observations[tid] = ThreadObservation(
                tid=tid,
                runtime=rt,
                accesses=self._thread_accesses.get(tid, 0),
                cycles=self._thread_cycles.get(tid, 0),
                barrier_waits=getattr(thread, "barrier_waits", 0),
                profiler_overhead=overhead,
            )
        sampling_period = None
        if engine.pmu is not None:
            sampling_period = self._effective_period(engine.pmu, threads)
        return build_report(
            self.detector.build_objects(engine.allocator, engine.symbols),
            observations, phases,
            serial_average(self._serial_latencies, self.config.assessment),
            self.config, sampling_period=sampling_period, runtime=runtime,
            serial_samples=len(self._serial_latencies),
            total_samples=self._total_samples)

    @staticmethod
    def _effective_period(pmu, threads) -> float:
        """Scale factor from sampled volumes to real volumes.

        A fixed-period run uses the configured period (matching the
        paper's assessment, which multiplies sampled counts by the
        period). Once the adaptive controller has retuned the live
        period or the rotation schedule has discarded deliveries, the
        configured value no longer describes the run; the observed rate
        does: fires land once per ``total_instructions /
        samples_fired`` instructions, and of the fires on memory
        accesses only ``memory_samples`` out of ``memory_samples +
        rotation_skipped`` were delivered.
        """
        if not (getattr(pmu, "period_changes", 0)
                or getattr(pmu, "rotation_skipped", 0)):
            return float(pmu.config.period)
        total_instructions = sum(
            getattr(t, "instructions", 0) for t in threads.values())
        if not (total_instructions and pmu.samples_fired
                and pmu.memory_samples):
            return float(pmu.config.period)
        memory_fires = pmu.memory_samples + pmu.rotation_skipped
        return (total_instructions / pmu.samples_fired
                * memory_fires / pmu.memory_samples)

    # -- introspection helpers (used by tests) ------------------------------------

    _SERIAL_CAP = 100_000

    @property
    def serial_samples(self) -> int:
        return len(self._serial_latencies)

    @property
    def total_samples(self) -> int:
        return self._total_samples

    @property
    def filtered_samples(self) -> int:
        return self._filtered_samples
