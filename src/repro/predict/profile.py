"""Profile extraction: per-thread, per-line access summaries.

The analytical fast-forward model (:mod:`repro.predict.model`) never
looks at individual accesses — it works from an :class:`AccessProfile`,
a compact summary of *who touched which cache line how*:

- per line: per-thread read/write counts, latency totals, writer
  interleaving (alternation) statistics, and invalidation counts
  (ground truth from the coherence directory when the profile comes
  from a simulated prefix, the two-entry-table estimate when it comes
  from a recorded trace);
- per thread: instruction/access/cycle/runtime totals;
- globally: a log2-bucketed reuse-distance histogram over the global
  interleaving order, and a bounded sample of serial-phase latencies
  (the ``AverCycles_nofs`` estimator input).

Profiles come from two sources, producing the same structure:

- :func:`extract_profile` runs a workload (typically a reduced-scale
  *prefix* clone built via :meth:`~repro.workloads.base.Workload.clone`)
  under a :class:`ProfileCollector` observer;
- :func:`profile_from_trace` replays a :mod:`repro.trace` recording —
  no simulation at all.

Both feed every access into a full-information
:class:`~repro.core.detection.FalseSharingDetector` (sampling period 1),
so the model can later build object-level findings with the exact
grouping/classification machinery the online profiler uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.cacheline import TwoEntryTable
from repro.core.detection import DetectorConfig, FalseSharingDetector
from repro.pmu.sample import MemorySample
from repro.run import ThreadSummary, run_workload
from repro.runtime.phases import MAIN_TID
from repro.sim.engine import Observer
from repro.sim.params import MachineConfig
from repro.trace.recorder import TraceRecord
from repro.workloads.base import Workload

#: Distinct cache lines tracked per profile before new lines stop
#: getting per-line records (totals keep accumulating; ``truncated``
#: reports the overflow). Generous: prefix runs touch a few thousand.
DEFAULT_MAX_LINES = 1 << 16

#: Serial-phase (main-thread) latencies retained for the
#: ``AverCycles_nofs`` estimator.
_SERIAL_LATENCY_CAP = 20_000


@dataclass
class LineProfile:
    """Access summary for one cache line."""

    line: int
    reads: Dict[int, int] = field(default_factory=dict)   # tid -> reads
    writes: Dict[int, int] = field(default_factory=dict)  # tid -> writes
    cycles: int = 0
    #: Ground-truth invalidations (prefix profiles) or the two-entry
    #: table estimate (trace profiles — no directory available).
    invalidations: int = 0
    #: Always the two-entry-table estimate, for cross-checking.
    table_invalidations: int = 0
    #: Writes whose previous writer was a different thread — the
    #: inter-thread interleaving (alternation) statistic.
    writer_switches: int = 0
    _last_writer: Optional[int] = None
    _table: TwoEntryTable = field(default_factory=TwoEntryTable)

    def record(self, tid: int, is_write: bool, latency: int) -> None:
        self.cycles += latency
        if is_write:
            self.writes[tid] = self.writes.get(tid, 0) + 1
            if self._last_writer is not None and self._last_writer != tid:
                self.writer_switches += 1
            self._last_writer = tid
            if self._table.record_write(tid):
                self.table_invalidations += 1
        else:
            self.reads[tid] = self.reads.get(tid, 0) + 1
            self._table.record_read(tid)

    @property
    def read_count(self) -> int:
        return sum(self.reads.values())

    @property
    def write_count(self) -> int:
        return sum(self.writes.values())

    @property
    def accesses(self) -> int:
        return self.read_count + self.write_count

    @property
    def tids(self) -> List[int]:
        return sorted(set(self.reads) | set(self.writes))

    @property
    def writers(self) -> List[int]:
        return sorted(self.writes)

    @property
    def alternation_rate(self) -> float:
        """Fraction of writes preceded by a different thread's write."""
        writes = self.write_count
        return self.writer_switches / writes if writes else 0.0


@dataclass
class AccessProfile:
    """The complete extracted profile; input to the analytical model.

    ``detector``/``allocator``/``symbols``/``phases`` are *attribution
    context*: live objects from the profiled prefix (or a detector built
    from the trace) that let the model group lines into heap/global
    objects exactly like the online profiler. They are deliberately not
    serializable — profiles are an in-process intermediate, not an
    artifact format.
    """

    source: str  # "prefix" | "trace"
    threads: int  # worker thread count profiled
    scale: float
    jitter_seed: int
    runtime: int = 0
    steps: int = 0
    invalidations: int = 0  # total (ground truth or table estimate)
    lines: Dict[int, LineProfile] = field(default_factory=dict)
    thread_stats: Dict[int, ThreadSummary] = field(default_factory=dict)
    reuse_histogram: Dict[int, int] = field(default_factory=dict)
    serial_latencies: List[int] = field(default_factory=list)
    truncated: bool = False
    detector: Optional[FalseSharingDetector] = None
    allocator: object = None
    symbols: object = None
    phases: object = None

    @property
    def total_accesses(self) -> int:
        return sum(t.mem_accesses for t in self.thread_stats.values())

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.thread_stats.values())

    def worker_tids(self) -> List[int]:
        return sorted(t for t in self.thread_stats if t != MAIN_TID)

    def contended_lines(self, minimum: int = 1) -> Dict[int, LineProfile]:
        """Lines with at least ``minimum`` invalidations."""
        return {line: lp for line, lp in self.lines.items()
                if lp.invalidations >= minimum}

    def summary(self) -> Dict[str, object]:
        """Small JSON-able digest (rides in predicted-run metadata)."""
        return {
            "source": self.source,
            "threads": self.threads,
            "scale": self.scale,
            "accesses": self.total_accesses,
            "invalidations": self.invalidations,
            "lines": len(self.lines),
            "contended_lines": len(self.contended_lines()),
            "truncated": self.truncated,
        }


class ProfileCollector(Observer):
    """Engine observer accumulating an :class:`AccessProfile`.

    ``cost_per_access`` is zero: collection must not perturb the timing
    of the profiled prefix. Accesses by the main thread are treated as
    serial-phase (the same convention as
    :func:`repro.trace.replay.replay_into_detector` with
    ``serial_tids={0}``), which keeps prefix- and trace-sourced profiles
    byte-comparable.
    """

    cost_per_access = 0

    def __init__(self, line_size: int = 64, word_size: int = 4,
                 detector_config: Optional[DetectorConfig] = None,
                 max_lines: int = DEFAULT_MAX_LINES):
        self.detector = FalseSharingDetector(
            detector_config or DetectorConfig(),
            line_size=line_size, word_size=word_size)
        self.max_lines = max_lines
        self.lines: Dict[int, LineProfile] = {}
        self.reuse_histogram: Dict[int, int] = {}
        self.serial_latencies: List[int] = []
        self.truncated = False
        self._last_touch: Dict[int, int] = {}
        self._counter = 0

    def on_access(self, tid: int, core: int, addr: int, is_write: bool,
                  latency: int, size: int, line: int) -> None:
        counter = self._counter
        self._counter += 1
        in_parallel = tid != MAIN_TID
        self.detector.on_sample(
            MemorySample(tid=tid, core=core, addr=addr, is_write=is_write,
                         latency=latency, size=size, timestamp=counter),
            in_parallel)
        last = self._last_touch.get(line)
        if last is not None:
            bucket = (counter - last).bit_length()
            self.reuse_histogram[bucket] = (
                self.reuse_histogram.get(bucket, 0) + 1)
        self._last_touch[line] = counter
        profile = self.lines.get(line)
        if profile is None:
            if len(self.lines) >= self.max_lines:
                self.truncated = True
            else:
                profile = LineProfile(line=line)
                self.lines[line] = profile
        if profile is not None:
            profile.record(tid, is_write, latency)
        if (not in_parallel
                and len(self.serial_latencies) < _SERIAL_LATENCY_CAP):
            self.serial_latencies.append(latency)

    @property
    def accesses_seen(self) -> int:
        return self._counter


def extract_profile(workload: Workload, *,
                    machine_config: Optional[MachineConfig] = None,
                    jitter_seed: int = 0xC0FFEE,
                    detector_config: Optional[DetectorConfig] = None,
                    max_lines: int = DEFAULT_MAX_LINES) -> AccessProfile:
    """Simulate ``workload`` under a collector; return its profile.

    The workload is typically a reduced-scale prefix built with
    :meth:`Workload.clone`. The run always executes in ``simulate``
    mode regardless of ``machine_config.mode`` (profile extraction *is*
    the simulation step of prediction). Per-line invalidation counts are
    ground truth, read off the coherence directory after the run.
    """
    config = machine_config or MachineConfig()
    if config.mode != "simulate":
        config = config.replace(mode="simulate")
    collector = ProfileCollector(
        line_size=config.cache_line_size, word_size=config.word_size,
        detector_config=detector_config, max_lines=max_lines)
    outcome = run_workload(workload, machine_config=config,
                           jitter_seed=jitter_seed, observer=collector)
    result = outcome.result
    directory = result.machine.directory
    profile = AccessProfile(
        source="prefix",
        threads=workload.num_threads,
        scale=workload.scale,
        jitter_seed=jitter_seed,
        runtime=result.runtime,
        steps=result.steps,
        invalidations=directory.total_invalidations(),
        lines=collector.lines,
        reuse_histogram=collector.reuse_histogram,
        serial_latencies=collector.serial_latencies,
        truncated=collector.truncated,
        detector=collector.detector,
        allocator=result.allocator,
        symbols=result.symbols,
        phases=result.phases,
    )
    for line, line_profile in profile.lines.items():
        line_profile.invalidations = directory.invalidations_of(line)
    for tid, thread in result.threads.items():
        profile.thread_stats[tid] = ThreadSummary.from_thread(thread)
    return profile


def profile_from_trace(records: Iterable[TraceRecord], *,
                       threads: Optional[int] = None,
                       scale: float = 1.0,
                       line_size: int = 64, word_size: int = 4,
                       detector_config: Optional[DetectorConfig] = None,
                       max_lines: int = DEFAULT_MAX_LINES) -> AccessProfile:
    """Build a profile from a recorded trace (no simulation).

    The records come from a :class:`~repro.trace.recorder.TraceRecorder`
    (live or reloaded via :func:`repro.trace.storage.load_trace`).
    Without a coherence directory, per-line ``invalidations`` carry the
    two-entry-table estimate; without thread clocks, per-thread
    ``instructions`` and ``runtime`` are access-count and cycle-sum
    proxies. ``threads`` defaults to the number of distinct non-main
    tids in the trace; ``scale`` should state the recorded run's scale
    so extrapolation targets are meaningful.
    """
    line_shift = line_size.bit_length() - 1
    collector = ProfileCollector(
        line_size=line_size, word_size=word_size,
        detector_config=detector_config, max_lines=max_lines)
    tid_acc: Dict[int, int] = {}
    tid_cyc: Dict[int, int] = {}
    tid_core: Dict[int, int] = {}
    for r in records:
        collector.on_access(r.tid, r.core, r.addr, r.is_write, r.latency,
                            r.size, r.addr >> line_shift)
        tid_acc[r.tid] = tid_acc.get(r.tid, 0) + 1
        tid_cyc[r.tid] = tid_cyc.get(r.tid, 0) + r.latency
        tid_core[r.tid] = r.core
    profile = AccessProfile(
        source="trace",
        threads=(threads if threads is not None
                 else max(0, len(set(tid_acc) - {MAIN_TID}))),
        scale=scale,
        jitter_seed=0,
        lines=collector.lines,
        reuse_histogram=collector.reuse_histogram,
        serial_latencies=collector.serial_latencies,
        truncated=collector.truncated,
        detector=collector.detector,
    )
    for line_profile in profile.lines.values():
        line_profile.invalidations = line_profile.table_invalidations
    profile.invalidations = sum(
        lp.invalidations for lp in profile.lines.values())
    worker_cycles = [c for tid, c in tid_cyc.items() if tid != MAIN_TID]
    profile.runtime = (tid_cyc.get(MAIN_TID, 0)
                       + (max(worker_cycles) if worker_cycles else 0))
    profile.steps = sum(tid_acc.values())
    for tid in sorted(tid_acc):
        profile.thread_stats[tid] = ThreadSummary(
            tid=tid,
            name="main" if tid == MAIN_TID else f"t{tid}",
            core=tid_core.get(tid, 0),
            start_clock=0,
            end_clock=tid_cyc[tid],
            instructions=tid_acc[tid],
            mem_accesses=tid_acc[tid],
            mem_cycles=tid_cyc[tid],
            barrier_waits=0,
        )
    return profile
