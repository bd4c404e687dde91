"""Replaying traces into detectors (offline, DARWIN-style analysis).

Two layers:

- :func:`replay_into_detector` feeds raw records into any detector —
  the primitive the prediction layer and A/B comparisons build on;
- :func:`replay_outcome` is the full pipeline behind ``repro replay``:
  it routes a stored v2 trace through a fresh coherence machine (for
  ground-truth invalidations under the recorded machine config) *and*
  the detector (attributing findings to the recorded allocation map /
  global symbols), optionally PMU-style downsampled, and returns a
  cacheable :class:`~repro.run.RunOutcome` whose metadata carries the
  three-way workload verdict.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.detection import DetectorConfig, FalseSharingDetector
from repro.errors import ConfigError
from repro.heap.allocator import AllocationInfo
from repro.pmu.sample import MemorySample
from repro.symbols.table import GlobalSymbol
from repro.trace.recorder import TraceRecord


def downsample(records: Iterable[TraceRecord], period: int,
               jitter: float = 0.25, seed: int = 1,
               ) -> Iterator[TraceRecord]:
    """Keep roughly one of every ``period`` records, PMU-style.

    Downsampling a full trace reproduces what the online PMU would have
    delivered — useful for studying sampling effects offline on a single
    recorded run instead of re-simulating.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    rng = random.Random(seed)
    spread = int(period * jitter)
    countdown = period + (rng.randint(-spread, spread) if spread else 0)
    for record in records:
        countdown -= 1
        if countdown <= 0:
            countdown = period + (rng.randint(-spread, spread)
                                  if spread else 0)
            yield record


def replay_into_detector(records: Iterable[TraceRecord],
                         detector: FalseSharingDetector,
                         in_parallel: bool = True,
                         serial_tids: Optional[set] = None) -> int:
    """Feed trace records into a detector as if they were PMU samples.

    ``serial_tids``: tids whose accesses are treated as serial-phase
    (word detail gated), typically ``{0}`` for the main thread when the
    trace covers the whole run.

    Returns the number of records replayed.
    """
    count = 0
    for r in records:
        sample = MemorySample(tid=r.tid, core=r.core, addr=r.addr,
                              is_write=r.is_write, latency=r.latency,
                              size=r.size, timestamp=r.index)
        parallel = in_parallel
        if serial_tids is not None and r.tid in serial_tids:
            parallel = False
        detector.on_sample(sample, parallel)
        count += 1
    return count


class _StaticRegions:
    """Address lookup over a frozen, sorted list of regions.

    Duck-types the subset of :class:`~repro.heap.allocator.CheetahAllocator`
    / :class:`~repro.symbols.table.SymbolTable` the detector's
    ``build_objects`` consumes (``contains``/``find``), backed by the
    region list a v2 trace's meta snapshotted at record time.
    """

    def __init__(self, regions: Sequence) -> None:
        self._regions = sorted(regions, key=lambda r: r.addr)
        self._starts = [r.addr for r in self._regions]

    def find(self, addr: int):
        index = bisect.bisect_right(self._starts, addr) - 1
        if index >= 0 and self._regions[index].contains(addr):
            return self._regions[index]
        return None

    def contains(self, addr: int) -> bool:
        return self.find(addr) is not None


def _regions_from_meta(meta: Dict[str, Any]):
    """(allocator-like, symbols-like) adapters from a v2 trace meta."""
    allocations = [
        AllocationInfo(addr=a[1], size=a[2], requested_size=a[3],
                       tid=a[4], callsite=a[5], serial=a[0])
        for a in meta.get("allocations", ())
    ]
    symbols = [GlobalSymbol(name=s[0], addr=s[1], size=s[2])
               for s in meta.get("globals", ())]
    return _StaticRegions(allocations), _StaticRegions(symbols)


def replay_outcome(records: Iterable[TraceRecord],
                   meta: Optional[Dict[str, Any]] = None, *,
                   period: Optional[int] = None,
                   seed: int = 1,
                   detector_config: Optional[DetectorConfig] = None,
                   true_sharing_fraction: Optional[float] = None):
    """Replay a recorded access stream through machine + detector.

    ``meta`` is the trace's ``#meta`` dict (see
    :func:`repro.trace.storage.load_trace_meta`); it supplies the
    machine config to re-drive coherence under and the allocation map /
    global symbols findings are attributed to. Without it the machine
    runs the default config and findings fall back to unattributed
    regions.

    ``period`` optionally downsamples the stream PMU-style before it
    reaches the detector (the machine always sees every record), so
    sampling effects can be studied offline on one recording.

    Returns a :class:`~repro.run.RunOutcome` whose
    ``result.metadata`` carries ``replay: True``, the three-way
    ``verdict`` and the per-object classifications.
    """
    from repro.run import RunOutcome, RunSummary, ThreadSummary
    from repro.sim.machine import Machine
    from repro.sim.params import MachineConfig
    from repro.trace.record import sharing_verdict

    meta = meta or {}
    machine_cfg = (MachineConfig.from_dict(meta["machine"])
                   if meta.get("machine") else MachineConfig())
    machine = Machine(machine_cfg,
                      jitter_seed=int(meta.get("jitter_seed", 0xC0FFEE)))
    detector = FalseSharingDetector(
        detector_config,
        line_size=machine_cfg.cache_line_size,
        word_size=machine_cfg.word_size)
    fraction = (true_sharing_fraction if true_sharing_fraction is not None
                else detector.config.true_sharing_fraction)

    if period is not None and period < 1:
        raise ConfigError(f"replay period must be >= 1, got {period}")

    threads: Dict[int, ThreadSummary] = {}

    def machine_path() -> Iterator[TraceRecord]:
        """Ground-truth coherence under the recorded config: every
        record passes through the machine on its way to the detector."""
        for r in records:
            machine.access_tuple(r.core, r.addr, r.is_write, r.index)
            summary = threads.get(r.tid)
            if summary is None:
                summary = ThreadSummary(
                    tid=r.tid, name=f"tid{r.tid}", core=r.core,
                    start_clock=0, end_clock=None, instructions=0,
                    mem_accesses=0, mem_cycles=0, barrier_waits=0)
                threads[r.tid] = summary
            summary.mem_accesses += 1
            summary.mem_cycles += r.latency
            summary.instructions += 1
            yield r

    stream = machine_path()
    if period is not None:
        stream = downsample(stream, period, seed=seed)
    replayed = replay_into_detector(stream, detector, serial_tids={0})
    count = sum(summary.mem_accesses for summary in threads.values())

    allocator, symbols = _regions_from_meta(meta)
    objects: List[Dict[str, Any]] = []
    for profile in detector.build_objects(allocator, symbols):
        kind = profile.classify(fraction)
        objects.append({
            "label": profile.label,
            "kind": kind.value,
            "object_kind": profile.kind,
            "start": profile.start,
            "size": profile.size,
            "invalidations": profile.invalidations,
            "accesses": profile.accesses,
            "writes": profile.writes,
        })
    objects.sort(key=lambda o: o["invalidations"], reverse=True)

    metadata: Dict[str, Any] = {
        "replay": True,
        "verdict": sharing_verdict(o["kind"] for o in objects),
        "objects": objects,
        "trace_records": count,
        "replayed_samples": replayed,
        "period": period,
        "machine_invalidations":
            machine.directory.total_invalidations(),
        "machine_cycles": machine.total_cycles,
    }
    for key in ("workload", "live_verdict", "truncated"):
        if key in meta:
            metadata[key] = meta[key]
    result = RunSummary(
        runtime=int(meta.get("runtime", machine.total_cycles)),
        steps=count,
        invalidations=machine.directory.total_invalidations(),
        threads=threads,
        metadata=metadata,
    )
    return RunOutcome(result=result, fresh=True)
