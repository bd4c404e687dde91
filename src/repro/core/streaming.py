"""Online windowed false-sharing detection (ROADMAP item 4).

The offline :class:`~repro.core.detection.FalseSharingDetector` consumes
a whole run's samples and only speaks at report time. The
:class:`StreamingDetector` here keeps the exact same word-attribution
machinery (it *is* a ``FalseSharingDetector`` — every sample still feeds
the superclass, so report-time verdicts are identical to the offline
path) and adds a windowed per-line table in the style of MicroSentinel's
``fs_detector.cpp``:

- each sampled line gets a window entry counting hits, writes and
  per-thread breakdowns since the window opened;
- entries idle for longer than ``window`` cycles expire (swept every
  ``flush_interval`` cycles of sample time);
- when an entry crosses the hit/write thresholds *and* survives the
  active-thread and writer-dominance filters, an incremental
  :class:`StreamingFinding` is emitted immediately — mid-run — through
  the observability hooks (a tracer instant event plus a
  ``streaming_findings_total`` counter), and recorded on
  ``detector.findings``.

The filters mirror the reference implementation: a line needs at least
``min_active_threads`` distinct sampled threads in the window (one
thread touching a line is private traffic, not sharing), and no single
thread may account for ``max_dominance`` or more of the window's sampled
writes (a line written almost exclusively by one thread — e.g. main
during initialisation — is not contended even if others read it once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import ConfigBase
from repro.context import current
from repro.core.detection import DetectorConfig, FalseSharingDetector
from repro.errors import ConfigError
from repro.pmu.sample import MemorySample


@dataclass(frozen=True)
class StreamingConfig(ConfigBase):
    """Windowed-detector policy knobs.

    Attributes:
        window: cycles a line's window entry survives without a new
            sample before it expires (and the line may re-fire later).
        flush_interval: cycles of sample time between expiry sweeps.
        min_hits: sampled accesses a window needs before it can emit.
        min_writes: sampled writes a window needs before it can emit.
        min_active_threads: distinct sampled threads required in the
            window (``>=``).
        max_dominance: emission requires the busiest writer's share of
            the window's sampled writes to be strictly below this.
        max_lines: hard cap on concurrently-tracked window entries; at
            the cap the least-recently-seen entry is evicted.
        max_findings: findings recorded per run before further emissions
            are suppressed (counted in ``findings_suppressed``).
    """

    window: int = 60_000
    flush_interval: int = 5_000
    min_hits: int = 8
    min_writes: int = 3
    min_active_threads: int = 2
    max_dominance: float = 0.95
    max_lines: int = 65_536
    max_findings: int = 10_000

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.flush_interval < 1:
            raise ConfigError("flush_interval must be >= 1")
        if self.min_hits < 1:
            raise ConfigError("min_hits must be >= 1")
        if self.min_writes < 1:
            raise ConfigError("min_writes must be >= 1")
        if self.min_active_threads < 1:
            raise ConfigError("min_active_threads must be >= 1")
        if not 0.0 < self.max_dominance <= 1.0:
            raise ConfigError("max_dominance must be in (0, 1]")
        if self.max_lines < 1:
            raise ConfigError("max_lines must be >= 1")
        if self.max_findings < 1:
            raise ConfigError("max_findings must be >= 1")


@dataclass(frozen=True)
class StreamingFinding:
    """One incremental mid-run detection event for a cache line."""

    line: int
    timestamp: int       # sample timestamp at which the window fired
    first_seen: int      # when the current window opened
    hits: int            # sampled accesses in the window so far
    writes: int          # sampled writes in the window so far
    active_threads: int
    dominance: float     # busiest writer's share of sampled writes
    tids: Tuple[int, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "line": self.line,
            "timestamp": self.timestamp,
            "first_seen": self.first_seen,
            "hits": self.hits,
            "writes": self.writes,
            "active_threads": self.active_threads,
            "dominance": self.dominance,
            "tids": list(self.tids),
        }


class _LineWindow:
    """Mutable per-line window entry."""

    __slots__ = ("first_seen", "last_seen", "hits", "writes",
                 "tid_hits", "writer_hits", "emitted")

    def __init__(self, now: int) -> None:
        self.first_seen = now
        self.last_seen = now
        self.hits = 0
        self.writes = 0
        self.tid_hits: Dict[int, int] = {}
        self.writer_hits: Dict[int, int] = {}
        self.emitted = False


class StreamingDetector(FalseSharingDetector):
    """Windowed online detector over the offline word-attribution core.

    Every sample is forwarded to the superclass first, so
    ``build_objects`` / report verdicts are exactly those of the offline
    detector; the windowed table is purely additive.
    """

    def __init__(self, config: Optional[DetectorConfig] = None,
                 streaming: Optional[StreamingConfig] = None,
                 line_size: int = 64, word_size: int = 4):
        super().__init__(config, line_size, word_size)
        self.streaming = streaming or StreamingConfig()
        self._window: Dict[int, _LineWindow] = {}
        self._last_flush = 0
        self.findings: List[StreamingFinding] = []
        self.findings_suppressed = 0
        self.windows_expired = 0

    # -- online path ---------------------------------------------------------

    def on_sample(self, sample: MemorySample, in_parallel_phase: bool) -> None:
        super().on_sample(sample, in_parallel_phase)
        now = sample.timestamp
        line = sample.addr >> self._line_shift
        entry = self._window.get(line)
        if entry is not None and now - entry.last_seen > self.streaming.window:
            # The line went idle past the window and is now hot again:
            # a flush only sweeps between samples, so expiry must also
            # be checked on access or a once-emitted line could never
            # re-fire.
            self.windows_expired += 1
            entry = None
        if entry is None:
            if len(self._window) >= self.streaming.max_lines:
                oldest = min(self._window,
                             key=lambda ln: self._window[ln].last_seen)
                del self._window[oldest]
                self.windows_expired += 1
            entry = self._window[line] = _LineWindow(now)
        entry.last_seen = now
        entry.hits += 1
        tid = sample.tid
        entry.tid_hits[tid] = entry.tid_hits.get(tid, 0) + 1
        if sample.is_write:
            entry.writes += 1
            entry.writer_hits[tid] = entry.writer_hits.get(tid, 0) + 1
        if not entry.emitted:
            self._maybe_emit(line, entry, now)
        if now - self._last_flush >= self.streaming.flush_interval:
            self.flush(now)

    def _maybe_emit(self, line: int, entry: _LineWindow, now: int) -> None:
        cfg = self.streaming
        if entry.hits < cfg.min_hits or entry.writes < cfg.min_writes:
            return
        if len(entry.tid_hits) < cfg.min_active_threads:
            return
        dominance = max(entry.writer_hits.values()) / entry.writes
        if dominance >= cfg.max_dominance:
            return
        entry.emitted = True
        if len(self.findings) >= cfg.max_findings:
            self.findings_suppressed += 1
            return
        finding = StreamingFinding(
            line=line, timestamp=now, first_seen=entry.first_seen,
            hits=entry.hits, writes=entry.writes,
            active_threads=len(entry.tid_hits), dominance=dominance,
            tids=tuple(sorted(entry.tid_hits)),
        )
        self.findings.append(finding)
        if self.obs is not None:
            self.obs.on_streaming_finding(finding)
        for listener in current().listeners:
            listener(finding)

    def flush(self, now: int, force: bool = False) -> None:
        """Expire idle window entries; with ``force`` (end of run),
        evaluate every surviving entry one final time."""
        self._last_flush = now
        horizon = now - self.streaming.window
        expired = [line for line, entry in self._window.items()
                   if entry.last_seen < horizon]
        for line in expired:
            del self._window[line]
            self.windows_expired += 1
        if force:
            for line, entry in self._window.items():
                if not entry.emitted:
                    self._maybe_emit(line, entry, now)
