"""MESI-style cache-coherence directory.

This is the ground truth the whole reproduction rests on: false sharing is,
by definition, coherence traffic between cores that access disjoint words
of one line. The directory tracks, for every cache line ever touched,
which cores hold a copy and whether one of them holds it dirty, and it
classifies each access into one of the outcomes priced by
:class:`repro.sim.params.LatencyModel`.

Capacity is infinite by default (matching the paper's Assumption 2 for the
*detector*; for the *machine* it simply means we model coherence and cold
misses, not capacity misses). A finite-capacity per-core LRU mode is
available for sensitivity studies.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set

from repro.errors import ConfigError

# Access outcome tags, consumed by Machine to price latency.
HIT = "hit"
SHARED_CLEAN = "shared_clean"
COHERENCE_READ = "coherence_read"
COHERENCE_WRITE = "coherence_write"
UPGRADE = "upgrade"
COLD = "cold"


class LineState:
    """Directory state for one cache line.

    ``holders`` is the set of cores with a valid copy; ``dirty_owner`` is
    the single core holding the line modified, if any (when set, it is the
    only holder). ``ever_cached`` records whether the line has been fetched
    before, so a re-fetch after invalidation is priced as a shared-level
    fetch rather than a cold miss.

    A ``__slots__`` class rather than a dataclass: the engine's fused
    burst loop probes ``dirty_owner`` / ``holders`` on every simulated
    access, and slot access avoids the per-instance ``__dict__``. One
    instance per line is created on first touch and then only mutated in
    place — never replaced in the directory's line table (the fused loop
    relies on this to probe once per address).
    """

    __slots__ = ("holders", "dirty_owner", "ever_cached", "invalidations")

    def __init__(self, holders: Optional[Set[int]] = None,
                 dirty_owner: Optional[int] = None,
                 ever_cached: bool = False, invalidations: int = 0):
        self.holders = set() if holders is None else holders
        self.dirty_owner = dirty_owner
        self.ever_cached = ever_cached
        self.invalidations = invalidations

    def __repr__(self) -> str:
        return (f"LineState(holders={self.holders!r}, "
                f"dirty_owner={self.dirty_owner!r}, "
                f"ever_cached={self.ever_cached!r}, "
                f"invalidations={self.invalidations!r})")


class CoherenceDirectory:
    """Tracks MESI-like per-line sharing state across all cores.

    The directory exposes one operation, :meth:`access`, which mutates the
    sharing state and returns the outcome tag. It also counts ground-truth
    invalidation events per line (one event per write that removes the line
    from at least one other core's cache), which the test-suite and the
    Predator baseline use to validate Cheetah's sampled estimates.
    """

    def __init__(self, line_shift: int, capacity_lines: Optional[int] = None):
        """Create a directory for ``2**line_shift``-byte lines.

        Args:
            line_shift: log2 of the cache-line size.
            capacity_lines: if given, each core's private cache holds at
                most this many lines with LRU replacement; ``None`` means
                infinite private caches.
        """
        if not isinstance(line_shift, int) or line_shift < 0:
            raise ConfigError(
                f"line_shift must be a non-negative int, got {line_shift!r}"
            )
        if capacity_lines is not None and capacity_lines < 1:
            raise ConfigError(
                f"capacity_lines must be >= 1, got {capacity_lines}"
            )
        self._line_shift = line_shift
        self._lines: Dict[int, LineState] = {}
        self._capacity = capacity_lines
        # Per-core LRU of resident lines; only maintained in finite mode.
        self._resident: Dict[int, OrderedDict] = {}
        # line -> core for lines held exclusive-modified by one core. This
        # mirrors ``dirty_owner`` and exists so Machine's hot path can
        # answer "is this a private hit?" with one dict probe instead of
        # full MESI dispatch: when the accessing core is the dirty owner,
        # both reads and writes are HITs with no state transition.
        self._exclusive: Dict[int, int] = {}

    @classmethod
    def for_line_size(cls, line_size: int,
                      capacity_lines: Optional[int] = None
                      ) -> "CoherenceDirectory":
        """Create a directory for ``line_size``-byte lines.

        Validates that ``line_size`` is a power of two: the
        ``bit_length() - 1`` shift silently mis-maps addresses otherwise.
        """
        if line_size <= 0 or line_size & (line_size - 1):
            raise ConfigError(
                f"line_size must be a power of two, got {line_size}"
            )
        return cls(line_size.bit_length() - 1, capacity_lines=capacity_lines)

    @property
    def line_shift(self) -> int:
        return self._line_shift

    def exclusive_owner(self, line: int) -> Optional[int]:
        """Core holding ``line`` exclusive-modified, if any."""
        return self._exclusive.get(line)

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def state_of(self, line: int) -> Optional[LineState]:
        """Directory entry for ``line``, or None if never accessed."""
        return self._lines.get(line)

    def invalidations_of(self, line: int) -> int:
        """Ground-truth invalidation count for ``line``."""
        state = self._lines.get(line)
        return state.invalidations if state else 0

    def total_invalidations(self) -> int:
        """Sum of ground-truth invalidations over every line."""
        return sum(s.invalidations for s in self._lines.values())

    def lines_with_invalidations(self, minimum: int = 1) -> Dict[int, int]:
        """Map of line -> invalidation count for lines at or above ``minimum``."""
        return {
            line: s.invalidations
            for line, s in self._lines.items()
            if s.invalidations >= minimum
        }

    def access(self, core: int, addr: int, is_write: bool) -> str:
        """Perform one access and return its outcome tag.

        The outcome describes what the access cost: a private hit, a fetch
        from the shared level, a coherence transfer, an ownership upgrade,
        or a cold miss. The read and write transition tables are merged
        into this one body: it sits on the machine's slow path and is
        called once per non-private access, so the two extra method calls
        a ``_read``/``_write`` split costs are measurable.
        """
        line = addr >> self._line_shift
        state = self._lines.get(line)
        if state is None:
            state = LineState()
            self._lines[line] = state
        holders = state.holders

        if is_write:
            if state.dirty_owner == core:
                # Already exclusive-modified here: pure private hit.
                outcome = HIT
            elif not holders:
                state.holders = {core}
                state.dirty_owner = core
                self._exclusive[line] = core
                outcome = SHARED_CLEAN if state.ever_cached else COLD
            elif holders == {core}:
                # Exclusive but clean: silent upgrade, still a private hit.
                state.dirty_owner = core
                self._exclusive[line] = core
                outcome = HIT
            else:
                # Other cores hold the line: invalidate their copies.
                state.invalidations += 1
                had_copy = core in holders
                if self._capacity is not None:
                    for other in holders:
                        if other != core:
                            self._evict_resident(other, line)
                state.holders = {core}
                state.dirty_owner = core
                self._exclusive[line] = core
                outcome = UPGRADE if had_copy else COHERENCE_WRITE
        else:
            if core in holders:
                outcome = HIT
            elif state.dirty_owner is not None:
                # Another core holds the line modified: forward + downgrade.
                state.dirty_owner = None
                del self._exclusive[line]
                holders.add(core)
                outcome = COHERENCE_READ
            else:
                holders.add(core)
                outcome = SHARED_CLEAN if state.ever_cached else COLD

        state.ever_cached = True
        if self._capacity is not None:
            self._touch_resident(core, line)
        return outcome

    # -- finite-capacity support -------------------------------------------

    def _touch_resident(self, core: int, line: int) -> None:
        lru = self._resident.setdefault(core, OrderedDict())
        lru.pop(line, None)
        lru[line] = True
        if len(lru) > self._capacity:
            victim, _ = lru.popitem(last=False)
            self._drop(core, victim)

    def _evict_resident(self, core: int, line: int) -> None:
        lru = self._resident.get(core)
        if lru is not None:
            lru.pop(line, None)

    def _drop(self, core: int, line: int) -> None:
        state = self._lines.get(line)
        if state is None:
            return
        state.holders.discard(core)
        if state.dirty_owner == core:
            state.dirty_owner = None
            self._exclusive.pop(line, None)
