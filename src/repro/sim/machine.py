"""The machine facade: maps accesses to latencies via the coherence model.

A :class:`Machine` owns the coherence directory and the latency model and
is the single point through which every simulated memory access flows. It
returns an :class:`AccessOutcome` carrying the latency in cycles, which the
engine charges to the accessing thread's clock — and which the simulated
PMU later reports as the sample latency, exactly the signal Cheetah's
assessment model consumes (Observation 2 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim import coherence
from repro.sim.coherence import CoherenceDirectory
from repro.sim.params import MachineConfig


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one memory access."""

    latency: int
    kind: str
    line: int

    @property
    def is_coherence_miss(self) -> bool:
        """True when the access paid a cross-core coherence penalty."""
        return self.kind in (
            coherence.COHERENCE_READ,
            coherence.COHERENCE_WRITE,
            coherence.UPGRADE,
        )


PREFETCHED = "prefetched"

# Outcomes a stride prefetcher can hide: plain data fetches. Coherence
# transfers (the false-sharing penalty) are never prefetchable — an
# invalidated line must be re-fetched on demand.
_PREFETCHABLE = (coherence.COLD, coherence.SHARED_CLEAN)

_COHERENCE_KINDS = (
    coherence.COHERENCE_READ,
    coherence.COHERENCE_WRITE,
    coherence.UPGRADE,
)

# Per-core window of recently fetched lines the prefetcher matches against.
_PREFETCH_WINDOW = 8


class Machine:
    """Simulated multicore machine: cores + coherent private caches.

    The machine is intentionally timing-only: no byte contents are stored,
    because false-sharing behaviour depends solely on *which* addresses are
    touched, by whom, and in what order.

    A simple per-core stride prefetcher is modelled: a cold or shared
    fetch whose predecessor line was recently touched by the same core is
    charged the (cheap) ``prefetched`` latency. This mirrors real
    hardware, where sequential input-reading phases run at near-hit
    latency — important for Cheetah's assessment, which approximates the
    no-false-sharing latency with the serial-phase average.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 capacity_lines: Optional[int] = None,
                 prefetcher: bool = True,
                 timing_jitter: int = 2,
                 jitter_seed: int = 0xC0FFEE,
                 transfer_window: int = 0,
                 check: bool = False):
        self.config = config or MachineConfig()
        self.directory = CoherenceDirectory(
            self.config.line_shift, capacity_lines=capacity_lines
        )
        lat = self.config.latency
        self._costs: Dict[str, int] = {
            coherence.HIT: lat.l1_hit,
            coherence.SHARED_CLEAN: lat.shared_clean,
            coherence.COHERENCE_READ: lat.coherence_read,
            coherence.COHERENCE_WRITE: lat.coherence_write,
            coherence.UPGRADE: lat.upgrade,
            coherence.COLD: lat.cold,
            PREFETCHED: lat.prefetched,
        }
        # Hot-path caches: every simulated access reads these, so keep
        # them as plain ints / bound dicts rather than property and dict
        # lookups. ``_exclusive`` aliases the directory's dirty-owner map;
        # when the accessing core owns the line exclusive-modified, the
        # access is a private HIT with no state transition, which is the
        # overwhelmingly common case in false-sharing workloads.
        self._line_shift = self.config.line_shift
        self._hit_cost = lat.l1_hit
        self._exclusive = self.directory._exclusive
        self._dirlines = self.directory._lines
        # The private-HIT fast path must not bypass LRU bookkeeping, so
        # it is only valid with infinite private caches (the default).
        self._fast_private = capacity_lines is None
        self._prefetcher = prefetcher
        self._recent_lines: Dict[int, Dict[int, None]] = {}
        # Per-access timing noise (queueing, DRAM refresh, OoO windows):
        # a cheap xorshift stream adding 0..timing_jitter cycles. Without
        # it, identical threads stay in deterministic lockstep and either
        # resonate into conflict-on-every-access or drift into artificial
        # silence — neither happens on real machines.
        self._jitter = timing_jitter
        self._jitter_state = jitter_seed or 1
        # Coherence transfers serialize at the directory: after a line
        # moves to a new owner, contending requests from other cores queue
        # until the in-flight transfer (plus a short ownership window)
        # completes. Without this, two threads hammering one line
        # alternate per *access* instead of per *burst* — a lockstep
        # artifact real machines do not exhibit.
        self._transfer_window = transfer_window
        self._pin_until: Dict[int, int] = {}
        # NUMA asymmetric latency: with >1 node and a nonzero penalty,
        # cold/shared fetches from a remote home node and coherence
        # transfers sourced from a remote core cost extra. ``_numa`` is
        # False on the default single-node config, and every NUMA branch
        # below is guarded on it, so the default path is bit-identical
        # to pre-NUMA builds.
        cfg = self.config
        self._numa_nodes = cfg.numa_nodes
        self._remote_fetch = cfg.remote_fetch_penalty
        self._remote_transfer = cfg.remote_transfer_penalty
        self._numa = cfg.numa_nodes > 1 and (
            cfg.remote_fetch_penalty > 0 or cfg.remote_transfer_penalty > 0)
        self.numa_penalty_cycles = 0
        # Everything the engine's fused burst loop needs that never
        # changes after construction, bundled so the loop's per-call
        # setup is one attribute load and a tuple unpack.
        self._fast_state = (self._dirlines.get, self._line_shift,
                            self._hit_cost, self._jitter)
        self.total_accesses = 0
        self.total_cycles = 0
        self.prefetch_hits = 0
        self.stall_cycles = 0
        # Observability (repro.obs): when per-access instrumentation is
        # enabled, Observability._attach_machine sets this and rebinds
        # ``access_tuple`` on the instance to a counting/tracing wrapper
        # (composing with the sanitizer's rebinding below, if any). The
        # engine routes bursts through its general loop whenever it is
        # set; with observability off this stays None and costs nothing.
        self.obs = None
        # Sanitizer mode (``check=True``): every access is shadowed
        # against the reference MESI oracle in repro.sim.check. The
        # checked entry point is installed as an *instance* attribute so
        # the default path pays nothing; the engine additionally routes
        # bursts through its general (per-access) loop when a sanitizer
        # is present, so the fused kernel cannot bypass the shadowing.
        self.sanitizer = None
        if check:
            from repro.sim.check.sanitizer import CoherenceSanitizer
            self.sanitizer = CoherenceSanitizer(self)
            self.access_tuple = self.sanitizer.checked_access_tuple

    def access(self, core: int, addr: int, is_write: bool,
               now: int = 0) -> AccessOutcome:
        """Perform one access by ``core`` at time ``now``; returns outcome.

        ``now`` (the accessing thread's clock) only matters for contended
        lines: a coherence transfer that races an in-flight transfer of
        the same line stalls until the earlier one completes.

        Compatibility shim over :meth:`access_tuple`: the engine's hot
        path uses the tuple form directly to avoid allocating an
        :class:`AccessOutcome` per access.
        """
        latency, kind, line = self.access_tuple(core, addr, is_write, now)
        return AccessOutcome(latency=latency, kind=kind, line=line)

    def access_tuple(self, core: int, addr: int, is_write: bool,
                     now: int = 0):
        """Hot-path form of :meth:`access`: ``(latency, kind, line)``.

        Identical semantics and identical consumption of the jitter
        stream; the private-HIT fast path short-circuits full MESI
        dispatch when the access hits the core's own copy — a write to a
        line it holds exclusive-modified, or a read of any line it holds
        (no state transition, no prefetcher or pin-table interaction —
        exactly what the general path would do, since HIT is neither
        prefetchable nor a coherence kind).
        """
        line = addr >> self._line_shift
        if self._fast_private:
            state = self._dirlines.get(line)
            if state is not None and (
                    state.dirty_owner == core if is_write
                    else core in state.holders):
                latency = self._hit_cost
                if self._jitter:
                    jstate = self._jitter_state
                    jstate ^= (jstate << 13) & 0xFFFFFFFFFFFFFFFF
                    jstate ^= jstate >> 7
                    jstate ^= (jstate << 17) & 0xFFFFFFFFFFFFFFFF
                    self._jitter_state = jstate
                    latency += jstate % (self._jitter + 1)
                self.total_accesses += 1
                self.total_cycles += latency
                return latency, coherence.HIT, line
        # The previous dirty owner is consumed by the transition below;
        # capture it first so the NUMA penalty can tell where a
        # coherence transfer is sourced from.
        prev_owner = self._exclusive.get(line) if self._numa else None
        kind = self.directory.access(core, addr, is_write)
        if self._prefetcher and kind in _PREFETCHABLE:
            recent = self._recent_lines.get(core)
            if recent is None:
                recent = {}
                self._recent_lines[core] = recent
            if line - 1 in recent or line in recent:
                kind = PREFETCHED
                self.prefetch_hits += 1
            recent.pop(line, None)
            recent[line] = None
            if len(recent) > _PREFETCH_WINDOW:
                del recent[next(iter(recent))]
        latency = self._costs[kind]
        if self._numa:
            penalty = self._numa_penalty(kind, core, line, prev_owner)
            if penalty:
                latency += penalty
                self.numa_penalty_cycles += penalty
        if self._jitter:
            state = self._jitter_state
            state ^= (state << 13) & 0xFFFFFFFFFFFFFFFF
            state ^= state >> 7
            state ^= (state << 17) & 0xFFFFFFFFFFFFFFFF
            self._jitter_state = state
            latency += state % (self._jitter + 1)
        if kind in _COHERENCE_KINDS:
            pinned = self._pin_until.get(line, 0)
            if pinned > now:
                stall = pinned - now
                latency += stall
                self.stall_cycles += stall
            self._pin_until[line] = now + latency + self._transfer_window
        self.total_accesses += 1
        self.total_cycles += latency
        return latency, kind, line

    # The un-shadowed implementation, reachable even when sanitizer mode
    # rebinds ``access_tuple`` on the instance. Subclasses that override
    # ``access_tuple`` (e.g. the mutation self-test machine) must re-alias
    # this so the sanitizer validates *their* fast path.
    _raw_access_tuple = access_tuple

    def _numa_penalty(self, kind: str, core: int, line: int,
                      prev_owner: Optional[int]) -> int:
        """Extra cycles a NUMA machine charges for this access.

        Cold/shared fetches pay ``remote_fetch_penalty`` when the line's
        home node differs from the accessing core's node; coherence
        transfers pay ``remote_transfer_penalty`` when the source — the
        previous dirty owner if there was one, else the home node —
        sits on another node. HITs, prefetched fetches (the prefetcher
        hides the transfer) and UPGRADEs (invalidation-only, no data
        movement) are never penalised. The sanitizer calls this with the
        *oracle's* previous dirty owner to reconstruct latencies
        independently, so the penalty rule lives here, in one place.
        """
        nodes = self._numa_nodes
        node = core % nodes
        if kind in _PREFETCHABLE:
            return self._remote_fetch if line % nodes != node else 0
        if kind in (coherence.COHERENCE_READ, coherence.COHERENCE_WRITE):
            source = prev_owner % nodes if prev_owner is not None \
                else line % nodes
            return self._remote_transfer if source != node else 0
        return 0

    def line_is_private(self, core: int, state, is_write: bool) -> bool:
        """May ``core`` keep hitting ``state``'s line without a transition?

        The fast-path predicate of :meth:`access_tuple`, spelled out.
        perfbench's traced mode is the only reader (it counts calls);
        the method goes with the benchmark change that drops the
        ``sim.kernel.*`` rows.
        """
        if is_write:
            return state.dirty_owner == core
        return core in state.holders

    @property
    def pinned_lines(self) -> int:
        """Entries currently held in the coherence pin table."""
        return len(self._pin_until)

    def prune_pins(self, floor: int) -> None:
        """Drop pin-table entries whose pin time is at or before ``floor``.

        ``_pin_until`` otherwise grows by one slot per contended line for
        the lifetime of the machine. An entry with pin time <= ``floor``
        can never stall an access at ``now >= floor`` (the stall condition
        is ``pinned > now``), so pruning with a global lower bound on all
        future access times is behaviour-preserving. The engine calls this
        opportunistically with its scheduler clock, which is exactly such
        a bound (the min-clock discipline never runs a thread whose clock
        is behind the last popped one).
        """
        pins = self._pin_until
        if pins:
            self._pin_until = {line: t for line, t in pins.items()
                               if t > floor}

    def latency_of(self, kind: str) -> int:
        """Cycle cost of an outcome tag (exposed for tests and baselines)."""
        return self._costs[kind]

    def average_latency(self) -> float:
        """Mean latency over all accesses so far (0.0 before any access)."""
        if not self.total_accesses:
            return 0.0
        return self.total_cycles / self.total_accesses
