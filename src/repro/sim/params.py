"""Machine configuration and the cycle-latency model.

The latency model assigns a cycle cost to every memory-access outcome the
coherence directory can produce. The defaults are loosely calibrated to the
paper's AMD Opteron testbed (1.6 GHz, private L1/L2, shared L3): an L1 hit
costs a few cycles, a fetch from the shared level tens of cycles, a
coherence miss (the false-sharing penalty) on the order of a hundred
cycles, and a cold fetch from memory a couple of hundred cycles.

Only the *ratios* between these costs matter for reproducing the paper's
shapes; absolute values are in simulated cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ConfigBase
from repro.errors import ConfigError


def check_cycles(name: str, value: object, *, positive: bool = False) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an ``int`` cycle
    count (``bool`` excluded) that is ``>= 0``, or ``> 0`` when
    ``positive``.

    Every time-valued input is added to some simulated clock. Clocks must
    stay ints (the engine packs them into its ready-heap keys) and never
    run backwards (the min-clock discipline depends on it).
    """
    if type(value) is not int or value < (1 if positive else 0):
        kind = "a positive int" if positive else "a non-negative int"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def check_jitter_seed(value: object) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an ``int`` in
    ``[0, 2**64)`` (``bool`` excluded): the timing-jitter stream's state
    is 64 bits wide. ``0`` seeds the stream with ``1``."""
    if type(value) is not int or not 0 <= value < 1 << 64:
        raise ConfigError(
            f"jitter_seed must be an int in [0, 2**64), got {value!r}")


@dataclass(frozen=True)
class LatencyModel(ConfigBase):
    """Cycle costs per memory-access outcome.

    Attributes:
        l1_hit: access served by the core's private cache.
        shared_clean: line fetched from the shared cache (another core holds
            it clean, or it was recently evicted there).
        coherence_read: read of a line that another core has modified; the
            dirty line must be forwarded/downgraded.
        coherence_write: write to a line present in other cores' caches;
            their copies must be invalidated and the line transferred.
        upgrade: write by a core that already holds the line shared;
            other sharers are invalidated but no data transfer is needed.
        cold: first-touch fetch from main memory.
        prefetched: a cold or shared fetch hidden by the stride
            prefetcher (sequential streams); modern cores hide most
            sequential misses this way, which is why serial input-reading
            phases run at near-hit latency on real hardware.
    """

    l1_hit: int = 3
    shared_clean: int = 30
    coherence_read: int = 55
    coherence_write: int = 65
    upgrade: int = 45
    cold: int = 150
    prefetched: int = 5

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any cost is not a positive int
        or the ordering between costs is physically implausible."""
        costs = {
            "l1_hit": self.l1_hit,
            "shared_clean": self.shared_clean,
            "coherence_read": self.coherence_read,
            "coherence_write": self.coherence_write,
            "upgrade": self.upgrade,
            "cold": self.cold,
            "prefetched": self.prefetched,
        }
        for name, value in costs.items():
            check_cycles(f"latency {name}", value, positive=True)
        if self.l1_hit >= self.shared_clean:
            raise ConfigError("l1_hit latency must be below shared_clean latency")
        if self.shared_clean >= self.coherence_write:
            raise ConfigError(
                "shared_clean latency must be below coherence_write latency"
            )


@dataclass(frozen=True)
class MachineConfig(ConfigBase):
    """Static description of the simulated machine.

    Attributes:
        num_cores: number of physical cores. Threads are bound round-robin
            to cores (the paper binds threads to cores on its NUMA testbed).
        cache_line_size: cache-line size in bytes; must be a power of two.
            The paper's machine uses 64-byte lines; the streamcluster case
            study hinges on code that assumed 32-byte lines.
        word_size: granularity of Cheetah's word-level shadow tracking.
        latency: the cycle-cost model.
        spawn_cost: cycles charged to a parent thread per thread creation
            (pthread_create analogue).
        join_cost: cycles charged to a parent thread per join.
        alloc_cost: cycles charged for a malloc/free call.
        kernel: accepted and validated (``"fused"``, ``"vector"`` or
            ``"auto"``) so existing configs, content keys and stored
            results stay valid, but it selects nothing: the engine has
            one fast burst loop, and every simulate run records
            ``metadata["kernel"] == "fused"``.
        mode: execution mode — ``"simulate"`` (the default: run every
            access through the coherence machine), ``"predict"``
            (profile a short simulated prefix, then predict
            invalidations/findings/runtime analytically in O(lines) —
            see :mod:`repro.predict`), or ``"sampled"`` (fully simulate
            a few representative bursts and extrapolate with confidence
            intervals). The non-default modes produce *estimates*,
            tagged ``predicted=true`` in the run metadata.
        numa_nodes: number of NUMA nodes cores are striped across
            (``node_of(core) = core % numa_nodes``). The default 1
            models the paper's single-node view; with >1, the
            remote-latency penalties below apply. Purely additive: with
            the penalties at 0 the simulation is bit-identical to a
            single-node machine.
        remote_fetch_penalty: extra cycles for a cold/shared fetch whose
            line's home node (``line % numa_nodes``) is not the
            accessing core's node.
        remote_transfer_penalty: extra cycles for a coherence transfer
            (dirty-line forward or invalidating write) sourced from a
            core on another node — the cost that makes cross-node false
            sharing hurt disproportionately on real NUMA machines.
    """

    num_cores: int = 48
    cache_line_size: int = 64
    word_size: int = 4
    latency: LatencyModel = field(default_factory=LatencyModel)
    spawn_cost: int = 500
    join_cost: int = 200
    alloc_cost: int = 100
    kernel: str = "auto"
    mode: str = "simulate"
    numa_nodes: int = 1
    remote_fetch_penalty: int = 0
    remote_transfer_penalty: int = 0

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.cache_line_size < self.word_size:
            raise ConfigError("cache_line_size must be >= word_size")
        if self.cache_line_size & (self.cache_line_size - 1):
            raise ConfigError(
                f"cache_line_size must be a power of two, got {self.cache_line_size}"
            )
        if self.word_size & (self.word_size - 1) or self.word_size <= 0:
            raise ConfigError(f"word_size must be a power of two, got {self.word_size}")
        if self.kernel not in ("fused", "vector", "auto"):
            raise ConfigError(
                f"kernel must be 'fused', 'vector' or 'auto', got {self.kernel!r}"
            )
        if self.mode not in ("simulate", "predict", "sampled"):
            raise ConfigError(
                f"mode must be 'simulate', 'predict' or 'sampled', "
                f"got {self.mode!r}"
            )
        if self.numa_nodes < 1:
            raise ConfigError(
                f"numa_nodes must be >= 1, got {self.numa_nodes}")
        if self.numa_nodes > self.num_cores:
            raise ConfigError(
                f"numa_nodes must be <= num_cores, got {self.numa_nodes} "
                f"nodes for {self.num_cores} cores")
        for name in ("spawn_cost", "join_cost", "alloc_cost",
                     "remote_fetch_penalty", "remote_transfer_penalty"):
            check_cycles(name, getattr(self, name))
        # line_shift is consulted on every simulated access; precompute it
        # once so the hot path reads a plain int instead of re-deriving it
        # (the dataclass is frozen, hence object.__setattr__).
        object.__setattr__(self, "_line_shift",
                           self.cache_line_size.bit_length() - 1)

    @property
    def line_shift(self) -> int:
        """log2 of the cache-line size, for address-to-line bit shifting."""
        return self._line_shift

    def line_of(self, addr: int) -> int:
        """Cache-line index containing ``addr``."""
        return addr >> self.line_shift

    def word_of(self, addr: int) -> int:
        """Word index (within the whole address space) containing ``addr``."""
        return addr // self.word_size

    def node_of(self, core: int) -> int:
        """NUMA node of ``core`` (cores striped round-robin over nodes)."""
        return core % self.numa_nodes

    def home_node(self, line: int) -> int:
        """Home NUMA node of cache line ``line`` (interleaved pages)."""
        return line % self.numa_nodes
