"""Operations a simulated thread can yield to the engine.

Simulated threads are Python generators. Each ``yield`` hands the engine
one operation; the engine executes it, advances the thread's clock, and
resumes the generator with the operation's result (the loaded "value" is
never modelled — only addresses and timing matter for false sharing).

``LoopAccess`` is the workhorse: it expresses a whole access loop (for
example ``for i: array[base + i*stride] += 1``) as a single op that the
engine expands access-by-access in its own scheduling loop. This keeps the
per-access cost low while preserving exact cross-thread interleaving,
which the invalidation count depends on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class Op:
    """Base class for thread operations (used only for isinstance checks)."""

    __slots__ = ()


class Load(Op):
    """Read ``size`` bytes at ``addr``."""

    __slots__ = ("addr", "size")

    def __init__(self, addr: int, size: int = 4):
        self.addr = addr
        self.size = size


class Store(Op):
    """Write ``size`` bytes at ``addr``."""

    __slots__ = ("addr", "size")

    def __init__(self, addr: int, size: int = 4):
        self.addr = addr
        self.size = size


class Work(Op):
    """Execute ``cycles`` cycles of pure computation (no memory traffic)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if type(cycles) is not int or cycles < 0:
            raise ValueError(
                f"Work cycles must be a non-negative int, got {cycles!r}")
        self.cycles = cycles


class LoopAccess(Op):
    """A strided loop of accesses executed natively by the engine.

    Each iteration touches ``addr = base + i * stride`` for
    ``i in range(count)``; per iteration the engine issues a load (if
    ``read``), then a store (if ``write``), then charges ``work`` cycles of
    computation. ``repeat`` re-runs the whole sweep, modelling outer loops
    such as the paper's Figure 1 microbenchmark.
    """

    __slots__ = ("base", "stride", "count", "read", "write", "work", "repeat")

    def __init__(self, base: int, stride: int, count: int, *,
                 read: bool = True, write: bool = True,
                 work: int = 0, repeat: int = 1):
        if count < 0 or repeat < 0:
            raise ValueError("count and repeat must be non-negative")
        if type(work) is not int or work < 0:
            raise ValueError(
                f"LoopAccess work must be a non-negative int, got {work!r}")
        self.base = base
        self.stride = stride
        self.count = count
        self.read = read
        self.write = write
        self.work = work
        self.repeat = repeat

    @property
    def total_accesses(self) -> int:
        """Number of individual memory accesses this op expands to."""
        per_iter = (1 if self.read else 0) + (1 if self.write else 0)
        return per_iter * self.count * self.repeat


class Spawn(Op):
    """Create a child thread running ``fn(api, *args)``; yields its tid."""

    __slots__ = ("fn", "args", "name")

    def __init__(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
                 name: Optional[str] = None):
        self.fn = fn
        self.args = args
        self.name = name


class Join(Op):
    """Block until thread ``tid`` finishes."""

    __slots__ = ("tid",)

    def __init__(self, tid: int):
        self.tid = tid


class Malloc(Op):
    """Allocate ``size`` bytes from the simulated heap; yields the address.

    ``callsite`` overrides the automatically captured Python call stack;
    workloads use it to mimic the source locations the paper reports.
    """

    __slots__ = ("size", "callsite")

    def __init__(self, size: int, callsite: Optional[str] = None):
        self.size = size
        self.callsite = callsite


class Free(Op):
    """Release an allocation previously returned by :class:`Malloc`."""

    __slots__ = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr


class Fence(Op):
    """Synchronisation point: no timing effect, but visible to observers."""

    __slots__ = ()


class Barrier(Op):
    """Block until ``parties`` threads have arrived at barrier ``key``.

    All arrivals resume together at the latest arrival time (plus the
    barrier cost); the barrier then resets for the next round. This is
    the synchronisation whose waiting time the paper's assessment
    explicitly does not model ("we leave this for future work") — the
    reproduction includes it so that limitation can be demonstrated.
    """

    __slots__ = ("key", "parties")

    def __init__(self, key: Any, parties: int):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.key = key
        self.parties = parties
