"""Simulated threads and the API workload code programs against.

A simulated thread is a Python generator created from a *thread function*
``fn(api, *args)``. The function expresses its behaviour by yielding
operations (see :mod:`repro.sim.ops`), usually through the helper
generators on :class:`ThreadAPI`::

    def worker(api, base, n):
        yield from api.loop(base, stride=4, count=n, work=2)

    def main(api):
        buf = yield from api.malloc(4096)
        tids = []
        for i in range(8):
            tid = yield from api.spawn(worker, buf + i * 512, 128)
            tids.append(tid)
        yield from api.join_all(tids)

Per-thread clocks are the simulation's RDTSC: a thread's runtime is
``end_clock - start_clock``, and the program's runtime is the main
thread's final clock.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.ops import (
    Barrier, Fence, Free, Join, Load, LoopAccess, Malloc, Spawn, Store, Work,
)


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FINISHED = "finished"


class _BurstState:
    """Progress through ``thread``'s in-flight :class:`LoopAccess` op.

    ``consts`` packs the op's fields with the thread's core and tid into
    one tuple, ``(base, stride, count, repeat_total, work, read, write,
    core, tid)``: the engine's burst loops load a burst with one unpack,
    and many workloads yield very short loops or switch threads every
    few accesses, so per-load attribute traffic would dominate.
    One iteration issues a read, then a write (when enabled).

    The fused loop does not count as it goes. It derives the thread's
    ``instructions``, ``mem_accesses`` and ``mem_cycles`` and the
    machine's totals when the burst completes or pauses, from the
    progress since the *anchors*: the thread's clock and the iteration
    count when the burst was built or last paused, the PMU cycles
    charged since, and the accesses and cycles its slow-path calls have
    already added to the machine's totals since.

    Zero-trip loops (``count == 0`` or ``repeat == 0``) are no-ops the
    engine filters out before constructing burst state, so an in-flight
    burst always has strictly positive extents — the burst loops'
    completion checks depend on it, and a negative value
    sneaking through the engine's truthiness guard would silently run
    the loop the wrong way. Enforced here, at the single choke point.
    """

    __slots__ = ("index", "repeat", "consts", "anchor_clock",
                 "anchor_iters", "pmu_cycles", "slow_accesses",
                 "slow_cycles")

    def __init__(self, op: LoopAccess, thread: "SimThread"):
        if op.count <= 0 or op.repeat <= 0:
            raise SimulationError(
                "burst state requires positive extents: "
                f"count={op.count}, repeat={op.repeat} "
                f"(zero-trip loops must be dropped before dispatch)")
        self.index = self.repeat = self.anchor_iters = 0
        self.consts = (op.base, op.stride, op.count, op.repeat, op.work,
                       op.read, op.write, thread.core, thread.tid)
        self.anchor_clock = thread.clock
        self.pmu_cycles = self.slow_accesses = self.slow_cycles = 0


class SimThread:
    """One simulated thread: generator + clock + statistics.

    Attributes:
        tid: thread id (main thread is 0).
        core: core the thread is bound to (``tid % num_cores``, matching
            the paper's thread-to-core binding).
        clock: current time in cycles; advances as the thread executes.
        start_clock / end_clock: lifetime bounds (RDTSC analogues).
        instructions: instructions retired (1 per access, ``n`` per
            ``Work(n)``); this is what the PMU's sampling period counts.
        mem_accesses / mem_cycles: ground-truth totals over every access
            (the profiler never sees these — it only sees samples).
            Under the fused burst loop these three counters catch up with
            a burst when it completes or pauses (see :class:`_BurstState`).
    """

    __slots__ = (
        "tid", "name", "core", "parent_tid", "generator", "clock",
        "start_clock", "end_clock", "state", "instructions",
        "mem_accesses", "mem_cycles", "burst", "pending_value",
        "join_waiters", "barrier_waits",
    )

    def __init__(self, tid: int, core: int,
                 generator: Generator[Any, Any, None],
                 start_clock: int, parent_tid: Optional[int] = None,
                 name: Optional[str] = None):
        self.tid = tid
        self.name = name or f"thread-{tid}"
        self.core = core
        self.parent_tid = parent_tid
        self.generator = generator
        self.clock = start_clock
        self.start_clock = start_clock
        self.end_clock: Optional[int] = None
        self.state = ThreadState.RUNNABLE
        self.instructions = 0
        self.mem_accesses = 0
        self.mem_cycles = 0
        self.burst: Optional[_BurstState] = None
        self.pending_value: Any = None
        self.join_waiters: List["SimThread"] = []
        #: Cycles spent waiting at barriers (synchronisation wait time —
        #: what the paper's assessment does not model).
        self.barrier_waits = 0

    @property
    def runtime(self) -> int:
        """Thread lifetime in cycles (meaningful once finished)."""
        end = self.end_clock if self.end_clock is not None else self.clock
        return end - self.start_clock

    def __repr__(self) -> str:
        return (f"SimThread(tid={self.tid}, core={self.core}, "
                f"state={self.state.value}, clock={self.clock})")


class ThreadAPI:
    """Helper generators for writing thread functions.

    All methods are sub-generators meant to be used with ``yield from``;
    they yield exactly one op and return its result. The object is
    stateless and shared by every thread.
    """

    def load(self, addr: int, size: int = 4):
        """Read ``size`` bytes at ``addr``."""
        return (yield Load(addr, size))

    def store(self, addr: int, size: int = 4):
        """Write ``size`` bytes at ``addr``."""
        return (yield Store(addr, size))

    def update(self, addr: int, size: int = 4):
        """Read-modify-write ``addr`` (a load followed by a store)."""
        yield Load(addr, size)
        yield Store(addr, size)

    def work(self, cycles: int):
        """Spin for ``cycles`` cycles of pure computation."""
        if cycles > 0:
            yield Work(cycles)

    def loop(self, base: int, stride: int, count: int, *,
             read: bool = True, write: bool = True,
             work: int = 0, repeat: int = 1):
        """Strided access loop; see :class:`repro.sim.ops.LoopAccess`."""
        yield LoopAccess(base, stride, count, read=read, write=write,
                         work=work, repeat=repeat)

    def spawn(self, fn: Callable[..., Any], *args: Any,
              name: Optional[str] = None):
        """Create a thread running ``fn(api, *args)``; returns its tid."""
        return (yield Spawn(fn, tuple(args), name))

    def join(self, tid: int):
        """Wait for thread ``tid`` to finish."""
        yield Join(tid)

    def join_all(self, tids: Iterable[int]):
        """Join every thread in ``tids`` in order."""
        for tid in tids:
            yield Join(tid)

    def malloc(self, size: int, callsite: Optional[str] = None):
        """Allocate ``size`` bytes; returns the address.

        When ``callsite`` is omitted the engine captures the workload's
        Python source location, mirroring Cheetah's callsite interception.
        """
        return (yield Malloc(size, callsite))

    def free(self, addr: int):
        """Release a heap allocation."""
        yield Free(addr)

    def fence(self):
        """Synchronisation marker (visible to observers, no timing)."""
        yield Fence()

    def barrier(self, key, parties: int):
        """Wait at barrier ``key`` until ``parties`` threads arrive."""
        yield Barrier(key, parties)
