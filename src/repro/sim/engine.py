"""Discrete-event engine: interleaves simulated threads by clock.

The engine implements the standard min-clock discipline: the thread with
the smallest clock always executes next, and it keeps executing until its
clock passes the next-smallest thread's clock (or it blocks/finishes).
This yields an exact interleaving of memory accesses across cores — the
property the cache-invalidation counts, and therefore the whole
false-sharing phenomenon, depend on — while amortising scheduling cost
over bursts of accesses.

The engine is also where cross-cutting instrumentation hooks in:

- an optional :class:`~repro.pmu.sampler.PMU` sees every access and every
  instruction batch, fires samples and charges sampling overhead;
- an optional *observer* (used by the Predator-style baseline) sees every
  access and charges a per-access instrumentation cost;
- the :class:`~repro.runtime.phases.PhaseTracker` is notified of every
  spawn and join so serial/parallel phases are known at all times.
"""

from __future__ import annotations

import heapq
import itertools
import os.path
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import DeadlockError, SimulationError, ThreadError
from repro.heap.allocator import CheetahAllocator
from repro.runtime.phases import PhaseTracker
from repro.runtime.thread import SimThread, ThreadAPI, ThreadState, _BurstState
from repro.sim.machine import Machine
from repro.sim.ops import (
    Barrier, Fence, Free, Join, Load, LoopAccess, Malloc, Op, Spawn, Store,
    Work,
)
from repro.sim.params import MachineConfig
from repro.symbols.table import SymbolTable

_INFINITY = float("inf")
_CALLSITE_DEPTH = 5  # the paper collects five call-stack entries
# Simulation steps between opportunistic sweeps of the machine's coherence
# pin table (Machine.prune_pins); bounds an otherwise unbounded dict.
_PIN_PRUNE_INTERVAL = 8192


class Observer:
    """Interface for tools that see every simulated memory access
    (Predator/Sheriff baselines, trace recorders, the obs Tracer).

    ``cost_per_access`` cycles are charged to the accessing thread for
    every access — the flat instrumentation overhead the paper's
    Section 4.2.3 comparison is about.
    """

    cost_per_access: int = 0

    def on_access(self, tid: int, core: int, addr: int, is_write: bool,
                  latency: int, size: int, line: int) -> Optional[int]:
        """Called once per access, after the machine resolved it.

        Arguments match the engine's dispatch exactly: ``tid``/``core``
        identify the accessing thread, ``addr`` and ``size`` the access,
        ``latency`` the cycles the machine charged, and ``line`` the
        cache line index (``addr >> line_shift``). The access has already
        been applied to the machine and the thread's clock when this
        fires. May return an ``int`` of *extra* cycles to charge for this
        particular access (page-fault-driven tools like Sheriff charge
        selectively); ``None`` or ``0`` charges nothing beyond
        ``cost_per_access``.
        """
        raise NotImplementedError

    def on_thread_start(self, tid: int) -> None:
        """Called once per created thread (including main, ``tid`` 0),
        after the PMU (if any) armed it and charged its setup cost.
        Returns nothing; it cannot charge cycles.
        """


@dataclass
class RunResult:
    """Everything a finished simulation exposes.

    ``runtime`` is the main thread's final clock — the program's
    wall-clock time in cycles. Per-thread objects carry their own clocks
    and ground-truth access statistics; ``machine`` retains the coherence
    directory with ground-truth invalidation counts.
    """

    runtime: int
    threads: Dict[int, SimThread]
    phases: PhaseTracker
    machine: Machine
    allocator: CheetahAllocator
    symbols: SymbolTable
    steps: int
    return_value: Any = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.threads.values())

    @property
    def total_accesses(self) -> int:
        return sum(t.mem_accesses for t in self.threads.values())

    def thread_runtime(self, tid: int) -> int:
        return self.threads[tid].runtime


class Engine:
    """Runs one simulated program to completion."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 machine: Optional[Machine] = None,
                 allocator: Optional[CheetahAllocator] = None,
                 symbols: Optional[SymbolTable] = None,
                 pmu: Optional[Any] = None,
                 observer: Optional[Observer] = None,
                 obs: Optional[Any] = None,
                 max_steps: int = 200_000_000):
        self.config = config or (machine.config if machine else MachineConfig())
        self.machine = machine or Machine(self.config)
        self.allocator = allocator or CheetahAllocator(
            line_size=self.config.cache_line_size)
        self.symbols = symbols or SymbolTable()
        self.pmu = pmu
        self.observer = observer
        # Observability (repro.obs): wired via obs.wire(self), which sets
        # this attribute back and installs the machine/PMU-side hooks.
        self.obs = None
        if obs is not None:
            obs.wire(self)
        self.phase_tracker = PhaseTracker()
        self.api = ThreadAPI()
        self.threads: Dict[int, SimThread] = {}
        self._tid_counter = itertools.count()
        self._max_steps = max_steps
        self._steps = 0
        # Next step count at which the machine's coherence pin table is
        # swept; see the pruning block in run().
        self._next_pin_prune = _PIN_PRUNE_INTERVAL
        self._ran = False
        # (cycle, callback) checkpoints, fired once when simulated time
        # first passes the cycle — the "interrupted by the user" hook the
        # paper's mid-run reporting needs (Section 2.4).
        self._checkpoints: List[tuple] = []
        # key -> threads currently waiting at that barrier.
        self._barriers: Dict[Any, List[SimThread]] = {}

    def add_checkpoint(self, cycle: int,
                       callback: Callable[["Engine", int], None]) -> None:
        """Invoke ``callback(engine, now)`` when simulated time passes
        ``cycle``. Must be registered before :meth:`run`."""
        if self._ran:
            raise SimulationError("checkpoints must be added before run()")
        self._checkpoints.append((cycle, callback))
        self._checkpoints.sort(key=lambda pair: pair[0])

    # -- program execution ---------------------------------------------------

    def run(self, main_fn: Callable[..., Any], *args: Any) -> RunResult:
        """Run ``main_fn(api, *args)`` as the main thread until completion."""
        if self._ran:
            raise SimulationError("an Engine instance can only run once")
        self._ran = True

        main = self._create_thread(main_fn, args, parent=None, start_clock=0,
                                   name="main")
        ready: List[tuple] = [(main.clock, main.tid)]
        threads = self.threads

        # The scheduling loop runs once per quantum — for tightly
        # interleaved threads that is once per access — so everything it
        # touches is hoisted into locals and the former _advance helper
        # is inlined below.
        heappush = heapq.heappush
        heappop = heapq.heappop
        checkpoints = self._checkpoints
        machine = self.machine
        sanitizer = getattr(machine, "sanitizer", None)
        obs = self.obs
        runnable = ThreadState.RUNNABLE
        max_steps = self._max_steps
        resume = self._resume
        # The fused loop answers private HITs without calling the
        # machine's entry point or the observer, so bursts take the
        # general per-access loop whenever something must see every
        # access (an observer, or the sanitizer or per-access obs, which
        # rebind ``access_tuple`` on the instance) or the private-HIT
        # fast path is off (finite caches). Chosen once: none of these
        # changes mid-run.
        if (self.observer is None and sanitizer is None
                and machine.obs is None and machine._fast_private):
            run_burst = self._run_burst
        else:
            run_burst = self._run_burst_observed
        woken: List[SimThread] = []

        while ready:
            clock, tid = heappop(ready)
            thread = threads[tid]
            if thread.state is not runnable:
                continue
            if thread.clock != clock:
                heappush(ready, (thread.clock, tid))
                continue
            while checkpoints and clock >= checkpoints[0][0]:
                _, callback = checkpoints.pop(0)
                callback(self, clock)
            if self._steps >= self._next_pin_prune:
                # ``clock`` is the scheduler's global minimum: no future
                # access can happen earlier, so entries pinned at or
                # before it are dead and can be dropped (bounds the
                # pin table on long runs over many contended lines).
                machine.prune_pins(clock)
                self._next_pin_prune = self._steps + _PIN_PRUNE_INTERVAL
            limit = ready[0][0] if ready else _INFINITY
            # A pending checkpoint also bounds the quantum: with a single
            # runnable thread ``ready`` is empty and an unbounded quantum
            # would sail past every registered checkpoint (the callbacks
            # would fire arbitrarily late, or never if the program ends
            # first — the paper's Section 2.4 mid-run hook must not drop).
            if checkpoints and checkpoints[0][0] < limit:
                limit = checkpoints[0][0]
            # -- one scheduling quantum: run ``thread`` until its clock
            # passes ``limit`` or it yields control (block/finish) --
            while thread.clock <= limit:
                self._steps += 1
                if self._steps > max_steps:
                    raise SimulationError(
                        f"exceeded max_steps={self._max_steps}; "
                        "likely an unbounded workload loop"
                    )
                if thread.burst is not None:
                    if not run_burst(thread, limit):
                        break  # burst paused at limit; stays runnable
                    thread.pending_value = None
                if not resume(thread, woken):
                    break
            if thread.state is runnable:
                heappush(ready, (thread.clock, tid))
            if woken:
                for other in woken:
                    heappush(ready, (other.clock, other.tid))
                woken.clear()
            if sanitizer is not None:
                sanitizer.note_quantum(thread)
            if obs is not None:
                # ``clock`` is the quantum's start (the popped value).
                obs.note_quantum(thread, clock)

        unfinished = [t for t in threads.values()
                      if t.state is not ThreadState.FINISHED]
        if unfinished:
            blocked = ", ".join(repr(t) for t in unfinished)
            raise DeadlockError(f"threads never finished: {blocked}")
        if main.end_clock is None:
            raise SimulationError("main thread has no end clock")

        # Drain checkpoints the final quantum ran past: a thread that
        # finishes exactly at (or just beyond) a checkpoint cycle is
        # never re-popped, so its pending callbacks would be silently
        # dropped. Checkpoints beyond the program's end stay unfired —
        # simulated time never passed them.
        while checkpoints and checkpoints[0][0] <= main.end_clock:
            _, callback = checkpoints.pop(0)
            callback(self, main.end_clock)

        if sanitizer is not None and self.pmu is not None:
            sanitizer.check_pmu(self.pmu)

        self.phase_tracker.finish(main.end_clock)
        return RunResult(
            runtime=main.end_clock,
            threads=dict(threads),
            phases=self.phase_tracker,
            machine=self.machine,
            allocator=self.allocator,
            symbols=self.symbols,
            steps=self._steps,
            metadata={"kernel": "fused"},
        )

    # -- thread lifecycle ------------------------------------------------------

    def _create_thread(self, fn: Callable[..., Any], args: tuple,
                       parent: Optional[SimThread], start_clock: int,
                       name: Optional[str] = None) -> SimThread:
        tid = next(self._tid_counter)
        core = tid % self.config.num_cores
        generator = fn(self.api, *args)
        if not hasattr(generator, "send"):
            raise ThreadError(
                f"thread function {fn!r} must be a generator function "
                "(use 'yield from api....' inside it)"
            )
        thread = SimThread(tid=tid, core=core, generator=generator,
                           start_clock=start_clock,
                           parent_tid=parent.tid if parent else None,
                           name=name or getattr(fn, "__name__", None))
        self.threads[tid] = thread
        if self.pmu is not None:
            thread.clock += self.pmu.on_thread_start(tid)
        if self.observer is not None:
            self.observer.on_thread_start(tid)
        if self.obs is not None:
            self.obs.on_thread_spawn(thread)
        return thread

    def _finish_thread(self, thread: SimThread) -> List[SimThread]:
        """Mark ``thread`` finished and wake any joiners."""
        thread.state = ThreadState.FINISHED
        thread.end_clock = thread.clock
        if self.obs is not None:
            self.obs.on_thread_finish(thread)
        woken = []
        for waiter in thread.join_waiters:
            self._complete_join(waiter, thread)
            waiter.state = ThreadState.RUNNABLE
            woken.append(waiter)
        thread.join_waiters.clear()
        return woken

    def _complete_join(self, parent: SimThread, child: SimThread) -> None:
        assert child.end_clock is not None
        parent.clock = max(parent.clock, child.end_clock) + self.config.join_cost
        parent.pending_value = None
        self.phase_tracker.on_join(parent.tid, child.tid, parent.clock)
        if self.obs is not None:
            self.obs.on_join(parent, child)

    # -- the scheduling quantum -------------------------------------------------
    # (the per-quantum advance loop is inlined in run(); see there)

    def _resume(self, thread: SimThread, woken: List[SimThread]) -> bool:
        """Resume the generator one op. Returns False when the thread
        blocked or finished (caller must stop advancing it)."""
        try:
            op = thread.generator.send(thread.pending_value)
        except StopIteration:
            woken.extend(self._finish_thread(thread))
            if thread.parent_tid is None:
                self._check_leaked_threads(thread)
            return False
        thread.pending_value = None
        return self._dispatch(thread, op, woken)

    def _check_leaked_threads(self, main: SimThread) -> None:
        live = [t for t in self.threads.values()
                if t.state is ThreadState.RUNNABLE and t is not main]
        if live:
            names = ", ".join(t.name for t in live)
            raise ThreadError(
                f"main thread exited while threads are still running: {names}"
            )

    # -- op dispatch ---------------------------------------------------------------

    def _dispatch(self, thread: SimThread, op: Op,
                  woken: List[SimThread]) -> bool:
        if type(op) is Load:
            self._access(thread, op.addr, False, op.size)
            return True
        if type(op) is Store:
            self._access(thread, op.addr, True, op.size)
            return True
        if type(op) is LoopAccess:
            if op.count and op.repeat:
                thread.burst = _BurstState(op)
            return True
        if type(op) is Work:
            self._do_work(thread, op.cycles)
            return True
        if type(op) is Malloc:
            callsite = op.callsite or self._capture_callsite(thread)
            addr = self.allocator.allocate(op.size, tid=thread.tid,
                                           callsite=callsite)
            thread.clock += self.config.alloc_cost
            thread.instructions += 1
            thread.pending_value = addr
            return True
        if type(op) is Free:
            self.allocator.free(op.addr, tid=thread.tid)
            thread.clock += self.config.alloc_cost
            thread.instructions += 1
            return True
        if type(op) is Spawn:
            thread.clock += self.config.spawn_cost
            child = self._create_thread(op.fn, op.args, parent=thread,
                                        start_clock=thread.clock,
                                        name=op.name)
            self.phase_tracker.on_spawn(thread.tid, child.tid, thread.clock)
            woken.append(child)
            thread.pending_value = child.tid
            return True
        if type(op) is Join:
            return self._do_join(thread, op.tid)
        if type(op) is Fence:
            thread.clock += 1
            thread.instructions += 1
            return True
        if type(op) is Barrier:
            return self._do_barrier(thread, op, woken)
        raise SimulationError(f"thread {thread.tid} yielded unknown op {op!r}")

    #: Cycles charged per barrier crossing (futex wake analogue).
    BARRIER_COST = 50

    def _do_barrier(self, thread: SimThread, op: Barrier,
                    woken: List[SimThread]) -> bool:
        waiting = self._barriers.setdefault(op.key, [])
        for earlier in waiting:
            if earlier.tid == thread.tid:
                raise ThreadError(
                    f"thread {thread.tid} re-entered barrier {op.key!r} "
                    "it is already waiting on")
        waiting.append(thread)
        if len(waiting) < op.parties:
            thread.state = ThreadState.BLOCKED
            return False
        # Last arrival: release the whole round together.
        release = max(t.clock for t in waiting) + self.BARRIER_COST
        if self.obs is not None:
            self.obs.on_barrier_release(
                op.key, [(t.tid, t.clock) for t in waiting], release,
                self.BARRIER_COST)
        del self._barriers[op.key]
        for waiter in waiting:
            waiter.barrier_waits += release - self.BARRIER_COST - waiter.clock
            waiter.clock = release
            if waiter is not thread:
                waiter.state = ThreadState.RUNNABLE
                waiter.pending_value = None
                woken.append(waiter)
        return True

    def _do_join(self, thread: SimThread, target_tid: int) -> bool:
        target = self.threads.get(target_tid)
        if target is None:
            raise ThreadError(f"join of unknown thread {target_tid}")
        if target is thread:
            raise ThreadError(f"thread {thread.tid} cannot join itself")
        if target.state is ThreadState.FINISHED:
            self._complete_join(thread, target)
            return True
        thread.state = ThreadState.BLOCKED
        target.join_waiters.append(thread)
        return False

    def _do_work(self, thread: SimThread, cycles: int) -> None:
        thread.clock += cycles
        thread.instructions += cycles
        if self.pmu is not None:
            extra = self.pmu.on_work(thread.tid, cycles, thread.clock)
            if extra:
                thread.clock += extra

    # -- memory accesses --------------------------------------------------------

    def _access(self, thread: SimThread, addr: int, is_write: bool,
                size: int) -> None:
        latency, _, line = self.machine.access_tuple(
            thread.core, addr, is_write, thread.clock)
        thread.clock += latency
        thread.instructions += 1
        thread.mem_accesses += 1
        thread.mem_cycles += latency
        observer = self.observer
        if observer is not None:
            extra = observer.on_access(thread.tid, thread.core, addr,
                                       is_write, latency, size, line)
            thread.clock += observer.cost_per_access
            if extra:
                thread.clock += extra
        pmu = self.pmu
        if pmu is not None:
            extra = pmu.on_access(thread.tid, thread.core, addr, is_write,
                                  latency, size, thread.clock)
            if extra:
                thread.clock += extra

    def _run_burst(self, thread: SimThread, limit: float) -> bool:
        """Execute burst iterations until the clock passes ``limit``.

        Returns True when the burst completed (the generator should be
        resumed), False when it paused because the thread overran its
        scheduling quantum.

        This is the simulator's innermost loop, selected by :meth:`run`
        when nothing needs to see every access: the machine's
        private-HIT check, the thread's clock/counter updates and the
        PMU's sampling countdown are fused into one loop over plain
        locals, flushed back on every exit and around every slow-path
        call. The fused loop consumes the jitter stream and the PMU
        countdown in exactly the same order as the general path, so all
        outputs stay bit-identical.
        """
        burst = thread.burst
        assert burst is not None
        machine = self.machine
        pmu = self.pmu

        # Machine fast-path state (constants bundled at construction).
        lines_get, line_shift, hit_cost, jitter = machine._fast_state
        jstate = machine._jitter_state
        m_accesses = 0  # machine counter deltas, flushed with the locals
        m_cycles = 0

        # Thread state.
        clock = thread.clock
        instructions = thread.instructions
        mem_accesses = thread.mem_accesses
        mem_cycles = thread.mem_cycles
        steps = 0
        core = thread.core
        tid = thread.tid

        # PMU countdown (the 127-of-128 non-sampled accesses do only the
        # decrement here; fires go through the PMU's real entry points).
        if pmu is not None:
            countdown = pmu._countdown
            cd = countdown[tid]

        # Burst progress (op constants are pre-copied into burst slots).
        index = burst.index
        repeat = burst.repeat
        count = burst.count
        repeats_total = burst.repeat_total
        base = burst.base
        stride = burst.stride
        work = burst.work
        do_read = burst.read
        do_write = burst.write

        completed = False
        try:
            while clock <= limit:
                if index >= count:
                    index = 0
                    repeat += 1
                if repeat >= repeats_total:
                    completed = True
                    return True
                addr = base + index * stride
                steps += 1
                line = addr >> line_shift
                # One probe covers both the read and the write of this
                # iteration: LineState objects are mutated in place,
                # never replaced (only a first-touch slow path below can
                # create one, after which we re-probe). The read and
                # write bodies are spelled out separately so each tests
                # its own constant-folded HIT predicate.
                state = lines_get(line)
                if do_read:
                    if state is not None and core in state.holders:
                        latency = hit_cost
                        if jitter:
                            jstate ^= (jstate << 13) & 0xFFFFFFFFFFFFFFFF
                            jstate ^= jstate >> 7
                            jstate ^= (jstate << 17) & 0xFFFFFFFFFFFFFFFF
                            latency += jstate % (jitter + 1)
                        m_accesses += 1
                        m_cycles += latency
                    else:
                        # Slow path: flush machine state, take the full
                        # MESI/prefetch/pin path, re-load the jitter.
                        machine._jitter_state = jstate
                        machine.total_accesses += m_accesses
                        machine.total_cycles += m_cycles
                        m_accesses = m_cycles = 0
                        latency, _, _ = machine.access_tuple(
                            core, addr, False, clock)
                        jstate = machine._jitter_state
                        if state is None:
                            state = lines_get(line)
                    clock += latency
                    instructions += 1
                    mem_accesses += 1
                    mem_cycles += latency
                    if pmu is not None:
                        if cd > 1:
                            cd -= 1
                        else:
                            countdown[tid] = cd
                            extra = pmu.on_access(
                                tid, core, addr, False, latency,
                                self.config.word_size, clock)
                            if extra:
                                clock += extra
                            cd = countdown[tid]
                if do_write:
                    if state is not None and state.dirty_owner == core:
                        latency = hit_cost
                        if jitter:
                            jstate ^= (jstate << 13) & 0xFFFFFFFFFFFFFFFF
                            jstate ^= jstate >> 7
                            jstate ^= (jstate << 17) & 0xFFFFFFFFFFFFFFFF
                            latency += jstate % (jitter + 1)
                        m_accesses += 1
                        m_cycles += latency
                    else:
                        machine._jitter_state = jstate
                        machine.total_accesses += m_accesses
                        machine.total_cycles += m_cycles
                        m_accesses = m_cycles = 0
                        latency, _, _ = machine.access_tuple(
                            core, addr, True, clock)
                        jstate = machine._jitter_state
                        if state is None:
                            state = lines_get(line)
                    clock += latency
                    instructions += 1
                    mem_accesses += 1
                    mem_cycles += latency
                    if pmu is not None:
                        if cd > 1:
                            cd -= 1
                        else:
                            countdown[tid] = cd
                            extra = pmu.on_access(
                                tid, core, addr, True, latency,
                                self.config.word_size, clock)
                            if extra:
                                clock += extra
                            cd = countdown[tid]
                if work:
                    clock += work
                    instructions += work
                    if pmu is not None:
                        if cd > work:
                            cd -= work
                        else:
                            countdown[tid] = cd
                            extra = pmu.on_work(tid, work, clock)
                            if extra:
                                clock += extra
                            cd = countdown[tid]
                index += 1
            # Completed exactly at the boundary?
            if index >= count and repeat + 1 >= repeats_total:
                completed = True
                return True
            return False
        finally:
            # ``steps == 0`` means the first check completed the burst:
            # nothing below the burst fields changed, so skip the flush.
            if steps:
                machine._jitter_state = jstate
                machine.total_accesses += m_accesses
                machine.total_cycles += m_cycles
                thread.clock = clock
                thread.instructions = instructions
                thread.mem_accesses = mem_accesses
                thread.mem_cycles = mem_cycles
                self._steps += steps
                if pmu is not None:
                    countdown[tid] = cd
            if completed:
                thread.burst = None
            else:
                burst.index = index
                burst.repeat = repeat

    def _run_burst_observed(self, thread: SimThread, limit: float) -> bool:
        """General burst loop, used whenever something sees every access
        (observer baselines, trace recording, the sanitizer, per-access
        obs) or caches are finite; semantically identical to the fused
        loop in :meth:`_run_burst`."""
        burst = thread.burst
        assert burst is not None
        op = burst.op
        word = self.config.word_size
        while thread.clock <= limit:
            if burst.index >= op.count:
                burst.index = 0
                burst.repeat += 1
            if burst.repeat >= op.repeat:
                thread.burst = None
                return True
            addr = op.base + burst.index * op.stride
            self._steps += 1
            if op.read:
                self._access(thread, addr, False, word)
            if op.write:
                self._access(thread, addr, True, word)
            if op.work:
                self._do_work(thread, op.work)
            burst.index += 1
        # Completed exactly at the boundary?
        if burst.index >= op.count and burst.repeat + 1 >= op.repeat:
            thread.burst = None
            return True
        return False

    # -- callsite capture ----------------------------------------------------------

    def _capture_callsite(self, thread: SimThread) -> str:
        """Walk the thread's suspended generator frames for a callsite.

        Mirrors Cheetah's frame-pointer walk: it collects up to five
        entries and reports the innermost workload frame (the paper prints
        e.g. ``linear_regression-pthread.c: 139``).
        """
        frames = []
        generator = thread.generator
        depth = 0
        while generator is not None and depth < _CALLSITE_DEPTH:
            frame = getattr(generator, "gi_frame", None)
            if frame is None:
                break
            filename = os.path.basename(frame.f_code.co_filename)
            frames.append(f"{filename}:{frame.f_lineno}")
            generator = getattr(generator, "gi_yieldfrom", None)
            depth += 1
        if not frames:
            return "<unknown>"
        # The innermost workload frame (the deepest one that is not the
        # ThreadAPI helper in thread.py) is the allocation site.
        for entry in reversed(frames):
            if not entry.startswith("thread.py:"):
                return entry
        return frames[-1]
