"""Additional engine coverage: API helpers, checkpoints, burst-boundary
behaviour, observer+PMU composition, RunResult accessors."""

import pytest

from repro.errors import SimulationError
from repro.pmu.sampler import PMU, PMUConfig
from repro.runtime.thread import _BurstState
from repro.sim.engine import Engine, Observer
from repro.sim.machine import Machine
from repro.sim.ops import LoopAccess
from repro.sim.params import MachineConfig


def quiet_engine(**kwargs):
    kwargs.setdefault("machine", Machine(MachineConfig(), timing_jitter=0))
    return Engine(**kwargs)


class TestApiHelpers:
    def test_fence_is_visible_no_memory_traffic(self):
        def main(api):
            yield from api.fence()
        result = quiet_engine().run(main)
        assert result.threads[0].mem_accesses == 0
        assert result.threads[0].instructions == 1

    def test_work_zero_is_skipped(self):
        def main(api):
            yield from api.work(0)
            yield from api.work(-5)
        result = quiet_engine().run(main)
        assert result.runtime == 0

    def test_spawn_with_name(self):
        def child(api):
            yield from api.work(1)
        def main(api):
            tid = yield from api.spawn(child, name="renderer")
            yield from api.join(tid)
        result = quiet_engine().run(main)
        assert result.threads[1].name == "renderer"

    def test_default_thread_name_from_function(self):
        def encoder_worker(api):
            yield from api.work(1)
        def main(api):
            tid = yield from api.spawn(encoder_worker)
            yield from api.join(tid)
        result = quiet_engine().run(main)
        assert result.threads[1].name == "encoder_worker"

    def test_load_returns_none_value(self):
        # Loads have no modelled value; the API returns None.
        def main(api):
            value = yield from api.load(0x100)
            assert value is None
        quiet_engine().run(main)


class TestCallsiteCapture:
    def test_nested_helper_reports_workload_frame(self):
        def allocate_buffer(api, size):
            addr = yield from api.malloc(size)
            return addr
        def main(api):
            addr = yield from allocate_buffer(api, 64)
            yield from api.store(addr)
        engine = quiet_engine()
        engine.run(main)
        info = engine.allocator.all_allocations()[0]
        # The deepest non-API frame is inside this test file.
        assert info.callsite.startswith("test_engine_more.py:")

    def test_callsites_distinguish_sites(self):
        def main(api):
            a = yield from api.malloc(64)
            b = yield from api.malloc(64)
            yield from api.store(a)
            yield from api.store(b)
        engine = quiet_engine()
        engine.run(main)
        sites = [i.callsite for i in engine.allocator.all_allocations()]
        assert len(set(sites)) == 2


class TestBurstBoundaries:
    def test_two_threads_interleave_within_bursts(self):
        # A long burst must not run to completion atomically: the
        # min-clock discipline interleaves at access granularity, which
        # the invalidation counts depend on.
        def worker(api, addr):
            yield from api.loop(addr, 0, 1, read=True, write=True,
                                repeat=200)
        def main(api):
            buf = yield from api.malloc(64)
            t1 = yield from api.spawn(worker, buf)
            t2 = yield from api.spawn(worker, buf + 4)
            yield from api.join(t1)
            yield from api.join(t2)
        engine = quiet_engine()
        result = engine.run(main)
        # If bursts ran atomically there would be exactly 2 transfers;
        # interleaved execution produces orders of magnitude more.
        assert result.machine.directory.total_invalidations() > 50

    def test_repeat_zero_burst_is_noop(self):
        def main(api):
            yield from api.loop(0x1000, 4, 5, repeat=0)
            yield from api.work(7)
        result = quiet_engine().run(main)
        assert result.runtime == 7
        assert result.threads[0].mem_accesses == 0


class TestCheckpoints:
    def test_checkpoint_at_zero_fires_immediately(self):
        seen = []
        def main(api):
            yield from api.work(100)
        engine = quiet_engine()
        engine.add_checkpoint(0, lambda e, t: seen.append(t))
        engine.run(main)
        assert seen and seen[0] >= 0

    def test_checkpoint_beyond_end_never_fires(self):
        seen = []
        def main(api):
            yield from api.work(10)
        engine = quiet_engine()
        engine.add_checkpoint(10**12, lambda e, t: seen.append(t))
        engine.run(main)
        assert seen == []

    def test_callback_can_inspect_live_threads(self):
        # Two children keep the scheduler alternating in bounded quanta,
        # so the checkpoint observes them mid-flight. (Pending checkpoints
        # also bound the quantum themselves — see
        # test_checkpoint_regression.py — so a single runnable thread
        # would work too; two threads additionally pin the states seen.)
        def child(api):
            for _ in range(100):
                yield from api.loop(0x3000, 4, 10, read=True, write=False,
                                    work=100)
        def main(api):
            t1 = yield from api.spawn(child)
            t2 = yield from api.spawn(child)
            yield from api.join(t1)
            yield from api.join(t2)
        states = []
        engine = quiet_engine()
        engine.add_checkpoint(
            50_000,
            lambda e, t: states.append(
                (e.threads[1].state.value, e.threads[2].state.value)))
        engine.run(main)
        assert states == [("runnable", "runnable")]


class TestComposition:
    def test_observer_and_pmu_together(self):
        class Counting(Observer):
            cost_per_access = 0
            def __init__(self):
                self.count = 0
            def on_access(self, *args):
                self.count += 1
        obs = Counting()
        pmu = PMU(PMUConfig(period=8, handler_cost=0, trap_cost=0,
                            thread_setup_cost=0))
        seen = []
        pmu.install_handler(seen.append)
        def main(api):
            yield from api.loop(0x1000, 4, 100, read=True, write=False)
        engine = quiet_engine(observer=obs, pmu=pmu)
        result = engine.run(main)
        assert obs.count == 100       # observer sees everything
        assert 5 <= len(seen) <= 25   # PMU samples sparsely


class TestRunResult:
    def test_accessors(self):
        def child(api):
            yield from api.loop(0x2000, 4, 10, read=True, write=False)
        def main(api):
            tid = yield from api.spawn(child)
            yield from api.join(tid)
        result = quiet_engine().run(main)
        assert result.thread_runtime(1) == result.threads[1].runtime
        assert result.total_accesses == 10
        assert result.total_instructions >= 10
        # Every simulate run records the one fast burst loop.
        assert result.metadata == {"kernel": "fused"}


class TestBurstStateInvariants:
    def test_positive_extents_accepted(self):
        state = _BurstState(LoopAccess(0x100, 8, 4, repeat=2))
        assert state.count == 4 and state.repeat_total == 2

    @pytest.mark.parametrize("count,repeat", [(0, 5), (5, 0), (0, 0)])
    def test_zero_extents_rejected(self, count, repeat):
        op = LoopAccess(0x100, 8, 1, repeat=1)
        op.count = count
        op.repeat = repeat
        with pytest.raises(SimulationError, match="positive extents"):
            _BurstState(op)

    def test_negative_extents_rejected(self):
        op = LoopAccess(0x100, 8, 1, repeat=1)
        op.count = -3
        with pytest.raises(SimulationError, match="positive extents"):
            _BurstState(op)

    def test_zero_trip_loops_stay_noops(self):
        # The engine filters zero-trip loops before building burst
        # state, so programs using them still run (and do nothing).
        def program(api):
            buf = yield from api.malloc(64)
            yield from api.loop(buf, 8, 0, repeat=5)
            yield from api.loop(buf, 8, 5, repeat=0)
        result = Engine().run(program)
        assert result.total_accesses == 0
