"""Tests for the Section 2 assumption studies and mid-run reporting."""

import pytest

from repro.core.profiler import CheetahProfiler
from repro.pmu.sampler import PMU, PMUConfig
from repro.sim.engine import Engine
from repro.sim.params import MachineConfig
from repro.errors import SimulationError
from repro.experiments import assumptions
from repro.heap.allocator import CheetahAllocator
from repro.symbols.table import SymbolTable
from repro.workloads.phoenix import LinearRegression


class TestOversubscription:
    @pytest.fixture(scope="class")
    def result(self):
        return assumptions.run_oversubscription(num_threads=4,
                                                core_counts=(4, 2, 1))

    def test_ground_truth_drops_with_core_sharing(self, result):
        truths = [r.ground_truth_invalidations for r in result.rows]
        assert truths[0] > truths[-1]
        # All threads on one core: no cross-core invalidations exist.
        assert truths[-1] == 0

    def test_cheetah_count_insensitive_to_core_mapping(self, result):
        # Assumption 1 means Cheetah never looks at cores: its sampled
        # count stays roughly constant -> over-reporting under sharing.
        counts = [r.cheetah_sampled_invalidations for r in result.rows]
        assert max(counts) > 0
        assert min(counts) > 0.7 * max(counts)

    def test_render(self, result):
        text = result.render()
        assert "Assumption 1" in text
        assert "no real invalidations remain" in text


class TestFiniteCache:
    @pytest.fixture(scope="class")
    def result(self):
        return assumptions.run_finite_cache()

    def test_eviction_reduces_ground_truth(self, result):
        truths = [r.ground_truth_invalidations for r in result.rows]
        assert truths[0] > 2 * truths[-1]

    def test_cheetah_overreports_under_tiny_caches(self, result):
        baseline = result.rows[0]
        worst = result.rows[-1]
        assert worst.overreport_ratio(baseline) > 1.5

    def test_infinite_and_huge_cache_agree(self, result):
        assert (result.rows[0].ground_truth_invalidations
                == result.rows[1].ground_truth_invalidations)


class TestMidRunReporting:
    def _build(self):
        wl = LinearRegression(num_threads=8)
        symbols = SymbolTable()
        wl.setup(symbols)
        config = MachineConfig()
        pmu = PMU(PMUConfig(period=64))
        engine = Engine(config=config, symbols=symbols, pmu=pmu,
                        allocator=CheetahAllocator(line_size=64))
        profiler = CheetahProfiler()
        profiler.attach(engine)
        return wl, engine, profiler

    def test_checkpoint_fires_once_at_time(self):
        wl, engine, profiler = self._build()
        fired = []
        engine.add_checkpoint(200_000, lambda e, t: fired.append(t))
        engine.run(wl.main)
        assert len(fired) == 1
        assert fired[0] >= 200_000

    def test_checkpoints_fire_in_order(self):
        wl, engine, profiler = self._build()
        fired = []
        engine.add_checkpoint(300_000, lambda e, t: fired.append("late"))
        engine.add_checkpoint(100_000, lambda e, t: fired.append("early"))
        engine.run(wl.main)
        assert fired == ["early", "late"]

    def test_checkpoint_after_run_rejected(self):
        wl, engine, profiler = self._build()
        engine.run(wl.main)
        with pytest.raises(SimulationError):
            engine.add_checkpoint(1, lambda e, t: None)

    def test_mid_run_report_detects_instance(self):
        # The paper: Cheetah reports "either at the end of an execution,
        # or when interrupted by the user".
        wl, engine, profiler = self._build()
        captured = {}
        engine.add_checkpoint(
            400_000, lambda e, t: captured.setdefault(
                "report", profiler.report_now(t)))
        result = engine.run(wl.main)
        report = captured["report"]
        assert report.significant
        assert (report.best().profile.label
                == "linear_regression-pthread.c:139")
        assert report.runtime >= 400_000
        # Final report still works after the snapshot.
        final = profiler.finalize(result)
        assert final.significant

    def test_report_now_without_attach_rejected(self):
        from repro.errors import ProfilerError
        with pytest.raises(ProfilerError):
            CheetahProfiler().report_now()

    def test_snapshot_does_not_mutate_tracker(self):
        wl, engine, profiler = self._build()
        engine.add_checkpoint(200_000,
                              lambda e, t: profiler.report_now(t))
        result = engine.run(wl.main)
        # The real tracker closed at program end, not at the checkpoint.
        assert result.phases.phases[-1].end == result.runtime
