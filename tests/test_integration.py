"""Cross-module integration tests: the paper's end-to-end claims at
reduced scale."""

import pytest

from repro import Session
from repro.baselines.predator import PredatorDetector
from repro.core.detection import SharingKind
from repro.run import run_workload
from repro.heap.bump import BumpAllocator
from repro.pmu.sampler import PMU, PMUConfig
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig
from repro.symbols.table import SymbolTable
from repro.workloads import get_workload
from repro.workloads.phoenix import (
    LINEAR_REGRESSION_CALLSITE, LinearRegression,
)

FAST_PMU = PMUConfig(period=64)


class TestLinearRegressionCaseStudy:
    """Section 4.2.1: the flagship detection + assessment story."""

    def test_detected_with_exact_callsite(self):
        report = Session(LinearRegression(num_threads=8, scale=0.5),
                         pmu=FAST_PMU).report()
        assert report.significant
        best = report.best()
        assert best.profile.label == LINEAR_REGRESSION_CALLSITE
        assert best.kind is SharingKind.FALSE_SHARING

    def test_word_level_breakdown_shows_disjoint_threads(self):
        report = Session(LinearRegression(num_threads=8, scale=0.5),
                         pmu=FAST_PMU).report()
        words = report.best().profile.word_summary
        assert len(words) >= 10  # several struct fields observed
        multi_tid_words = [w for w in words.values() if len(w["tids"]) > 1]
        # False sharing: the overwhelming majority of words are
        # single-thread.
        assert len(multi_tid_words) <= len(words) * 0.3

    def test_prediction_within_tolerance_of_real_fix(self):
        # Table 1's property at test scale: the per-run prediction lands
        # near the measured improvement of actually applying the fix.
        orig = Session(LinearRegression(num_threads=8, scale=0.5)).run()
        fixed = Session(
            LinearRegression(num_threads=8, scale=0.5, fixed=True)).run()
        real = orig.runtime / fixed.runtime
        report = Session(LinearRegression(num_threads=8, scale=0.5),
                         pmu=FAST_PMU).report()
        predicted = report.best().improvement
        assert predicted == pytest.approx(real, rel=0.35)
        assert predicted > 2.0

    def test_points_object_not_reported(self):
        # The read-only points buffer shares lines across nothing: only
        # tid_args may be reported.
        report = Session(LinearRegression(num_threads=8, scale=0.5),
                         pmu=FAST_PMU).report()
        labels = {r.profile.label for r in report.significant}
        assert labels == {LINEAR_REGRESSION_CALLSITE}


class TestFigure7Story:
    """Cheetah misses negligible instances; Predator finds them."""

    @pytest.mark.parametrize("name", ["histogram", "reverse_index",
                                      "word_count"])
    def test_cheetah_misses_negligible_fs(self, name):
        cls = get_workload(name)
        report = Session(cls(num_threads=16, scale=0.5)).report()
        assert report.significant == []

    @pytest.mark.parametrize("name", ["histogram", "reverse_index",
                                      "word_count"])
    def test_predator_finds_what_cheetah_missed(self, name):
        cls = get_workload(name)
        wl = cls(num_threads=16, scale=0.5)
        symbols = SymbolTable()
        wl.setup(symbols)
        config = MachineConfig()
        predator = PredatorDetector(min_invalidations=20)
        engine = Engine(config=config, machine=Machine(config),
                        symbols=symbols, observer=predator)
        engine.run(wl.main)
        findings = predator.false_sharing_findings(engine.allocator,
                                                   engine.symbols)
        assert findings, f"Predator must detect the {name} instance"


class TestAllocatorAblation:
    """The Hoard-style heap prevents inter-object false sharing that the
    naive bump allocator creates (Section 2.2)."""

    @staticmethod
    def _program(api):
        # Each thread allocates its own tiny object, then hammers it.
        def worker(api):
            mine = yield from api.malloc(8, callsite="tiny.c:1")
            yield from api.loop(mine, 0, 1, read=True, write=True,
                                work=2, repeat=400)
        tids = []
        for _ in range(4):
            tids.append((yield from api.spawn(worker)))
        yield from api.join_all(tids)

    def test_bump_allocator_creates_inter_object_fs(self):
        config = MachineConfig()
        engine = Engine(config=config,
                        machine=Machine(config, jitter_seed=1),
                        allocator=BumpAllocator(line_size=64))
        result = engine.run(self._program)
        assert result.machine.directory.total_invalidations() > 100

    def test_cheetah_allocator_prevents_it(self):
        result = Session(self._program).run().result
        assert result.machine.directory.total_invalidations() == 0

    def test_runtime_gap_between_allocators(self):
        config = MachineConfig()
        bump_engine = Engine(config=config,
                             machine=Machine(config, jitter_seed=1),
                             allocator=BumpAllocator(line_size=64))
        bump_rt = bump_engine.run(self._program).runtime
        hoard_rt = Session(self._program).run().runtime
        assert bump_rt > hoard_rt * 1.5


class TestOverheadEconomics:
    def test_cheetah_overhead_far_below_predator(self):
        cls = get_workload("histogram")
        wl_args = dict(num_threads=16, scale=0.4)
        native = run_workload(cls(**wl_args), jitter_seed=2).runtime
        cheetah = run_workload(cls(**wl_args), jitter_seed=2,
                               with_cheetah=True).runtime
        predator = PredatorDetector()
        instrumented = run_workload(cls(**wl_args), jitter_seed=2,
                                    observer=predator).runtime
        cheetah_overhead = cheetah / native
        predator_overhead = instrumented / native
        assert cheetah_overhead < 1.25
        assert predator_overhead > 3.0


class TestCacheLineSizeSensitivity:
    def test_streamcluster_fs_disappears_on_32_byte_lines(self):
        # On a machine whose lines really are 32 bytes, the authors'
        # padding is correct and there is no false sharing.
        cls = get_workload("streamcluster")
        cfg64 = MachineConfig(cache_line_size=64)
        cfg32 = MachineConfig(cache_line_size=32)
        out64 = run_workload(cls(num_threads=8, scale=0.3),
                             machine_config=cfg64, jitter_seed=1)
        out32 = run_workload(cls(num_threads=8, scale=0.3),
                             machine_config=cfg32, jitter_seed=1)
        def slot_invalidations(out):
            alloc = out.result.allocator
            total = 0
            shift = out.result.machine.config.line_shift
            for line, count in (out.result.machine.directory
                                .lines_with_invalidations(1).items()):
                info = alloc.find(line << shift)
                if info is not None and "streamcluster" in info.callsite:
                    total += count
            return total
        assert slot_invalidations(out64) > 100
        assert slot_invalidations(out32) < 20
