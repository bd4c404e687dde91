"""Tests sweeping the detector over the synthetic pattern matrix."""

import pytest

from repro import Session
from repro.core.detection import SharingKind
from repro.errors import ConfigError
from repro.run import run_workload
from repro.heap.bump import BumpAllocator
from repro.pmu.sampler import PMUConfig
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig
from repro.symbols.table import SymbolTable
from repro.workloads.synthetic import PATTERNS, SyntheticSharing

FAST_PMU = PMUConfig(period=32)


def profile_pattern(pattern, **kwargs):
    """(run result, report) of one profiled synthetic pattern."""
    wl = SyntheticSharing(pattern=pattern, **kwargs)
    outcome = Session(wl, pmu=FAST_PMU).profile()
    return outcome.result, outcome.report


class TestPatterns:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSharing(pattern="weird")

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_all_patterns_run(self, pattern):
        out = run_workload(SyntheticSharing(pattern=pattern, scale=0.2),
                           jitter_seed=1)
        assert out.runtime > 0

    def test_false_pattern_detected_as_false_sharing(self):
        result, report = profile_pattern("false")
        assert report.significant
        assert report.best().kind is SharingKind.FALSE_SHARING

    def test_true_pattern_not_in_significant(self):
        result, report = profile_pattern("true")
        assert report.significant == []

    def test_read_pattern_produces_no_instances(self):
        result, report = profile_pattern("read")
        assert report.all_instances == []
        assert result.machine.directory.total_invalidations() == 0

    def test_private_pattern_clean(self):
        result, report = profile_pattern("private")
        assert report.significant == []
        assert result.machine.directory.total_invalidations() == 0

    def test_fixed_false_pattern_clean(self):
        result, report = profile_pattern("false", fixed=True)
        assert report.significant == []

    def test_false_pattern_ground_truth_invalidations(self):
        out = run_workload(SyntheticSharing(pattern="false"), jitter_seed=1)
        assert out.result.machine.directory.total_invalidations() > 200


class TestInterObjectPattern:
    def _run(self, allocator):
        wl = SyntheticSharing(pattern="inter_object")
        config = MachineConfig()
        symbols = SymbolTable()
        wl.setup(symbols)
        engine = Engine(config=config,
                        machine=Machine(config, jitter_seed=1),
                        symbols=symbols, allocator=allocator)
        return engine.run(wl.main)

    def test_bump_allocator_exhibits_the_bug(self):
        from repro.heap.allocator import CheetahAllocator
        bump = self._run(BumpAllocator(line_size=64))
        hoard = self._run(CheetahAllocator(line_size=64))
        assert bump.machine.directory.total_invalidations() > 200
        assert hoard.machine.directory.total_invalidations() == 0
        assert bump.runtime > hoard.runtime
