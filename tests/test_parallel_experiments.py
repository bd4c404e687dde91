"""Serial vs parallel experiment equivalence.

Fanning a matrix out must be a pure scheduling change: every cell
derives its outputs from its arguments alone, and the ordered merge
reassembles rows exactly as the serial map produced them. These tests
run small configurations both ways and require equality of the
dataclass results.
"""

import inspect

import pytest

from repro import cli, experiments
from repro.experiments import figure4, scaling


class TestScalingEquivalence:
    def test_serial_vs_jobs4(self):
        serial = scaling.run(scale=0.1, thread_counts=(2, 4, 8))
        fanned = scaling.run(scale=0.1, thread_counts=(2, 4, 8), jobs=4)
        assert serial == fanned

    def test_jobs_one_delegates_to_serial(self):
        serial = scaling.run(scale=0.1, thread_counts=(2, 4))
        delegated = scaling.run(scale=0.1, thread_counts=(2, 4), jobs=1)
        assert serial == delegated

    def test_jobs_none_delegates_to_serial(self):
        serial = scaling.run(scale=0.1, thread_counts=(2,))
        delegated = scaling.run(scale=0.1, thread_counts=(2,), jobs=None)
        assert serial == delegated


class TestFigure4Equivalence:
    def test_serial_vs_jobs2_small_subset(self):
        names = ("histogram", "linear_regression")
        serial = figure4.run(scale=0.1, names=names, seeds=(11,))
        fanned = figure4.run(scale=0.1, names=names, seeds=(11,), jobs=2)
        assert serial == fanned

    def test_row_order_matches_submission_order(self):
        names = ("linear_regression", "histogram")
        fanned = figure4.run(scale=0.1, names=names, seeds=(11,), jobs=2)
        assert [r.name for r in fanned.rows] == list(names)


def _takes_jobs(name):
    module = getattr(experiments, name, None)
    run = getattr(module, "run", None)
    return run is not None and "jobs" in inspect.signature(run).parameters


class TestRunnerRegistry:
    def test_all_declared_experiments_have_runners(self):
        """``--jobs`` fans out exactly the experiments whose ``run``
        takes ``jobs``."""
        assert set(cli.JOBS_EXPERIMENTS) == set(
            filter(_takes_jobs, cli.EXPERIMENTS))

    @pytest.mark.parametrize("name", cli.JOBS_EXPERIMENTS)
    def test_runner_accepts_jobs_kwarg(self, name):
        sig = inspect.signature(getattr(experiments, name).run)
        assert "jobs" in sig.parameters
        assert "scale" in sig.parameters
