"""Golden determinism tests: same workload + seeds twice => identical
outputs, and identical to the outputs recorded in
``tests/data/determinism_golden.json``.

The fused burst loop, the private-HIT fast path and the pin-table
pruning (all perf work) must not perturb a single access: the machine's
jitter stream is consumed once per access in global order, so *any*
reordering or skipped bookkeeping shows up here as a changed runtime,
invalidation count or report. The golden file pins the outputs across
commits, not just within one; ``tools/determinism_ref.py`` generates it
and holds the fingerprint these tests recompute.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.run import run_workload
from repro.workloads.phoenix import Histogram, LinearRegression

_ROOT = Path(__file__).resolve().parents[1]
_GOLDEN = json.loads(
    (_ROOT / "tests" / "data" / "determinism_golden.json").read_text())


def _determinism_ref():
    spec = importlib.util.spec_from_file_location(
        "determinism_ref", _ROOT / "tools" / "determinism_ref.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _native_fingerprint(workload):
    outcome = run_workload(workload, jitter_seed=11)
    result = outcome.result
    machine = result.machine
    return (
        result.runtime,
        result.steps,
        result.total_accesses,
        result.total_instructions,
        machine.total_accesses,
        machine.total_cycles,
        machine.prefetch_hits,
        machine.stall_cycles,
        machine.directory.total_invalidations(),
        tuple(sorted((tid, t.runtime, t.mem_cycles)
                     for tid, t in result.threads.items())),
    )


def _cheetah_fingerprint(workload):
    outcome = run_workload(workload, jitter_seed=11, with_cheetah=True)
    report = outcome.report
    return (
        outcome.result.runtime,
        outcome.result.steps,
        report.total_samples,
        tuple((r.profile.label, r.profile.accesses,
               r.assessment.improvement) for r in report.significant),
    )


class TestNativeDeterminism:
    def test_linear_regression_run_twice_identical(self):
        first = _native_fingerprint(
            LinearRegression(num_threads=8, scale=0.25))
        second = _native_fingerprint(
            LinearRegression(num_threads=8, scale=0.25))
        assert first == second

    def test_histogram_run_twice_identical(self):
        first = _native_fingerprint(Histogram(num_threads=4, scale=0.25))
        second = _native_fingerprint(Histogram(num_threads=4, scale=0.25))
        assert first == second

    def test_different_seed_changes_outputs(self):
        base = run_workload(LinearRegression(num_threads=4, scale=0.25),
                            jitter_seed=11)
        other = run_workload(LinearRegression(num_threads=4, scale=0.25),
                             jitter_seed=12)
        assert base.runtime != other.runtime


class TestCheetahDeterminism:
    def test_profiled_run_twice_identical(self):
        first = _cheetah_fingerprint(
            LinearRegression(num_threads=8, scale=0.25))
        second = _cheetah_fingerprint(
            LinearRegression(num_threads=8, scale=0.25))
        assert first == second


class TestFastPathMatchesGeneralPath:
    def test_trace_observer_disables_fast_path_same_invalidations(self):
        """The observed (general) loop and the fused loop must agree on
        coherence ground truth; timing differs only by the observer's
        instrumentation cost model, while the access sequence — and so
        the invalidation counts — is identical."""
        from repro.trace.recorder import TraceRecorder

        native = run_workload(LinearRegression(num_threads=4, scale=0.25),
                              jitter_seed=11)
        observed = run_workload(LinearRegression(num_threads=4, scale=0.25),
                                jitter_seed=11, observer=TraceRecorder())
        a = native.result.machine.directory
        b = observed.result.machine.directory
        assert a.total_invalidations() == b.total_invalidations()
        assert native.result.total_accesses == observed.result.total_accesses


class TestGoldenFingerprints:
    """Multi-threaded native and Cheetah runs (their fused burst loops
    switch threads in place) reproduce the recorded outputs exactly."""

    @pytest.fixture(scope="class")
    def ref(self):
        return _determinism_ref()

    def test_golden_covers_every_single_run(self, ref):
        assert sorted(_GOLDEN) == sorted(ref.RUNS)

    @pytest.mark.parametrize("key", sorted(_GOLDEN))
    def test_run_matches_golden(self, ref, key):
        assert ref.fingerprint_run(**ref.RUNS[key]) == _GOLDEN[key]
