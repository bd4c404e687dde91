"""Tests for the redesigned workload/ground-truth API and the
concurrent workload families."""

import warnings

import pytest

from repro.core.profiler import CheetahConfig
from repro.errors import ConfigError
from repro.run import run_workload
from repro.sim.params import MachineConfig
from repro.workloads import (
    CONCURRENT_NAMES,
    GroundTruth,
    Verdict,
    families,
    get_workload,
    iter_workloads,
    parameter_schema,
    suites,
    workload_info,
)

#: (workload, fast scale at which detection matches declared truth)
FAMILY_SCALES = {
    "producer_consumer_ring": 0.4,
    "work_stealing_deque": 0.4,
    "cas_retry_queue": 0.4,
    "seqlock_read_mostly": 0.75,
    "numa_ping_pong": 0.3,
}


def machine_for(cls):
    return (MachineConfig(**cls.machine_defaults)
            if cls.machine_defaults else None)


def profiled(workload, machine=None):
    return run_workload(
        workload, jitter_seed=1, with_cheetah=True, machine_config=machine,
        cheetah_config=CheetahConfig(report_true_sharing=True))


def three_way(report):
    kinds = {i.kind.value for i in report.all_instances}
    if "false sharing" in kinds:
        return "false sharing"
    if "true sharing" in kinds:
        return "true sharing"
    return "no sharing"


class TestVerdict:
    def test_coerce_accepts_member_value_and_name(self):
        assert Verdict.coerce(Verdict.TRUE_SHARING) is Verdict.TRUE_SHARING
        assert Verdict.coerce("false sharing") is Verdict.FALSE_SHARING
        assert Verdict.coerce("NONE") is Verdict.NONE

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown verdict"):
            Verdict.coerce("sideways sharing")


class TestGroundTruth:
    def test_constructors(self):
        fs = GroundTruth.false_sharing(objects=("x",), lines=2,
                                       fix_speedup=3.0)
        assert fs.verdict is Verdict.FALSE_SHARING and fs.significant
        ts = GroundTruth.true_sharing(objects=("head",))
        assert ts.verdict is Verdict.TRUE_SHARING and not ts.significant
        assert GroundTruth.none().verdict is Verdict.NONE

    def test_significant_requires_false_sharing(self):
        with pytest.raises(ConfigError):
            GroundTruth(verdict=Verdict.TRUE_SHARING, significant=True)

    def test_expected_lines_positive(self):
        with pytest.raises(ConfigError):
            GroundTruth(verdict=Verdict.FALSE_SHARING, expected_lines=0)

    def test_fix_speedup_positive(self):
        with pytest.raises(ConfigError):
            GroundTruth(verdict=Verdict.FALSE_SHARING,
                        expected_fix_speedup=-1.0)

    def test_dict_round_trip(self):
        truth = GroundTruth.false_sharing(
            objects=("a", "b"), lines=1, fix_speedup=5.7, note="n")
        assert GroundTruth.from_dict(truth.to_dict()) == truth

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            GroundTruth.from_dict({"verdict": "no sharing", "bogus": 1})

    def test_matches_sharing_kind_value(self):
        truth = GroundTruth.true_sharing()
        assert truth.matches("true sharing")
        assert not truth.matches("false sharing")


class TestRegistryQueries:
    def test_suites_and_families(self):
        assert "concurrent" in suites()
        for family in ("fork_join", "producer_consumer", "work_stealing",
                       "lock_free", "seqlock", "numa"):
            assert family in families()

    def test_iter_by_suite(self):
        names = [cls.name for cls in iter_workloads(suite="concurrent")]
        assert sorted(names) == sorted(CONCURRENT_NAMES)

    def test_iter_by_family(self):
        names = [cls.name for cls in iter_workloads(family="seqlock")]
        assert names == ["seqlock_read_mostly"]

    def test_iter_by_verdict_and_significance(self):
        significant = [cls.name for cls in iter_workloads(
            verdict=Verdict.FALSE_SHARING, significant=True)]
        assert "linear_regression" in significant
        assert "histogram" not in significant
        negligible = [cls.name for cls in iter_workloads(
            verdict="false sharing", significant=False)]
        assert "histogram" in negligible

    def test_iter_yields_name_order(self):
        names = [cls.name for cls in iter_workloads()]
        assert names == sorted(names)

    def test_nearest_match_suggestion(self):
        with pytest.raises(ConfigError,
                           match="did you mean 'linear_regression'"):
            get_workload("linear_regresion")

    def test_no_suggestion_for_garbage(self):
        with pytest.raises(ConfigError) as exc:
            get_workload("zzzzqqqq")
        assert "did you mean" not in str(exc.value)

    def test_parameter_schema(self):
        schema = parameter_schema(get_workload("producer_consumer_ring"))
        assert schema["scale"]["default"] == 1.0
        assert schema["num_threads"]["required"] is False

    def test_workload_info_shape(self):
        info = workload_info(get_workload("numa_ping_pong"))
        assert info["suite"] == "concurrent"
        assert info["family"] == "numa"
        assert info["ground_truth"]["verdict"] == "false sharing"
        assert info["machine_defaults"]["numa_nodes"] == 2
        assert "scale" in info["parameters"]


class TestDeprecatedBooleanPair:
    def test_derivation_matches_ground_truth_everywhere(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            for cls in iter_workloads():
                truth = cls.ground_truth
                assert cls.documented_false_sharing == (
                    truth.verdict is Verdict.FALSE_SHARING)
                assert cls.significant_false_sharing == (
                    truth.verdict is Verdict.FALSE_SHARING
                    and truth.significant)

    def test_synthetic_instance_override(self):
        cls = get_workload("synthetic")
        private = cls(pattern="private")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert private.documented_false_sharing is False
        assert any(issubclass(w.category, DeprecationWarning)
                   for w in caught)


class TestConcurrentFamiliesRun:
    @pytest.mark.parametrize("name", CONCURRENT_NAMES)
    def test_runs_and_is_deterministic(self, name):
        cls = get_workload(name)
        scale = FAMILY_SCALES[name] / 2
        a = run_workload(cls(scale=scale), jitter_seed=5,
                         machine_config=machine_for(cls))
        b = run_workload(cls(scale=scale), jitter_seed=5,
                         machine_config=machine_for(cls))
        assert a.runtime == b.runtime > 0
        assert a.result.total_accesses > 0

    @pytest.mark.parametrize("name", CONCURRENT_NAMES)
    def test_classified_per_declared_ground_truth(self, name):
        cls = get_workload(name)
        outcome = profiled(cls(scale=FAMILY_SCALES[name]),
                           machine=machine_for(cls))
        truth = cls.ground_truth
        observed = three_way(outcome.report)
        if truth.verdict is Verdict.FALSE_SHARING and truth.significant:
            # 100% recall: reported, significant, on the declared object.
            assert observed == "false sharing"
            labels = [i.profile.label
                      for i in outcome.report.significant]
            assert any(expected in label
                       for expected in truth.expected_objects
                       for label in labels)
        else:
            # Zero false positives on true-sharing/none families.
            assert observed != "false sharing"
            assert not outcome.report.significant

    @pytest.mark.parametrize(
        "name", [n for n in CONCURRENT_NAMES
                 if get_workload(n).ground_truth.significant])
    def test_fixed_layout_removes_significant_findings(self, name):
        cls = get_workload(name)
        outcome = profiled(cls(scale=FAMILY_SCALES[name], fixed=True),
                           machine=machine_for(cls))
        assert not outcome.report.significant

    def test_ring_communication_is_true_sharing_not_false(self):
        # The pc_ring slots are legitimately communicated through; only
        # the packed cursors may be reported as false sharing. Full
        # scale: sparser sampling can miss the second toucher of a
        # slot word and misread the hand-off as disjoint words.
        cls = get_workload("producer_consumer_ring")
        outcome = profiled(cls(scale=1.0))
        for instance in outcome.report.all_instances:
            if "pc_ring" in instance.profile.label:
                assert instance.kind.value == "true sharing"


class TestDetectionExperiment:
    def test_serial_table_all_ok(self):
        from repro.experiments import detection
        result = detection.run(
            scale=0.4, names=["producer_consumer_ring", "cas_retry_queue"])
        assert result.all_ok
        assert len(result.rows) == 2
        assert "ok" in result.render()

    def test_parallel_matches_serial(self):
        from repro.experiments import detection
        names = ["work_stealing_deque", "seqlock_read_mostly"]
        serial = detection.run(scale=0.75, names=names)
        fanned = detection.run(scale=0.75, names=names, jobs=2)
        assert fanned.rows == serial.rows
        assert not fanned.failures
