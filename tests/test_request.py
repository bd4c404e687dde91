"""The unified v2 RunRequest: validation, resolution, equivalence."""

import pytest

from repro.core.profiler import CheetahConfig
from repro.errors import ConfigError
from repro.pmu.adaptive import AdaptiveConfig
from repro.pmu.sampler import PMUConfig
from repro.request import RunRequest
from repro.service.spec import RunSpec
from repro.sim.params import MachineConfig


class TestValidation:
    def test_workload_required(self):
        with pytest.raises(ConfigError, match="workload"):
            RunRequest(workload="")

    def test_bad_kernel(self):
        with pytest.raises(ConfigError, match="kernel"):
            RunRequest(workload="histogram", kernel="turbo")
        with pytest.raises(ConfigError, match="kernel"):
            MachineConfig(kernel="turbo")

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            RunRequest(workload="histogram", mode="guess")

    def test_bad_detector(self):
        with pytest.raises(ConfigError, match="detector"):
            RunRequest(workload="histogram", detector="psychic")

    def test_bad_threads(self):
        with pytest.raises(ConfigError, match="threads"):
            RunRequest(workload="histogram", threads=0)

    def test_bad_scale(self):
        with pytest.raises(ConfigError, match="scale"):
            RunRequest(workload="histogram", scale=-1.0)

    def test_bad_period(self):
        with pytest.raises(ConfigError, match="period"):
            RunRequest(workload="histogram", period=0)


class TestFieldTypes:
    """Job bodies are untrusted JSON: a wrong type is a ConfigError at
    construction, never a TypeError later or a run under another key."""

    @pytest.mark.parametrize("field,value", [
        ("threads", "8"), ("threads", True), ("threads", 2.0),
        ("scale", "x"), ("scale", True), ("scale", float("nan")),
        ("scale", float("inf")), ("fixed", "false"), ("fixed", 1),
        ("profile", "yes"), ("adaptive", 0), ("true_sharing", None),
        ("seed", 1.5), ("period", "8"), ("line_size", "64"),
        ("cores", 8.0), ("numa_nodes", False), ("kernel", ["fused"]),
        ("machine", 5), ("pmu", {"period": 8}), ("cheetah", "default")])
    def test_request_field_of_wrong_type(self, field, value):
        with pytest.raises(ConfigError, match=f"RunRequest.{field} must be"):
            RunRequest(workload="histogram", **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("threads", "8"), ("scale", "x"), ("scale", float("-inf")),
        ("fixed", "false"), ("workload_seed", True),
        ("with_cheetah", 1), ("machine", {"num_cores": 8})])
    def test_spec_field_of_wrong_type(self, field, value):
        with pytest.raises(ConfigError, match=f"RunSpec.{field} must be"):
            RunSpec(workload="histogram", **{field: value})

    def test_spec_ranges(self):
        with pytest.raises(ConfigError, match="threads"):
            RunSpec(workload="histogram", threads=0)
        with pytest.raises(ConfigError, match="scale"):
            RunSpec(workload="histogram", scale=0)

    def test_ints_are_valid_scales(self):
        assert RunRequest(workload="histogram", scale=2).to_spec().scale == 2

    def test_spec_from_dict_rejects_non_mappings_and_unknown_keys(self):
        with pytest.raises(ConfigError, match="mapping"):
            RunSpec.from_dict([1])
        with pytest.raises(ConfigError, match="unknown RunSpec key"):
            RunSpec.from_dict({"workload": "histogram", "bogus": 1})

    def test_spec_from_dict_decodes_nested_configs(self):
        spec = RunSpec.from_dict({"workload": "histogram",
                                  "machine": {"num_cores": 8}})
        assert spec.machine == MachineConfig(num_cores=8)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("data,message", [
        ({"machine": {"num_cores": "8"}}, "MachineConfig.num_cores"),
        ({"machine": {"latency": 5}}, "MachineConfig.latency"),
        ({"pmu": {"period": "8"}}, "PMUConfig.period"),
        ({"pmu": {"adaptive": {"rotation": [[1]]}}},
         "AdaptiveConfig.rotation"),
        ({"cheetah": {"detector": 3}}, "CheetahConfig.detector")])
    def test_nested_config_field_of_wrong_type(self, data, message):
        with pytest.raises(ConfigError, match=message):
            RunRequest.from_dict({"workload": "histogram", **data})

    def test_unfixed_layout_is_not_a_third_key(self):
        """``fixed: "false"`` used to run the padded layout under a key
        of its own; now only the two bools name a layout."""
        with pytest.raises(ConfigError, match="fixed"):
            RunRequest.from_dict({"workload": "linear_regression",
                                  "fixed": "false"})
        keys = {RunRequest(workload="linear_regression",
                           fixed=fixed).to_spec().key()
                for fixed in (False, True)}
        assert len(keys) == 2


class TestProfiledImplication:
    def test_plain_request_is_not_profiled(self):
        assert not RunRequest(workload="histogram").profiled

    def test_each_profiling_knob_implies_profiled(self):
        assert RunRequest(workload="histogram", profile=True).profiled
        assert RunRequest(workload="histogram", period=5000).profiled
        assert RunRequest(workload="histogram", adaptive=True).profiled
        assert RunRequest(workload="histogram",
                          detector="windowed").profiled
        assert RunRequest(workload="histogram", true_sharing=True).profiled
        assert RunRequest(workload="histogram", pmu=PMUConfig()).profiled
        assert RunRequest(workload="histogram",
                          cheetah=CheetahConfig()).profiled


class TestConfigResolution:
    def test_default_request_resolves_to_none_configs(self):
        request = RunRequest(workload="histogram")
        assert request.machine_config() is None
        assert request.pmu_config() is None
        assert request.cheetah_config() is None

    def test_scalar_knobs_override_base_configs(self):
        request = RunRequest(
            workload="histogram", kernel="vector", mode="sampled",
            line_size=32, cores=8, detector="windowed", period=2000,
            true_sharing=True)
        machine = request.machine_config()
        assert machine.kernel == "vector"
        assert machine.mode == "sampled"
        assert machine.cache_line_size == 32
        assert machine.num_cores == 8
        assert request.pmu_config().period == 2000
        cheetah = request.cheetah_config()
        assert cheetah.detector_mode == "windowed"
        assert cheetah.report_true_sharing

    def test_explicit_knob_wins_over_full_config(self):
        request = RunRequest(
            workload="histogram",
            machine=MachineConfig(kernel="fused"), kernel="vector")
        assert request.machine_config().kernel == "vector"

    def test_adaptive_uses_line_size(self):
        request = RunRequest(workload="histogram", adaptive=True,
                             line_size=32)
        adaptive = request.pmu_config().adaptive
        assert adaptive.enabled
        assert adaptive.line_size == 32


class TestOneFolding:
    """Session and RunRequest fold knobs through one function, so every
    spelling of a run names one spec."""

    def test_line_size_spellings_share_one_key(self):
        from repro.api import Session
        line32 = MachineConfig(cache_line_size=32)
        specs = [
            Session("streamcluster", adaptive=True,
                    machine=line32)._spec(with_cheetah=True),
            RunRequest(workload="streamcluster", adaptive=True,
                       machine=line32).to_spec(),
            RunRequest(workload="streamcluster", adaptive=True,
                       line_size=32).to_spec(),
        ]
        assert len({spec.key() for spec in specs}) == 1
        for spec in specs:
            assert spec.pmu.adaptive.enabled
            assert spec.pmu.adaptive.line_size == 32

    def test_adaptive_keeps_the_base_policy(self):
        request = RunRequest(
            workload="histogram", adaptive=True,
            pmu=PMUConfig(adaptive=AdaptiveConfig(min_period=50)))
        adaptive = request.pmu_config().adaptive
        assert adaptive.enabled
        assert adaptive.min_period == 50

    def test_default_adaptive_request_keeps_its_key(self):
        spec = RunSpec(workload="histogram", with_cheetah=True,
                       pmu=PMUConfig(adaptive=AdaptiveConfig(enabled=True)))
        request = RunRequest(workload="histogram", adaptive=True)
        assert request.to_spec().key() == spec.key()

    def test_only_the_cli_builds_an_argument_parser(self):
        import ast
        from pathlib import Path

        import repro
        root = Path(repro.__file__).parent
        builders = set()
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                func = node.func if isinstance(node, ast.Call) else None
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name == "ArgumentParser":
                    builders.add(path.relative_to(root).as_posix())
        assert builders == {"cli.py"}


class TestSpecEquivalence:
    """request.to_spec() hashes identically to the hand-built spec."""

    def test_default_request_key_matches_hand_built_spec(self):
        request = RunRequest(workload="histogram", threads=4)
        spec = RunSpec(workload="histogram", threads=4)
        assert request.to_spec().key() == spec.key()

    def test_profiled_request_key_matches(self):
        request = RunRequest(workload="histogram", threads=4,
                             detector="windowed")
        spec = RunSpec(
            workload="histogram", threads=4, with_cheetah=True,
            cheetah=CheetahConfig(detector_mode="windowed"))
        assert request.to_spec().key() == spec.key()

    def test_session_equivalence(self):
        """Session.from_request == the hand-configured Session."""
        from repro.api import Session
        request = RunRequest(workload="histogram", threads=2, scale=0.2,
                             detector="windowed")
        via_request = Session.from_request(request).profile()
        direct = Session("histogram", threads=2, scale=0.2,
                         detector_mode="windowed").profile()
        assert via_request.to_dict() == direct.to_dict()

    def test_from_request_rejects_non_request(self):
        from repro.api import Session
        with pytest.raises(ConfigError, match="RunRequest"):
            Session.from_request({"workload": "histogram"})

    def test_run_request_through_service(self, tmp_path):
        from repro.service import RunService
        service = RunService(cache_dir=tmp_path)
        request = RunRequest(workload="histogram", threads=2, scale=0.2)
        first = service.run_request(request)
        second = service.run_request(request)
        assert second.from_cache
        assert first.to_dict() == second.to_dict()


class TestDictRoundTrip:
    def test_round_trip(self):
        request = RunRequest(
            workload="histogram", threads=4, scale=0.5, detector="windowed",
            kernel="vector", period=3000, machine=MachineConfig(num_cores=8))
        rebuilt = RunRequest.from_dict(request.to_dict())
        assert rebuilt == request

    def test_from_plain_json_mapping(self):
        rebuilt = RunRequest.from_dict({
            "workload": "histogram", "threads": 4,
            "machine": {"num_cores": 8}, "detector": "windowed"})
        assert rebuilt.machine == MachineConfig(num_cores=8)
        assert rebuilt.profiled

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunRequest.from_dict({"workload": "histogram", "speed": 11})

    def test_invalid_nested_config_rejected(self):
        with pytest.raises(ConfigError):
            RunRequest.from_dict({"workload": "histogram",
                                  "machine": {"num_cores": -1}})


class TestKernelKnobCompat:
    """``kernel`` stays on the frozen v2 API but selects nothing."""

    @staticmethod
    def fingerprint(outcome):
        result = outcome.result
        return (result.runtime, result.steps, outcome.invalidations,
                result.machine.total_cycles,
                {tid: (t.clock, t.instructions, t.mem_accesses, t.mem_cycles)
                 for tid, t in result.threads.items()})

    def test_every_kernel_runs_the_fused_loop(self):
        from repro.run import run_workload
        from repro.workloads import get_workload

        prints = set()
        for kernel in ("fused", "vector", "auto"):
            direct = run_workload(
                get_workload("histogram")(num_threads=2, scale=0.05),
                machine_config=MachineConfig(kernel=kernel))
            requested = RunRequest(workload="histogram", threads=2,
                                   scale=0.05, kernel=kernel).execute()
            for outcome in (direct, requested):
                assert outcome.result.metadata["kernel"] == "fused"
                assert "kernel_numpy" not in outcome.result.metadata
                prints.add(repr(self.fingerprint(outcome)))
        assert len(prints) == 1

    def test_kernel_stays_in_the_content_key(self):
        assert MachineConfig().to_dict()["kernel"] == "auto"
        assert RunRequest(workload="histogram",
                          kernel="vector").to_dict()["kernel"] == "vector"
        assert RunSpec(workload="histogram").key() == (
            "c28f9032716e3245040c314d1fe4f6ea32924125555a11a41b0d0d5d067d998a")
