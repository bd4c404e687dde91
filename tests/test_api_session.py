"""The Session facade, config conventions and re-exports."""

import argparse
import warnings

import pytest

import repro
import repro.run
from repro.api import Session
from repro.config import build_configs
from repro.core.detection import DetectorConfig
from repro.core.profiler import CheetahConfig
from repro.errors import ConfigError
from repro.obs import ObsConfig
from repro.pmu.sampler import PMUConfig
from repro.run import run_workload
from repro.sim.params import LatencyModel, MachineConfig
from repro.workloads.micro import ArrayIncrement


class TestSessionForms:
    def test_by_name(self):
        out = Session("array_increment", threads=2, scale=0.1).run()
        assert out.runtime > 0

    def test_by_class(self):
        out = Session(ArrayIncrement, threads=2, scale=0.1).run()
        assert out.runtime > 0

    def test_by_instance(self):
        out = Session(ArrayIncrement(num_threads=2, scale=0.1)).run()
        assert out.runtime > 0

    def test_by_callable(self):
        def program(api):
            buf = yield from api.malloc(64)
            yield from api.loop(buf, 4, 4, read=True, write=True, work=1)
        out = Session(program).run()
        assert out.result.total_accesses == 8  # 4 elements, read + write

    def test_instance_with_overrides_rejected(self):
        instance = ArrayIncrement(num_threads=2, scale=0.1)
        with pytest.raises(ConfigError):
            Session(instance, threads=4)

    def test_unknown_workload_type_rejected(self):
        with pytest.raises(ConfigError):
            Session(42)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            Session("no_such_workload")


class TestSessionResults:
    def test_run_matches_legacy_path(self):
        legacy = run_workload(ArrayIncrement(num_threads=2, scale=0.2))
        via_api = Session("array_increment", threads=2, scale=0.2).run()
        assert via_api.runtime == legacy.runtime
        assert (via_api.result.total_accesses
                == legacy.result.total_accesses)

    def test_profile_matches_legacy_report(self):
        legacy = run_workload(ArrayIncrement(num_threads=4, scale=0.2),
                              with_cheetah=True)
        session = Session("array_increment", threads=4, scale=0.2)
        assert session.report().render() == legacy.report.render()

    def test_results_cached(self):
        session = Session("array_increment", threads=2, scale=0.1)
        assert session.run() is session.run()
        assert session.profile() is session.profile()
        assert session.report() is session.profile().report

    def test_obs_plumbed_through(self):
        session = Session("array_increment", threads=2, scale=0.1,
                          obs=ObsConfig(trace=False))
        out = session.run()
        metrics = out.metrics
        assert metrics["counters"]["sim_accesses_total"] \
            == out.result.total_accesses

    def test_detector_config_folded_into_cheetah(self):
        detector = DetectorConfig(detail_threshold_writes=2)
        session = Session("array_increment", detector=detector)
        assert session.cheetah.detector is detector

    def test_fresh_instance_per_execution(self):
        # run() and profile() must not share one workload's rng stream.
        session = Session("array_increment", threads=2, scale=0.2)
        plain = Session("array_increment", threads=2, scale=0.2)
        session.profile()
        assert session.run().runtime == plain.run().runtime


class TestConfigConventions:
    def test_round_trip(self):
        cfg = MachineConfig(num_cores=8, cache_line_size=32)
        again = MachineConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="wat"):
            PMUConfig.from_dict({"wat": 1})

    def test_nested_config_from_mapping(self):
        cfg = MachineConfig.from_dict({"latency": {"l1_hit": 9}})
        assert isinstance(cfg.latency, LatencyModel)
        assert cfg.latency.l1_hit == 9

    def test_from_dict_runs_validation(self):
        with pytest.raises(ConfigError):
            MachineConfig.from_dict({"num_cores": 0})

    def test_replace_reruns_validation(self):
        with pytest.raises(ConfigError):
            MachineConfig().replace(num_cores=0)

    def test_replace_returns_modified_copy(self):
        base = CheetahConfig()
        changed = base.replace(report_true_sharing=True)
        assert changed.report_true_sharing
        assert not base.report_true_sharing

    def test_obs_config_validates(self):
        with pytest.raises(ConfigError):
            ObsConfig(max_events=-1)


class TestBuildConfigs:
    def _args(self, **kwargs):
        return argparse.Namespace(**kwargs)

    def test_defaults(self):
        cfg = build_configs(self._args(workload="histogram"))
        request = cfg.request
        assert request.machine_config() is None
        assert request.pmu_config() is None and cfg.obs is None
        assert (request.threads, request.scale, request.fixed) == (
            None, 1.0, False)

    def test_machine_from_flags(self):
        cfg = build_configs(self._args(workload="histogram", line_size=32,
                                       cores=4))
        assert cfg.request.machine_config().cache_line_size == 32
        assert cfg.request.machine_config().num_cores == 4

    def test_period_builds_pmu(self):
        cfg = build_configs(self._args(workload="histogram", period=64))
        assert cfg.request.pmu_config().period == 64

    def test_trace_flag_builds_obs(self):
        cfg = build_configs(self._args(trace="out.json"))
        assert cfg.obs.trace and not cfg.obs.metrics

    def test_trace_command_builds_obs(self):
        cfg = build_configs(self._args(command="trace", accesses=True,
                                       max_events=10))
        assert cfg.obs.trace and cfg.obs.trace_accesses
        assert cfg.obs.max_events == 10

    def test_metrics_flag_builds_obs(self):
        cfg = build_configs(self._args(metrics="-"))
        assert cfg.obs.metrics and not cfg.obs.trace


class TestReexports:
    def test_blessed_names_at_top_level(self):
        assert repro.Session is Session
        assert repro.run_workload is repro.run.run_workload
        assert repro.RunOutcome is repro.run.RunOutcome
        assert repro.DEFAULT_SEEDS is repro.run.DEFAULT_SEEDS
        assert repro.CheetahConfig is CheetahConfig
        assert repro.DetectorConfig is DetectorConfig
        assert repro.PMUConfig is PMUConfig
        assert repro.MachineConfig is MachineConfig
        assert repro.ObsConfig is ObsConfig


class TestDeprecationShims:
    """The runner module's own names after its moved-name shim was
    retired (``tests/test_public_api.py::TestRetiredNames`` pins that
    the moved names are gone)."""

    def test_unknown_attribute_still_raises(self):
        import repro.experiments.runner as runner
        with pytest.raises(AttributeError):
            runner.no_such_thing

    def test_kept_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.experiments.runner import format_table  # noqa: F401
