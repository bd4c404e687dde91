"""Tests for the analytical fast-forward mode (:mod:`repro.predict`).

Covers: profile extraction (prefix and trace sources), the analytical
model's accuracy against ground truth, thread/scale extrapolation,
sampled-burst mode (including bit-compatibility with simulate mode and
sanitizer pass-through), mode routing and error combos in
``run_workload``/``build_configs``/the CLI, predicted-outcome caching,
and the cross-validation harness plumbing.
"""

import argparse
import json

import pytest

from repro.cli import main as cli_main
from repro.config import build_configs
from repro.errors import ConfigError
from repro.predict import (
    PredictConfig,
    burst_seed,
    extract_profile,
    predict_from_profiles,
    predict_outcome,
    profile_from_trace,
    run_bursts,
    sampled_outcome,
)
from repro.predict.validate import (
    SMOKE_SET,
    measure_fast_forward,
    relative_error,
    render_fast_forward,
    run_validation,
    summarize,
    validate_workload,
)
from repro.run import RunOutcome, RunSummary, run_workload
from repro.sim.params import MachineConfig
from repro.trace.recorder import TraceRecorder
from repro.trace.storage import load_trace, save_trace
from repro.workloads.base import Workload, get_workload
from repro.workloads.micro import ArrayIncrement
from repro.workloads.synthetic import SyntheticSharing

SEED = 11


class TestWorkloadClone:
    def test_clone_preserves_ctor_args(self):
        wl = SyntheticSharing(num_threads=4, scale=1.5, seed=7,
                              pattern="true")
        dup = wl.clone()
        assert (dup.num_threads, dup.scale, dup.seed, dup.pattern) == \
            (4, 1.5, 7, "true")
        assert dup is not wl

    def test_clone_overrides_selectively(self):
        wl = ArrayIncrement(num_threads=8, scale=2.0)
        dup = wl.clone(scale=0.25)
        assert dup.scale == 0.25
        assert dup.num_threads == 8
        assert dup.total_elements == wl.total_elements
        # Derived values recompute from the new scale.
        assert dup.inner_iters < wl.inner_iters

    def test_clone_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown override"):
            SyntheticSharing().clone(bogus=1)

    def test_clone_produces_identical_run(self):
        wl = SyntheticSharing(scale=0.3)
        run_workload(wl, jitter_seed=SEED)  # consume the original's rng
        a = run_workload(wl.clone(), jitter_seed=SEED)
        b = run_workload(SyntheticSharing(scale=0.3), jitter_seed=SEED)
        assert a.result.runtime == b.result.runtime
        assert a.invalidations == b.invalidations

    def test_unclonable_workload_raises_config_error(self):
        class Hidden(Workload):
            name = "hidden-test"

            def __init__(self, fn):
                super().__init__()
                self._fn = fn  # ctor arg not recoverable by name

            def main(self, api):
                yield

        with pytest.raises(ConfigError, match="cannot be cloned"):
            Hidden(fn=lambda: None).clone()


class TestProfileExtraction:
    def test_profile_totals_match_run(self):
        wl = SyntheticSharing(num_threads=4, scale=0.3)
        truth = run_workload(SyntheticSharing(num_threads=4, scale=0.3),
                             jitter_seed=SEED)
        profile = extract_profile(wl, jitter_seed=SEED)
        assert profile.runtime == truth.result.runtime
        assert profile.invalidations == truth.invalidations
        assert profile.total_accesses == truth.result.total_accesses
        assert profile.source == "prefix"

    def test_per_line_ground_truth_invalidations(self):
        profile = extract_profile(SyntheticSharing(num_threads=4, scale=0.3),
                                  jitter_seed=SEED)
        assert sum(lp.invalidations for lp in profile.lines.values()) == \
            profile.invalidations
        contended = profile.contended_lines()
        assert contended  # the false pattern contends one line
        lp = next(iter(contended.values()))
        assert len(lp.writers) == 4
        assert lp.writer_switches > 0
        assert 0.0 < lp.alternation_rate <= 1.0

    def test_reuse_histogram_and_serial_latencies(self):
        profile = extract_profile(SyntheticSharing(num_threads=2, scale=0.2),
                                  jitter_seed=SEED)
        assert sum(profile.reuse_histogram.values()) > 0
        assert all(bucket >= 1 for bucket in profile.reuse_histogram)
        # Synthetic has no serial-phase accesses; histogram merges serially.
        assert profile.serial_latencies == []
        merged = extract_profile(get_workload("histogram")(num_threads=2,
                                                           scale=0.2),
                                 jitter_seed=SEED)
        assert merged.serial_latencies

    def test_detector_sees_every_access(self):
        profile = extract_profile(SyntheticSharing(num_threads=4, scale=0.2),
                                  jitter_seed=SEED)
        assert profile.detector.samples_seen == profile.total_accesses

    def test_extraction_forces_simulate_mode(self):
        # A predict-mode config must not recurse into prediction.
        profile = extract_profile(
            SyntheticSharing(num_threads=2, scale=0.2),
            machine_config=MachineConfig(mode="predict"), jitter_seed=SEED)
        assert profile.total_accesses > 0


class TestPredictConfig:
    def test_prefix_scales_clamp(self):
        cfg = PredictConfig()
        p1, p2 = cfg.prefix_scales(100.0)
        assert p1 == cfg.max_prefix_scale
        assert p2 == 2 * cfg.max_prefix_scale
        p1, p2 = cfg.prefix_scales(0.1)
        assert p1 == pytest.approx(0.05)
        assert p2 == pytest.approx(0.1)

    def test_tiny_target_single_point(self):
        p1, p2 = PredictConfig().prefix_scales(0.05)
        assert p1 == 0.05
        assert p2 is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            PredictConfig(prefix_fraction=0.0)
        with pytest.raises(ConfigError):
            PredictConfig(bursts=0)
        with pytest.raises(ConfigError):
            PredictConfig(max_prefix_scale=0.01)


class TestAnalyticalModel:
    def test_invalidation_accuracy_on_contended_workload(self):
        truth = run_workload(SyntheticSharing(num_threads=8, scale=2.0),
                             jitter_seed=SEED)
        pred = run_workload(SyntheticSharing(num_threads=8, scale=2.0),
                            machine_config=MachineConfig(mode="predict"),
                            jitter_seed=SEED)
        err = relative_error(pred.invalidations, truth.invalidations)
        assert err <= 0.10
        rt_err = abs(pred.runtime - truth.runtime) / truth.runtime
        assert rt_err <= 0.10

    def test_negative_control_stays_negative(self):
        pred = run_workload(
            SyntheticSharing(num_threads=8, scale=2.0, pattern="private"),
            machine_config=MachineConfig(mode="predict"),
            jitter_seed=SEED, with_cheetah=True)
        assert not pred.report.significant

    def test_verdict_and_report_shape(self):
        truth = run_workload(SyntheticSharing(num_threads=8, scale=2.0),
                             jitter_seed=SEED, with_cheetah=True)
        pred = run_workload(SyntheticSharing(num_threads=8, scale=2.0),
                            machine_config=MachineConfig(mode="predict"),
                            jitter_seed=SEED, with_cheetah=True)
        assert bool(pred.report.significant) == bool(truth.report.significant)
        assert pred.report.best().profile.label == \
            truth.report.best().profile.label
        assert pred.report.render()  # Figure 5 format renders

    def test_deterministic(self):
        outcomes = [
            run_workload(SyntheticSharing(num_threads=8, scale=2.0),
                         machine_config=MachineConfig(mode="predict"),
                         jitter_seed=SEED, with_cheetah=True).to_dict()
            for _ in range(2)
        ]
        assert outcomes[0] == outcomes[1]

    def test_metadata_tags(self):
        pred = run_workload(SyntheticSharing(num_threads=4, scale=1.0),
                            machine_config=MachineConfig(mode="predict"),
                            jitter_seed=SEED)
        meta = pred.result.metadata
        assert meta["predicted"] is True
        assert meta["mode"] == "predict"
        assert meta["kernel"] == "predict"
        assert meta["profile"]["calibration_points"] == 2
        assert pred.predicted
        assert pred.fresh
        assert not pred.from_cache

    def test_thread_extrapolation_scales_invalidations(self):
        # Above max_profile_threads (64) the model profiles at 64 threads
        # and extrapolates under the weak-scaling assumption.
        base = predict_outcome(SyntheticSharing(num_threads=64, scale=2.0),
                               jitter_seed=SEED)
        wide = predict_outcome(SyntheticSharing(num_threads=512, scale=2.0),
                               jitter_seed=SEED)
        assert base.result.metadata["target"]["thread_factor"] == \
            pytest.approx(1.0)
        assert wide.result.metadata["target"]["thread_factor"] == \
            pytest.approx(8.0)
        # Weak scaling: 8x the threads -> ~8x the invalidations.
        ratio = wide.invalidations / base.invalidations
        assert 6.0 <= ratio <= 10.0
        # Worker summaries exist for every target thread.
        assert len(wide.result.threads) == 513
        # Spawn/join costs for the extra threads land on main's clock.
        assert wide.runtime > base.runtime

    def test_huge_run_predicts_fast(self):
        # The acceptance scenario: 1024 threads, >=1e8 accesses, seconds.
        import time
        config = MachineConfig(num_cores=1024, mode="predict")
        start = time.perf_counter()
        pred = run_workload(SyntheticSharing(num_threads=1024, scale=65.0),
                            machine_config=config, jitter_seed=SEED,
                            with_cheetah=True)
        elapsed = time.perf_counter() - start
        assert pred.result.total_accesses >= 100_000_000
        assert elapsed < 30.0  # seconds, with huge CI margin
        assert pred.report is not None
        assert pred.result.metadata["predicted_pmu"]["samples_fired"] > 0

    def test_predict_rejects_check(self):
        with pytest.raises(ConfigError, match="sanitizer"):
            run_workload(SyntheticSharing(scale=0.2),
                         machine_config=MachineConfig(mode="predict"),
                         check=True)

    def test_analytical_modes_reject_observer(self):
        for mode in ("predict", "sampled"):
            with pytest.raises(ConfigError, match="observer"):
                run_workload(SyntheticSharing(scale=0.2),
                             machine_config=MachineConfig(mode=mode),
                             observer=TraceRecorder())

    def test_outcome_roundtrips_through_schema(self):
        pred = run_workload(SyntheticSharing(num_threads=4, scale=1.0),
                            machine_config=MachineConfig(mode="predict"),
                            jitter_seed=SEED, with_cheetah=True)
        data = pred.to_dict()
        back = RunOutcome.from_dict(data)
        assert back.predicted
        assert back.from_cache  # rehydrated predictions read as cached
        assert back.invalidations == pred.invalidations
        assert back.to_dict() == data


class TestSampledMode:
    def test_burst_zero_bit_compatible_with_simulate(self):
        wl = SyntheticSharing(num_threads=4, scale=1.0)
        cfg = PredictConfig(bursts=1)
        burst_scale = cfg.burst_scale(wl.scale)
        bursts = run_bursts(wl, burst_scale, 1,
                            machine_config=MachineConfig(),
                            jitter_seed=SEED)
        direct = run_workload(SyntheticSharing(num_threads=4,
                                               scale=burst_scale),
                              jitter_seed=SEED)
        assert bursts[0].result.runtime == direct.result.runtime
        assert bursts[0].invalidations == direct.invalidations
        assert bursts[0].result.total_accesses == direct.result.total_accesses

    def test_sampled_outcome_extrapolates_with_ci(self):
        truth = run_workload(SyntheticSharing(num_threads=8, scale=2.0),
                             jitter_seed=SEED)
        pred = run_workload(SyntheticSharing(num_threads=8, scale=2.0),
                            machine_config=MachineConfig(mode="sampled"),
                            jitter_seed=SEED)
        meta = pred.result.metadata["sampled"]
        assert meta["bursts"] == 3
        assert len(meta["seeds"]) == 3
        assert meta["seeds"][0] == SEED  # burst 0 uses the seed verbatim
        assert len(set(meta["seeds"])) == 3
        assert meta["ci95"]["runtime"] >= 0.0
        err = relative_error(pred.invalidations, truth.invalidations)
        assert err <= 0.15
        assert pred.predicted

    def test_sampled_mode_supports_sanitizer(self):
        pred = run_workload(SyntheticSharing(num_threads=2, scale=0.5),
                            machine_config=MachineConfig(mode="sampled"),
                            jitter_seed=SEED, check=True)
        assert pred.result.metadata["sampled"]["sanitized"] is True

    def test_burst_seed_deterministic_and_distinct(self):
        seeds = [burst_seed(SEED, i) for i in range(4)]
        assert seeds[0] == SEED
        assert len(set(seeds)) == 4
        assert seeds == [burst_seed(SEED, i) for i in range(4)]


class TestTraceAsProfileSource:
    """Satellite: end-to-end trace round trip feeding prediction."""

    def _record(self, workload, jitter_seed=SEED):
        recorder = TraceRecorder()
        out = run_workload(workload, jitter_seed=jitter_seed,
                           observer=recorder)
        return out, recorder

    def test_roundtrip_plain_and_gzip_then_predict(self, tmp_path):
        out, recorder = self._record(SyntheticSharing(num_threads=4,
                                                      scale=0.5))
        records = list(recorder)
        plain = tmp_path / "run.trace"
        gz = tmp_path / "run.trace.gz"
        save_trace(records, plain)
        save_trace(records, gz)
        loaded_plain = list(load_trace(plain))
        loaded_gz = list(load_trace(gz))
        assert loaded_plain == records
        assert loaded_gz == records

        profile = profile_from_trace(loaded_gz, threads=4, scale=0.5)
        assert profile.source == "trace"
        assert profile.total_accesses == out.result.total_accesses
        # Table-estimated invalidations track the ground truth closely on
        # an alternating-writer pattern.
        assert profile.invalidations == pytest.approx(
            out.invalidations, rel=0.25)

        pred = predict_from_profiles(
            profile, target_threads=4, target_scale=2.0,
            with_cheetah=True)
        assert pred.predicted
        assert pred.invalidations > profile.invalidations
        assert pred.report is not None
        # The contended region shows up even without allocator context.
        assert pred.report.significant

    def test_trace_profile_matches_prefix_profile_lines(self):
        wl = SyntheticSharing(num_threads=4, scale=0.4)
        out, recorder = self._record(SyntheticSharing(num_threads=4,
                                                      scale=0.4))
        trace_profile = profile_from_trace(list(recorder), threads=4,
                                           scale=0.4)
        prefix_profile = extract_profile(wl, jitter_seed=SEED)
        assert set(trace_profile.lines) == set(prefix_profile.lines)
        for line, lp in trace_profile.lines.items():
            assert lp.accesses == prefix_profile.lines[line].accesses
            assert lp.writes == prefix_profile.lines[line].writes

    def test_replay_recording_is_deterministic(self):
        _, first = self._record(SyntheticSharing(num_threads=2, scale=0.3))
        _, second = self._record(SyntheticSharing(num_threads=2, scale=0.3))
        assert list(first) == list(second)


class TestModeRoutingAndCaching:
    def test_mode_enters_cache_key(self):
        sim = MachineConfig()
        pred = MachineConfig(mode="predict")
        assert sim.to_dict()["mode"] == "simulate"
        assert pred.to_dict()["mode"] == "predict"
        assert sim.to_dict() != pred.to_dict()

    def test_session_caches_prediction_tagged(self, tmp_path):
        from repro.api import Session
        from repro.service import RunService, using_service
        service = RunService(cache_dir=str(tmp_path), enabled=True)
        with using_service(service):
            first = Session("synthetic", threads=4, scale=1.0,
                            jitter_seed=SEED,
                            machine=MachineConfig(mode="predict")).profile()
            second = Session("synthetic", threads=4, scale=1.0,
                             jitter_seed=SEED,
                             machine=MachineConfig(mode="predict")).profile()
            simulated = Session("synthetic", threads=4, scale=1.0,
                                jitter_seed=SEED).profile()
        assert first.predicted and not first.from_cache
        assert second.predicted and second.from_cache
        assert second.invalidations == first.invalidations
        # The simulate-mode run must not be served from the predict entry.
        assert not simulated.predicted
        assert simulated.invalidations != 0

    def test_default_mode_unchanged(self):
        out = run_workload(SyntheticSharing(num_threads=2, scale=0.3),
                           jitter_seed=SEED)
        assert not out.predicted
        assert "predicted" not in out.result.metadata


class TestBuildConfigsModeValidation:
    def _args(self, **kw):
        ns = argparse.Namespace()
        defaults = dict(threads=None, scale=1.0, fixed=False, seed=SEED,
                        line_size=None, cores=None, kernel=None, mode=None,
                        check=False, command="run")
        defaults.update(kw)
        for key, value in defaults.items():
            setattr(ns, key, value)
        return ns

    def test_mode_maps_to_machine_config(self):
        configs = build_configs(self._args(workload="synthetic",
                                           mode="predict"))
        assert configs.request.machine_config().mode == "predict"
        assert build_configs(self._args(
            workload="synthetic")).request.machine_config() is None

    def test_predict_with_check_rejected(self):
        with pytest.raises(ConfigError, match="--mode predict.*--check"):
            build_configs(self._args(mode="predict", check=True))

    def test_sampled_with_check_allowed(self):
        configs = build_configs(self._args(workload="synthetic",
                                           mode="sampled", check=True))
        assert configs.check is True
        assert configs.request.machine_config().mode == "sampled"

    def test_mode_with_trace_rejected(self):
        with pytest.raises(ConfigError, match="--trace"):
            build_configs(self._args(mode="predict", trace="out.json"))

    def test_mode_with_metrics_command_rejected(self):
        with pytest.raises(ConfigError, match="'metrics' command"):
            build_configs(self._args(mode="sampled", command="metrics"))

    def test_mode_simulate_combines_freely(self):
        configs = build_configs(self._args(workload="synthetic",
                                           mode="simulate", check=True,
                                           trace="out.json"))
        assert configs.request.machine_config().mode == "simulate"


class TestPredictCLI:
    def test_predict_command_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = cli_main(["predict", "synthetic", "--threads", "4",
                         "--scale", "1", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["predicted"] is True
        assert data["mode"] == "predict"
        assert data["invalidations"] > 0
        assert data["profile"]["calibration_points"] == 2

    def test_predict_command_requires_workload(self):
        with pytest.raises(ConfigError, match="workload"):
            cli_main(["predict"])

    def test_run_mode_check_conflict_at_cli(self):
        with pytest.raises(ConfigError, match="--check"):
            cli_main(["run", "synthetic", "--mode", "predict", "--check",
                      "--no-cache"])

    def test_trace_command_rejects_predict_mode(self):
        with pytest.raises(ConfigError, match="trace"):
            cli_main(["trace", "synthetic", "--mode", "predict"])

    def test_sampled_check_via_cli(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = cli_main(["predict", "synthetic", "--threads", "2",
                         "--scale", "0.5", "--mode", "sampled", "--check",
                         "--json", "--no-cache"])
        out = json.loads(capsys.readouterr().out)
        assert out["sampled"]["sanitized"] is True
        assert code in (0, 1)  # verdict-driven exit


class TestValidationHarness:
    def test_relative_error_negligible_rule(self):
        assert relative_error(0, 10) == 0.0
        assert relative_error(500, 10) == 1.0
        assert relative_error(110, 100) == pytest.approx(0.1)

    def test_smoke_set_passes(self):
        results = run_validation(SMOKE_SET[:2], seed=SEED)
        summary = summarize(results)
        assert summary["passed"], summary

    def test_single_workload_result_shape(self):
        result = validate_workload("synthetic", 4, 1.0, seed=SEED)
        data = result.to_dict()
        assert data["verdict_agrees"]
        assert 0.0 <= data["invalidation_error"] <= 1.0
        assert data["predict_seconds"] > 0

    def test_cli_validate_smoke(self, capsys):
        code = cli_main(["predict", "--validate", "--smoke", "--json",
                         "--workloads", "synthetic,array_increment"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["summary"]["passed"]
        assert len(data["results"]) == 2
        assert "fast_forward" not in data  # only the full run measures it

    def test_fast_forward_on_a_small_target(self):
        ff = measure_fast_forward(("synthetic", 16, 2.0), (4, 0.5),
                                  seed=SEED)
        # synthetic: 2 accesses per iteration, 800 iterations per scale
        assert ff["predicted_accesses"] == 16 * 2 * 800 * 2
        assert ff["predict_seconds"] > 0
        assert ff["simulate_accesses_per_second"] > 0
        assert ff["implied_simulate_seconds"] == pytest.approx(
            ff["predicted_accesses"] / ff["simulate_accesses_per_second"],
            abs=0.01)
        assert ff["speedup"] > 0
        assert "16t scale 2" in render_fast_forward(ff)
