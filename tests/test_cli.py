"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestList:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "linear_regression" in out
        assert "streamcluster" in out
        assert "significant" in out
        assert "negligible" in out


class TestRun:
    def test_run_prints_stats(self, capsys):
        assert main(["run", "array_increment", "--threads", "2",
                     "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "runtime:" in out
        assert "invalidations:" in out

    def test_unknown_workload_raises(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            main(["run", "nope"])


class TestProfile:
    def test_profile_detects_fs(self, capsys):
        code = main(["profile", "array_increment", "--threads", "8",
                     "--scale", "0.4", "--period", "32"])
        out = capsys.readouterr().out
        assert code == 0  # something significant found
        assert "Detecting false sharing" in out

    def test_profile_clean_workload_exit_code(self, capsys):
        code = main(["profile", "swaptions", "--scale", "0.15"])
        out = capsys.readouterr().out
        assert code == 1
        assert "No significant false sharing" in out

    def test_profile_fixed_layout_clean(self, capsys):
        code = main(["profile", "array_increment", "--threads", "8",
                     "--scale", "0.4", "--fixed", "--period", "32"])
        assert code == 1

    def test_profile_json_output(self, capsys):
        import json
        code = main(["profile", "array_increment", "--threads", "8",
                     "--scale", "0.4", "--period", "32", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["tool"] == "cheetah-repro"
        assert code == 0
        assert data["significant"]

    def test_profile_prints_padding_advice(self, capsys):
        code = main(["profile", "array_increment", "--threads", "8",
                     "--scale", "0.4", "--period", "32"])
        out = capsys.readouterr().out
        assert "Padding advice" in out


class TestTrace:
    @pytest.mark.parametrize("command", ["trace", "metrics", "profile"])
    def test_zero_period_is_refused(self, command):
        # The flag reaches the RunRequest as given, so an invalid period
        # is an error rather than a silently dropped flag.
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="period"):
            main([command, "array_increment", "--period", "0",
                  "--scale", "0.1"])

    def test_trace_writes_chrome_file(self, tmp_path, capsys):
        out = tmp_path / "t.trace.json"
        assert main(["trace", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "retained" in printed
        import json
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ns"
        assert any(r["ph"] == "M" for r in trace["traceEvents"])

    def test_trace_jsonl_by_suffix(self, tmp_path):
        out = tmp_path / "t.jsonl"
        assert main(["trace", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--out", str(out)]) == 0
        import json
        first = json.loads(out.read_text().splitlines()[0])
        assert first["record"] == "meta"

    def test_trace_profile_adds_pmu_events(self, tmp_path):
        out = tmp_path / "t.trace.json"
        assert main(["trace", "array_increment", "--threads", "4",
                     "--scale", "0.2", "--profile", "--out",
                     str(out)]) == 0
        import json
        names = {r["name"]
                 for r in json.loads(out.read_text())["traceEvents"]}
        assert "pmu_sample" in names

    def test_trace_max_events_caps_buffer(self, tmp_path, capsys):
        out = tmp_path / "t.trace.json"
        assert main(["trace", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--accesses", "--max-events", "5",
                     "--out", str(out)]) == 0
        assert "dropped" in capsys.readouterr().out


class TestMetrics:
    def test_metrics_prometheus_to_stdout(self, capsys):
        assert main(["metrics", "array_increment", "--threads", "2",
                     "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sim_accesses_total counter" in out
        assert "machine_accesses_total{" in out

    def test_metrics_json_snapshot(self, capsys):
        import json
        assert main(["metrics", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--profile", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "pmu_samples_total" in snap["counters"]

    def test_metrics_to_file(self, tmp_path):
        out = tmp_path / "m.prom"
        assert main(["metrics", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--out", str(out)]) == 0
        assert "sim_runtime_cycles" in out.read_text()


class TestObsFlags:
    def test_run_with_metrics_flag(self, capsys):
        assert main(["run", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "runtime:" in out
        assert "sim_accesses_total" in out

    def test_profile_with_trace_flag(self, tmp_path, capsys):
        out = tmp_path / "p.trace.json"
        code = main(["profile", "array_increment", "--threads", "8",
                     "--scale", "0.4", "--period", "32", "--trace",
                     str(out)])
        assert code == 0
        assert out.exists()
        assert "trace written" in capsys.readouterr().err

    def test_experiment_with_aggregated_metrics(self, tmp_path, capsys):
        import json
        out = tmp_path / "agg.json"
        assert main(["experiment", "figure1", "--scale", "0.05",
                     "--metrics", str(out)]) == 0
        agg = json.loads(out.read_text())
        assert agg["runs"] > 0
        assert agg["counters"]["sim_accesses_total"] > 0

    def test_run_with_custom_machine_flags(self, capsys):
        assert main(["run", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--line-size", "32",
                     "--cores", "4"]) == 0
        assert "runtime:" in capsys.readouterr().out


class TestFixCheck:
    def test_fix_check_reports_both_numbers(self, capsys):
        code = main(["fix-check", "array_increment", "--threads", "8",
                     "--scale", "0.4"])
        out = capsys.readouterr().out
        assert "real improvement:" in out
        assert "Cheetah predicted:" in out

    def test_fix_check_refuses_fixed(self, capsys):
        assert main(["fix-check", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--fixed"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("repro fix-check: --fixed is not supported: ")


class TestCompare:
    def test_compare_three_tools(self, capsys):
        assert main(["compare", "word_count", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        for tool in ("Cheetah", "Predator", "Sheriff"):
            assert tool in out

    def test_compare_refuses_fixed(self, capsys):
        assert main(["compare", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--fixed"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("repro compare: --fixed is not supported: ")

    def test_baselines_use_the_runs_line_size(self, capsys):
        # streamcluster pads for 32-byte lines: at that size a detector
        # that assumes 64-byte lines reports sharing that is not there.
        import json as json_mod
        assert main(["compare", "streamcluster", "--line-size", "32",
                     "--threads", "8", "--scale", "0.3", "--no-cache",
                     "--json"]) == 0
        rows = {row["tool"]: row["detects_false_sharing"]
                for row in json_mod.loads(capsys.readouterr().out)}
        assert rows["Sheriff"] is False
        assert rows["Predator"] is False


class TestCheckFlag:
    """``--check`` reaches every machine a workload command builds."""

    @pytest.fixture
    def check_flags(self, monkeypatch):
        """The ``check`` argument of each Machine run_workload builds."""
        import repro.run
        flags = []

        class RecordingMachine(repro.run.Machine):
            def __init__(self, *args, check=False, **kwargs):
                flags.append(check)
                super().__init__(*args, check=check, **kwargs)

        monkeypatch.setattr(repro.run, "Machine", RecordingMachine)
        return flags

    def test_fix_check_sanitizes_all_three_runs(self, check_flags,
                                                tmp_path, capsys):
        main(["fix-check", "array_increment", "--threads", "2",
              "--scale", "0.1", "--check", "--cache-dir", str(tmp_path)])
        assert "real improvement:" in capsys.readouterr().out
        assert check_flags == [True, True, True]

    def test_compare_sanitizes_all_four_runs(self, check_flags, tmp_path,
                                             capsys):
        assert main(["compare", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--check",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "Sheriff" in capsys.readouterr().out
        assert check_flags == [True, True, True, True]

    def test_record_refuses_check(self, check_flags, tmp_path, capsys):
        out = tmp_path / "a.trace.gz"
        assert main(["record", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--check", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--check" in err
        assert check_flags == [] and not out.exists()


class TestExperiment:
    def test_figure1_runs(self, capsys):
        assert main(["experiment", "figure1", "--scale", "0.1"]) == 0
        assert "Figure 1(b)" in capsys.readouterr().out

    def test_oversubscription_runs(self, capsys):
        assert main(["experiment", "oversubscription"]) == 0
        assert "Assumption 1" in capsys.readouterr().out


class TestValidate:
    def test_validate_smoke_passes(self, capsys):
        assert main(["validate", "--smoke", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "invariant suite" in out
        assert "accesses shadowed" in out
        assert "bit-identical across all execution paths" in out
        assert "parallel equivalence: skipped (--smoke)" in out
        assert "corrupted write predicate caught" in out
        assert "all checks passed" in out

    def test_validate_json_stdout_is_one_object(self, capsys):
        import json as json_mod
        assert main(["validate", "--smoke", "--json"]) == 0
        out, err = capsys.readouterr()
        assert json_mod.loads(out) == {"command": "validate", "ok": True}
        assert "invariant suite" in err

    def test_validate_single_seed_triage(self, capsys):
        # The triage loop from the docs: replay exactly one fuzz program.
        assert main(["validate", "--smoke", "--seed", "49374",
                     "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "seeds 49374..49374" in out


class TestPredictRefusals:
    """Each 'repro predict' flag is read on one side of --validate only;
    given on the other side it is refused, not dropped."""

    @pytest.mark.parametrize("flags, named", [
        (["--threads", "3"], "--threads"),
        (["histogram", "--mode", "sampled", "--check", "--json"],
         "a workload name, --mode, --check"),
    ])
    def test_validate_refuses_run_flags(self, flags, named, capsys):
        assert main(["predict", "--validate", "--smoke", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"repro predict: {named}: ")

    @pytest.mark.parametrize("flags", [["--smoke"],
                                       ["--workloads", "synthetic"]])
    def test_prediction_refuses_validate_flags(self, flags, capsys):
        assert main(["predict", "histogram", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"repro predict: {flags[0]}: ")


class TestWorkloadsCommand:
    def test_list_all(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        assert "producer_consumer_ring" in out
        assert "false sharing (significant)" in out
        assert "true sharing" in out

    def test_suite_filter(self, capsys):
        assert main(["workloads", "list", "--suite", "concurrent"]) == 0
        out = capsys.readouterr().out
        assert "cas_retry_queue" in out
        assert "linear_regression" not in out

    def test_family_and_verdict_filters_json(self, capsys):
        import json as json_mod
        assert main(["workloads", "list", "--family", "numa",
                     "--json"]) == 0
        rows = json_mod.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == ["numa_ping_pong"]
        assert rows[0]["ground_truth"]["verdict"] == "false sharing"
        assert rows[0]["machine_defaults"]["numa_nodes"] == 2
        assert "scale" in rows[0]["parameters"]

    def test_significant_filter(self, capsys):
        import json as json_mod
        assert main(["workloads", "list", "--verdict", "false_sharing",
                     "--significant", "--json"]) == 0
        rows = json_mod.loads(capsys.readouterr().out)
        names = [r["name"] for r in rows]
        assert "linear_regression" in names
        assert "histogram" not in names


class TestRecordReplay:
    def test_record_then_replay_matches_live(self, tmp_path, capsys):
        trace = str(tmp_path / "pc.trace.gz")
        assert main(["record", "producer_consumer_ring", "--scale", "0.4",
                     "--out", trace]) == 0
        out = capsys.readouterr().out
        assert "live verdict:  false sharing" in out
        code = main(["replay", trace,
                     "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0  # false sharing found
        assert "verdict:        false sharing" in out
        assert "matches replay" in out

    def test_replay_warm_cache_same_verdict(self, tmp_path, capsys):
        import json as json_mod
        trace = str(tmp_path / "ws.trace")
        assert main(["record", "work_stealing_deque", "--scale", "0.4",
                     "--out", trace, "--json"]) == 0
        capsys.readouterr()
        cache = str(tmp_path / "cache")
        assert main(["replay", trace, "--cache-dir", cache,
                     "--json"]) == 0
        cold = json_mod.loads(capsys.readouterr().out)
        assert main(["replay", trace, "--cache-dir", cache,
                     "--json"]) == 0
        warm = json_mod.loads(capsys.readouterr().out)
        assert cold["from_cache"] is False
        assert warm["from_cache"] is True
        assert warm["verdict"] == cold["verdict"] == "false sharing"
        assert warm["objects"] == cold["objects"]

    def test_replay_period_downsamples(self, tmp_path, capsys):
        import json as json_mod
        trace = str(tmp_path / "pc.trace")
        assert main(["record", "producer_consumer_ring", "--scale", "0.4",
                     "--out", trace, "--json"]) == 0
        capsys.readouterr()
        assert main(["replay", trace, "--no-cache", "--period", "8",
                     "--json"]) == 0
        data = json_mod.loads(capsys.readouterr().out)
        assert data["replayed_samples"] < data["trace_records"]

    def test_record_no_profile_replay_still_works(self, tmp_path, capsys):
        import json as json_mod
        trace = str(tmp_path / "cq.trace")
        assert main(["record", "cas_retry_queue", "--scale", "0.3",
                     "--out", trace, "--no-profile", "--json"]) == 0
        rec = json_mod.loads(capsys.readouterr().out)
        assert rec["live_verdict"] is None
        assert main(["replay", trace, "--no-cache", "--json"]) == 1
        data = json_mod.loads(capsys.readouterr().out)
        assert data["verdict"] == "true sharing"


class TestNumaFlags:
    def test_numa_flags_slow_run(self, capsys):
        import json as json_mod
        assert main(["run", "numa_ping_pong", "--scale", "0.2",
                     "--no-cache", "--json"]) == 0
        base = json_mod.loads(capsys.readouterr().out)
        assert main(["run", "numa_ping_pong", "--scale", "0.2",
                     "--no-cache", "--json", "--numa-nodes", "2",
                     "--remote-fetch-penalty", "60",
                     "--remote-transfer-penalty", "40"]) == 0
        numa = json_mod.loads(capsys.readouterr().out)
        assert numa["runtime"] > base["runtime"]


class TestDetectionExperiment:
    def test_detection_table_renders(self, capsys):
        assert main(["experiment", "detection", "--scale", "0.4",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Detection table" in out
        assert "producer_consumer_ring" in out
        assert "MISMATCH" not in out
