"""Tiny-size runs of every workload through the benchmark's command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, run

ROOT = run.ROOT
RUN = os.path.join(ROOT, "perfbench", "run.py")
TINY = {"profile": "0.4", "native": "0.05", "serve": "0.5"}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "perfbench/run.py",
         "--workload", workload, "--seed", "5", "--seconds", seconds,
         "--trace", str(trace), "--scale", TINY[workload]],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert line["correct"] is True, proc.stdout
    assert line["failed"] == 0
    return line


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke(workload):
    proc = _run(workload, 0)
    line = _result(proc)
    names = [m["name"] for m in _spec()["end_to_end"]]
    assert sorted(line["metrics"]) == sorted(names)
    for name in names:
        assert line["metrics"][name]["value"] > 0, name
    assert "seed=5" in proc.stdout and "environment:" in proc.stdout
    assert "fail_ratio" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke(workload):
    proc = _run(workload, 1)
    line = _result(proc)
    names = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(line["metrics"]) == sorted(names)
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert line["metrics"]["sim.engine.self_s"]["value"] > 0
    assert "trace.overhead_ratio" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("profile", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
