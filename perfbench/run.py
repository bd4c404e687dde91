#!/usr/bin/env python3
"""Repository benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload profile --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve --seed 11 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrappers
installed (on ``profile`` and ``native`` every time is scaled by the
host-speed probe, :mod:`perfbench.hostspeed`); ``--trace 1`` re-runs the
workload untraced and traced, prints the per-layer table and the
tracing overhead, and writes the spans to ``.perfbench/``. Either way
the last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``. Everything before it is the
human-readable report: the seed, the environment stamp and every metric
with its unit and sample count (and raw host value, where scaled).

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("profile", "native", "serve")

#: End-to-end metrics every workload reports: (name, unit, meaning).
END_TO_END = (
    ("sim_acc_per_s", "1/s", "simulated accesses per host second"),
    ("jobs_per_s", "1/s", "completed cells or jobs per second"),
    ("cold_gmean_ms", "ms",
     "geometric mean latency of the requests that simulate"),
    ("setup_s", "s", "imports and warm-up until work can start"),
    ("peak_rss_mb", "MB", "peak RSS of the process doing the work"),
)

#: Fresh-process set-ups timed per profile/native run (median reported).
SETUP_PROBES = 5


def _bootstrap() -> bool:
    """Make ``perfbench`` and ``repro`` importable from this checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    if sys.path and os.path.abspath(sys.path[0]) == os.path.dirname(
            os.path.abspath(__file__)):
        sys.path.pop(0)  # keep our modules out of the top-level namespace
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(kernels) -> dict:
    """Stamp recorded with every result."""
    from repro.sim import kernel
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": kernel.HAVE_NUMPY,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY", ""),
        "nproc": nproc,
        "commit": git_commit(),
        "kernels": kernels,
        "platform": platform.platform(),
    }


def setup_seconds(workload: str, seed: int, scale: float,
                  probe) -> Tuple[List[float], List[float]]:
    """Fresh-process set-up times, spawn until the first cell is ready:
    raw and scaled by the host-speed probes around them."""
    from perfbench import hostspeed
    raw = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale)]
    probes = [probe.measure()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit "
                               f"{proc.returncode})")
        probes.append(probe.measure())
        raw.append(elapsed)
    scaled = [elapsed * factor for elapsed, factor
              in zip(raw, hostspeed.factors(probes))]
    return raw, scaled


def run_cells(args, tally) -> dict:
    from perfbench import cells, hostspeed
    cell_list = cells.make_cells(args.workload, args.seed, args.scale)
    checker = cells.Checker(cells.load_references(args.seed, args.scale))
    if args.trace:
        values, snap, summary = cells.traced_pass(cell_list, tally, checker)
        return {"per_layer": values, "snap": snap, "summary": summary,
                "kernels": checker.kernels, "requests": len(cell_list)}
    with hostspeed.Probe() as probe:
        setups, setups_scaled = setup_seconds(args.workload, args.seed,
                                              args.scale, probe)
        loop = cells.closed_loop(cell_list, args.seconds, tally, checker,
                                 probe)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, raw = cells.end_to_end(loop), cells.end_to_end(loop, False)
    metrics["setup_s"] = {"value": statistics.median(setups_scaled),
                          "unit": "s", "n": len(setups)}
    raw["setup_s"] = dict(metrics["setup_s"],
                          value=statistics.median(setups))
    for table in (metrics, raw):
        table["peak_rss_mb"] = {"value": rss, "unit": "MB", "n": 1}
    return {"metrics": metrics, "raw": raw, "probes": probe.samples,
            "kernels": checker.kernels,
            "passes": loop.passes, "wall_s": loop.wall,
            "cells": {cid: {"median_s": med, "n": len(loop.seconds[cid]),
                            "samples_s": loop.seconds[cid],
                            "scaled_s": loop.scaled[cid]}
                      for cid, med in loop.cell_medians().items()}}


def run_serve(args, tally) -> dict:
    from perfbench import serve
    workdir = os.path.join(OUT, f"serve-{os.getpid()}")
    scale = serve.JOB_SCALE * args.scale
    try:
        if args.trace:
            values, snap, summary = serve.traced(
                ROOT, workdir, args.seed, args.seconds, scale, tally)
            return {"per_layer": values, "snap": snap, "summary": summary,
                    "kernels": summary["kernels"],
                    "requests": summary["jobs"]}
        return serve.measure(ROOT, workdir, args.seed, args.seconds, scale,
                             tally)
    finally:
        serve.cleanup(workdir)


def report(args, result: dict, tally) -> dict:
    """Print the human-readable report; returns the result line."""
    from perfbench import hostspeed, layers, stats
    env = environment(result.get("kernels", {}))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale:g}")
    print("environment: " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "environment": env}
    if args.trace:
        values = result["per_layer"]
        print(layers.render(values, result["requests"]))
        summary = result["summary"]
        print(f"traced {summary['traced_s']:.3f} s vs untraced "
              f"{summary['untraced_s']:.3f} s over the same work "
              f"({result['requests']} requests)")
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
        metrics = {name: stats.metric(value, units[name])
                   for name, value in values.items()}
        record["summary"] = summary
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}"
                                  ".jsonl")
        from perfbench.tracer import write_spans
        write_spans(spans, result["snap"]["spans"])
        print(f"spans: {len(result['snap']['spans'])} written to "
              f"{os.path.relpath(spans, ROOT)}")
    else:
        def shown(entry):
            return ("n/a" if entry["value"] is None
                    else f"{entry['value']:.6g}")

        raw = result.get("raw")
        entries = dict(result["metrics"], **result.get("serve_only", {}))
        rows = [[name, shown(entry)] + ([shown(raw[name])] if raw else [])
                + [entry["unit"], entry["n"]]
                for name, entry in entries.items()]
        rows.append(["fail_ratio", f"{tally.fail_ratio:.6g}"]
                    + ([""] if raw else []) + ["ratio", tally.attempted])
        print(stats.format_table(
            ["metric", "value"] + (["raw host value"] if raw else [])
            + ["unit", "n"], rows))
        if raw:
            probes = result["probes"]
            print(f"host-speed probe: median "
                  f"{statistics.median(probes) * 1e3:.3f} ms, range "
                  f"{min(probes) * 1e3:.3f}-{max(probes) * 1e3:.3f} ms "
                  f"over {len(probes)} probes; times are scaled to "
                  f"{hostspeed.REFERENCE_S * 1e3:g} ms")
        for label, timing in (result.get("timings") or {}).items():
            if timing is not None:
                print(f"{label} latency: {timing.render('ms')}")
        if "cells" in result:
            print(f"{result['passes']} passes in {result['wall_s']:.2f} s; "
                  "per-cell medians:")
            print(stats.format_table(
                ["cell", "median s", "raw host s", "n"],
                [[cid, f"{c['median_s']:.4f}",
                  f"{statistics.median(c['samples_s']):.4f}", c["n"]]
                 for cid, c in result["cells"].items()]))
        metrics = {name: stats.metric(result["metrics"][name]["value"], unit)
                   for name, unit, _ in END_TO_END}
        record["metrics_n"] = {name: entry["n"] for name, entry
                               in result["metrics"].items()}
        record["raw"] = raw
        record["probes_s"] = result.get("probes")
        record["serve_only"] = result.get("serve_only")
        record["cells"] = result.get("cells")
    print(f"attempted {tally.attempted}, failed {tally.failed} "
          f"(fail_ratio {tally.fail_ratio:.4g})"
          + (f": {dict(tally.reasons)}" if tally.failed else ""))
    for example in tally.examples[:5]:
        print(f"  {example}")
    line = {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}
    record["result"] = line
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-"
                             f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    return line


def parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of an untraced run; a traced "
                             "profile/native run is one fixed pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (tests use a tiny one; "
                             "references apply at 1.0 only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-references", action="store_true",
                        help="regenerate perfbench/references.json at the "
                             "default seed and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not _bootstrap():
        print(f"perfbench: no program sources at {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    from perfbench import cells, stats
    if args.setup_probe:
        cells.setup_ready(args.workload, args.seed, args.scale)
        print("ready", flush=True)
        return 0
    if args.write_references:
        data = cells.write_references()
        print(f"wrote {len(data['cells'])} references to "
              f"{cells.REFERENCES}")
        return 0
    if args.workload is None:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    tally = stats.Tally()
    if args.workload == "serve":
        result = run_serve(args, tally)
    else:
        result = run_cells(args, tally)
    line = report(args, result, tally)
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
