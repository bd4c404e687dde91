"""Command-line interface.

::

    python -m repro list
    python -m repro run linear_regression --threads 8
    python -m repro profile linear_regression --threads 16 --period 128
    python -m repro trace histogram --out histogram.trace.json
    python -m repro metrics linear_regression --profile
    python -m repro predict synthetic --threads 1024 --scale 100
    python -m repro predict --validate --smoke
    python -m repro fix-check streamcluster --threads 8
    python -m repro compare histogram
    python -m repro experiment table1 --scale 0.5
    python -m repro cache stats

Conventions shared by every subcommand:

- ``--json`` switches the primary stdout output to machine-readable
  JSON (diagnostics stay on stderr);
- commands that simulate accept ``--cache`` / ``--no-cache`` /
  ``--cache-dir DIR`` (default: cache on, at ``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro``) and ``--seed``;
- matrix commands accept ``--jobs N``;
- process exit codes: 0 success, 1 failure (including a negative
  ``profile`` verdict and internal errors), 2 usage error (argparse).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext, redirect_stdout
from typing import Iterator, List, Optional

from repro import __version__
from repro.api import Session
from repro.baselines.predator import PredatorDetector
from repro.baselines.sheriff import SheriffDetector
from repro.config import CLIConfigs, build_configs
from repro.experiments import (
    adaptive, assumptions, comparison, detection, figure1, figure4, figure5,
    figure7, linesize, scaling, synchronization, table1,
)
from repro.context import current, using
from repro.obs import DefaultObs, aggregate_snapshots
from repro.run import run_workload
from repro.service import RunService, default_cache_dir, using_service
from repro.sim.params import MachineConfig
from repro.workloads import (
    Verdict,
    all_workload_names,
    families,
    get_workload,
    iter_workloads,
    suites,
    workload_info,
)

EXPERIMENTS = {
    "figure1": lambda args: figure1.run(scale=args.scale),
    "figure4": lambda args: figure4.run(scale=args.scale, jobs=args.jobs),
    "figure5": lambda args: figure5.run(scale=args.scale),
    "figure7": lambda args: figure7.run(scale=args.scale),
    "table1": lambda args: table1.run(scale=args.scale, jobs=args.jobs),
    "comparison": lambda args: comparison.run(scale=args.scale,
                                              jobs=args.jobs),
    "detection": lambda args: detection.run(scale=args.scale,
                                            jobs=args.jobs),
    "oversubscription": lambda args: assumptions.run_oversubscription(),
    "finite-cache": lambda args: assumptions.run_finite_cache(),
    "linesize": lambda args: linesize.run(scale=args.scale),
    "scaling": lambda args: scaling.run(scale=args.scale, jobs=args.jobs),
    "synchronization": lambda args: synchronization.run(),
    "adaptive": lambda args: adaptive.run(scale=args.scale),
}


def _run_all(args):
    from repro.experiments import full_report
    return full_report.run(
        scale=args.scale,
        progress=lambda title: print(f"... {title}", file=sys.stderr))


EXPERIMENTS["all"] = _run_all

#: Experiments whose cells ``--jobs N`` fans over N worker processes.
JOBS_EXPERIMENTS = ("table1", "figure4", "comparison", "scaling",
                    "detection")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cheetah (CGO'16) reproduction: false sharing "
                    "detection on a simulated multicore.",
        epilog="exit codes: 0 success, 1 failure, 2 usage error")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag vocabulary (argparse parents): every subcommand takes
    # --json; everything that simulates takes the cache flags; matrix
    # commands take --jobs.
    json_parent = argparse.ArgumentParser(add_help=False)
    json_parent.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON on stdout")
    cache_parent = argparse.ArgumentParser(add_help=False)
    cache_parent.add_argument(
        "--cache", dest="cache", action="store_true", default=True,
        help="serve identical runs from the result store (default)")
    cache_parent.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="always simulate; do not read or write the result store")
    cache_parent.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result store location (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)")
    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan independent cells over N worker processes "
             "(default: serial)")

    sub.add_parser("list", parents=[json_parent],
                   help="list available workloads")

    wl_p = sub.add_parser(
        "workloads", parents=[json_parent],
        help="query the workload registry (suites, families, "
             "declared ground truth)")
    wl_p.add_argument("action", choices=("list",),
                      help="list: one row per registered workload")
    wl_p.add_argument("--suite", default=None,
                      help="only workloads of this suite "
                           "(phoenix/parsec/micro/concurrent)")
    wl_p.add_argument("--family", default=None,
                      help="only workloads of this concurrency family "
                           "(fork_join, producer_consumer, ...)")
    wl_p.add_argument("--verdict", default=None,
                      choices=("false_sharing", "true_sharing", "none"),
                      help="only workloads whose declared ground-truth "
                           "verdict matches")
    wl_p.add_argument("--significant", action="store_true", default=None,
                      help="only workloads declaring significant false "
                           "sharing")

    def add_workload_args(p):
        p.add_argument("workload", help="workload name (see 'list')")
        p.add_argument("--threads", type=int, default=None,
                       help="worker thread count (default: workload's)")
        p.add_argument("--scale", type=float, default=1.0,
                       help="iteration-count multiplier")
        p.add_argument("--fixed", action="store_true",
                       help="use the padded (bug-fixed) layout")
        p.add_argument("--seed", type=int, default=11,
                       help="machine timing-jitter seed")
        p.add_argument("--line-size", type=int, default=None,
                       help="cache line size in bytes (default: machine's)")
        p.add_argument("--cores", type=int, default=None,
                       help="core count (default: machine's)")
        p.add_argument("--mode", choices=("simulate", "predict", "sampled"),
                       default=None,
                       help="execution mode: 'simulate' (default) runs "
                            "every access; 'predict' profiles a short "
                            "prefix and extrapolates analytically; "
                            "'sampled' simulates a few bursts and "
                            "extrapolates with confidence intervals "
                            "(non-default modes tag results "
                            "predicted=true)")
        p.add_argument("--check", action="store_true",
                       help="run under the coherence sanitizer (slow; "
                            "incompatible with --mode predict)")
        p.add_argument("--numa-nodes", type=int, default=None,
                       help="stripe cores over N NUMA nodes "
                            "(default: machine's, 1)")
        p.add_argument("--remote-fetch-penalty", type=int, default=None,
                       help="extra cycles for cold/shared fetches from a "
                            "remote node (needs --numa-nodes > 1)")
        p.add_argument("--remote-transfer-penalty", type=int, default=None,
                       help="extra cycles for coherence transfers sourced "
                            "from a remote node (needs --numa-nodes > 1)")

    def add_detector_args(p):
        p.add_argument("--detector", choices=("offline", "windowed"),
                       default=None,
                       help="detection mode: 'offline' (default) builds "
                            "the report from the whole run's samples; "
                            "'windowed' additionally streams incremental "
                            "findings mid-run (same end-of-run verdicts)")
        p.add_argument("--adaptive", action="store_true",
                       help="adaptive PMU sampling: tighten the period "
                            "when a line turns hot, back off in quiet "
                            "phases (--period sets the starting period)")

    def add_obs_flags(p):
        p.add_argument("--trace", metavar="FILE", default=None,
                       help="write a trace of the run to FILE (Chrome "
                            "trace_event JSON; a '.jsonl' suffix switches "
                            "to the JSONL format)")
        p.add_argument("--metrics", metavar="FILE", nargs="?", const="-",
                       default=None,
                       help="write run metrics in Prometheus text format "
                            "to FILE ('-' or no value: stdout)")

    run_p = sub.add_parser("run", parents=[json_parent, cache_parent],
                           help="run a workload natively")
    add_workload_args(run_p)
    add_obs_flags(run_p)

    prof_p = sub.add_parser("profile", parents=[json_parent, cache_parent],
                            help="run a workload under Cheetah")
    add_workload_args(prof_p)
    prof_p.add_argument("--period", type=int, default=None,
                        help="PMU sampling period in instructions")
    prof_p.add_argument("--true-sharing", action="store_true",
                        help="include true-sharing instances in the report")
    add_detector_args(prof_p)
    add_obs_flags(prof_p)

    trace_p = sub.add_parser(
        "trace", parents=[json_parent],
        help="run a workload and write an execution trace "
             "(Chrome trace_event, Perfetto-loadable)")
    add_workload_args(trace_p)
    trace_p.add_argument("--out", metavar="FILE", default=None,
                         help="output path (default: <workload>.trace.json)")
    trace_p.add_argument("--format", choices=("chrome", "jsonl"),
                         default=None,
                         help="trace format (default: by file suffix)")
    trace_p.add_argument("--accesses", action="store_true",
                         help="also trace individual memory accesses "
                              "(high volume; bounded by --max-events)")
    trace_p.add_argument("--max-events", type=int, default=None,
                         help="event-buffer cap (excess events are counted "
                              "as dropped)")
    trace_p.add_argument("--profile", action="store_true",
                         help="attach the PMU and Cheetah (adds pmu/"
                              "detector events)")
    trace_p.add_argument("--period", type=int, default=None,
                         help="PMU sampling period (implies --profile)")
    add_detector_args(trace_p)

    rec_p = sub.add_parser(
        "record", parents=[json_parent],
        help="run a workload and record its access stream as a "
             "self-describing trace for offline replay")
    add_workload_args(rec_p)
    rec_p.add_argument("--out", metavar="FILE", default=None,
                       help="trace path; a '.gz' suffix compresses "
                            "(default: <workload>.trace.gz)")
    rec_p.add_argument("--limit", type=int, default=None,
                       help="record at most N accesses (the meta notes "
                            "truncation)")
    rec_p.add_argument("--no-profile", dest="record_profile",
                       action="store_false", default=True,
                       help="skip the Cheetah profile (the trace then "
                            "carries no live verdict to compare replay "
                            "against)")

    replay_p = sub.add_parser(
        "replay", parents=[json_parent, cache_parent],
        help="replay a recorded trace through the machine and detector "
             "(offline, DARWIN-style second round)")
    replay_p.add_argument("trace_file", metavar="TRACE",
                          help="trace written by 'repro record' "
                               "(.trace or .trace.gz)")
    replay_p.add_argument("--period", type=int, default=None,
                          help="downsample the stream PMU-style before "
                               "the detector (default: replay every "
                               "access)")
    replay_p.add_argument("--seed", type=int, default=1,
                          help="downsampling jitter seed")
    replay_p.add_argument("--true-sharing-fraction", type=float,
                          default=None,
                          help="override the detector's true-sharing "
                               "classification threshold")

    met_p = sub.add_parser(
        "metrics", parents=[json_parent],
        help="run a workload and report simulator metrics")
    add_workload_args(met_p)
    met_p.add_argument("--out", metavar="FILE", default="-",
                       help="output path ('-': stdout)")
    met_p.add_argument("--profile", action="store_true",
                       help="attach the PMU and Cheetah (adds pmu/"
                            "detector metrics)")
    met_p.add_argument("--period", type=int, default=None,
                       help="PMU sampling period (implies --profile)")
    add_detector_args(met_p)

    pred_p = sub.add_parser(
        "predict", parents=[json_parent, cache_parent],
        help="predict a run analytically without simulating it "
             "(or cross-validate prediction: --validate)")
    pred_p.add_argument("workload", nargs="?", default=None,
                        help="workload name (omit with --validate)")
    pred_p.add_argument("--threads", type=int, default=None,
                        help="worker thread count (default: workload's)")
    pred_p.add_argument("--scale", type=float, default=1.0,
                        help="iteration-count multiplier")
    pred_p.add_argument("--fixed", action="store_true",
                        help="use the padded (bug-fixed) layout")
    pred_p.add_argument("--seed", type=int, default=11,
                        help="machine timing-jitter seed")
    pred_p.add_argument("--line-size", type=int, default=None,
                        help="cache line size in bytes (default: machine's)")
    pred_p.add_argument("--cores", type=int, default=None,
                        help="core count (default: machine's)")
    pred_p.add_argument("--mode", choices=("predict", "sampled"),
                        default="predict",
                        help="'predict' (default): analytical model; "
                             "'sampled': simulate bursts with CIs")
    pred_p.add_argument("--check", action="store_true",
                        help="sanitize the bursts (--mode sampled only)")
    pred_p.add_argument("--period", type=int, default=None,
                        help="PMU sampling period the prediction targets")
    pred_p.add_argument("--validate", action="store_true",
                        help="cross-validate prediction against full "
                             "simulation over the ground-truth workloads")
    pred_p.add_argument("--smoke", action="store_true",
                        help="with --validate: quick CI subset")
    pred_p.add_argument("--workloads", default=None,
                        help="with --validate: comma-separated workload "
                             "subset")

    fix_p = sub.add_parser(
        "fix-check", parents=[json_parent, cache_parent],
        help="measure the real speedup of the padding fix and compare "
             "with Cheetah's prediction")
    add_workload_args(fix_p)

    cmp_p = sub.add_parser(
        "compare", parents=[json_parent, cache_parent],
        help="run Cheetah, Predator and Sheriff on a workload")
    add_workload_args(cmp_p)

    exp_p = sub.add_parser(
        "experiment", parents=[json_parent, cache_parent, jobs_parent],
        help="regenerate a paper table/figure")
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS),
                       help="which artifact to regenerate")
    exp_p.add_argument("--scale", type=float, default=1.0)
    exp_p.add_argument("--trace", metavar="DIR", default=None,
                       help="write one Chrome trace per run into DIR "
                            "(forces serial execution)")
    exp_p.add_argument("--metrics", metavar="FILE", nargs="?", const="-",
                       default=None,
                       help="write metric totals aggregated over every run "
                            "as JSON to FILE ('-' or no value: stdout; "
                            "forces serial execution)")

    validate_p = sub.add_parser(
        "validate", parents=[json_parent],
        help="run the coherence sanitizer invariant suite, the "
             "differential fuzzer and the mutation self-test")
    validate_p.add_argument("--smoke", action="store_true",
                            help="short CI variant")
    validate_p.add_argument("--seed", type=int, default=None,
                            help="fuzzer base seed (use with "
                                 "--iterations 1 to triage a divergence)")
    validate_p.add_argument("--iterations", type=int, default=None,
                            help="fuzz program count")

    cache_p = sub.add_parser(
        "cache", parents=[json_parent],
        help="inspect or maintain the persistent result store")
    cache_p.add_argument("action", choices=("stats", "gc", "clear"),
                         help="stats: entry/byte/hit counts; gc: evict by "
                              "age/count and quarantine stray tmp files; "
                              "clear: drop every entry")
    cache_p.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="result store location (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro)")
    cache_p.add_argument("--max-entries", type=int, default=None,
                         help="gc: keep at most this many newest entries")
    cache_p.add_argument("--max-age", type=float, default=None,
                         metavar="SECONDS",
                         help="gc: evict entries older than this")

    serve_p = sub.add_parser(
        "serve",
        help="run the detection daemon: HTTP job API over the result "
             "store, streaming findings, cross-run findings sink")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8137,
                         help="bind port; 0 picks an ephemeral port "
                              "(default: 8137)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="job workers: threads, each with one "
                              "process for its cold jobs (default: 2)")
    serve_p.add_argument("--max-queue", type=int, default=64,
                         help="queued-job bound; a full queue answers "
                              "429 (default: 64)")
    serve_p.add_argument("--rate", type=float, default=0.0,
                         help="global submissions/second; 0 disables "
                              "rate limiting (default: 0)")
    serve_p.add_argument("--burst", type=float, default=8.0,
                         help="global burst capacity (default: 8)")
    serve_p.add_argument("--tenant-rate", type=float, default=0.0,
                         help="per-tenant submissions/second; 0 disables "
                              "(default: 0)")
    serve_p.add_argument("--tenant-burst", type=float, default=4.0,
                         help="per-tenant burst capacity (default: 4)")
    serve_p.add_argument("--tenant-max-pending", type=int, default=0,
                         help="per-tenant cap on queued+running jobs; "
                              "0 disables (default: 0)")
    serve_p.add_argument("--tenants", default=None, metavar="A,B,...",
                         help="tenant allowlist (comma separated); "
                              "unknown tenants get 403 "
                              "(default: accept everyone)")
    serve_p.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="result store location (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro)")
    serve_p.add_argument("--sink-dir", metavar="DIR", default=None,
                         help="findings sink location (default: "
                              "<cache-dir>/sink)")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0,
                         help="seconds shutdown waits for in-flight "
                              "jobs (default: 30)")
    return parser


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def cmd_list(args) -> int:
    rows = []
    for name in all_workload_names():
        cls = get_workload(name)
        truth = cls.ground_truth
        if truth.verdict is Verdict.FALSE_SHARING:
            fs = "significant" if truth.significant else "negligible"
        else:
            fs = "-"
        rows.append({"name": name, "suite": cls.suite,
                     "threads": cls.default_threads, "false_sharing": fs})
    if args.json:
        _print_json(rows)
        return 0
    print(f"{'name':<20} {'suite':<8} {'threads':<8} false-sharing")
    for row in rows:
        print(f"{row['name']:<20} {row['suite']:<8} "
              f"{row['threads']:<8} {row['false_sharing']}")
    return 0


_VERDICT_FLAGS = {
    "false_sharing": Verdict.FALSE_SHARING,
    "true_sharing": Verdict.TRUE_SHARING,
    "none": Verdict.NONE,
}


def cmd_workloads(args) -> int:
    verdict = _VERDICT_FLAGS[args.verdict] if args.verdict else None
    rows = [workload_info(cls)
            for cls in iter_workloads(suite=args.suite, family=args.family,
                                      verdict=verdict,
                                      significant=args.significant)]
    if args.json:
        _print_json(rows)
        return 0
    print(f"{'name':<24} {'suite':<11} {'family':<18} {'threads':<8} "
          "ground truth")
    for row in rows:
        truth = row["ground_truth"]
        label = truth["verdict"]
        if truth["verdict"] == Verdict.FALSE_SHARING.value:
            label += (" (significant)" if truth["significant"]
                      else " (negligible)")
        print(f"{row['name']:<24} {row['suite']:<11} {row['family']:<18} "
              f"{row['default_threads']:<8} {label}")
    print(f"\n{len(rows)} workload(s); suites: {', '.join(suites())}; "
          f"families: {', '.join(families())}", file=sys.stderr)
    return 0


def _refuse(command: str, message: object) -> int:
    """A flag the command cannot honour is an operator error: one
    diagnostic line and exit 2, as for a bad 'repro serve' knob."""
    print(f"repro {command}: {message}", file=sys.stderr)
    return 2


def cmd_record(args) -> int:
    from repro.errors import ConfigError
    from repro.trace import record_workload, save_trace
    try:
        configs = build_configs(args)
        if configs.check:
            raise ConfigError(
                "--check is not supported: the recorder runs no coherence "
                "sanitizer; sanitize the run with 'repro run --check'")
    except ConfigError as exc:
        return _refuse("record", exc)
    spec = configs.request.to_spec()
    recorder, meta = record_workload(
        spec.build_workload(), machine_config=spec.machine,
        jitter_seed=spec.jitter_seed, limit=args.limit,
        with_cheetah=args.record_profile, cheetah_config=spec.cheetah)
    out = args.out or f"{args.workload}.trace.gz"
    written = save_trace(recorder.records, out, meta=meta)
    payload = {
        "workload": args.workload,
        "trace": out,
        "records": written,
        "truncated": bool(meta.get("truncated")),
        "live_verdict": meta.get("live_verdict"),
    }
    if args.json:
        _print_json(payload)
        return 0
    print(f"workload:      {args.workload}")
    print(f"trace:         {out}")
    print(f"records:       {written:,}"
          + (" (truncated)" if payload["truncated"] else ""))
    if payload["live_verdict"] is not None:
        print(f"live verdict:  {payload['live_verdict']}")
    return 0


def _replay_cache_key(args) -> str:
    """Content key for a replay: the trace bytes + every replay knob."""
    import hashlib
    from repro.run import SCHEMA_VERSION
    from repro.service.spec import content_key
    digest = hashlib.sha256()
    with open(args.trace_file, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return content_key({
        "kind": "replay",
        "schema_version": SCHEMA_VERSION,
        "trace_sha256": digest.hexdigest(),
        "period": args.period,
        "seed": args.seed,
        "true_sharing_fraction": args.true_sharing_fraction,
    })


def cmd_replay(args) -> int:
    from repro.service import ResultStore
    from repro.trace import load_trace, load_trace_meta, replay_outcome
    store = None
    outcome = None
    key = None
    if args.cache:
        store = ResultStore(args.cache_dir or default_cache_dir())
        key = _replay_cache_key(args)
        outcome = store.get(key)
    if outcome is None:
        meta = load_trace_meta(args.trace_file)
        outcome = replay_outcome(
            load_trace(args.trace_file), meta,
            period=args.period, seed=args.seed,
            true_sharing_fraction=args.true_sharing_fraction)
        if store is not None:
            store.put(key, outcome)
    md = outcome.result.metadata
    if args.json:
        _print_json({
            "trace": args.trace_file,
            "verdict": md["verdict"],
            "live_verdict": md.get("live_verdict"),
            "workload": md.get("workload"),
            "objects": md["objects"],
            "trace_records": md["trace_records"],
            "replayed_samples": md["replayed_samples"],
            "machine_invalidations": md["machine_invalidations"],
            "from_cache": outcome.from_cache,
        })
        return 0 if md["verdict"] == "false sharing" else 1
    workload = md.get("workload") or {}
    if workload:
        print(f"workload:       {workload.get('name')} "
              f"(threads={workload.get('num_threads')}, "
              f"scale={workload.get('scale')})")
    print(f"trace:          {args.trace_file} "
          f"({md['trace_records']:,} records"
          + (", cached" if outcome.from_cache else "") + ")")
    print(f"replayed:       {md['replayed_samples']:,} sample(s)"
          + (f" (period {md['period']})" if md.get("period") else ""))
    print(f"invalidations:  {md['machine_invalidations']:,} "
          "(machine ground truth)")
    print(f"verdict:        {md['verdict']}")
    live = md.get("live_verdict")
    if live is not None:
        agree = "matches" if live == md["verdict"] else "DIFFERS FROM"
        print(f"live run:       {live} ({agree} replay)")
    for obj in md["objects"]:
        print(f"  {obj['label']:<28} {obj['kind']:<14} "
              f"invalidations={obj['invalidations']}")
    return 0 if md["verdict"] == "false sharing" else 1


def _session(configs: CLIConfigs) -> Session:
    """The one CLI-to-API bridge: every workload subcommand runs here."""
    return configs.request.session(obs=configs.obs, check=configs.check)


def _write_text(dest: str, text: str, what: str) -> None:
    if dest == "-":
        sys.stdout.write(text)
        return
    with open(dest, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{what} written to {dest}", file=sys.stderr)


def _trace_format(path: str, explicit: Optional[str] = None) -> str:
    if explicit is not None:
        return explicit
    return "jsonl" if path.endswith(".jsonl") else "chrome"


def _write_obs_outputs(args, outcome) -> None:
    """Honor --trace/--metrics on run/profile after the main output."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        fmt = _trace_format(trace_path)
        outcome.obs.write_trace(trace_path, format=fmt)
        tracer = outcome.obs.tracer
        print(f"trace written to {trace_path} ({fmt}, "
              f"{len(tracer.events):,} events, {tracer.dropped:,} dropped)",
              file=sys.stderr)
    metrics_dest = getattr(args, "metrics", None)
    if metrics_dest:
        _write_text(metrics_dest, outcome.obs.render_prometheus(), "metrics")


def cmd_run(args) -> int:
    configs = build_configs(args)
    outcome = _session(configs).run()
    result = outcome.result
    # RunSummary (cache hit) and RunResult (live run) both answer these;
    # invalidations go through the outcome so a cached run — which has
    # no machine — reports its recorded ground truth.
    if args.json:
        _print_json({
            "workload": args.workload,
            "runtime": outcome.runtime,
            "threads": len(result.threads) - 1,
            "accesses": result.total_accesses,
            "invalidations": outcome.invalidations,
            "from_cache": outcome.from_cache,
        })
        _write_obs_outputs(args, outcome)
        return 0
    print(f"workload:       {args.workload}")
    print(f"runtime:        {outcome.runtime:,} cycles")
    print(f"threads:        {len(result.threads) - 1} workers")
    print(f"accesses:       {result.total_accesses:,}")
    print(f"invalidations:  {outcome.invalidations:,} (ground truth)")
    _write_obs_outputs(args, outcome)
    return 0


def cmd_profile(args) -> int:
    from repro.core.advisor import advise
    from repro.core.export import report_to_json
    configs = build_configs(args)
    outcome = _session(configs).profile()
    if args.json:
        print(report_to_json(outcome.report))
        _write_obs_outputs(args, outcome)
        return 0 if outcome.report.significant else 1
    print(outcome.report.render())
    for instance in outcome.report.significant:
        advice = advise(instance)
        if advice is not None:
            print()
            print(advice.render())
    _write_obs_outputs(args, outcome)
    return 0 if outcome.report.significant else 1


def cmd_trace(args) -> int:
    configs = build_configs(args)
    session = _session(configs)
    outcome = (session.profile() if configs.request.profiled
               else session.run())
    out = args.out or f"{args.workload}.trace.json"
    fmt = _trace_format(out, args.format)
    outcome.obs.write_trace(out, format=fmt)
    tracer = outcome.obs.tracer
    if args.json:
        _print_json({
            "workload": args.workload,
            "runtime": outcome.runtime,
            "events": len(tracer.events),
            "dropped": tracer.dropped,
            "trace": out,
            "format": fmt,
        })
        return 0
    print(f"workload:  {args.workload}")
    print(f"runtime:   {outcome.runtime:,} cycles")
    print(f"events:    {len(tracer.events):,} retained, "
          f"{tracer.dropped:,} dropped")
    print(f"trace:     {out} ({fmt})")
    if fmt == "chrome":
        print("open with https://ui.perfetto.dev ('Open trace file')")
    return 0


def cmd_metrics(args) -> int:
    configs = build_configs(args)
    session = _session(configs)
    outcome = (session.profile() if configs.request.profiled
               else session.run())
    if args.json:
        text = json.dumps(outcome.metrics, indent=2, sort_keys=True) + "\n"
    else:
        text = outcome.obs.render_prometheus()
    _write_text(args.out, text, "metrics")
    return 0


#: ``repro predict`` options only a prediction run reads, and options
#: only ``--validate`` reads; each is refused on the other side
#: (``--seed``, ``--json`` and the cache flags serve both).
PREDICT_RUN_ONLY = ("workload", "threads", "scale", "fixed", "line_size",
                    "cores", "mode", "check", "period")
PREDICT_VALIDATE_ONLY = ("smoke", "workloads")


def cmd_predict(args) -> int:
    from repro.errors import ConfigError
    defaults = build_parser().parse_args(["predict"])
    unread = PREDICT_RUN_ONLY if args.validate else PREDICT_VALIDATE_ONLY
    refused = ", ".join(
        "a workload name" if dest == "workload"
        else "--" + dest.replace("_", "-")
        for dest in unread if getattr(args, dest) != getattr(defaults, dest))
    if refused:
        where = "with" if args.validate else "without"
        return _refuse("predict", f"{refused}: not supported {where} "
                       "--validate")
    if args.validate:
        from repro.predict import validate as predict_validate
        return predict_validate.main(smoke=args.smoke,
                                     workloads=args.workloads,
                                     seed=args.seed, as_json=args.json)
    if not args.workload:
        raise ConfigError(
            "predict needs a workload name (or --validate to run the "
            "cross-validation harness)")
    configs = build_configs(args)
    outcome = _session(configs).profile()
    result = outcome.result
    meta = result.metadata
    if args.json:
        _print_json({
            "workload": args.workload,
            "mode": meta.get("mode"),
            "predicted": outcome.predicted,
            "runtime": outcome.runtime,
            "accesses": result.total_accesses,
            "invalidations": outcome.invalidations,
            "significant_instances": len(outcome.report.significant),
            "predicted_slowdown": meta.get("predicted_slowdown"),
            "profile": meta.get("profile"),
            "sampled": meta.get("sampled"),
            "from_cache": outcome.from_cache,
        })
        return 0 if outcome.report.significant else 1
    print(f"workload:       {args.workload}")
    print(f"mode:           {meta.get('mode')} (estimates, not a full "
          "simulation)")
    print(f"runtime:        {outcome.runtime:,} cycles (predicted)")
    print(f"accesses:       {result.total_accesses:,} (predicted)")
    print(f"invalidations:  {outcome.invalidations:,} (predicted)")
    profile_meta = meta.get("profile")
    if profile_meta:
        print(f"profiled:       {profile_meta['profiled_accesses']:,} "
              f"accesses over {profile_meta['calibration_points']} "
              f"prefix run(s) at scale(s) "
              f"{profile_meta.get('prefix_scales')}")
    sampled_meta = meta.get("sampled")
    if sampled_meta:
        ci = sampled_meta["ci95"]
        print(f"bursts:         {sampled_meta['bursts']} at scale "
              f"{sampled_meta['burst_scale']:g} (factor "
              f"{sampled_meta['factor']:g}); 95% CI runtime "
              f"+-{ci['runtime']:,.0f}, invalidations "
              f"+-{ci['invalidations']:,.0f}")
    print()
    print(outcome.report.render())
    return 0 if outcome.report.significant else 1


def cmd_fix_check(args) -> int:
    if args.fixed:
        return _refuse("fix-check", "--fixed is not supported: fix-check "
                       "always runs both the original and the padded layout")
    configs = build_configs(args)
    request = configs.request
    unfixed = request.replace(fixed=False).session(check=configs.check)
    original = unfixed.run()
    fixed = request.replace(fixed=True).session(check=configs.check).run()
    profiled = unfixed.profile()
    real = original.runtime / fixed.runtime
    best = profiled.report.best()
    if args.json:
        _print_json({
            "workload": args.workload,
            "runtime_original": original.runtime,
            "runtime_fixed": fixed.runtime,
            "real_improvement": real,
            "predicted_improvement":
                best.improvement if best is not None else None,
        })
        return 0 if best is not None else 1
    print(f"runtime (original): {original.runtime:,} cycles")
    print(f"runtime (fixed):    {fixed.runtime:,} cycles")
    print(f"real improvement:   {real:.3f}x")
    if best is None:
        print("Cheetah predicted:  (no significant instance reported)")
        return 1
    diff = (best.improvement - real) / real * 100
    print(f"Cheetah predicted:  {best.improvement:.3f}x ({diff:+.1f}%)")
    return 0


def cmd_compare(args) -> int:
    if args.fixed:
        return _refuse("compare", "--fixed is not supported: compare runs "
                       "every tool on the original layout")
    configs = build_configs(args)
    spec = configs.request.to_spec()
    # Observer runs must execute (their findings are read off the live
    # allocator); the native and Cheetah runs go through the cache.
    session = _session(configs)
    native = session.run()
    cheetah = session.profile()
    machine = spec.machine or MachineConfig()
    geometry = dict(line_size=machine.cache_line_size,
                    word_size=machine.word_size)
    predator = PredatorDetector(min_invalidations=40, **geometry)
    predator_run = run_workload(spec.build_workload(),
                                jitter_seed=spec.jitter_seed,
                                machine_config=spec.machine,
                                observer=predator, check=configs.check)
    sheriff = SheriffDetector(**geometry)
    sheriff_run = run_workload(spec.build_workload(),
                               jitter_seed=spec.jitter_seed,
                               machine_config=spec.machine,
                               observer=sheriff, check=configs.check)

    rows = [
        ("Cheetah", bool(cheetah.report.significant),
         cheetah.runtime / native.runtime),
        ("Predator", bool(predator.false_sharing_findings(
            predator_run.result.allocator, predator_run.result.symbols)),
         predator_run.runtime / native.runtime),
        ("Sheriff", bool(sheriff.false_sharing_findings(
            sheriff_run.result.allocator, sheriff_run.result.symbols)),
         sheriff_run.runtime / native.runtime),
    ]
    if args.json:
        _print_json([{"tool": tool, "detects_false_sharing": detected,
                      "overhead": overhead}
                     for tool, detected, overhead in rows])
        return 0
    print(f"{'tool':<10} {'detects FS':<12} overhead")
    for tool, detected, overhead in rows:
        print(f"{tool:<10} {'yes' if detected else 'no':<12} "
              f"{overhead:.2f}x")
    return 0


def _write_experiment_obs(args, handle: DefaultObs) -> None:
    """Write per-run traces / aggregated metrics collected by the
    ambient obs collector set around an experiment."""
    collected = handle.collected
    if not collected:
        print("note: no runs were observed", file=sys.stderr)
        return
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        written = 0
        for index, obs in enumerate(collected):
            if obs.tracer is None:
                continue
            path = os.path.join(args.trace, f"run-{index:04d}.trace.json")
            obs.write_trace(path, format="chrome")
            written += 1
        print(f"{written} trace(s) written to {args.trace}", file=sys.stderr)
    if args.metrics:
        aggregate = aggregate_snapshots(
            [obs.metrics_snapshot() for obs in collected])
        aggregate["runs"] = len(collected)
        text = json.dumps(aggregate, indent=2, sort_keys=True) + "\n"
        _write_text(args.metrics, text, "aggregated metrics")


def _report_cache(args, rendered: str) -> int:
    """Emit the experiment output plus the ambient service's cache stats."""
    service = current().service
    stats = service.stats() if service is not None else None
    if args.json:
        _print_json({"name": args.name, "render": rendered,
                     "cache": stats})
    else:
        print(rendered)
        if stats is not None and service.enabled:
            total = stats["hits"] + stats["misses"]
            ratio = stats["hits"] / total if total else 0.0
            print(f"cache: {stats['hits']} hit(s), {stats['misses']} "
                  f"miss(es) ({ratio:.0%} served from cache) at "
                  f"{stats['root']}", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    configs = build_configs(args)
    handle = DefaultObs(configs.obs) if configs.obs is not None else None
    if args.jobs and args.jobs > 1:
        if handle is not None:
            print("note: --trace/--metrics force serial execution; "
                  "ignoring --jobs", file=sys.stderr)
            args.jobs = None
        elif args.name not in JOBS_EXPERIMENTS:
            print(f"note: '{args.name}' has no parallel runner; "
                  "running serially", file=sys.stderr)
    with using(obs=handle):
        result = EXPERIMENTS[args.name](args)
        rendered = result.render()
    for failure in getattr(result, "failures", ()):
        print(f"warning: {failure.render()}", file=sys.stderr)
    if handle is not None:
        _write_experiment_obs(args, handle)
    return _report_cache(args, rendered)


def cmd_validate(args) -> int:
    from repro.sim.check import validate
    # Under --json the stage lines go to stderr: stdout is the JSON alone.
    with redirect_stdout(sys.stderr) if args.json else nullcontext():
        code = validate.main(smoke=args.smoke, seed=args.seed,
                             iterations=args.iterations)
    if args.json:
        _print_json({"command": "validate", "ok": code == 0})
    return code


def cmd_cache(args) -> int:
    from repro.service import ResultStore
    store = ResultStore(args.cache_dir or default_cache_dir())
    if args.action == "stats":
        stats = store.stats()
        if args.json:
            _print_json(stats)
            return 0
        print(f"store:             {stats['root']} "
              f"(format {stats['format']})")
        print(f"entries:           {stats['entries']}")
        print(f"bytes:             {stats['bytes']:,}")
        print(f"quarantined files: {stats['quarantined_files']}")
        return 0
    if args.action == "gc":
        result = store.gc(max_entries=args.max_entries,
                          max_age_seconds=args.max_age)
        if args.json:
            _print_json(result)
            return 0
        print(f"evicted {result['evicted']} entr(ies), quarantined "
              f"{result['tmp_quarantined']} stray tmp file(s); "
              f"{result['remaining']} entr(ies) remain")
        return 0
    removed = store.clear()
    if args.json:
        _print_json({"removed": removed})
        return 0
    print(f"removed {removed} entr(ies)")
    return 0


def cmd_serve(args) -> int:
    from repro.errors import ConfigError, ServiceError
    from repro.service.daemon import Daemon, ServeConfig
    tenants = tuple(
        name.strip() for name in (args.tenants or "").split(",")
        if name.strip())
    # Startup failures (bad knobs, port in use) are operator errors:
    # one diagnostic line and exit 2, never a traceback.
    try:
        config = ServeConfig(
            host=args.host, port=args.port, workers=args.workers,
            max_queue=args.max_queue, rate=args.rate, burst=args.burst,
            tenant_rate=args.tenant_rate, tenant_burst=args.tenant_burst,
            tenant_max_pending=args.tenant_max_pending, tenants=tenants,
            cache_dir=args.cache_dir, sink_dir=args.sink_dir,
            drain_timeout=args.drain_timeout)
        daemon = Daemon(config)
    except (ConfigError, ServiceError, OSError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    print(f"repro serve: listening on http://{config.host}:{daemon.port}",
          file=sys.stderr, flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down (draining jobs)...",
              file=sys.stderr, flush=True)
    daemon.shutdown()
    return 0


COMMANDS = {
    "list": cmd_list,
    "workloads": cmd_workloads,
    "record": cmd_record,
    "replay": cmd_replay,
    "run": cmd_run,
    "profile": cmd_profile,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "predict": cmd_predict,
    "fix-check": cmd_fix_check,
    "compare": cmd_compare,
    "experiment": cmd_experiment,
    "validate": cmd_validate,
    "cache": cmd_cache,
    "serve": cmd_serve,
}


@contextmanager
def _maybe_service(args) -> Iterator[None]:
    """Set the ambient run service for subcommands that simulate.

    Commands carrying the cache flags (run/profile/fix-check/compare/
    experiment) get a :class:`~repro.service.RunService` rooted at
    ``--cache-dir`` for the duration of the command; ``--no-cache``
    sets it disabled, so every run executes and nothing is stored.
    """
    if not hasattr(args, "cache"):
        yield
        return
    service = RunService(cache_dir=getattr(args, "cache_dir", None),
                         enabled=args.cache,
                         jobs=getattr(args, "jobs", None))
    with using_service(service):
        yield


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with _maybe_service(args):
        return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
