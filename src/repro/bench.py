"""Perf-regression harness: simulated-accesses-per-second over time.

Measures two things and records them in ``BENCH_engine.json`` at the
repo root so successive PRs can track the engine's perf trajectory:

- **throughput**: simulated accesses per wall-clock second for a native
  and a Cheetah-profiled run of representative workloads (the hot path
  every experiment funnels through);
- **experiment wall-clock**: seconds to regenerate small experiment
  configurations end-to-end.

All simulated outputs are deterministic; only the wall-clock measurement
varies run to run, so every metric is the best of ``repeats`` runs.

Use via ``python tools/bench.py`` or ``repro bench``. The JSON file
holds a list of entries; the first entry is the pre-optimisation
baseline and every run appends (unless ``--no-update``) and prints the
speedup against both the baseline and the previous entry.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import scaling
from repro.run import run_workload
from repro.sim.params import MachineConfig
from repro.workloads import get_workload

BENCH_FILE = "BENCH_engine.json"

#: (key, workload, threads, scale, profiled) throughput scenarios.
#: The ``*/serial`` scenarios run single-threaded: with one runnable
#: thread the scheduler grants unbounded quanta, so they are the purest
#: measure of burst-loop throughput. ``synthetic/serial`` degenerates to
#: a single enormous private-line burst.
THROUGHPUT_SCENARIOS = (
    ("linear_regression/native", "linear_regression", 8, 1.0, False),
    ("linear_regression/cheetah", "linear_regression", 8, 1.0, True),
    ("histogram/native", "histogram", 8, 1.0, False),
    ("histogram/serial", "histogram", 1, 1.0, False),
    ("synthetic/serial", "synthetic", 1, 200.0, False),
)

SEED = 11

MODES = ("simulate", "predict", "sampled")

#: The predict-mode showcase scenario: a thread/volume combination far
#: beyond what full simulation can touch interactively. ~1.06e8
#: simulated accesses (1024 workers x 2 accesses x 800*65 iterations).
PREDICT_TARGET = {"workload": "synthetic", "threads": 1024, "scale": 65.0,
                  "cores": 1024}
#: Feasible replica used to measure the real simulate-mode access rate
#: that the extrapolated "implied simulate seconds" is computed from.
PREDICT_REPLICA = {"threads": 64, "scale": 4.0}


def _measure_throughput(name: str, threads: int, scale: float,
                        profiled: bool, repeats: int,
                        mode: Optional[str] = None) -> Dict[str, object]:
    cls = get_workload(name)
    config = None
    if mode and mode != "simulate":
        config = MachineConfig(mode=mode)
    best_rate = 0.0
    accesses = 0
    for _ in range(repeats):
        workload = cls(num_threads=threads, scale=scale)
        start = time.perf_counter()
        outcome = run_workload(workload, machine_config=config,
                               jitter_seed=SEED, with_cheetah=profiled)
        elapsed = time.perf_counter() - start
        # For the analytical modes this is the *predicted* access count
        # of the target run, so the rate reads as effective accesses per
        # second — the fair apples-to-apples number for mode comparison.
        accesses = outcome.result.total_accesses
        best_rate = max(best_rate, accesses / elapsed)
    return {"accesses": accesses, "accesses_per_sec": round(best_rate, 1)}


def measure_predict_speedup(repeats: int = 1) -> Dict[str, object]:
    """The fast-forward headline: predict a 1024-thread, 10^8-access run
    and compare its wall-clock against the *implied* cost of simulating
    it (predicted accesses / measured simulate rate on a feasible
    replica of the same workload)."""
    cls = get_workload(PREDICT_TARGET["workload"])
    target_config = MachineConfig(num_cores=PREDICT_TARGET["cores"],
                                  mode="predict")
    predict_wall = float("inf")
    outcome = None
    for _ in range(repeats):
        workload = cls(num_threads=PREDICT_TARGET["threads"],
                       scale=PREDICT_TARGET["scale"])
        start = time.perf_counter()
        outcome = run_workload(workload, machine_config=target_config,
                               jitter_seed=SEED, with_cheetah=True)
        predict_wall = min(predict_wall, time.perf_counter() - start)
    predicted_accesses = outcome.result.total_accesses

    replica_config = MachineConfig(num_cores=PREDICT_TARGET["cores"])
    replica_rate = 0.0
    for _ in range(repeats):
        replica = cls(num_threads=PREDICT_REPLICA["threads"],
                      scale=PREDICT_REPLICA["scale"])
        start = time.perf_counter()
        result = run_workload(replica, machine_config=replica_config,
                              jitter_seed=SEED, with_cheetah=True)
        elapsed = time.perf_counter() - start
        replica_rate = max(replica_rate,
                           result.result.total_accesses / elapsed)
    implied_simulate = (predicted_accesses / replica_rate
                        if replica_rate else float("inf"))
    return {
        "scenario": (f"{PREDICT_TARGET['workload']}"
                     f"/{PREDICT_TARGET['threads']}t"
                     f"/scale{PREDICT_TARGET['scale']:g}"),
        "threads": PREDICT_TARGET["threads"],
        "scale": PREDICT_TARGET["scale"],
        "predicted_accesses": predicted_accesses,
        "predicted_invalidations": outcome.invalidations,
        "predict_wall_s": round(predict_wall, 4),
        "simulate_rate_acc_per_s": round(replica_rate, 1),
        "implied_simulate_s": round(implied_simulate, 2),
        "speedup_vs_simulate": round(implied_simulate / predict_wall, 1),
    }


def measure_predict_error(repeats: int = 1) -> Dict[str, object]:
    """Predict-vs-simulate invalidation/runtime error on a scenario small
    enough to hold the ground truth (rides in the bench entry so the
    speedup number is always published next to its accuracy)."""
    del repeats  # both runs are deterministic
    from repro.predict.validate import relative_error
    cls = get_workload("synthetic")
    truth = run_workload(cls(num_threads=8, scale=2.0),
                         jitter_seed=SEED, with_cheetah=True)
    pred = run_workload(cls(num_threads=8, scale=2.0),
                        machine_config=MachineConfig(mode="predict"),
                        jitter_seed=SEED, with_cheetah=True)
    return {
        "scenario": "synthetic/8t/scale2",
        "true_invalidations": truth.invalidations,
        "pred_invalidations": pred.invalidations,
        "invalidation_error": round(
            relative_error(pred.invalidations, truth.invalidations), 4),
        "runtime_error": round(
            abs(pred.result.runtime - truth.result.runtime)
            / truth.result.runtime, 4),
        "verdict_agrees": bool(truth.report.significant)
        == bool(pred.report.significant),
    }


def _measure_wall(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best, 4)


def run_bench(repeats: int = 3) -> Dict[str, object]:
    """Run every benchmark once; returns the entry dict (no file I/O)."""
    throughput = {
        key: _measure_throughput(name, threads, scale, profiled, repeats)
        for key, name, threads, scale, profiled in THROUGHPUT_SCENARIOS
    }
    experiments = {
        "scaling(scale=0.1)": _measure_wall(
            lambda: scaling.run(scale=0.1, thread_counts=(2, 4, 8)),
            repeats),
    }
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "repeats": repeats,
        "throughput": throughput,
        "experiments": experiments,
        "predict": {
            "fast_forward": measure_predict_speedup(repeats=1),
            "accuracy": measure_predict_error(),
        },
    }


def run_compare(variants: Sequence[str], repeats: int = 3) -> str:
    """Measure every throughput scenario under each execution mode;
    returns a speedup table (first variant is the denominator)."""
    header = f"{'scenario':<28}" + "".join(
        f"{v + ' acc/s':>18}" for v in variants)
    if len(variants) > 1:
        header += f"{'speedup':>10}"
    lines = [header]
    for key, name, threads, scale, profiled in THROUGHPUT_SCENARIOS:
        rates = []
        for variant in variants:
            rates.append(_measure_throughput(
                name, threads, scale, profiled, repeats,
                mode=variant)["accesses_per_sec"])
        row = f"{key:<28}" + "".join(f"{r:>18,.0f}" for r in rates)
        if len(variants) > 1:
            row += f"{rates[-1] / rates[0]:>9.2f}x"
        lines.append(row)
    lines.append("(analytical-mode rates are effective: predicted "
                 "accesses of the target run per wall second)")
    return "\n".join(lines)


def load_entries(path: Path) -> List[Dict[str, object]]:
    if not path.exists():
        return []
    return json.loads(path.read_text())["entries"]


def save_entries(path: Path, entries: Sequence[Dict[str, object]]) -> None:
    path.write_text(json.dumps({"entries": list(entries)}, indent=1) + "\n")


def _rate(entry: Dict[str, object], key: str) -> Optional[float]:
    scenario = entry.get("throughput", {}).get(key)
    return scenario["accesses_per_sec"] if scenario else None


def render_comparison(entries: Sequence[Dict[str, object]],
                      current: Dict[str, object]) -> str:
    lines = []
    for key, _, _, _, _ in THROUGHPUT_SCENARIOS:
        now = _rate(current, key)
        parts = [f"{key:<28} {now:>12,.0f} acc/s"]
        if entries:
            base = _rate(entries[0], key)
            if base:
                parts.append(f"{now / base:5.2f}x vs baseline"
                             f" [{entries[0].get('label', '#0')}]")
            if len(entries) > 1:
                prev = _rate(entries[-1], key)
                if prev:
                    parts.append(f"{now / prev:5.2f}x vs previous")
        lines.append("  ".join(parts))
    for name, wall in current.get("experiments", {}).items():
        parts = [f"{name:<28} {wall:>11.3f}s wall"]
        if entries:
            base = entries[0].get("experiments", {}).get(name)
            if base:
                parts.append(f"{base / wall:5.2f}x vs baseline")
        lines.append("  ".join(parts))
    predict = current.get("predict")
    if predict:
        ff = predict["fast_forward"]
        acc = predict["accuracy"]
        lines.append(
            f"predict {ff['scenario']:<20} {ff['predict_wall_s']:.2f}s for "
            f"{ff['predicted_accesses']:,} accesses "
            f"(implied simulate {ff['implied_simulate_s']:,.0f}s -> "
            f"{ff['speedup_vs_simulate']:,.0f}x)")
        lines.append(
            f"predict accuracy [{acc['scenario']}]     invalidation error "
            f"{acc['invalidation_error']:.1%}, runtime error "
            f"{acc['runtime_error']:.1%}, verdict "
            f"{'agrees' if acc['verdict_agrees'] else 'DISAGREES'}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Engine perf-regression bench; records "
                    f"{BENCH_FILE} at the repo root.")
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repeats per metric (best is kept)")
    parser.add_argument("--label", default="current",
                        help="label stored with this entry")
    parser.add_argument("--no-update", action="store_true",
                        help="measure and compare without rewriting "
                             f"{BENCH_FILE}")
    parser.add_argument("--path", type=Path, default=None,
                        help=f"override the {BENCH_FILE} location")
    parser.add_argument("--compare", metavar="V1,V2", default=None,
                        help="measure each listed mode "
                             "(simulate,predict,sampled) and print a "
                             f"speedup table; does not touch {BENCH_FILE}")
    args = parser.parse_args(argv)

    if args.compare:
        variants = [v.strip() for v in args.compare.split(",") if v.strip()]
        if not variants:
            parser.error(f"--compare: nothing to compare in "
                         f"{args.compare!r}")
        bad = [v for v in variants if v not in MODES]
        if bad:
            parser.error(f"--compare: unknown mode(s) {bad}; "
                         f"choose from {MODES}")
        print(run_compare(variants, repeats=args.repeats))
        return 0

    path = args.path or Path(__file__).resolve().parents[2] / BENCH_FILE
    entries = load_entries(path)
    entry = run_bench(repeats=args.repeats)
    entry["label"] = args.label
    print(render_comparison(entries, entry))
    if not args.no_update:
        save_entries(path, list(entries) + [entry])
        print(f"recorded entry '{args.label}' -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
