"""Cross-validation harness: predict vs full simulation.

For each workload in the validation set, run the same (threads, scale,
seed, config) pair twice — once in ``simulate`` mode (ground truth) and
once in ``predict`` mode — and compare:

- **invalidations**: relative error ``|pred - true| / true`` when the
  true count is at least :data:`NEGLIGIBLE_INVALIDATIONS`; below that
  the run has no contention to speak of, and the error is 0 when the
  prediction agrees it is negligible, 1 when it hallucinates contention;
- **runtime**: relative error (reported, not gated — the detection
  product is invalidations and findings, runtime is secondary);
- **verdict**: does the predicted Cheetah report flag significant false
  sharing exactly when the simulated one does, and (when both flag) do
  they agree on the top object?

The harness passes when the median invalidation error is at most
:data:`MEDIAN_ERROR_BUDGET` and the verdict agrees on every workload.
The full run (no ``--smoke``, no ``--workloads``) also measures the
fast-forward headline, :func:`measure_fast_forward`, and reports it
without gating on it. ``repro predict --validate`` calls :func:`main`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.profiler import CheetahConfig
from repro.run import run_workload
from repro.sim.params import MachineConfig
from repro.workloads.base import get_workload

#: True-invalidation counts below this are "no contention"; predictions
#: are judged on agreeing with that, not on relative error against a
#: tiny denominator.
NEGLIGIBLE_INVALIDATIONS = 50

#: Acceptance bar: median relative invalidation error across the set.
MEDIAN_ERROR_BUDGET = 0.10

#: (workload, threads, scale) triples. Mixes the ground-truth positives
#: (documented false sharing) with negative controls, over both heap and
#: global objects and both micro and application-shaped access patterns.
VALIDATION_SET = (
    ("synthetic", 8, 2.0),
    ("array_increment", 8, 2.0),
    ("linear_regression", 8, 1.0),
    ("histogram", 8, 1.0),
    ("word_count", 8, 1.0),
    ("streamcluster", 8, 1.0),
    ("matrix_multiply", 4, 0.5),
    ("string_match", 4, 1.0),
)

#: The quick subset CI runs (``--smoke``).
SMOKE_SET = (
    ("synthetic", 8, 2.0),
    ("array_increment", 8, 2.0),
    ("linear_regression", 8, 1.0),
    ("matrix_multiply", 4, 0.5),
)


#: The fast-forward headline (workload, threads, scale): ~1.06e8
#: predicted accesses (1024 workers x 2 accesses x 800*65 iterations),
#: far beyond what full simulation can touch interactively.
FAST_FORWARD_TARGET = ("synthetic", 1024, 65.0)

#: (threads, scale) of the feasible replica whose simulated access rate
#: prices the target: implied simulate time = predicted accesses / rate.
FAST_FORWARD_REPLICA = (64, 4.0)


@dataclass
class WorkloadResult:
    """Predict-vs-simulate comparison for one workload."""

    name: str
    threads: int
    scale: float
    true_invalidations: int
    pred_invalidations: int
    invalidation_error: float
    true_runtime: int
    pred_runtime: int
    runtime_error: float
    true_verdict: bool
    pred_verdict: bool
    verdict_agrees: bool
    top_object_agrees: bool
    simulate_seconds: float
    predict_seconds: float

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


def relative_error(pred: float, true: float,
                   negligible: int = NEGLIGIBLE_INVALIDATIONS) -> float:
    """Relative error with the negligible-count rule described above."""
    if true >= negligible:
        return abs(pred - true) / true
    return 0.0 if pred < negligible else 1.0


def _top_label(report) -> Optional[str]:
    best = report.best() if report is not None else None
    return best.profile.label if best is not None else None


def validate_workload(name: str, threads: int, scale: float, *,
                      seed: int = 11) -> WorkloadResult:
    """Run one simulate-vs-predict pair and compare."""
    cls = get_workload(name)
    cheetah = CheetahConfig()

    def build():
        return cls(num_threads=threads, scale=scale)

    start = time.perf_counter()
    truth = run_workload(build(), machine_config=MachineConfig(),
                         jitter_seed=seed, with_cheetah=True,
                         cheetah_config=cheetah)
    sim_secs = time.perf_counter() - start

    start = time.perf_counter()
    pred = run_workload(build(),
                        machine_config=MachineConfig(mode="predict"),
                        jitter_seed=seed, with_cheetah=True,
                        cheetah_config=cheetah)
    pred_secs = time.perf_counter() - start

    true_inv = truth.invalidations
    pred_inv = pred.invalidations
    true_rt = truth.result.runtime
    pred_rt = pred.result.runtime
    true_verdict = bool(truth.report.significant)
    pred_verdict = bool(pred.report.significant)
    if true_verdict and pred_verdict:
        top_agrees = _top_label(truth.report) == _top_label(pred.report)
    else:
        top_agrees = true_verdict == pred_verdict
    return WorkloadResult(
        name=name, threads=threads, scale=scale,
        true_invalidations=true_inv, pred_invalidations=pred_inv,
        invalidation_error=round(relative_error(pred_inv, true_inv), 4),
        true_runtime=true_rt, pred_runtime=pred_rt,
        runtime_error=round(abs(pred_rt - true_rt) / true_rt, 4)
        if true_rt else 0.0,
        true_verdict=true_verdict, pred_verdict=pred_verdict,
        verdict_agrees=true_verdict == pred_verdict,
        top_object_agrees=top_agrees,
        simulate_seconds=round(sim_secs, 3),
        predict_seconds=round(pred_secs, 3),
    )


def run_validation(cases: Sequence[tuple], *,
                   seed: int = 11) -> List[WorkloadResult]:
    return [validate_workload(name, threads, scale, seed=seed)
            for name, threads, scale in cases]


def measure_fast_forward(target: tuple = FAST_FORWARD_TARGET,
                         replica: tuple = FAST_FORWARD_REPLICA, *,
                         seed: int = 11) -> Dict[str, object]:
    """Time a predict run of ``target`` against the implied cost of
    simulating it: its predicted accesses over the access rate of a
    simulated ``replica`` (threads, scale) of the same workload, both
    profiled on a machine with one core per target thread."""
    name, threads, scale = target
    cls = get_workload(name)
    machine = MachineConfig(num_cores=threads)

    start = time.perf_counter()
    pred = run_workload(cls(num_threads=threads, scale=scale),
                        machine_config=machine.replace(mode="predict"),
                        jitter_seed=seed, with_cheetah=True)
    pred_secs = time.perf_counter() - start

    replica_threads, replica_scale = replica
    start = time.perf_counter()
    sim = run_workload(cls(num_threads=replica_threads, scale=replica_scale),
                       machine_config=machine, jitter_seed=seed,
                       with_cheetah=True)
    rate = sim.result.total_accesses / (time.perf_counter() - start)

    accesses = pred.result.total_accesses
    implied = accesses / rate
    return {
        "workload": name, "threads": threads, "scale": scale,
        "replica_threads": replica_threads, "replica_scale": replica_scale,
        "predicted_accesses": accesses,
        "predict_seconds": round(pred_secs, 3),
        "simulate_accesses_per_second": round(rate, 1),
        "implied_simulate_seconds": round(implied, 2),
        "speedup": round(implied / pred_secs, 1),
    }


def render_fast_forward(ff: Dict[str, object]) -> str:
    return (f"fast-forward {ff['workload']} {ff['threads']}t "
            f"scale {ff['scale']:g}: {ff['predicted_accesses']:,} accesses "
            f"predicted in {ff['predict_seconds']:.2f}s; simulating them "
            f"at {ff['simulate_accesses_per_second']:,.0f} acc/s "
            f"({ff['replica_threads']}t scale {ff['replica_scale']:g} "
            f"replica) takes ~{ff['implied_simulate_seconds']:,.0f}s "
            f"-> {ff['speedup']:,.0f}x")


def summarize(results: Sequence[WorkloadResult]) -> Dict[str, object]:
    errors = sorted(r.invalidation_error for r in results)
    mid = len(errors) // 2
    if not errors:
        median = 0.0
    elif len(errors) % 2:
        median = errors[mid]
    else:
        median = (errors[mid - 1] + errors[mid]) / 2.0
    verdicts_ok = all(r.verdict_agrees for r in results)
    passed = median <= MEDIAN_ERROR_BUDGET and verdicts_ok
    return {
        "workloads": len(results),
        "median_invalidation_error": round(median, 4),
        "max_invalidation_error": round(max(errors), 4) if errors else 0.0,
        "median_error_budget": MEDIAN_ERROR_BUDGET,
        "verdict_agreement": verdicts_ok,
        "verdict_disagreements": [r.name for r in results
                                  if not r.verdict_agrees],
        "passed": passed,
    }


def render_table(results: Sequence[WorkloadResult],
                 summary: Dict[str, object]) -> str:
    header = (f"{'workload':<20} {'thr':>3} {'scale':>5} "
              f"{'inv(true)':>10} {'inv(pred)':>10} {'err':>7} "
              f"{'rt err':>7} {'verdict':>8}")
    lines = [header, "-" * len(header)]
    for r in results:
        verdict = "ok" if r.verdict_agrees else "MISMATCH"
        lines.append(
            f"{r.name:<20} {r.threads:>3} {r.scale:>5g} "
            f"{r.true_invalidations:>10} {r.pred_invalidations:>10} "
            f"{r.invalidation_error:>6.1%} {r.runtime_error:>6.1%} "
            f"{verdict:>8}")
    lines.append("-" * len(header))
    lines.append(
        f"median invalidation error {summary['median_invalidation_error']:.1%}"
        f" (budget {summary['median_error_budget']:.0%}), verdict agreement "
        f"{'yes' if summary['verdict_agreement'] else 'NO'} -> "
        f"{'PASS' if summary['passed'] else 'FAIL'}")
    return "\n".join(lines)


def main(smoke: bool = False, workloads: Optional[str] = None,
         seed: int = 11, as_json: bool = False) -> int:
    """``repro predict --validate``: 0 when the harness passes.

    ``smoke`` runs :data:`SMOKE_SET`; ``workloads`` (comma-separated)
    overrides the set, taking each set entry's threads/scale or 8/1.0
    for new names; ``as_json`` prints one JSON report instead of the
    table.
    """
    cases = list(SMOKE_SET if smoke else VALIDATION_SET)
    if workloads:
        wanted = [w.strip() for w in workloads.split(",") if w.strip()]
        known = {name: (name, threads, scale)
                 for name, threads, scale in VALIDATION_SET}
        cases = [known.get(w, (w, 8, 1.0)) for w in wanted]

    results = run_validation(cases, seed=seed)
    summary = summarize(results)
    report: Dict[str, object] = {"summary": summary,
                                 "results": [r.to_dict() for r in results]}
    if not as_json:
        print(render_table(results, summary), flush=True)
    if not (smoke or workloads):
        report["fast_forward"] = measure_fast_forward(seed=seed)
        if not as_json:
            print(render_fast_forward(report["fast_forward"]))
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if summary["passed"] else 1
