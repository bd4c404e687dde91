"""Detection table: observed vs. declared verdict per workload.

The concurrent workload families (producer/consumer rings, work-stealing
deques, lock-free queues, seqlocks, NUMA ping-pong) exist to exercise
sharing patterns the paper's fork/join applications never produce. This
experiment runs each workload under Cheetah (with true-sharing
reporting on, so the three-way verdict is visible) and checks the
classification against the workload's declared
:class:`~repro.workloads.GroundTruth`:

- every workload declaring *significant* false sharing must be reported
  with a significant instance (100% recall);
- no workload declaring true sharing or no sharing may produce a false
  sharing verdict (zero false positives);
- negligible-false-sharing workloads (the Figure 7 trio) pass either
  way — sampling is *expected* to miss them, but finding them is not a
  false positive.

Workloads carrying ``machine_defaults`` (the NUMA family) run on the
machine they were designed around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.profiler import CheetahConfig
from repro.experiments.runner import format_table, map_cells
from repro.service import JobFailure, cached_run
from repro.sim.params import MachineConfig
from repro.trace.record import workload_verdict
from repro.workloads import Verdict, get_workload, iter_workloads

def default_names() -> List[str]:
    """The concurrent suite plus fork/join anchors (``array_increment``
    for significant false sharing, ``kmeans`` for no sharing) so the
    table always demonstrates every verdict class."""
    names = [cls.name for cls in iter_workloads(suite="concurrent")]
    for name in ("array_increment", "kmeans"):
        if name not in names:
            names.append(name)
    return names


@dataclass
class DetectionRow:
    workload: str
    family: str
    expected: str          # declared verdict ("false sharing (significant)")
    observed: str          # three-way verdict from the report
    significant: bool      # report carries a significant FS instance
    ok: bool


@dataclass
class DetectionResult:
    rows: List[DetectionRow] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list, compare=False)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def render(self) -> str:
        body = [[r.workload, r.family, r.expected, r.observed,
                 "yes" if r.significant else "no",
                 "ok" if r.ok else "MISMATCH"]
                for r in self.rows]
        table = format_table(
            ["workload", "family", "expected", "observed", "significant",
             "verdict"], body)
        status = ("all verdicts match declared ground truth" if self.all_ok
                  else "MISMATCH: detector disagrees with ground truth")
        return ("Detection table — classification vs. declared ground "
                "truth\n" + table + "\n" + status)


def _judge(cls, observed: str, significant: bool) -> DetectionRow:
    truth = cls.ground_truth
    expected = truth.verdict.value
    if truth.verdict is Verdict.FALSE_SHARING:
        expected += " (significant)" if truth.significant else " (negligible)"
        if truth.significant:
            # Recall: must be reported, and as significant.
            ok = observed == "false sharing" and significant
        else:
            # Figure 7 class: missing it is the expected outcome,
            # finding it is still correct — only a *significant* report
            # would overstate the impact, and even that matches the
            # declared verdict. Never a mismatch.
            ok = True
    else:
        # Precision: true-sharing / no-sharing workloads must never be
        # classified as false sharing.
        ok = observed != "false sharing" and not significant
    return DetectionRow(workload=cls.name, family=cls.family,
                        expected=expected, observed=observed,
                        significant=significant, ok=ok)


def _row(cell) -> DetectionRow:
    """One detection cell: run under Cheetah, judge against ground truth."""
    name, scale, jitter_seed = cell
    cls = get_workload(name)
    machine = (MachineConfig(**cls.machine_defaults)
               if cls.machine_defaults else None)
    outcome = cached_run(
        cls, scale=scale, jitter_seed=jitter_seed, with_cheetah=True,
        machine_config=machine,
        cheetah_config=CheetahConfig(report_true_sharing=True))
    report = outcome.report
    return _judge(cls, workload_verdict(report),
                  bool(report.significant))


def run(scale: float = 1.0,
        names: Optional[Sequence[str]] = None,
        jitter_seed: int = 0xC0FFEE,
        jobs: Optional[int] = None) -> DetectionResult:
    """Regenerate the detection table (``jobs``: see
    :func:`runner.map_cells`)."""
    rows, failures = map_cells(
        _row, [(name, scale, jitter_seed) for name in
               (names if names is not None else default_names())], jobs)
    return DetectionResult(rows=rows, failures=failures)
