"""Table 1: precision of Cheetah's performance-impact assessment.

For linear_regression and streamcluster at 16/8/4/2 threads, the paper
compares Cheetah's predicted improvement ("Predict") against the speedup
actually obtained by the padding fix ("Real"), finding less than 10%
difference on every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.experiments.runner import (
    format_table,
    map_cells,
    measure_predicted_improvement,
    measure_real_improvement,
)
from repro.run import DEFAULT_SEEDS
from repro.pmu.sampler import PMUConfig
from repro.service import JobFailure
from repro.workloads import get_workload

APPLICATIONS = ("linear_regression", "streamcluster")
THREAD_COUNTS = (16, 8, 4, 2)

#: The paper's Table 1, for side-by-side rendering.
PAPER_ROWS = {
    ("linear_regression", 16): (6.44, 6.7),
    ("linear_regression", 8): (5.56, 5.4),
    ("linear_regression", 4): (3.86, 4.1),
    ("linear_regression", 2): (2.18, 2.0),
    ("streamcluster", 16): (1.016, 1.015),
    ("streamcluster", 8): (1.017, 1.018),
    ("streamcluster", 4): (1.024, 1.022),
    ("streamcluster", 2): (1.033, 1.035),
}


@dataclass
class Table1Row:
    application: str
    threads: int
    predicted: float
    real: float

    @property
    def diff_percent(self) -> float:
        """Positive when the prediction exceeds the real improvement."""
        return (self.predicted - self.real) / self.real * 100.0


@dataclass
class Table1Result:
    rows: List[Table1Row] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list, compare=False)

    @property
    def worst_diff_percent(self) -> float:
        return max(abs(r.diff_percent) for r in self.rows)

    def render(self) -> str:
        body = []
        for r in self.rows:
            paper = PAPER_ROWS.get((r.application, r.threads))
            paper_txt = (f"{paper[0]:.3g}X/{paper[1]:.3g}X" if paper else "-")
            body.append([r.application, r.threads, f"{r.predicted:.3f}X",
                         f"{r.real:.3f}X", f"{r.diff_percent:+.1f}%",
                         paper_txt])
        table = format_table(
            ["application", "threads", "predict", "real", "diff",
             "paper(pred/real)"], body)
        return ("Table 1 — precision of assessment\n"
                "(paper: <10% difference on every row)\n" + table)


def _row(cell) -> Table1Row:
    name, threads, scale, seeds, pmu_config = cell
    cls = get_workload(name)
    real = measure_real_improvement(
        cls, num_threads=threads, scale=scale, seeds=seeds)
    predicted = measure_predicted_improvement(
        cls, num_threads=threads, scale=scale, seeds=seeds,
        pmu_config=pmu_config)
    return Table1Row(application=name, threads=threads,
                     predicted=predicted, real=real)


def run(scale: float = 1.0,
        seeds: Sequence[int] = DEFAULT_SEEDS,
        applications: Sequence[str] = APPLICATIONS,
        thread_counts: Sequence[int] = THREAD_COUNTS,
        pmu_config: Optional[PMUConfig] = None,
        jobs: Optional[int] = None) -> Table1Result:
    """Regenerate Table 1 (``jobs``: see :func:`runner.map_cells`)."""
    rows, failures = map_cells(
        _row, [(name, threads, scale, tuple(seeds), pmu_config)
               for name in applications for threads in thread_counts],
        jobs)
    return Table1Result(rows=rows, failures=failures)
