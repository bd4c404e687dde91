"""Thread-scaling of false sharing damage (the paper's intro claim).

    "The hardware trend, such as adding more cores on chip and enlarging
    the cache line size, will further degrade the performance of
    multithreaded programs due to false sharing."

This experiment sweeps thread counts for linear_regression and reports
the slowdown caused by its false sharing (runtime with the bug over
runtime with the fix) — the damage grows with parallelism and then
saturates once every cache line of the object is contended.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.experiments.runner import format_table, map_cells
from repro.service import JobFailure, cached_run
from repro.workloads.phoenix import LinearRegression

THREAD_COUNTS = (2, 4, 8, 16, 24, 32)


@dataclass
class ScalingRow:
    threads: int
    unfixed_runtime: int
    fixed_runtime: int

    @property
    def damage(self) -> float:
        """Slowdown attributable to the false sharing bug."""
        return self.unfixed_runtime / self.fixed_runtime


@dataclass
class ScalingResult:
    rows: List[ScalingRow] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list, compare=False)

    def render(self) -> str:
        from repro.experiments.charts import bar_chart
        table = format_table(
            ["threads", "with bug", "fixed", "FS damage"],
            [[r.threads, r.unfixed_runtime, r.fixed_runtime,
              f"{r.damage:.2f}x"] for r in self.rows])
        chart = bar_chart([(str(r.threads), r.damage) for r in self.rows],
                          fmt="{:.2f}x")
        return ("Thread-scaling of false sharing damage "
                "(linear_regression)\n"
                "(paper intro: more cores worsen false sharing)\n"
                + table + "\n\n" + chart)


def _row(cell) -> ScalingRow:
    scale, threads, jitter_seed = cell
    unfixed = cached_run(
        LinearRegression, num_threads=threads, scale=scale,
        jitter_seed=jitter_seed)
    fixed = cached_run(
        LinearRegression, num_threads=threads, scale=scale,
        fixed=True, jitter_seed=jitter_seed)
    return ScalingRow(threads=threads, unfixed_runtime=unfixed.runtime,
                      fixed_runtime=fixed.runtime)


def run(scale: float = 0.5,
        thread_counts: Sequence[int] = THREAD_COUNTS,
        jitter_seed: int = 11,
        jobs: Optional[int] = None) -> ScalingResult:
    """Regenerate the thread-scaling study (``jobs``: see
    :func:`runner.map_cells`)."""
    rows, failures = map_cells(
        _row, [(scale, threads, jitter_seed) for threads in thread_counts],
        jobs)
    return ScalingResult(rows=rows, failures=failures)
