"""Figure 4: runtime overhead of Cheetah on 17 Phoenix+PARSEC apps.

Each bar is the profiled runtime normalized to the native ("pthreads")
runtime. The paper reports ~7% overhead on average, under 12% for every
application except the two thread-heavy outliers — kmeans (224 threads)
and x264 (1024 threads), where per-thread PMU setup pushes overhead past
20% (Section 4.1).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.experiments.runner import format_table, map_cells, measure_overhead
from repro.pmu.sampler import PMUConfig
from repro.service import JobFailure
from repro.workloads import FIGURE4_NAMES, get_workload

# Overhead runs use two seeds by default: each data point is already two
# full simulations, and the paper's bar chart averages five *hardware*
# runs, which our deterministic simulator does not need as badly.
OVERHEAD_SEEDS = (11, 22)


@dataclass
class Figure4Row:
    name: str
    normalized_runtime: float  # profiled / native; 1.0 = no overhead

    @property
    def overhead_percent(self) -> float:
        return (self.normalized_runtime - 1.0) * 100.0


@dataclass
class Figure4Result:
    rows: List[Figure4Row] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list, compare=False)

    @property
    def average(self) -> float:
        return statistics.mean(r.normalized_runtime for r in self.rows)

    @property
    def average_excluding_thread_heavy(self) -> float:
        rest = [r.normalized_runtime for r in self.rows
                if r.name not in ("kmeans", "x264")]
        return statistics.mean(rest)

    def row(self, name: str) -> Figure4Row:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def render(self) -> str:
        from repro.experiments.charts import bar_chart
        table = format_table(
            ["application", "normalized runtime", "overhead"],
            [[r.name, f"{r.normalized_runtime:.3f}",
              f"{r.overhead_percent:+.1f}%"] for r in self.rows]
            + [["AVERAGE", f"{self.average:.3f}",
                f"{(self.average - 1) * 100:+.1f}%"]])
        chart = bar_chart(
            [(r.name, r.normalized_runtime) for r in self.rows],
            baseline=1.0, fmt="{:.3f}")
        return ("Figure 4 — Cheetah runtime overhead (normalized to "
                "native execution)\n(paper: ~7% average; kmeans/x264 "
                ">20% due to per-thread PMU setup)\n" + table
                + "\n\n" + chart)


def _row(cell) -> Figure4Row:
    name, scale, seeds, pmu_config = cell
    normalized = measure_overhead(get_workload(name), scale=scale,
                                  seeds=seeds, pmu_config=pmu_config)
    return Figure4Row(name=name, normalized_runtime=normalized)


def run(scale: float = 1.0,
        seeds: Sequence[int] = OVERHEAD_SEEDS,
        names: Optional[Sequence[str]] = None,
        pmu_config: Optional[PMUConfig] = None,
        jobs: Optional[int] = None) -> Figure4Result:
    """Regenerate Figure 4 (``jobs``: see :func:`runner.map_cells`)."""
    rows, failures = map_cells(
        _row, [(name, scale, tuple(seeds), pmu_config)
               for name in (names or FIGURE4_NAMES)], jobs)
    return Figure4Result(rows=rows, failures=failures)
