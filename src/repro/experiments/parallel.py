"""Parallel experiment matrix: fan independent cells across processes.

Every experiment in this package is a loop over independent
(workload, seed, configuration) cells — each cell builds its own
:class:`~repro.sim.machine.Machine` and runs its own simulation, so
cells share no mutable state and can run in separate OS processes.
This module mirrors the serial ``run()`` entry points of ``table1``,
``figure4``, ``comparison`` and ``scaling`` with a ``jobs`` parameter:

- ``jobs`` of ``None``/``0``/``1`` delegates to the serial ``run()``
  (byte-identical default path);
- ``jobs > 1`` fans the cells over the
  :class:`repro.service.Scheduler` and merges results **in submission
  order**, so the returned result object is equal to the serial one
  regardless of completion order.

The scheduler adds resilience the bare executor of PR-2 lacked: a cell
that keeps crashing (or exceeding the scheduler's per-job timeout) is
retried with backoff and finally degrades to a structured
:class:`repro.service.JobFailure` instead of killing the whole matrix —
failed cells are dropped from the result's rows and collected on its
``failures`` attribute. When an ambient :class:`repro.service.RunService`
is active (``repro experiment`` pushes one), worker processes re-open the
same result store, so cells are served from — and populate — the shared
cache.

Determinism: each cell derives all randomness from its arguments (the
machine jitter seed and the PMU seed), never from process-global state,
so a cell computes the same row in any process. The merge discards
nothing and never reorders, which is what the serial/parallel
equivalence test in ``tests/test_parallel_experiments.py`` pins down.

Cell functions are top-level (picklable) and take plain tuples so the
fork *and* spawn start methods both work; workloads travel by name
through :func:`repro.workloads.get_workload`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.context import current
from repro.experiments import comparison, detection, figure4, scaling, table1
from repro.experiments.runner import (
    measure_overhead,
    measure_predicted_improvement,
    measure_real_improvement,
)
from repro.run import DEFAULT_SEEDS
from repro.pmu.sampler import PMUConfig
from repro.service import JobFailure, Scheduler, open_worker_service
from repro.workloads import FIGURE4_NAMES, get_workload

#: Experiment names (as the CLI spells them) with a parallel runner.
PARALLEL_EXPERIMENTS = ("table1", "figure4", "comparison", "scaling",
                        "detection")


def _map_cells(cell_fn, cells, jobs: int) -> List[Any]:
    """Run ``cell_fn`` over ``cells`` via the scheduler, in cell order.

    With an ambient run service, its scheduler (carrying the configured
    timeout/retry policy and metrics registry) is used and every worker
    process re-opens the shared result store; otherwise a plain
    scheduler with default resilience runs the cells.
    """
    context = current()
    service = context.service
    cache = context.cache
    initargs = (str(cache.store.root) if cache is not None else None,)
    if service is not None:
        scheduler = service.make_scheduler(
            jobs, initializer=open_worker_service, initargs=initargs)
    else:
        scheduler = Scheduler(jobs=jobs, initializer=open_worker_service,
                              initargs=initargs)
    return scheduler.map(cell_fn, cells)


def _split_failures(outcomes: List[Any]) -> Tuple[List[Any], List[JobFailure]]:
    """Partition scheduler output into (rows, failures), preserving order."""
    rows = [o for o in outcomes if not isinstance(o, JobFailure)]
    failures = [o for o in outcomes if isinstance(o, JobFailure)]
    return rows, failures


def _degraded(result, failures: List[JobFailure]):
    """Attach ``failures`` to an experiment result (dataclass-eq neutral)."""
    result.failures = failures
    return result


# -- table1 ------------------------------------------------------------------

def _table1_cell(cell):
    name, threads, scale, seeds, pmu_config = cell
    cls = get_workload(name)
    real = measure_real_improvement(
        cls, num_threads=threads, scale=scale, seeds=seeds)
    predicted = measure_predicted_improvement(
        cls, num_threads=threads, scale=scale, seeds=seeds,
        pmu_config=pmu_config)
    return table1.Table1Row(application=name, threads=threads,
                            predicted=predicted, real=real)


def run_table1(scale: float = 1.0,
               seeds: Sequence[int] = DEFAULT_SEEDS,
               applications: Sequence[str] = table1.APPLICATIONS,
               thread_counts: Sequence[int] = table1.THREAD_COUNTS,
               pmu_config: Optional[PMUConfig] = None,
               jobs: Optional[int] = None) -> "table1.Table1Result":
    """Table 1 with one (application, thread-count) cell per task."""
    if not jobs or jobs <= 1:
        return table1.run(scale=scale, seeds=seeds,
                          applications=applications,
                          thread_counts=thread_counts,
                          pmu_config=pmu_config)
    cells = [(name, threads, scale, tuple(seeds), pmu_config)
             for name in applications for threads in thread_counts]
    rows, failures = _split_failures(_map_cells(_table1_cell, cells, jobs))
    return _degraded(table1.Table1Result(rows=rows), failures)


# -- figure4 -----------------------------------------------------------------

def _figure4_cell(cell):
    name, scale, seeds, pmu_config = cell
    cls = get_workload(name)
    normalized = measure_overhead(cls, scale=scale, seeds=seeds,
                                  pmu_config=pmu_config)
    return figure4.Figure4Row(name=name, normalized_runtime=normalized)


def run_figure4(scale: float = 1.0,
                seeds: Sequence[int] = figure4.OVERHEAD_SEEDS,
                names: Optional[Sequence[str]] = None,
                pmu_config: Optional[PMUConfig] = None,
                jobs: Optional[int] = None) -> "figure4.Figure4Result":
    """Figure 4 with one workload per task."""
    if not jobs or jobs <= 1:
        return figure4.run(scale=scale, seeds=seeds, names=names,
                           pmu_config=pmu_config)
    cells = [(name, scale, tuple(seeds), pmu_config)
             for name in (names or FIGURE4_NAMES)]
    rows, failures = _split_failures(_map_cells(_figure4_cell, cells, jobs))
    return _degraded(figure4.Figure4Result(rows=rows), failures)


# -- comparison --------------------------------------------------------------

def _comparison_cell(cell):
    name, scale, num_threads, jitter_seed, predator_min = cell
    result = comparison.run(scale=scale, num_threads=num_threads,
                            jitter_seed=jitter_seed,
                            predator_min_invalidations=predator_min,
                            applications=(name,))
    return result.rows[0]


def run_comparison(scale: float = 1.0, num_threads: int = 16,
                   jitter_seed: int = 11,
                   predator_min_invalidations: int = 40,
                   applications: Sequence[str] = comparison.APPLICATIONS,
                   jobs: Optional[int] = None
                   ) -> "comparison.ComparisonResult":
    """Section 4.2.3 comparison with one application per task."""
    if not jobs or jobs <= 1:
        return comparison.run(
            scale=scale, num_threads=num_threads, jitter_seed=jitter_seed,
            predator_min_invalidations=predator_min_invalidations,
            applications=applications)
    cells = [(name, scale, num_threads, jitter_seed,
              predator_min_invalidations) for name in applications]
    rows, failures = _split_failures(
        _map_cells(_comparison_cell, cells, jobs))
    return _degraded(comparison.ComparisonResult(rows=rows), failures)


# -- scaling -----------------------------------------------------------------

def _scaling_cell(cell):
    scale, threads, jitter_seed = cell
    result = scaling.run(scale=scale, thread_counts=(threads,),
                         jitter_seed=jitter_seed)
    return result.rows[0]


def run_scaling(scale: float = 0.5,
                thread_counts: Sequence[int] = scaling.THREAD_COUNTS,
                jitter_seed: int = 11,
                jobs: Optional[int] = None) -> "scaling.ScalingResult":
    """Thread-scaling study with one thread count per task."""
    if not jobs or jobs <= 1:
        return scaling.run(scale=scale, thread_counts=thread_counts,
                           jitter_seed=jitter_seed)
    cells = [(scale, threads, jitter_seed) for threads in thread_counts]
    rows, failures = _split_failures(
        _map_cells(_scaling_cell, cells, jobs))
    return _degraded(scaling.ScalingResult(rows=rows), failures)


# -- detection ---------------------------------------------------------------

def _detection_cell(cell):
    name, scale, jitter_seed = cell
    return detection.run_one(name, scale=scale, jitter_seed=jitter_seed)


def run_detection(scale: float = 1.0,
                  names: Optional[Sequence[str]] = None,
                  jitter_seed: int = 0xC0FFEE,
                  jobs: Optional[int] = None
                  ) -> "detection.DetectionResult":
    """Detection table with one workload per task."""
    if not jobs or jobs <= 1:
        return detection.run(scale=scale, names=names,
                             jitter_seed=jitter_seed)
    cells = [(name, scale, jitter_seed)
             for name in (names if names is not None
                          else detection.default_names())]
    rows, failures = _split_failures(
        _map_cells(_detection_cell, cells, jobs))
    return _degraded(detection.DetectionResult(rows=rows), failures)


RUNNERS = {
    "table1": run_table1,
    "figure4": run_figure4,
    "comparison": run_comparison,
    "scaling": run_scaling,
    "detection": run_detection,
}
