"""Regeneration of every table and figure in the paper's evaluation.

- :mod:`repro.experiments.figure1` — the motivating microbenchmark
  (expectation vs reality, Figure 1b);
- :mod:`repro.experiments.figure4` — Cheetah's runtime overhead over the
  17 Phoenix+PARSEC applications (Figure 4);
- :mod:`repro.experiments.figure5` — the linear_regression report
  (Figure 5);
- :mod:`repro.experiments.figure7` — the negligible-impact trio
  (Figure 7);
- :mod:`repro.experiments.table1` — assessment precision (Table 1);
- :mod:`repro.experiments.comparison` — the Section 4.2.3 comparison
  with the Predator baseline;
- :mod:`repro.experiments.detection` — classification vs. declared
  ground truth over the concurrent workload families.

Each module exposes ``run(...)`` returning a result object with ``rows``
and ``render()``. The matrix experiments (``table1``, ``figure4``,
``comparison``, ``scaling``, ``detection``) also take ``jobs``: with
``jobs > 1`` their cells run in worker processes
(:func:`repro.experiments.runner.map_cells`).
"""

from repro.experiments import (  # noqa: F401
    adaptive,
    assumptions,
    comparison,
    detection,
    figure1,
    figure4,
    figure5,
    figure7,
    linesize,
    scaling,
    synchronization,
    table1,
)
from repro.experiments.runner import (
    measure_overhead,
    measure_predicted_improvement,
    measure_real_improvement,
)
from repro.run import run_workload

__all__ = [
    "assumptions",
    "comparison",
    "detection",
    "figure1",
    "figure4",
    "figure5",
    "figure7",
    "linesize",
    "scaling",
    "synchronization",
    "measure_overhead",
    "measure_predicted_improvement",
    "measure_real_improvement",
    "run_workload",
    "table1",
]
