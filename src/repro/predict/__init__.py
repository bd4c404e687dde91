"""Analytical fast-forward prediction (``MachineConfig.mode``).

Three execution modes share one entry point (:func:`repro.run.run_workload`):

- ``simulate`` — the default full simulation;
- ``predict`` — profile a short simulated prefix
  (:mod:`repro.predict.profile`), then predict invalidations, findings
  and runtime analytically in O(lines)
  (:mod:`repro.predict.model`);
- ``sampled`` — fully simulate a few representative bursts and
  extrapolate with confidence intervals
  (:mod:`repro.predict.sampled`).

:mod:`repro.predict.validate` cross-checks predictions against ground
truth (``repro predict --validate``).
"""

from repro.predict.model import (
    PredictConfig,
    predict_from_profiles,
    predict_outcome,
)
from repro.predict.profile import (
    AccessProfile,
    LineProfile,
    ProfileCollector,
    extract_profile,
    profile_from_trace,
)
from repro.predict.sampled import burst_seed, run_bursts, sampled_outcome

__all__ = [
    "AccessProfile",
    "LineProfile",
    "PredictConfig",
    "ProfileCollector",
    "burst_seed",
    "extract_profile",
    "predict_from_profiles",
    "predict_outcome",
    "profile_from_trace",
    "run_bursts",
    "sampled_outcome",
]
