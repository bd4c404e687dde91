"""Cheetah — the paper's contribution.

- :mod:`repro.core.cacheline` — per-line state: sampled write counts, the
  two-entry access table (Section 2.3) and word-level shadow info
  (Section 2.4);
- :mod:`repro.core.detection` — the invalidation rule and the
  false-vs-true-sharing classifier;
- :mod:`repro.core.assessment` — the performance-impact prediction,
  equations (1)-(4) of Section 3;
- :mod:`repro.core.report` — report rendering in the paper's Figure 5
  format;
- :mod:`repro.core.profiler` — :class:`CheetahProfiler`, wiring PMU
  samples through detection and assessment into a report, and
  :func:`~repro.core.profiler.build_report`, the one report policy that
  the profiler and predict mode share.
"""

from repro.core.advisor import PaddingAdvice, advise
from repro.core.assessment import Assessment, AssessmentConfig, assess_object
from repro.core.cacheline import DetailedLine, TwoEntryTable, WordInfo
from repro.core.detection import (
    DetectorConfig,
    FalseSharingDetector,
    ObjectProfile,
    SharingKind,
)
from repro.core.profiler import CheetahConfig, CheetahProfiler, CheetahReport
from repro.core.report import ObjectReport, render_object, render_report

__all__ = [
    "Assessment",
    "AssessmentConfig",
    "CheetahConfig",
    "CheetahProfiler",
    "CheetahReport",
    "DetailedLine",
    "DetectorConfig",
    "FalseSharingDetector",
    "ObjectProfile",
    "ObjectReport",
    "PaddingAdvice",
    "advise",
    "SharingKind",
    "TwoEntryTable",
    "WordInfo",
    "assess_object",
    "render_object",
    "render_report",
]
