"""Summary statistics and failure accounting for the benchmark.

Timings follow one rule: report the median plus the highest percentile
that still has at least :data:`MIN_BEYOND` samples beyond it, always with
the sample count. A percentile named in a metric (``warm_p95_ms``) is
only reported when the sample supports it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def beyond(n: int, pct: float) -> int:
    """Samples of an ``n``-sample set lying beyond its ``pct`` percentile."""
    return int(math.floor(n * (100.0 - pct) / 100.0 + 1e-9))


def supports(n: int, pct: float) -> bool:
    """Whether ``n`` samples leave :data:`MIN_BEYOND` beyond ``pct``."""
    return beyond(n, pct) >= MIN_BEYOND


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile ``n`` samples support, or None."""
    for pct in TAIL_LADDER:
        if supports(n, pct):
            return pct
    return None


@dataclass
class Timing:
    """Median and supported tail of one timing sample."""

    n: int
    p50: float
    tail_pct: Optional[float]
    tail: Optional[float]

    def render(self, unit: str) -> str:
        text = f"p50 {self.p50:.4g} {unit}"
        if self.tail_pct is not None:
            text += f", p{self.tail_pct:g} {self.tail:.4g} {unit}"
        return text + f" (n={self.n})"


def summarize(values: Sequence[float]) -> Optional[Timing]:
    """Median plus highest supported tail, or None for no samples."""
    if not values:
        return None
    pct = tail_percentile(len(values))
    return Timing(n=len(values), p50=percentile(values, 50.0),
                  tail_pct=pct,
                  tail=percentile(values, pct) if pct is not None else None)


def named_percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """``pct`` of ``values`` when the sample supports it, else None."""
    if pct == 50.0:
        return percentile(values, pct) if values else None
    if not supports(len(values), pct):
        return None
    return percentile(values, pct)


@dataclass
class Tally:
    """Attempted and failed operations, with failure reasons.

    Every cell run, job, HTTP reply and findings query is one attempt;
    an exception, a verdict or fingerprint mismatch, a non-2xx reply
    (429 included) or an outcome mismatch fails it.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    examples: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str]) -> bool:
        """Count one attempt failing with ``problems`` (none: success)."""
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        for problem in problems:
            self.reasons[problem.split(":", 1)[0]] += 1
            if len(self.examples) < 20:
                self.examples.append(problem)
        return False

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)
        self.examples.extend(other.examples[:20 - len(self.examples)])

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table."""
    cells = [list(map(str, headers))] + [[str(c) for c in row]
                                          for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths))
                     .rstrip() for row in cells)


def metric(value: float, unit: str) -> Dict[str, object]:
    """One entry of the result line's ``metrics`` object."""
    return {"value": float(value), "unit": unit}
