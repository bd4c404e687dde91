"""Counters, gauges and histograms with a Prometheus text exporter.

The registry is deliberately small and dependency-free: metric values
are plain ints/floats updated from the simulator's hooks, every
iteration order is deterministic (insertion order for series, sorted
names for export), and a snapshot is a plain nested dict suitable for
JSON. Metrics carry at most one label dimension (``outcome``, ``kind``,
…) — enough for everything the simulator reports while keeping the
exporter and snapshot formats trivially predictable. Each update holds
its metric's lock, and each get-or-create the registry's: the serve
daemon and the scheduler use one registry from many threads.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

Number = Union[int, float]

#: Default histogram bucket upper bounds (powers of two; +Inf implied).
DEFAULT_BUCKETS: Tuple[Number, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _format_value(value: Number) -> str:
    """Prometheus sample value: ints stay ints, floats use repr."""
    if isinstance(value, bool):  # pragma: no cover - never stored
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(value)


class _Metric:
    """Shared name/help/label plumbing for counters and gauges."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 label: Optional[str] = None):
        self.name = name
        self.help = help
        self.label = label
        # Unlabelled metrics store their value under the None key.
        self._values: Dict[Optional[str], Number] = {}
        self._lock = threading.Lock()

    def value(self, label_value: Optional[str] = None) -> Number:
        """Current value of one series (0 when never touched)."""
        self._check_label(label_value)
        return self._values.get(label_value, 0)

    def series(self) -> Dict[Optional[str], Number]:
        """All series, in first-touch order."""
        return dict(self._values)

    def _check_label(self, label_value: Optional[str]) -> None:
        if (label_value is None) != (self.label is None):
            raise ConfigError(
                f"metric {self.name!r} "
                + (f"requires a {self.label!r} label value"
                   if self.label else "takes no label value"))

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}" if self.help else
                 f"# HELP {self.name} (no help)",
                 f"# TYPE {self.name} {self.kind}"]
        for label_value in sorted(self._values, key=lambda v: (v is None, v)):
            value = self._values[label_value]
            if label_value is None:
                lines.append(f"{self.name} {_format_value(value)}")
            else:
                lines.append(f'{self.name}{{{self.label}="{label_value}"}} '
                             f"{_format_value(value)}")
        return lines


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: Number = 1,
            label_value: Optional[str] = None) -> None:
        if amount < 0:
            raise ConfigError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self._check_label(label_value)
        with self._lock:
            self._values[label_value] = \
                self._values.get(label_value, 0) + amount

    def total(self) -> Number:
        """Sum over all series."""
        return sum(self._values.values())


class Gauge(_Metric):
    """Point-in-time value; ``set`` overwrites, ``add`` accumulates."""

    kind = "gauge"

    def set(self, value: Number, label_value: Optional[str] = None) -> None:
        self._check_label(label_value)
        with self._lock:
            self._values[label_value] = value

    def add(self, amount: Number, label_value: Optional[str] = None) -> None:
        self._check_label(label_value)
        with self._lock:
            self._values[label_value] = \
                self._values.get(label_value, 0) + amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[Number] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ConfigError(
                f"histogram {name!r} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.label = None
        self.bounds: Tuple[Number, ...] = tuple(buckets)
        self._counts: List[int] = [0] * len(self.bounds)
        self.count = 0
        self.sum: Number = 0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[index] += 1

    def bucket_counts(self) -> List[Tuple[str, int]]:
        """Cumulative ``(le, count)`` pairs, ``+Inf`` last."""
        out = [(str(bound), self._counts[index])
               for index, bound in enumerate(self.bounds)]
        out.append(("+Inf", self.count))
        return out

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}" if self.help else
                 f"# HELP {self.name} (no help)",
                 f"# TYPE {self.name} histogram"]
        for le, count in self.bucket_counts():
            lines.append(f'{self.name}_bucket{{le="{le}"}} {count}')
        lines.append(f"{self.name}_sum {_format_value(self.sum)}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Re-requesting a name returns the existing metric (so hooks and
    finalization can share counters) but re-requesting it as a different
    type or with a different label raises :class:`ConfigError` — silent
    type confusion would corrupt the exported families.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[_Metric, Histogram]] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, factory, name: str, help: str, **kwargs):
        with self._lock:  # one object per name, however many threads ask
            existing = self._metrics.get(name)
            if existing is None:
                metric = self._metrics[name] = factory(name, help, **kwargs)
                return metric
        if not isinstance(existing, factory):
            raise ConfigError(
                f"metric {name!r} already registered as {existing.kind}")
        label = kwargs.get("label")
        if getattr(existing, "label", None) != label and "label" in kwargs:
            raise ConfigError(
                f"metric {name!r} already registered with label "
                f"{existing.label!r}")
        return existing

    def counter(self, name: str, help: str = "",
                label: Optional[str] = None) -> Counter:
        return self._get_or_create(Counter, name, help, label=label)

    def gauge(self, name: str, help: str = "",
              label: Optional[str] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, label=label)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[Number] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        """The registered metric, or None."""
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- export --------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, families sorted by name."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain nested dict of every metric (JSON-ready, deterministic).

        Counters/gauges without a label map to their value; labelled ones
        map to a ``{label_value: value}`` dict. Histograms map to
        ``{"buckets": [[le, n], ...], "sum": s, "count": c}``.
        """
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                histograms[name] = {
                    "buckets": [[le, n] for le, n in metric.bucket_counts()],
                    "sum": metric.sum,
                    "count": metric.count,
                }
                continue
            series = metric.series()
            if metric.label is None:
                value: object = series.get(None, 0)
            else:
                value = {lv: series[lv] for lv in sorted(series)}
            (counters if isinstance(metric, Counter) else gauges)[name] = value
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


def _merge_scalar_family(into: Dict[str, object],
                         family: Dict[str, object]) -> None:
    for name, value in family.items():
        if isinstance(value, dict):
            bucket = into.setdefault(name, {})
            assert isinstance(bucket, dict)
            for label_value, amount in value.items():
                bucket[label_value] = bucket.get(label_value, 0) + amount
        else:
            into[name] = into.get(name, 0) + value  # type: ignore[operator]


def aggregate_snapshots(snapshots: Sequence[Dict[str, Dict[str, object]]]
                        ) -> Dict[str, Dict[str, object]]:
    """Sum per-run :meth:`MetricsRegistry.snapshot` dicts element-wise.

    Used by drivers that trigger many runs (``repro experiment
    --metrics``) to report fleet-wide totals. Counters and gauges are
    summed per series (an aggregated gauge therefore reads as a total
    over runs, not a point-in-time value); histograms require identical
    bucket bounds and sum their counts.
    """
    counters: Dict[str, object] = {}
    gauges: Dict[str, object] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for snap in snapshots:
        _merge_scalar_family(counters, snap.get("counters", {}))
        _merge_scalar_family(gauges, snap.get("gauges", {}))
        for name, hist in snap.get("histograms", {}).items():
            assert isinstance(hist, dict)
            existing = histograms.get(name)
            if existing is None:
                histograms[name] = {
                    "buckets": [list(pair) for pair in hist["buckets"]],
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
                continue
            bounds = [le for le, _ in existing["buckets"]]
            if bounds != [le for le, _ in hist["buckets"]]:
                raise ConfigError(
                    f"histogram {name!r} bucket bounds differ across "
                    f"snapshots; cannot aggregate")
            for pair, (_, count) in zip(existing["buckets"], hist["buckets"]):
                pair[1] += count
            existing["sum"] += hist["sum"]
            existing["count"] += hist["count"]
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
