"""Observability for the simulator itself: tracing, metrics, hooks.

Cheetah's pitch is observability with bounded overhead; this package
applies the same discipline to the reproduction. A run wired with an
:class:`Observability` produces a deterministic, simulated-clock trace
(JSONL or Chrome ``trace_event`` for Perfetto) and a registry of
counters/gauges/histograms with a Prometheus text exporter — and with
observability off, the hot path is byte-for-byte the uninstrumented one.

See ``docs/observability.md`` for the trace schema and metric names.
"""

from repro.obs.config import ObsConfig
from repro.obs.hooks import DefaultObs, Observability
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_snapshots,
)
from repro.obs.tracer import (
    CORE_TRACK_BASE,
    PHASE_TRACK,
    PID,
    TraceEvent,
    Tracer,
)

__all__ = [
    "CORE_TRACK_BASE",
    "Counter",
    "DefaultObs",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsConfig",
    "Observability",
    "PHASE_TRACK",
    "PID",
    "TraceEvent",
    "Tracer",
    "aggregate_snapshots",
]
