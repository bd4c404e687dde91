"""Which public entry point of which layer the tracer wraps, and the
per-layer metrics computed from what the wrappers record.

Every layer is measured from outside: :func:`install` patches public
methods and module functions of the program with :class:`Tracer`
wrappers; :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import stats
from perfbench.tracer import Tracer

# Wrapper names (also the span names written to the trace file).
CELL = "bench.cell"
SETUP = "workloads.setup"
ENGINE = "sim.engine.run"
PLAN = "sim.kernel.plan_span"
PROBE = "sim.machine.line_is_private"
SLOW = "sim.machine.access_tuple"
PMU_FIRE = "pmu.fire"
HANDLE = "core.profiler.handle_sample"
ON_SAMPLE = "core.detection.on_sample"
FINALIZE = "core.profiler.finalize"
ASSESS = "core.assessment.assess_object"
TO_DICT = "run.to_dict"
FROM_DICT = "run.from_dict"
SERVICE_RUN = "service.run"
SPEC_KEY = "service.spec.key"
STORE_GET = "service.store.get"
STORE_PUT = "service.store.put"
SINK_RECORD = "service.sink.record"
SINK_FLUSH = "service.sink.flush"
SINK_QUERY = "service.sink.query"
ADMIT = "service.quotas.admit"
SUBMIT = "service.daemon.submit"

#: Per-layer metrics, in report order: (name, unit, layer, meaning).
#: Times and counts are per request (benchmark cell or daemon job),
#: from the traced run only.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("workloads.setup_s", "s/req", "workloads",
     "Workload.setup self time"),
    ("sim.engine.self_s", "s/req", "sim.engine",
     "Engine.run minus wrapped children"),
    ("sim.engine.steps", "count/req", "sim.engine",
     "scheduler steps (RunResult.steps)"),
    ("sim.engine.ns_per_access", "ns", "sim.engine",
     "Engine.run self time per simulated access"),
    ("sim.kernel.plan_calls", "count/req", "sim.kernel",
     "plan_span calls"),
    ("sim.kernel.plan_s", "s/req", "sim.kernel", "plan_span self time"),
    ("sim.machine.probe_calls", "count/req", "sim.kernel",
     "Machine.line_is_private calls (planner probes)"),
    ("sim.machine.slow_calls", "count/req", "sim.machine",
     "Machine.access_tuple calls (the non-inlined path)"),
    ("sim.machine.slow_s", "s/req", "sim.machine",
     "Machine.access_tuple self time"),
    ("sim.machine.slow_ratio", "ratio", "sim.machine",
     "access_tuple calls / simulated accesses"),
    ("pmu.fire_calls", "count/req", "pmu",
     "PMU.on_access/on_work calls that fired"),
    ("pmu.fire_s", "s/req", "pmu", "self time of firing PMU calls"),
    ("core.profiler.samples", "count/req", "core",
     "samples delivered to CheetahProfiler.handle_sample"),
    ("core.profiler.kept_ratio", "ratio", "core",
     "samples kept (heap/globals) / samples delivered"),
    ("core.profiler.handle_s", "s/req", "core",
     "CheetahProfiler.handle_sample self time"),
    ("core.detection.on_sample_s", "s/req", "core",
     "detector on_sample self time (offline or streaming)"),
    ("core.profiler.finalize_s", "s/req", "core",
     "CheetahProfiler.finalize self time"),
    ("core.assessment.assess_s", "s/req", "core",
     "assess_object self time"),
    ("run.to_dict_calls", "count/req", "run", "RunOutcome.to_dict calls"),
    ("run.to_dict_s", "s/req", "run", "RunOutcome.to_dict self time"),
    ("run.from_dict_calls", "count/req", "run",
     "RunOutcome.from_dict calls"),
    ("run.from_dict_s", "s/req", "run", "RunOutcome.from_dict self time"),
    ("service.hit_ratio", "ratio", "service",
     "RunService.run calls served from the store"),
    ("service.spec.key_s", "s/req", "service.spec",
     "RunSpec.key self time"),
    ("service.store.get_s", "s/req", "service.store",
     "ResultStore.get self time"),
    ("service.store.put_s", "s/req", "service.store",
     "ResultStore.put self time"),
    ("service.store.put_bytes", "bytes", "service.store",
     "bytes per committed store entry"),
    ("service.sink.record_s", "s/req", "service.sink",
     "FindingsSink.record_outcome self time"),
    ("service.sink.flush_s", "s/req", "service.sink",
     "FindingsSink.flush self time"),
    ("service.sink.query_s", "s/req", "service.sink",
     "FindingsSink query/top_lines/verdict_counts self time"),
    ("service.sink.rows", "count/req", "service.sink",
     "rows appended by record_outcome"),
    ("service.quotas.admit_s", "s/req", "service.quotas",
     "Admission.admit self time"),
    ("service.daemon.submit_s", "s/req", "service.daemon",
     "Daemon.submit self time"),
    ("service.daemon.dedup_ratio", "ratio", "service.daemon",
     "submissions deduplicated onto an active job"),
    ("service.daemon.queue_wait_p50_ms", "ms", "service.daemon",
     "Daemon.submit return to RunService.run entry, median"),
    ("service.daemon.queue_wait_p95_ms", "ms", "service.daemon",
     "Daemon.submit return to RunService.run entry, p95"),
    ("service.daemon.http_p50_ms", "ms", "service.daemon",
     "POST round trip minus server-side Daemon.submit, median"),
    ("trace.overhead_ratio", "ratio", "tracing",
     "traced wall time / untraced wall time, same work"),
]


def _fired(pmu) -> int:
    return pmu.samples_fired


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see :data:`PER_LAYER`)."""
    import repro.core.assessment as assessment
    import repro.core.profiler as profiler
    import repro.sim.kernel as kernel
    from repro.core.detection import FalseSharingDetector
    from repro.core.streaming import StreamingDetector
    from repro.pmu.sampler import PMU
    from repro.run import RunOutcome
    from repro.service import RunService
    from repro.service.daemon import Daemon
    from repro.service.quotas import Admission
    from repro.service.sink import FindingsSink
    from repro.service.spec import RunSpec
    from repro.service.store import ResultStore
    from repro.sim.engine import Engine
    from repro.sim.machine import Machine
    from repro.workloads import Workload, iter_workloads

    span = tracer.span
    boundary = tracer.boundary
    patch = tracer.patch

    # workloads: every class in a registered workload's MRO that
    # defines its own setup (subclass overrides would bypass a wrapper
    # on the base class alone).
    owners: List[type] = []
    for cls in list(iter_workloads()) + [Workload]:
        for klass in cls.__mro__:
            if "setup" in vars(klass) and klass not in owners:
                owners.append(klass)
    for klass in owners:
        patch(klass, "setup", lambda fn: span(SETUP, fn))

    def engine_done(tr, _span, _args, _kwargs, result):
        tr.count("sim.steps", result.steps)
        tr.count("sim.accesses", result.total_accesses)

    patch(Engine, "run", lambda fn: span(ENGINE, fn, after=engine_done))
    patch(kernel, "plan_span", lambda fn: boundary(PLAN, fn))
    patch(Machine, "line_is_private", lambda fn: tracer.counter(PROBE, fn))
    patch(Machine, "access_tuple", lambda fn: boundary(SLOW, fn))
    for name in ("on_access", "on_work"):
        patch(PMU, name, lambda fn: boundary(PMU_FIRE, fn, fired=_fired))
    patch(profiler.CheetahProfiler, "handle_sample",
          lambda fn: boundary(HANDLE, fn))
    for klass in (FalseSharingDetector, StreamingDetector):
        patch(klass, "on_sample", lambda fn: boundary(ON_SAMPLE, fn))
    patch(profiler.CheetahProfiler, "finalize",
          lambda fn: span(FINALIZE, fn))
    for module in (assessment, profiler):
        patch(module, "assess_object", lambda fn: boundary(ASSESS, fn))
    patch(RunOutcome, "to_dict", lambda fn: boundary(TO_DICT, fn))
    patch(RunOutcome, "from_dict", lambda fn: boundary(FROM_DICT, fn))

    # -- service layers (exercised by the daemon) --
    raw_key = vars(RunSpec)["key"]

    def run_entry(tr, args, _kwargs):
        tr.sample("run_entry", (raw_key(args[1]), time.perf_counter_ns()))
        return None

    def run_done(tr, span_, _args, _kwargs, outcome):
        tr.count("service.runs")
        if outcome.from_cache:
            tr.count("service.hits")
        else:
            count_samples(tr, outcome)
        span_["key"] = raw_key(_args[1])

    patch(RunService, "run",
          lambda fn: span(SERVICE_RUN, fn, before=run_entry, after=run_done))
    patch(RunSpec, "key", lambda fn: boundary(SPEC_KEY, fn))
    patch(ResultStore, "get", lambda fn: span(STORE_GET, fn))

    def put_done(tr, _span, _args, _kwargs, path):
        tr.count("store.puts")
        tr.count("store.put_bytes", os.path.getsize(path))

    patch(ResultStore, "put", lambda fn: span(STORE_PUT, fn, after=put_done))

    def sink_request(_tr, _args, kwargs):
        return kwargs.get("job_id")

    def sink_done(tr, _span, _args, _kwargs, rows):
        tr.count("sink.rows", rows)

    patch(FindingsSink, "record_outcome",
          lambda fn: span(SINK_RECORD, fn, before=sink_request,
                          after=sink_done))
    patch(FindingsSink, "flush", lambda fn: span(SINK_FLUSH, fn))
    for name in ("query", "top_lines", "verdict_counts",
                 "overhead_percentiles"):
        patch(FindingsSink, name, lambda fn: span(SINK_QUERY, fn))
    patch(Admission, "admit", lambda fn: boundary(ADMIT, fn))

    def submit_done(tr, span_, args, _kwargs, result):
        status, body = result
        job_id = body.get("id")
        span_["request"] = job_id
        tr.count("daemon.submits")
        if body.get("deduped"):
            tr.count("daemon.deduped")
        tr.sample("submit_ns", (job_id, span_["end_ns"] - span_["start_ns"]))
        if status == 202:
            tr.sample("accepted", (raw_key(args[1]), job_id,
                                   span_["end_ns"]))

    patch(Daemon, "submit", lambda fn: span(SUBMIT, fn, after=submit_done))


def count_samples(tracer: Tracer, outcome: Any) -> None:
    """Profiler sample counts of one freshly simulated outcome."""
    prof = outcome.profiler
    if prof is not None:
        tracer.count("profiler.samples", prof.total_samples)
        tracer.count("profiler.kept",
                     prof.total_samples - prof.filtered_samples)


def pair_queue_waits(snap: Dict[str, Any]) -> List[float]:
    """Queue waits (ms): the i-th accepted submission of a spec key is
    paired with the i-th RunService.run entry for that key (the daemon
    never holds two active jobs for one key). Also stamps each
    ``service.run`` span, and its descendants, with the job id."""
    accepted: Dict[str, List[Tuple[str, int]]] = {}
    for key, job_id, end in sorted(snap["samples"].get("accepted", []),
                                   key=lambda item: item[2]):
        accepted.setdefault(key, []).append((job_id, end))
    entries: Dict[str, List[int]] = {}
    for key, start in sorted(snap["samples"].get("run_entry", []),
                             key=lambda item: item[1]):
        entries.setdefault(key, []).append(start)
    waits: List[float] = []
    for key, starts in entries.items():
        for (_, end), start in zip(accepted.get(key, []), starts):
            waits.append(max(0, start - end) / 1e6)
    runs_by_key: Dict[str, List[Dict[str, Any]]] = {}
    for span_ in snap["spans"]:
        if span_["name"] == SERVICE_RUN and "key" in span_:
            runs_by_key.setdefault(span_.pop("key"), []).append(span_)
    job_of: Dict[int, str] = {}
    for key, spans in runs_by_key.items():
        for span_, (job_id, _) in zip(spans, accepted.get(key, [])):
            span_["request"] = job_id
            job_of[span_["id"]] = job_id
    for span_ in snap["spans"]:  # start order: parents before children
        if span_["parent"] in job_of:
            span_["request"] = job_of[span_["parent"]]
            job_of[span_["id"]] = span_["request"]
    return waits


def compute(snap: Dict[str, Any], requests: int,
            queue_waits_ms: Optional[List[float]] = None,
            http_ms: Optional[List[float]] = None,
            overhead_ratio: float = 0.0) -> Dict[str, float]:
    """Per-layer metric values from a merged tracer snapshot."""
    totals = snap["totals"]
    extras = snap["extras"]
    per = 1.0 / max(1, requests)

    def calls(name: str) -> float:
        return totals.get(name, (0, 0, 0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0, 0))[2] / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    accesses = extras.get("sim.accesses", 0)
    samples = extras.get("profiler.samples", 0)
    waits = queue_waits_ms or []
    values = {
        "workloads.setup_s": self_s(SETUP) * per,
        "sim.engine.self_s": self_s(ENGINE) * per,
        "sim.engine.steps": extras.get("sim.steps", 0) * per,
        "sim.engine.ns_per_access": ratio(self_s(ENGINE) * 1e9, accesses),
        "sim.kernel.plan_calls": calls(PLAN) * per,
        "sim.kernel.plan_s": self_s(PLAN) * per,
        "sim.machine.probe_calls": extras.get(PROBE, 0) * per,
        "sim.machine.slow_calls": calls(SLOW) * per,
        "sim.machine.slow_s": self_s(SLOW) * per,
        "sim.machine.slow_ratio": ratio(calls(SLOW), accesses),
        "pmu.fire_calls": calls(PMU_FIRE) * per,
        "pmu.fire_s": self_s(PMU_FIRE) * per,
        "core.profiler.samples": samples * per,
        "core.profiler.kept_ratio": ratio(extras.get("profiler.kept", 0),
                                          samples),
        "core.profiler.handle_s": self_s(HANDLE) * per,
        "core.detection.on_sample_s": self_s(ON_SAMPLE) * per,
        "core.profiler.finalize_s": self_s(FINALIZE) * per,
        "core.assessment.assess_s": self_s(ASSESS) * per,
        "run.to_dict_calls": calls(TO_DICT) * per,
        "run.to_dict_s": self_s(TO_DICT) * per,
        "run.from_dict_calls": calls(FROM_DICT) * per,
        "run.from_dict_s": self_s(FROM_DICT) * per,
        "service.hit_ratio": ratio(extras.get("service.hits", 0),
                                   extras.get("service.runs", 0)),
        "service.spec.key_s": self_s(SPEC_KEY) * per,
        "service.store.get_s": self_s(STORE_GET) * per,
        "service.store.put_s": self_s(STORE_PUT) * per,
        "service.store.put_bytes": ratio(extras.get("store.put_bytes", 0),
                                         extras.get("store.puts", 0)),
        "service.sink.record_s": self_s(SINK_RECORD) * per,
        "service.sink.flush_s": self_s(SINK_FLUSH) * per,
        "service.sink.query_s": self_s(SINK_QUERY) * per,
        "service.sink.rows": extras.get("sink.rows", 0) * per,
        "service.quotas.admit_s": self_s(ADMIT) * per,
        "service.daemon.submit_s": self_s(SUBMIT) * per,
        "service.daemon.dedup_ratio": ratio(
            extras.get("daemon.deduped", 0),
            extras.get("daemon.submits", 0)),
        "service.daemon.queue_wait_p50_ms":
            stats.percentile(waits, 50.0) if waits else 0.0,
        "service.daemon.queue_wait_p95_ms":
            stats.percentile(waits, 95.0) if waits else 0.0,
        "service.daemon.http_p50_ms":
            stats.percentile(http_ms, 50.0) if http_ms else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    return values


def render(values: Dict[str, float], requests: int) -> str:
    """The per-layer table: rows with a non-zero value (the layers this
    workload exercises), plus the tracing overhead."""
    rows = []
    for name, unit, layer, meaning in PER_LAYER:
        value = values[name]
        if value or name == "trace.overhead_ratio":
            rows.append([layer, name, f"{value:.6g}", unit, requests,
                         meaning])
    return stats.format_table(
        ["layer", "metric", "value", "unit", "n", "measured at"], rows)
