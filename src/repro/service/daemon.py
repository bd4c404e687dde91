"""The fleet-scale detection daemon behind ``repro serve``.

A long-running HTTP/JSON service turning the run stack into shared
infrastructure: many clients submit :class:`~repro.service.spec.RunSpec`
jobs, results come from the content-addressed
:class:`~repro.service.store.ResultStore` whenever possible, and every
completed run feeds the cross-run
:class:`~repro.service.sink.FindingsSink`. Pure stdlib
(:class:`http.server.ThreadingHTTPServer`) — no new runtime
dependencies.

Endpoints (see ``docs/service.md`` for the full table)::

    POST /v1/jobs               submit {"spec": {...}} or {"request": {...}}
    GET  /v1/jobs/{id}          job status (+ RunOutcome JSON when done)
    GET  /v1/jobs/{id}/events   live StreamingFinding NDJSON
    GET  /v1/findings           cross-run aggregation from the sink
    GET  /metrics               Prometheus text exposition
    GET  /healthz               liveness

Admission happens before a job touches the queue
(:class:`~repro.service.quotas.Admission`): the global token bucket,
then the tenant allowlist, then per-tenant rate/pending quotas — each
rejection is a 429 (or 403) with a ``Retry-After`` hint, so overload
never manifests as queue bloat.

Each of the ``workers`` job threads serves its jobs through
:meth:`RunService.run <repro.service.RunService.run>`, so store lookup,
store commit and run counters stay in the daemon, and warm jobs (store
hits) never leave it. A cold job (a cache miss) is simulated in the
thread's own worker process (:class:`~repro.service.worker.WorkerProcess`,
started with ``spawn`` on the thread's first cold job), so simulations
run in parallel instead of under the daemon's one GIL. The process runs
the spec's dict through ``_execute_spec_payload`` and forwards each
windowed finding over its pipe as the detector emits it; the thread
appends it to ``/v1/jobs/{id}/events`` at once, then rehydrates the
outcome dict byte-identically. Cached windowed runs replay their
serialized findings (outcome schema v2) as immediately-available events.

Tenancy never enters the outcome payload: ``RunOutcome.tenant`` stays
``None`` so a job's result JSON is byte-identical to a direct CLI run of
the same spec and cache entries carry no tenant identity; the tenant is
recorded on the job and in the sink rows instead.

Graceful shutdown (:meth:`Daemon.shutdown`, or SIGINT under ``repro
serve``) stops accepting connections, drains in-flight jobs up to
``drain_timeout`` seconds, stops every worker process, and flushes the
sink. Worker processes ignore SIGINT, so Ctrl-C drains through here.
The HTTP loop looks for a shutdown request every :data:`POLL_INTERVAL`
seconds, so an idle daemon stops within that.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.config import ConfigBase
from repro.errors import ConfigError, ReproError, SchemaError, ServiceError
from repro.obs import MetricsRegistry
from repro.run import RunOutcome
from repro.service import RunService, _execute_spec_payload, _fresh_outcome
from repro.service.quotas import Admission
from repro.service.sink import FindingsSink
from repro.service.spec import RunSpec
from repro.service.worker import WorkerProcess, describe

__all__ = ["Daemon", "Job", "ServeConfig"]

#: Tenant attributed to requests without an ``X-Repro-Tenant`` header.
DEFAULT_TENANT = "anonymous"

TENANT_HEADER = "X-Repro-Tenant"

#: Largest ``POST /v1/jobs`` body read; a longer ``Content-Length`` gets
#: 413 unread. A full ``RunRequest`` with every nested config is a few KB.
MAX_BODY_BYTES = 1 << 20

#: Seconds one socket read or write of a connection may block. A client
#: that announces a body and sends less cannot pin a handler thread: it
#: gets 400 once a read of its body times out. Waiting for job events
#: reads nothing from the socket, so an ``/events`` stream may stay open
#: for as long as its job runs.
REQUEST_TIMEOUT = 10.0

#: Seconds the HTTP loop waits between checks for a shutdown request;
#: :meth:`Daemon.shutdown` waits up to this long for the loop to stop.
POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class ServeConfig(ConfigBase):
    """Everything ``repro serve`` needs, in one validated dataclass.

    Attributes:
        host / port: bind address; port ``0`` picks an ephemeral port
            (tests), readable as ``daemon.port`` after start.
        workers: job worker threads, each paired with one worker
            process that simulates its cold jobs (started on the
            thread's first cold job); each pair runs one job at a time.
        max_queue: bound on queued jobs; a full queue rejects with 429.
        rate / burst: global submission token bucket; ``rate <= 0``
            disables global rate limiting.
        tenant_rate / tenant_burst: per-tenant buckets (``<= 0``
            disables).
        tenant_max_pending: per-tenant cap on queued+running jobs
            (``0`` disables).
        tenants: allowlist; empty accepts every tenant, otherwise
            unknown tenants get 403.
        cache_dir: result-store root (None: the service default).
        sink_dir: findings-sink root (None: ``<cache_dir>/sink``).
        drain_timeout: seconds shutdown waits for in-flight jobs, in
            all (one deadline, however many workers).
    """

    host: str = "127.0.0.1"
    port: int = 8137
    workers: int = 2
    max_queue: int = 64
    rate: float = 0.0
    burst: float = 8.0
    tenant_rate: float = 0.0
    tenant_burst: float = 4.0
    tenant_max_pending: int = 0
    tenants: Tuple[str, ...] = ()
    cache_dir: Optional[str] = None
    sink_dir: Optional[str] = None
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.drain_timeout < 0:
            raise ConfigError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}")
        if self.rate > 0 and self.burst < 1:
            raise ConfigError(
                f"burst must be >= 1 when rate limiting is enabled, "
                f"got {self.burst}")
        if self.tenant_rate > 0 and self.tenant_burst < 1:
            raise ConfigError(
                f"tenant_burst must be >= 1 when tenant rate limiting is "
                f"enabled, got {self.tenant_burst}")
        if self.tenant_max_pending < 0:
            raise ConfigError(
                f"tenant_max_pending must be >= 0, "
                f"got {self.tenant_max_pending}")
        if not isinstance(self.tenants, tuple):
            # JSON round-trips deliver lists; normalize without
            # breaking frozen-ness.
            object.__setattr__(self, "tenants", tuple(self.tenants))


class Job:
    """One submitted run: spec + tenant + lifecycle + live events.

    ``events`` accumulates streaming-finding dicts under ``cond``;
    ``events_done`` flips when no further events can arrive, which is
    what lets ``/events`` readers finish instead of hanging.
    """

    def __init__(self, job_id: str, spec: RunSpec, tenant: str):
        self.id = job_id
        self.spec = spec
        self.key = spec.key()
        self.tenant = tenant
        self.status = "queued"  # queued | running | done | failed
        self.error: Optional[str] = None
        self.outcome: Optional[Any] = None
        self.cached: Optional[bool] = None
        self.cond = threading.Condition()
        self.events: List[Dict[str, Any]] = []
        self.events_done = False

    def to_dict(self, include_outcome: bool = True) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "key": self.key,
            "tenant": self.tenant,
            "workload": self.spec.workload,
            "events": len(self.events),
        }
        if self.cached is not None:
            body["cached"] = self.cached
        if self.error is not None:
            body["error"] = self.error
        if include_outcome and self.outcome is not None:
            body["outcome"] = self.outcome.to_dict()
        return body

    def add_event(self, event: Dict[str, Any]) -> None:
        with self.cond:
            self.events.append(event)
            self.cond.notify_all()

    def finish(self, status: str, outcome: Any = None,
               error: Optional[str] = None,
               cached: Optional[bool] = None) -> None:
        with self.cond:
            self.status = status
            self.outcome = outcome
            self.error = error
            self.cached = cached
            self.events_done = True
            self.cond.notify_all()


class Daemon:
    """The serve daemon: HTTP front end + worker pool + sink.

    Construction binds the listening socket (so ``port`` is final and
    bind errors surface before any thread starts); :meth:`start` spawns
    the workers and the HTTP loop. ``service`` is injectable for tests;
    by default one :class:`~repro.service.RunService` is built on
    ``config.cache_dir``.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 service: Optional[RunService] = None,
                 sink: Optional[FindingsSink] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        if service is not None:
            self.service = service
        else:
            self.service = RunService(cache_dir=self.config.cache_dir,
                                      registry=self.registry)
        if sink is not None:
            self.sink = sink
        else:
            sink_root = (self.config.sink_dir
                         if self.config.sink_dir is not None
                         else self.service.store.root / "sink")
            self.sink = FindingsSink(sink_root)
        self.admission = Admission(
            rate=self.config.rate, burst=self.config.burst,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            tenant_max_pending=self.config.tenant_max_pending,
            tenants=self.config.tenants)
        self._queue: "queue.Queue[Optional[Job]]" = \
            queue.Queue(maxsize=self.config.max_queue)
        self._jobs: Dict[str, Job] = {}
        self._active: Dict[str, Job] = {}  # spec key -> queued/running job
        self._jobs_lock = threading.Lock()
        self._next_id = 0
        self._workers: List[threading.Thread] = []
        self._processes: List[WorkerProcess] = []
        self._stopping = threading.Event()
        self._http_thread: Optional[threading.Thread] = None

        self._submissions = self.registry.counter(
            "daemon_submissions_total",
            "Job submissions by admission outcome.", label="outcome")
        self._jobs_counter = self.registry.counter(
            "daemon_jobs_total", "Jobs finished by status.", label="status")
        self._events_counter = self.registry.counter(
            "daemon_stream_events_total",
            "Streaming finding events delivered to job event logs.")
        self._sink_rows = self.registry.counter(
            "daemon_sink_rows_total", "Rows appended to the findings sink.")

        handler = _make_handler(self)
        try:
            self._server = ThreadingHTTPServer(
                (self.config.host, self.config.port), handler)
        except OSError as exc:
            raise ServiceError(
                f"cannot bind {self.config.host}:{self.config.port}: "
                f"{exc.strerror or exc}") from exc
        self._server.daemon_threads = True

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "Daemon":
        """Spawn workers and the HTTP loop (returns immediately)."""
        self._start_workers()
        self._http_thread = threading.Thread(
            target=self._server.serve_forever, args=(POLL_INTERVAL,),
            name="repro-serve-http", daemon=True)
        self._http_thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the HTTP loop on the calling thread (the CLI path)."""
        self._start_workers()
        self._server.serve_forever(POLL_INTERVAL)

    def _start_workers(self) -> None:
        # Worker processes start lazily, on each thread's first cold
        # job: a daemon serving only warm jobs never spawns one.
        for index in range(self.config.workers):
            name = f"repro-serve-worker-{index}"
            process = WorkerProcess(name)
            worker = threading.Thread(
                target=self._worker_loop, args=(process,), name=name,
                daemon=True)
            self._processes.append(process)
            self._workers.append(worker)
            worker.start()

    def worker_pids(self) -> List[int]:
        """Pids of the worker processes currently running."""
        return [pid for pid in (process.pid for process in self._processes)
                if pid is not None]

    def shutdown(self) -> None:
        """Graceful stop: close the listener, drain jobs, stop the
        worker processes, flush the sink.

        Queued and running jobs finish (up to ``drain_timeout``
        seconds); new submissions are already impossible once the
        listener is down. A worker process still busy after that is
        killed, which fails its job, and a cold job still queued then
        fails instead of starting a new process.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._server.shutdown()
        self._server.server_close()
        for _ in self._workers:
            # One sentinel per worker: each loop exits after the queue
            # drains to its sentinel.
            self._queue.put(None)
        # One deadline for the whole drain, however many workers.
        deadline = time.monotonic() + self.config.drain_timeout
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._processes:
            process.stop()
        self.sink.flush()

    # -- job execution -------------------------------------------------------

    def submit(self, spec: RunSpec, tenant: str) -> Tuple[int, Dict[str, Any]]:
        """Admission + dedupe + enqueue; returns (http_status, body)."""
        ok, retry_after, reason = self.admission.admit(tenant)
        if not ok:
            self._submissions.inc(label_value=f"rejected_{reason}")
            if reason == "forbidden":
                return 403, {"error": f"unknown tenant {tenant!r}"}
            return 429, {"error": f"rejected: {reason}",
                         "retry_after": retry_after}
        key = spec.key()
        with self._jobs_lock:
            active = self._active.get(key)
            if active is not None:
                # Same spec already queued or running: return that job
                # instead of executing twice (content-addressed dedupe).
                self.admission.release(tenant)
                self._submissions.inc(label_value="deduped")
                return 200, {"id": active.id, "status": active.status,
                             "deduped": True}
            self._next_id += 1
            job = Job(f"job-{self._next_id:06d}", spec, tenant)
            self._jobs[job.id] = job
            self._active[key] = job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._jobs_lock:
                del self._jobs[job.id]
                self._active.pop(key, None)
            self.admission.release(tenant)
            self._submissions.inc(label_value="rejected_queue")
            return 429, {"error": "job queue is full", "retry_after": 1.0}
        self._submissions.inc(label_value="accepted")
        return 202, {"id": job.id, "status": job.status}

    def _worker_loop(self, process: WorkerProcess) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._run_job(job, process)
            finally:
                self._queue.task_done()

    def _run_job(self, job: Job, process: WorkerProcess) -> None:
        with job.cond:
            job.status = "running"

        def execute(spec: RunSpec) -> RunOutcome:
            return _fresh_outcome(process.call(
                _execute_spec_payload, spec.to_dict(),
                on_event=lambda event: self._add_event(job, event)))

        try:
            outcome = self.service.run(job.spec, execute=execute)
            if outcome.from_cache:
                # A warm hit replays no live detector: surface the
                # serialized findings as immediately-available events
                # so /events readers see the same stream either way.
                for finding in outcome.streaming_findings:
                    self._add_event(job, dict(finding))
            rows = self.sink.record_outcome(
                outcome, job_id=job.id, key=job.key,
                workload=job.spec.workload, tenant=job.tenant)
        except Exception as exc:  # the job fails, the worker lives on
            if not isinstance(exc, ReproError):
                traceback.print_exc()
            self._retire(job)
            job.finish("failed", error=describe(exc))
            self._jobs_counter.inc(label_value="failed")
            return
        self._sink_rows.inc(rows)
        self._retire(job)
        job.finish("done", outcome=outcome, cached=outcome.from_cache)
        self._jobs_counter.inc(label_value="done")

    def _retire(self, job: Job) -> None:
        """Release the job's dedupe slot and tenant quota (before it
        reads as finished, so a resubmission never dedupes onto it)."""
        with self._jobs_lock:
            if self._active.get(job.key) is job:
                del self._active[job.key]
        self.admission.release(job.tenant)

    def _add_event(self, job: Job, event: Dict[str, Any]) -> None:
        event["job_id"] = job.id
        job.add_event(event)
        self._events_counter.inc()

    # -- lookups -------------------------------------------------------------

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def stats(self) -> Dict[str, Any]:
        with self._jobs_lock:
            statuses: Dict[str, int] = {}
            for job in self._jobs.values():
                statuses[job.status] = statuses.get(job.status, 0) + 1
        return {
            "jobs": statuses,
            "queue_depth": self._queue.qsize(),
            "sink": self.sink.stats(),
            "store": self.service.store.stats(),
            "tenants_pending": self.admission.quotas.snapshot(),
        }

    def render_metrics(self) -> str:
        """Prometheus exposition: daemon + service + store counters,
        plus gauges computed at scrape time."""
        reg = self.registry
        reg.gauge("daemon_queue_depth",
                  "Jobs waiting for a worker.").set(self._queue.qsize())
        sink_stats = self.sink.stats()
        reg.gauge("daemon_sink_segments",
                  "Sealed sink segments on disk.").set(sink_stats["segments"])
        reg.gauge("daemon_sink_buffered_rows",
                  "Sink rows not yet flushed.").set(
                      sink_stats["buffered_rows"])
        return reg.render_prometheus()


# -- HTTP layer ---------------------------------------------------------------


def _make_handler(daemon: Daemon):
    """The request-handler class bound to one daemon instance."""

    class Handler(BaseHTTPRequestHandler):
        # NDJSON event streams stay open until the job finishes, so
        # HTTP/1.1 keep-alive semantics are not worth the complexity.
        protocol_version = "HTTP/1.0"
        server_version = "repro-serve/2"
        # Socket timeout of each connection (StreamRequestHandler.setup).
        timeout = REQUEST_TIMEOUT

        def log_message(self, format: str, *args: Any) -> None:
            pass  # the daemon is quiet; metrics carry the signal

        # -- helpers -------------------------------------------------------

        def _tenant(self) -> str:
            return self.headers.get(TENANT_HEADER) or DEFAULT_TENANT

        def _send_json(self, status: int, body: Dict[str, Any],
                       extra_headers: Optional[Dict[str, str]] = None
                       ) -> None:
            payload = json.dumps(body, sort_keys=True).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def _send_text(self, status: int, text: str,
                       content_type: str = "text/plain; version=0.0.4"
                       ) -> None:
            payload = text.encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _refuse(self, status: int, error: str) -> None:
            """Reply without reading (the rest of) the body, then close
            the connection; a client already gone gets no reply."""
            self.close_connection = True
            try:
                self._send_json(status, {"error": error},
                                {"Connection": "close"})
            except (BrokenPipeError, ConnectionResetError):
                pass

        # -- routes --------------------------------------------------------

        def do_POST(self) -> None:  # noqa: N802 (http.server convention)
            path = urlparse(self.path).path
            if path != "/v1/jobs":
                self._send_json(404, {"error": f"unknown path {path}"})
                return
            header = (self.headers.get("Content-Length") or "0").strip()
            if not (header.isascii() and header.isdigit()):
                self._refuse(400, "Content-Length must be a non-negative "
                                  f"integer, got {header!r}")
                return
            # Count digits first: int() refuses more than 4,300 of them.
            digits = header.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_BODY_BYTES))
                    or int(digits) > MAX_BODY_BYTES):
                self._refuse(413, "body exceeds the "
                                  f"{MAX_BODY_BYTES}-byte limit")
                return
            length = int(digits)
            try:
                raw = self.rfile.read(length)
            except OSError:  # timed out, or the client reset
                raw = b""
            if len(raw) < length:
                # Never decode a prefix: it may parse as a valid job.
                self._refuse(400, "body ended or stalled before its "
                                  f"Content-Length of {length} bytes")
                return
            try:
                body = json.loads(raw) if raw else {}
            except (ValueError, RecursionError):
                self._send_json(400, {"error": "body is not valid JSON"})
                return
            try:
                spec = _decode_spec(body)
            except (ConfigError, SchemaError, ServiceError) as exc:
                self._send_json(400, {"error": str(exc)})
                return
            status, reply = daemon.submit(spec, self._tenant())
            headers = {}
            if status == 429:
                headers["Retry-After"] = \
                    str(max(1, int(reply.get("retry_after", 1))))
            self._send_json(status, reply, headers)

        def do_GET(self) -> None:  # noqa: N802
            parsed = urlparse(self.path)
            path = parsed.path
            if path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif path == "/metrics":
                self._send_text(200, daemon.render_metrics())
            elif path == "/v1/findings":
                self._findings(parse_qs(parsed.query))
            elif path == "/v1/workloads":
                self._workloads(parse_qs(parsed.query))
            elif path.startswith("/v1/jobs/") and path.endswith("/events"):
                self._events(path[len("/v1/jobs/"):-len("/events")]
                             .strip("/"))
            elif path.startswith("/v1/jobs/"):
                job_id = path[len("/v1/jobs/"):].strip("/")
                job = daemon.get_job(job_id)
                if job is None:
                    self._send_json(404, {"error": f"no such job {job_id!r}"})
                else:
                    with job.cond:
                        self._send_json(200, job.to_dict())
            else:
                self._send_json(404, {"error": f"unknown path {path}"})

        def _workloads(self, query) -> None:
            """``GET /v1/workloads``: the queryable registry surface.

            Supports the same filters as ``repro workloads list``
            (``suite``, ``family``, ``verdict``, ``significant``) so a
            client can discover runnable scenarios and their declared
            ground truth before POSTing jobs.
            """
            from repro.workloads import Verdict, iter_workloads, workload_info
            suite = (query.get("suite") or [None])[0]
            family = (query.get("family") or [None])[0]
            verdict = (query.get("verdict") or [None])[0]
            significant_raw = (query.get("significant") or [None])[0]
            significant = None
            if significant_raw is not None:
                significant = significant_raw.lower() in ("1", "true", "yes")
            try:
                want = Verdict.coerce(verdict) if verdict else None
                rows = [workload_info(cls)
                        for cls in iter_workloads(
                            suite=suite, family=family, verdict=want,
                            significant=significant)]
            except ConfigError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, {"workloads": rows, "count": len(rows)})

        def _events(self, job_id: str) -> None:
            job = daemon.get_job(job_id)
            if job is None:
                self._send_json(404, {"error": f"no such job {job_id!r}"})
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.end_headers()
            sent = 0
            while True:
                with job.cond:
                    job.cond.wait_for(
                        lambda: len(job.events) > sent or job.events_done,
                        timeout=30.0)
                    batch = job.events[sent:]
                    done = job.events_done
                sent += len(batch)
                try:
                    for event in batch:
                        self.wfile.write(
                            (json.dumps(event, sort_keys=True) + "\n")
                            .encode())
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    return
                if done and sent >= len(job.events):
                    return

        def _findings(self, params: Dict[str, List[str]]) -> None:
            def first(name: str) -> Optional[str]:
                values = params.get(name)
                return values[0] if values else None

            view = first("view") or "rows"
            workload = first("workload")
            tenant = first("tenant")
            try:
                limit = int(first("limit") or 100)
            except ValueError:
                self._send_json(400, {"error": "limit must be an integer"})
                return
            sink = daemon.sink
            if view == "rows":
                body: Dict[str, Any] = {"rows": sink.query(
                    workload=workload, tenant=tenant, limit=limit)}
            elif view == "top_lines":
                body = {"top_lines": sink.top_lines(
                    workload=workload, n=limit)}
            elif view == "verdicts":
                body = {"verdicts": sink.verdict_counts(workload=workload)}
            elif view == "overhead":
                body = {"overhead": sink.overhead_percentiles(
                    workload=workload)}
            elif view == "stats":
                body = {"stats": sink.stats()}
            else:
                self._send_json(400, {
                    "error": f"unknown view {view!r} (expected rows, "
                             f"top_lines, verdicts, overhead or stats)"})
                return
            self._send_json(200, body)

    return Handler


def _decode_spec(body: Any) -> RunSpec:
    """The RunSpec of a ``POST /v1/jobs`` body.

    Accepts ``{"spec": {...}}`` (the v1 serialized-spec form) or
    ``{"request": {...}}`` (the v2 :class:`~repro.request.RunRequest`
    form); both resolve to the same content-addressed spec.
    """
    if not isinstance(body, dict):
        raise ServiceError("job body must be a JSON object")
    if "spec" in body:
        return RunSpec.from_dict(body["spec"])
    if "request" in body:
        from repro.request import RunRequest
        return RunRequest.from_dict(body["request"]).to_spec()
    raise ServiceError(
        'job body must carry "spec" (serialized RunSpec) or '
        '"request" (RunRequest fields)')
