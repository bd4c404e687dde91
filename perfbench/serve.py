"""The ``serve`` workload: a daemon process driven by closed-loop clients.

The daemon runs in its own process (:mod:`perfbench.daemon_main`) with
2 workers and a fresh cache and sink directory. :data:`CLIENTS` client
threads in the benchmark process each loop: POST a ``{"request": ...}``
job with the windowed detector, follow ``/v1/jobs/{id}/events`` until
the job finishes, GET the outcome, and every :data:`FINDINGS_EVERY`
jobs also query ``/v1/findings``.

Each client draws its job mix from its own seeded stream: 3 jobs in
10 are cold (a workload from :data:`POOL` at :data:`JOB_SCALE` with a
fresh jitter seed: simulate, store put, sink append), the rest are warm
resubmissions of one of the client's own completed jobs (store get,
deserialize, sink append). Clients never share jobs, so the job
sequence of each client depends only on the seed.

Checks: every reply is 2xx (429 included as a failure), every job ends
``done``, cold jobs are simulated and warm ones served from the store,
and every warm outcome is byte-identical to its cold job's outcome.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import layers, stats

#: Workloads cold jobs draw from (detection-table and Phoenix traffic).
POOL = ("producer_consumer_ring", "work_stealing_deque", "cas_retry_queue",
        "seqlock_read_mostly", "numa_ping_pong", "array_increment",
        "linear_regression", "histogram", "kmeans")
JOB_SCALE = 0.1
#: Each block of BLOCK jobs holds COLD_PER_BLOCK cold ones, in seeded
#: order; cold jobs cycle through POOL in seeded order. Exact shares
#: keep the mix, and so the latency medians, the same for every seed.
BLOCK = 10
COLD_PER_BLOCK = 3
FINDINGS_EVERY = 5
FINDINGS_VIEWS = ("rows", "top_lines", "verdicts")
CLIENTS = 2
WORKERS = 2
#: Daemon launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: ``peak_rss_mb`` is the daemon's peak RSS when this many jobs are
#: done: the daemon keeps every finished job, so its peak at the end
#: would grow with how many jobs the host's speed let a run finish.
RSS_AT_JOBS = 300
#: A client gives up after this many consecutive transport errors, so a
#: dead daemon ends the run within MAX_ERRORS * TIMEOUT seconds.
MAX_ERRORS = 3
TIMEOUT = 30.0


class DaemonProcess:
    """One launched daemon (see :mod:`perfbench.daemon_main`)."""

    def __init__(self, root: str, workdir: str, trace_out: Optional[str]):
        self.root = root
        self.workdir = workdir
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._log = None

    def start(self) -> float:
        """Launch; returns seconds from spawn until ``/healthz`` answers."""
        os.makedirs(self.workdir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src"), self.root])
        cmd = [sys.executable, "-m", "perfbench.daemon_main",
               "--cache-dir", os.path.join(self.workdir, "cache"),
               "--sink-dir", os.path.join(self.workdir, "sink"),
               "--workers", str(WORKERS)]
        if self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        self._log = open(os.path.join(self.workdir, "daemon.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(f"daemon did not start: {self.log_tail()}")
        self.port = json.loads(line)["port"]
        deadline = start + TIMEOUT
        while True:
            try:
                status, _ = http_call(self.port, "GET", "/healthz")
                if status == 200:
                    return time.perf_counter() - start
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon /healthz never answered")
            time.sleep(0.005)

    def stop(self) -> Dict[str, Any]:
        """Close stdin (graceful shutdown); returns the exit summary."""
        if self.proc is None:
            return {}
        try:
            out, _ = self.proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not shut down in time")
        finally:
            self._close_log()
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited {self.proc.returncode}: "
                               f"{self.log_tail()}")
        lines = out.decode().strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close_log()

    def _close_log(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def log_tail(self) -> str:
        try:
            with open(os.path.join(self.workdir, "daemon.log"), "rb") as fh:
                return fh.read()[-2000:].decode(errors="replace")
        except OSError:
            return ""


def http_call(port: int, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
    """One request on a fresh connection (the daemon speaks HTTP/1.0)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Client:
    """One closed-loop client with its own seeded job stream."""

    def __init__(self, index: int, seed: int, port: int,
                 scale: float = JOB_SCALE):
        self.rng = random.Random(f"perfbench/serve/{seed}/{index}")
        self.port = port
        self.scale = scale
        self.tally = stats.Tally()
        self.completed: List[Dict[str, Any]] = []
        self.cold_outcomes: Dict[str, str] = {}
        self.latency: Dict[str, List[float]] = {"cold": [], "warm": []}
        self.findings_ms: List[float] = []
        self.cold_accesses = 0
        self.kernels: Dict[str, int] = {}
        self.post_ms: List[Tuple[str, float]] = []
        self.jobs = 0  # submitted (the position in the job sequence)
        self.done = 0  # completed and checked
        self.on_done: Optional[Callable[[], None]] = None
        self._errors = 0
        self._kinds: List[bool] = []
        self._pool: List[str] = []

    def next_job(self) -> Tuple[Dict[str, Any], bool]:
        if not self._kinds:
            self._kinds = ([True] * COLD_PER_BLOCK
                           + [False] * (BLOCK - COLD_PER_BLOCK))
            self.rng.shuffle(self._kinds)
        cold = self._kinds.pop() or not self.completed
        if not cold:
            return self.rng.choice(self.completed), False
        if not self._pool:
            self._pool = list(POOL)
            self.rng.shuffle(self._pool)
        request = {"workload": self._pool.pop(),
                   "scale": self.scale,
                   "seed": self.rng.getrandbits(16),
                   "jitter_seed": self.rng.getrandbits(32) | 1,
                   "detector": "windowed"}
        return request, True

    def run(self, deadline: Optional[float] = None,
            jobs: Optional[int] = None) -> None:
        """Loop until ``deadline`` passes or ``jobs`` jobs are done."""
        while self._errors < MAX_ERRORS:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if jobs is not None and self.jobs >= jobs:
                return
            request, cold = self.next_job()
            if self.tally.record(self._job(request, cold)):
                self.done += 1
                if self.on_done is not None:
                    self.on_done()
            self.jobs += 1
            if self.jobs % FINDINGS_EVERY == 0:
                self.tally.record(self._findings())

    def _call(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
        try:
            result = http_call(self.port, method, path, body)
        except (OSError, http.client.HTTPException):
            self._errors += 1
            raise
        self._errors = 0
        return result

    def _job(self, request: Dict[str, Any], cold: bool) -> List[str]:
        key = json.dumps(request, sort_keys=True)
        start = time.perf_counter()
        try:
            status, raw = self._call("POST", "/v1/jobs",
                                     {"request": request})
            posted = time.perf_counter()
            if status not in (200, 202):
                return [f"http: POST /v1/jobs -> {status}"]
            job_id = json.loads(raw)["id"]
            self.post_ms.append((job_id, (posted - start) * 1e3))
            status, _ = self._call("GET", f"/v1/jobs/{job_id}/events")
            if status != 200:
                return [f"http: GET events -> {status}"]
            status, raw = self._call("GET", f"/v1/jobs/{job_id}")
            if status != 200:
                return [f"http: GET job -> {status}"]
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return [f"error: {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        job = json.loads(raw)
        if job.get("status") != "done":
            return [f"job: {job_id} ended {job.get('status')}: "
                    f"{job.get('error')}"]
        outcome = json.dumps(job["outcome"], sort_keys=True)
        if cold:
            if job.get("cached") is not False:
                return [f"cache: cold job {job_id} was not simulated"]
            self.cold_outcomes[key] = outcome
            self.completed.append(request)
            result = job["outcome"]["result"]
            self.cold_accesses += result["total_accesses"]
            kernel = result["metadata"].get("kernel", "?")
            self.kernels[kernel] = self.kernels.get(kernel, 0) + 1
            self.latency["cold"].append(elapsed)
            return []
        problems = []
        if job.get("cached") is not True:
            problems.append(f"cache: warm job {job_id} was not served "
                            "from the store")
        if outcome != self.cold_outcomes[key]:
            problems.append(f"outcome: warm job {job_id} differs from "
                            "its cold job's outcome")
        self.latency["warm"].append(elapsed)
        return problems

    def _findings(self) -> List[str]:
        view = self.rng.choice(FINDINGS_VIEWS)
        workload = self.rng.choice(POOL)
        path = f"/v1/findings?view={view}&workload={workload}&limit=20"
        start = time.perf_counter()
        try:
            status, raw = self._call("GET", path)
            body = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return [f"error: {type(exc).__name__}: {exc}"]
        if status != 200 or view not in body:
            return [f"http: GET /v1/findings -> {status}"]
        self.findings_ms.append((time.perf_counter() - start) * 1e3)
        return []


def make_clients(port: int, seed: int, scale: float) -> List[Client]:
    return [Client(index, seed, port, scale) for index in range(CLIENTS)]


def drive(clients: List[Client], deadline: Optional[float] = None,
          jobs: Optional[List[int]] = None) -> float:
    """Run the clients in parallel until ``deadline`` or until each has
    submitted ``jobs[i]`` jobs; returns the wall time from start until
    the last one finished."""
    threads = [threading.Thread(
        target=client.run,
        kwargs={"deadline": deadline,
                "jobs": jobs[index] if jobs is not None else None},
        name=f"perfbench-client-{index}", daemon=True)
        for index, client in enumerate(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


class PeakRss:
    """The daemon's peak RSS (``VmHWM``) when its ``at``-th job is done."""

    def __init__(self, pid: int, at: int):
        self.path = f"/proc/{pid}/status"
        self.at = at
        self.count = 0
        self.value: Optional[float] = None
        self._lock = threading.Lock()

    def job_done(self) -> None:
        with self._lock:
            self.count += 1
            if self.count == self.at:
                self.value = self.read()

    def read(self) -> Optional[float]:
        try:
            with open(self.path, encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except (OSError, ValueError, IndexError):
            pass
        return None


def _merge(clients: List[Client]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"cold": [], "warm": [], "findings": [],
                           "accesses": 0, "kernels": {}, "done": 0}
    for client in clients:
        out["cold"] += [seconds * 1e3 for seconds in client.latency["cold"]]
        out["warm"] += [seconds * 1e3 for seconds in client.latency["warm"]]
        out["findings"] += client.findings_ms
        out["accesses"] += client.cold_accesses
        out["done"] += client.done
        for kernel, count in client.kernels.items():
            out["kernels"][kernel] = out["kernels"].get(kernel, 0) + count
    return out


def _entry(value: Any, unit: str, n: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "n": n}


def measure(root: str, workdir: str, seed: int, seconds: float,
            scale: float, tally: stats.Tally) -> Dict[str, Any]:
    """Untraced run: end-to-end metrics in host time, each with its
    sample count. Unlike ``profile`` and ``native`` these are not scaled
    by the host-speed probe: no probe followed the daemon's slow phases,
    and scaling only added noise (see README.md)."""
    setups: List[float] = []
    daemon: Optional[DaemonProcess] = None
    try:
        for launch in range(SETUP_LAUNCHES):
            if daemon is not None:
                daemon.stop()
            daemon = DaemonProcess(root, os.path.join(workdir, f"d{launch}"),
                                   None)
            setups.append(daemon.start())
        clients = make_clients(daemon.port, seed, scale)
        peak = PeakRss(daemon.proc.pid, RSS_AT_JOBS)
        for client in clients:
            client.on_done = peak.job_done
        wall = drive(clients, deadline=time.perf_counter() + seconds)
        summary = daemon.stop()
    finally:
        if daemon is not None:
            daemon.kill()
    for client in clients:
        tally.merge(client.tally)
    data = _merge(clients)
    cold_ms, warm_ms = data["cold"], data["warm"]
    if peak.value is not None:
        rss, rss_n = peak.value, RSS_AT_JOBS
    else:  # fewer jobs than RSS_AT_JOBS: the peak over the whole run
        rss, rss_n = summary.get("peak_rss_mb", 0.0), data["done"]
    cold_s = sum(cold_ms) / 1e3
    return {
        "metrics": {
            "sim_acc_per_s": _entry(data["accesses"] / cold_s if cold_s
                                    else 0.0, "1/s", len(cold_ms)),
            "jobs_per_s": _entry(data["done"] / wall, "1/s", data["done"]),
            "cold_gmean_ms": _entry(statistics.geometric_mean(cold_ms)
                                    if cold_ms else 0.0, "ms", len(cold_ms)),
            "setup_s": _entry(stats.percentile(setups, 50.0), "s",
                              len(setups)),
            "peak_rss_mb": _entry(rss, "MB", rss_n),
        },
        "serve_only": {
            "warm_p50_ms": _entry(stats.named_percentile(warm_ms, 50.0),
                                  "ms", len(warm_ms)),
            "warm_p95_ms": _entry(stats.named_percentile(warm_ms, 95.0),
                                  "ms", len(warm_ms)),
            "cold_p50_ms": _entry(stats.named_percentile(cold_ms, 50.0),
                                  "ms", len(cold_ms)),
            "cold_p90_ms": _entry(stats.named_percentile(cold_ms, 90.0),
                                  "ms", len(cold_ms)),
            "findings_p50_ms": _entry(
                stats.named_percentile(data["findings"], 50.0), "ms",
                len(data["findings"])),
        },
        "timings": {"warm": stats.summarize(warm_ms),
                    "cold": stats.summarize(cold_ms),
                    "findings": stats.summarize(data["findings"])},
        "kernels": data["kernels"],
    }


def traced(root: str, workdir: str, seed: int, seconds: float,
           scale: float, tally: stats.Tally
           ) -> Tuple[Dict[str, float], Dict[str, Any], Dict[str, Any]]:
    """Untraced phase for half the time, then a traced daemon replaying
    the same per-client job sequences. Returns the per-layer metrics,
    the daemon's tracer snapshot and a summary."""
    trace_out = os.path.join(workdir, "trace.json")
    plain = DaemonProcess(root, os.path.join(workdir, "untraced"), None)
    wrapped = DaemonProcess(root, os.path.join(workdir, "traced"), trace_out)
    try:
        plain.start()
        first = make_clients(plain.port, seed, scale)
        wall_a = drive(first, deadline=time.perf_counter() + seconds / 2)
        plain.stop()
        wrapped.start()
        second = make_clients(wrapped.port, seed, scale)
        wall_b = drive(second, jobs=[client.jobs for client in first])
        wrapped.stop()
    finally:
        plain.kill()
        wrapped.kill()
    for client in first + second:
        tally.merge(client.tally)
    for before, after in zip(first, second):
        for key, outcome in after.cold_outcomes.items():
            if before.cold_outcomes.get(key, outcome) != outcome:
                tally.record([f"trace: traced daemon's outcome for {key} "
                              "differs from the untraced daemon's"])
    with open(trace_out, encoding="utf-8") as handle:
        snap = json.load(handle)
    waits = layers.pair_queue_waits(snap)
    submit_ms: Dict[str, List[float]] = {}
    for job_id, ns in snap["samples"].get("submit_ns", []):
        submit_ms.setdefault(job_id, []).append(ns / 1e6)
    http_ms = []
    for client in second:
        for job_id, rtt in client.post_ms:
            server = submit_ms.get(job_id)
            if server:
                http_ms.append(rtt - server.pop(0))
    jobs = sum(client.jobs for client in second)
    values = layers.compute(snap, requests=jobs, queue_waits_ms=waits,
                            http_ms=http_ms,
                            overhead_ratio=wall_b / wall_a if wall_a else 0)
    summary = {"untraced_s": wall_a, "traced_s": wall_b, "jobs": jobs,
               "queue_waits": len(waits), "http_samples": len(http_ms),
               "kernels": _merge(second)["kernels"]}
    return values, snap, summary


def cleanup(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
