"""The serve daemon end to end, over real HTTP on an ephemeral port."""

import gc
import glob
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.context import using
from repro.errors import ConfigError, ReproError, ServiceError
from repro.obs import DefaultObs, ObsConfig
from repro.request import RunRequest
from repro.run import RunOutcome
from repro.service import RunService
from repro.service import daemon as daemon_module
from repro.service.daemon import Daemon, ServeConfig
from repro.service.sink import FindingsSink

WINDOWED = RunRequest(workload="linear_regression", threads=4,
                      detector="windowed")
NATIVE = RunRequest(workload="histogram", threads=2, scale=0.2)


@pytest.fixture
def daemon(tmp_path):
    d = Daemon(ServeConfig(
        port=0, workers=2, cache_dir=str(tmp_path / "cache"),
        sink_dir=str(tmp_path / "sink"), drain_timeout=10.0)).start()
    yield d
    d.shutdown()


class Client:
    def __init__(self, daemon):
        self.base = f"http://127.0.0.1:{daemon.port}"

    def request(self, path, body=None, tenant=None, method=None):
        headers = {}
        if tenant is not None:
            headers["X-Repro-Tenant"] = tenant
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(self.base + path, data=data,
                                     headers=headers, method=method)
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read()), resp.headers
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), exc.headers

    def submit(self, run_request, tenant=None):
        return self.request("/v1/jobs",
                            body={"request": run_request.to_dict()},
                            tenant=tenant)

    def wait(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body, _ = self.request(f"/v1/jobs/{job_id}")
            assert status == 200
            if body["status"] in ("done", "failed"):
                return body
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not finish")

    def events(self, job_id):
        """Read the NDJSON stream to completion; returns the events."""
        with urllib.request.urlopen(
                f"{self.base}/v1/jobs/{job_id}/events", timeout=60) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            return [json.loads(line) for line in resp if line.strip()]


class TestContextIsolation:
    def test_jobs_ignore_the_starting_threads_obs(self, tmp_path):
        """Worker threads start from an empty run context: an obs
        collector set where the daemon was started neither observes its
        jobs nor turns them away from the cache."""
        handle = DefaultObs(ObsConfig(trace=False))
        with using(obs=handle):
            d = Daemon(ServeConfig(
                port=0, workers=2, cache_dir=str(tmp_path / "cache"),
                sink_dir=str(tmp_path / "sink"),
                drain_timeout=10.0)).start()
            try:
                client = Client(d)
                _, first, _ = client.submit(NATIVE)
                cold = client.wait(first["id"])
                _, second, _ = client.submit(NATIVE)
                warm = client.wait(second["id"])
            finally:
                d.shutdown()
        assert cold["cached"] is False and warm["cached"] is True
        assert d.service.stats()["runs"] == {"executed": 1, "hit": 1}
        assert handle.collected == []


class TestJobLifecycle:
    def test_submit_poll_outcome(self, daemon):
        client = Client(daemon)
        status, body, _ = client.submit(NATIVE)
        assert status == 202
        job = client.wait(body["id"])
        assert job["status"] == "done"
        assert job["cached"] is False
        assert job["workload"] == "histogram"
        assert job["outcome"]["result"]["runtime"] > 0

    def test_outcome_is_byte_identical_to_direct_execution(self, daemon):
        client = Client(daemon)
        _, body, _ = client.submit(WINDOWED)
        job = client.wait(body["id"])
        direct = WINDOWED.execute().to_dict()
        assert json.dumps(job["outcome"], sort_keys=True) \
            == json.dumps(direct, sort_keys=True)

    def test_warm_resubmission_is_served_from_cache(self, daemon):
        client = Client(daemon)
        _, first, _ = client.submit(NATIVE)
        done_first = client.wait(first["id"])
        _, second, _ = client.submit(NATIVE)
        done_second = client.wait(second["id"])
        assert done_second["cached"] is True
        assert json.dumps(done_first["outcome"], sort_keys=True) \
            == json.dumps(done_second["outcome"], sort_keys=True)

    def test_unknown_job_404(self, daemon):
        status, body, _ = Client(daemon).request("/v1/jobs/job-999999")
        assert status == 404
        assert "no such job" in body["error"]

    def test_bad_body_400(self, daemon):
        client = Client(daemon)
        status, body, _ = client.request("/v1/jobs", body={"nope": 1})
        assert status == 400
        status, body, _ = client.request(
            "/v1/jobs", body={"request": {"workload": ""}})
        assert status == 400
        status, body, _ = client.request(
            "/v1/jobs", body={"request": {"workload": "histogram",
                                          "speed": 9}})
        assert status == 400
        assert "unknown" in body["error"]

    def test_fractional_machine_cost_400(self, daemon):
        # Simulated clocks are ints; a fractional cost is refused at
        # submit time instead of yielding a float runtime.
        status, body, _ = Client(daemon).request(
            "/v1/jobs", body={"request": {"workload": "histogram",
                                          "machine": {"alloc_cost": 0.5}}})
        assert status == 400
        assert "alloc_cost" in body["error"]

    def test_fractional_jitter_seed_400(self, daemon):
        # Refused at submit time, not failed inside the engine.
        status, body, _ = Client(daemon).request(
            "/v1/jobs", body={"request": {"workload": "histogram",
                                          "jitter_seed": 1.5}})
        assert status == 400
        assert "jitter_seed" in body["error"]

    def test_invalid_workload_fails_job_not_daemon(self, daemon):
        client = Client(daemon)
        _, body, _ = client.submit(RunRequest(workload="no_such_workload"))
        job = client.wait(body["id"])
        assert job["status"] == "failed"
        assert "no_such_workload" in job["error"]
        # the daemon survives: next job is fine
        _, body, _ = client.submit(NATIVE)
        assert client.wait(body["id"])["status"] == "done"


#: Job bodies the daemon must answer with 400 before anything is queued:
#: unknown keys, non-mappings and wrong field types, at the top level
#: and inside nested configs.
MALFORMED_BODIES = [
    {"spec": {"workload": "histogram", "bogus": 1}},
    {"spec": [1]},
    {"spec": {"workload": "histogram", "threads": "8"}},
    {"request": {"workload": "histogram", "threads": "8"}},
    {"request": {"workload": "histogram", "scale": "x"}},
    {"request": {"workload": "linear_regression", "fixed": "false"}},
    {"request": {"workload": "histogram", "machine": {"num_cores": "8"}}},
    {"request": {"workload": "histogram", "machine": {"latency": 5}}},
    {"request": {"workload": "histogram",
                 "pmu": {"adaptive": {"rotation": [[1]]}}}},
]


def raw_post(port, headers, body=b"", end=False):
    """POST ``/v1/jobs`` with ``headers`` and ``body``; returns the reply
    once the daemon closes the connection (unless ``end``, the client
    keeps its side open, so a daemon waiting for more body times the
    read out)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(("POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
                      f"{headers}\r\n").encode() + body)
        if end:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


class TestMalformedBodies:
    @pytest.mark.parametrize("body", MALFORMED_BODIES,
                             ids=[json.dumps(b) for b in MALFORMED_BODIES])
    def test_each_body_gets_400_and_the_next_job_runs(self, daemon, body):
        client = Client(daemon)
        status, reply, _ = client.request("/v1/jobs", body=body)
        assert status == 400, reply
        assert reply["error"]
        assert daemon.stats()["jobs"] == {}
        _, submitted, _ = client.submit(NATIVE)
        assert client.wait(submitted["id"])["status"] == "done"

    def test_non_finite_scale_and_deep_nesting_get_400(self, daemon):
        client = Client(daemon)
        status, reply, _ = client.request(
            "/v1/jobs", body={"request": {"workload": "histogram",
                                          "scale": float("nan")}})
        assert status == 400 and "scale" in reply["error"]
        req = urllib.request.Request(client.base + "/v1/jobs",
                                     data=b"[" * 100_000)
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 400

    @pytest.mark.parametrize("length,status", [
        ("-1", 400), ("ten", 400), ("1000000000000", 413),
        ("9" * 5000, 413)], ids=["negative", "not-a-number", "over-the-cap",
                                 "5000-digits"])
    def test_bad_content_length_is_refused_unread(self, daemon, length,
                                                  status):
        reply = raw_post(daemon.port, f"Content-Length: {length}\r\n")
        assert reply.startswith(f"HTTP/1.0 {status} ".encode()), reply[:80]
        assert b"Connection: close" in reply
        client = Client(daemon)
        _, submitted, _ = client.submit(NATIVE)
        assert client.wait(submitted["id"])["status"] == "done"


@pytest.fixture
def impatient_daemon(tmp_path, monkeypatch):
    """A daemon whose connections time a stalled read out after 0.5 s."""
    monkeypatch.setattr(daemon_module, "REQUEST_TIMEOUT", 0.5)
    d = make_daemon(tmp_path)
    yield d
    d.shutdown()


class TestSlowClients:
    def test_stalled_body_gets_400_within_the_timeout(self,
                                                      impatient_daemon):
        start = time.monotonic()
        # 2 of the 10 bytes announced, then silence.
        reply = raw_post(impatient_daemon.port, "Content-Length: 10\r\n",
                         b"{}")
        assert time.monotonic() - start < 5
        assert reply.startswith(b"HTTP/1.0 400 "), reply[:80]
        assert b"Connection: close" in reply
        assert impatient_daemon.stats()["jobs"] == {}

    def test_truncated_body_gets_400_and_the_next_job_runs(
            self, impatient_daemon):
        # A complete job, 20 bytes short of what its header announced:
        # decoding what arrived would accept and queue it.
        body = json.dumps({"request": {"workload": "histogram",
                                       "scale": 0.05}}).encode()
        reply = raw_post(impatient_daemon.port,
                         f"Content-Length: {len(body) + 20}\r\n", body,
                         end=True)
        assert reply.startswith(b"HTTP/1.0 400 "), reply[:80]
        assert b"Connection: close" in reply
        assert impatient_daemon.stats()["jobs"] == {}
        client = Client(impatient_daemon)
        _, submitted, _ = client.submit(NATIVE)
        assert client.wait(submitted["id"])["status"] == "done"

    def test_event_stream_outlives_the_timeout(self, impatient_daemon):
        client = Client(impatient_daemon)
        _, body, _ = client.submit(SLOW)
        wait_for_first_event(impatient_daemon, body["id"])
        [pid] = impatient_daemon.worker_pids()
        os.kill(pid, signal.SIGSTOP)  # no event for twice the timeout
        try:
            with urllib.request.urlopen(
                    f"{client.base}/v1/jobs/{body['id']}/events",
                    timeout=60) as resp:
                first = resp.readline()
                time.sleep(1.0)
                os.kill(pid, signal.SIGCONT)
                events = [json.loads(line) for line in [first] + list(resp)
                          if line.strip()]
        finally:
            os.kill(pid, signal.SIGCONT)
        job = client.wait(body["id"])
        assert job["status"] == "done"
        assert strip_job_id(events) == job["outcome"]["streaming_findings"]


class TestStreamingEvents:
    def test_events_stream_live_before_completion(self, daemon):
        """Findings arrive on /events while the job is still running."""
        client = Client(daemon)
        # big enough that the run takes a moment; windowed detector
        # emits mid-run
        slow = RunRequest(workload="linear_regression", threads=4,
                          scale=2.0, detector="windowed")
        _, body, _ = client.submit(slow)
        job_id = body["id"]
        got_event_while_running = []

        def watch():
            with urllib.request.urlopen(
                    f"{client.base}/v1/jobs/{job_id}/events",
                    timeout=60) as resp:
                for line in resp:
                    if not line.strip():
                        continue
                    status, snapshot, _ = client.request(
                        f"/v1/jobs/{job_id}")
                    got_event_while_running.append(
                        (json.loads(line), snapshot["status"]))

        watcher = threading.Thread(target=watch)
        watcher.start()
        client.wait(job_id)
        watcher.join(timeout=60)
        assert got_event_while_running
        first_event, status_at_first = got_event_while_running[0]
        assert first_event["line"] > 0
        assert first_event["job_id"] == job_id
        assert status_at_first == "running"

    def test_cached_job_replays_identical_events(self, daemon):
        client = Client(daemon)
        _, first, _ = client.submit(WINDOWED)
        client.wait(first["id"])
        fresh_events = Client(daemon).events(first["id"])
        _, second, _ = client.submit(WINDOWED)
        client.wait(second["id"])
        cached_events = Client(daemon).events(second["id"])
        strip = lambda evs: [
            {k: v for k, v in e.items() if k != "job_id"} for e in evs]
        assert strip(cached_events) == strip(fresh_events)
        assert fresh_events  # windowed linear_regression emits

    def test_native_job_event_stream_is_empty_and_terminates(self, daemon):
        client = Client(daemon)
        _, body, _ = client.submit(NATIVE)
        client.wait(body["id"])
        assert client.events(body["id"]) == []


class TestAdmission:
    def test_dedupe_under_concurrent_submission(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        try:
            client = Client(daemon)
            results = []

            def submit():
                results.append(client.submit(WINDOWED))

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            ids = {body["id"] for _, body, _ in results}
            assert len(ids) == 1  # every duplicate landed on one job
            assert sum(1 for _, body, _ in results
                       if body.get("deduped")) == 7
            job = client.wait(ids.pop())
            assert job["status"] == "done"
        finally:
            daemon.shutdown()

    def test_distinct_specs_get_distinct_jobs(self, daemon):
        client = Client(daemon)
        _, a, _ = client.submit(NATIVE)
        _, b, _ = client.submit(WINDOWED)
        assert a["id"] != b["id"]
        assert client.wait(a["id"])["status"] == "done"
        assert client.wait(b["id"])["status"] == "done"

    def test_global_rate_limit_429_with_retry_after(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, rate=0.001, burst=1.0,
            cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        try:
            client = Client(daemon)
            status, _, _ = client.submit(NATIVE)
            assert status == 202
            status, body, headers = client.submit(WINDOWED)
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "rate" in body["error"]
        finally:
            daemon.shutdown()

    def test_tenant_quota_exhaustion_and_isolation(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, tenant_rate=0.001, tenant_burst=1.0,
            cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        try:
            client = Client(daemon)
            status, _, _ = client.submit(NATIVE, tenant="a")
            assert status == 202
            status, _, headers = client.submit(WINDOWED, tenant="a")
            assert status == 429
            assert "Retry-After" in headers
            # tenant b has its own bucket
            status, _, _ = client.submit(WINDOWED, tenant="b")
            assert status == 202
        finally:
            daemon.shutdown()

    def test_allowlist_403(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, tenants=("alice",),
            cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        try:
            client = Client(daemon)
            status, _, _ = client.submit(NATIVE, tenant="alice")
            assert status == 202
            status, body, _ = client.submit(NATIVE, tenant="mallory")
            assert status == 403
            assert "mallory" in body["error"]
        finally:
            daemon.shutdown()


class TestFindingsEndpoint:
    def test_aggregation_across_three_runs(self, daemon):
        client = Client(daemon)
        requests = [
            WINDOWED,
            RunRequest(workload="linear_regression", threads=8,
                       detector="windowed"),
            RunRequest(workload="histogram", threads=4, profile=True),
        ]
        jobs = [client.submit(r)[1]["id"] for r in requests]
        outcomes = [client.wait(j) for j in jobs]
        assert all(o["status"] == "done" for o in outcomes)

        status, body, _ = client.request("/v1/findings?view=stats")
        assert status == 200
        assert body["stats"]["kinds"]["run"] == 3

        expected_findings = sum(
            len(o["outcome"]["streaming_findings"]) for o in outcomes)
        status, body, _ = client.request("/v1/findings")
        finding_rows = [r for r in body["rows"] if r["kind"] == "finding"]
        assert len(finding_rows) == expected_findings

        status, body, _ = client.request(
            "/v1/findings?view=top_lines&workload=linear_regression")
        top = body["top_lines"]
        assert top and top[0]["invalidations"] > 0
        assert top[0]["runs"] == 2  # both linear_regression runs hit it

        status, body, _ = client.request("/v1/findings?view=verdicts")
        assert "linear_regression" in body["verdicts"]

        status, body, _ = client.request("/v1/findings?view=overhead")
        assert body["overhead"]["p50"] > 0

    def test_unknown_view_400(self, daemon):
        status, body, _ = Client(daemon).request("/v1/findings?view=pie")
        assert status == 400
        assert "unknown view" in body["error"]


class TestMetricsAndHealth:
    def test_healthz(self, daemon):
        status, body, _ = Client(daemon).request("/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_metrics_exposition(self, daemon):
        client = Client(daemon)
        _, body, _ = client.submit(NATIVE)
        client.wait(body["id"])
        with urllib.request.urlopen(f"{client.base}/metrics",
                                    timeout=30) as resp:
            text = resp.read().decode()
        assert "daemon_submissions_total" in text
        assert 'daemon_jobs_total{status="done"} 1' in text
        assert "daemon_queue_depth" in text
        assert "service_runs_total" in text

    def test_unknown_path_404(self, daemon):
        status, _, _ = Client(daemon).request("/v2/nothing")
        assert status == 404


class TestGracefulShutdown:
    def test_drain_finishes_inflight_jobs_and_flushes_sink(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"), drain_timeout=60.0)).start()
        client = Client(daemon)
        _, body, _ = client.submit(WINDOWED)
        job_id = body["id"]
        daemon.shutdown()  # drains the queued/running job
        job = daemon.get_job(job_id)
        assert job.status == "done"
        # sink was flushed: a fresh handle sees sealed segments only
        from repro.service.sink import FindingsSink
        reopened = FindingsSink(tmp_path / "sink")
        stats = reopened.stats()
        assert stats["buffered_rows"] == 0
        assert stats["rows"] >= 1 + len(job.outcome.streaming_findings)

    def test_shutdown_is_idempotent(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        daemon.shutdown()
        daemon.shutdown()

    def test_idle_shutdown_is_prompt(self, daemon):
        Client(daemon).request("/healthz")  # the HTTP loop is running
        start = time.monotonic()
        daemon.shutdown()
        assert time.monotonic() - start < 0.2

    def test_submit_once_shutdown_began_gets_503(self, daemon):
        daemon.shutdown()
        status, body = daemon.submit(NATIVE.to_spec(), "t")
        assert (status, body) == (503, {"error": "daemon is shutting down"})
        assert daemon.stats()["jobs"] == {}
        assert daemon.admission.quotas.snapshot() == {}
        assert 'daemon_submissions_total{outcome="rejected_shutdown"} 1' \
            in daemon.render_metrics()

    def test_submits_racing_shutdown_leave_no_job_queued(self, tmp_path):
        """Every submit either gets 503 or a job that ends; none queues
        behind the workers' exit, holding its tenant quota."""
        RunService(cache_dir=str(tmp_path / "cache")).run(NATIVE.to_spec())
        daemon = make_daemon(tmp_path, workers=2)
        spec = NATIVE.to_spec()
        replies = []
        start = threading.Barrier(4)

        def submit():
            start.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                reply = daemon.submit(spec, "t")
                replies.append(reply)
                if reply[0] == 503:
                    return

        interval = sys.getswitchinterval()
        threads = [threading.Thread(target=submit) for _ in range(3)]
        try:
            sys.setswitchinterval(1e-5)
            for thread in threads:
                thread.start()
            start.wait(timeout=30)
            daemon.shutdown()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert {status for status, _ in replies} <= {200, 202, 503}
        assert [status for status, _ in replies].count(503) == len(threads)
        jobs = [daemon.get_job(body["id"]) for status, body in replies
                if status != 503]
        assert all(job.status == "done" for job in jobs)
        assert daemon.admission.quotas.snapshot() == {}


def make_daemon(tmp_path, workers=1, drain_timeout=60.0, **kwargs):
    return Daemon(ServeConfig(
        port=0, workers=workers, cache_dir=str(tmp_path / "cache"),
        sink_dir=str(tmp_path / "sink"), drain_timeout=drain_timeout),
        **kwargs).start()


def wait_until(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not met in time")
        time.sleep(0.005)


def pid_gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def spawned_children(pid):
    """Pids of ``pid``'s ``spawn`` worker processes, read from /proc."""
    found = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            with open(stat[:-len("stat")] + "cmdline", "rb") as handle:
                cmdline = handle.read()
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if ppid == pid and b"spawn_main" in cmdline:
            found.append(int(stat.split("/")[2]))
    return found


def serve_in_own_group(tmp_path):
    """``repro serve`` with one worker in a new process group, so a
    group-wide SIGINT reaches it and its children but not the tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
         "--sink-dir", str(tmp_path / "sink")],
        stderr=subprocess.PIPE, env=env, start_new_session=True)
    try:
        assert select.select([proc.stderr], [], [], 60)[0], "no banner"
        banner = proc.stderr.readline().decode()
    except BaseException:
        reap_group(proc)
        raise
    return proc, banner.rsplit("on ", 1)[1].strip()


def reap_group(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
    proc.stderr.close()


def post_job(base, request):
    post = urllib.request.Request(
        f"{base}/v1/jobs",
        data=json.dumps({"request": request.to_dict()}).encode())
    with urllib.request.urlopen(post, timeout=60) as resp:
        return json.loads(resp.read())["id"]


def strip_job_id(events):
    return [{k: v for k, v in e.items() if k != "job_id"} for e in events]


#: Runs long enough to be caught mid-job once its first finding arrived.
SLOW = RunRequest(workload="linear_regression", threads=4, scale=3.0,
                  detector="windowed")


def wait_for_first_event(daemon, job_id):
    job = daemon.get_job(job_id)
    wait_until(lambda: job.events or job.events_done)
    assert job.status == "running", "job ended before it could be caught"


class TestWorkerProcesses:
    """Cold jobs run in per-worker processes; warm jobs never leave."""

    def test_killed_worker_fails_its_job_and_the_next_job_runs(
            self, tmp_path):
        daemon = make_daemon(tmp_path)
        try:
            client = Client(daemon)
            _, body, _ = client.submit(SLOW)
            wait_for_first_event(daemon, body["id"])
            [pid] = daemon.worker_pids()
            os.kill(pid, signal.SIGKILL)
            job = client.wait(body["id"])
            assert job["status"] == "failed"
            assert job["error"].startswith("ServiceError: worker process")
            assert "killed by signal 9" in job["error"]
            client.events(body["id"])  # the stream ends
            _, body, _ = client.submit(NATIVE)
            job = client.wait(body["id"])
            assert job["status"] == "done" and job["cached"] is False
            assert daemon.worker_pids() and daemon.worker_pids() != [pid]
        finally:
            daemon.shutdown()

    def test_worker_error_keeps_the_direct_run_error_text(self, tmp_path):
        bad = RunRequest(workload="no_such_workload")
        with pytest.raises(ReproError) as direct:
            bad.execute()
        daemon = make_daemon(tmp_path)
        try:
            client = Client(daemon)
            _, body, _ = client.submit(bad)
            job = client.wait(body["id"])
            assert job["error"] == \
                f"{type(direct.value).__name__}: {direct.value}"
            [pid] = daemon.worker_pids()  # the process survives the error
            _, body, _ = client.submit(NATIVE)
            assert client.wait(body["id"])["status"] == "done"
            assert daemon.worker_pids() == [pid]
        finally:
            daemon.shutdown()

    def test_concurrent_cold_jobs_on_more_workers_than_cpus(self, tmp_path):
        requests = [RunRequest(workload=name, threads=4, scale=0.2,
                               jitter_seed=seed, detector="windowed")
                    for name in ("linear_regression", "histogram",
                                 "array_increment", "producer_consumer_ring")
                    for seed in (1, 2, 3)]
        interval = sys.getswitchinterval()
        daemon = make_daemon(tmp_path, workers=4)
        try:
            sys.setswitchinterval(1e-5)  # interleave the threads hard
            client = Client(daemon)
            replies = []
            lock = threading.Lock()

            def submit(request):
                status, body, _ = client.submit(request)
                with lock:
                    replies.append((request, status, body))

            threads = [threading.Thread(target=submit, args=(request,))
                       for request in requests + requests[::3]]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(replies) == len(threads)
            assert all(status in (200, 202) for _, status, _ in replies)
            assert len(daemon.worker_pids()) <= 4
            for request, _, body in replies:
                job = client.wait(body["id"])
                assert job["status"] == "done"
                events = client.events(body["id"])
                assert strip_job_id(events) \
                    == job["outcome"]["streaming_findings"]
                assert json.dumps(job["outcome"], sort_keys=True) \
                    == json.dumps(request.execute().to_dict(),
                                  sort_keys=True)
        finally:
            daemon.shutdown()
            sys.setswitchinterval(interval)
        assert daemon.worker_pids() == []

    def test_shutdown_drains_a_running_cold_job_then_stops_workers(
            self, tmp_path):
        daemon = make_daemon(tmp_path, workers=2)
        try:
            _, body, _ = Client(daemon).submit(SLOW)
            wait_for_first_event(daemon, body["id"])
            pids = daemon.worker_pids()
            assert pids
        finally:
            daemon.shutdown()
        assert daemon.get_job(body["id"]).status == "done"
        assert daemon.worker_pids() == []
        assert all(pid_gone(pid) for pid in pids)

    def test_jobs_left_after_the_drain_fail_and_start_no_process(
            self, tmp_path):
        daemon = make_daemon(tmp_path, drain_timeout=0.0)
        try:
            client = Client(daemon)
            _, running, _ = client.submit(SLOW)
            wait_for_first_event(daemon, running["id"])
            [pid] = daemon.worker_pids()
            # Hold the job so that it cannot end before the drain does;
            # stopping a busy process kills it, stopped or not.
            os.kill(pid, signal.SIGSTOP)
            _, queued, _ = client.submit(NATIVE)  # waits behind SLOW
            assert daemon.get_job(queued["id"]).status == "queued"
        finally:
            daemon.shutdown()
        jobs = [daemon.get_job(body["id"]) for body in (running, queued)]
        wait_until(lambda: all(job.status == "failed" for job in jobs),
                   timeout=30)
        assert jobs[0].error == \
            "ServiceError: worker process repro-serve-worker-0 died " \
            "during the job (stopped)"
        assert jobs[1].error == \
            "ServiceError: worker process repro-serve-worker-0 is stopped"
        assert all(job.events_done for job in jobs)
        assert daemon.worker_pids() == []
        assert pid_gone(pid)

    def test_ctrl_c_drains_a_running_cold_job(self, tmp_path):
        """SIGINT to the whole process group, as Ctrl-C sends it: the
        worker process ignores it and the daemon drains the job."""
        proc, base = serve_in_own_group(tmp_path)
        try:
            job_id = post_job(base, SLOW)
            with urllib.request.urlopen(
                    f"{base}/v1/jobs/{job_id}/events", timeout=60) as resp:
                assert resp.readline().strip()  # the job is mid-run
                os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=60) == 0
        finally:
            reap_group(proc)
        runs = FindingsSink(tmp_path / "sink").query(kind="run")
        assert [row["job_id"] for row in runs] == [job_id]

    def test_ctrl_c_while_the_worker_process_starts(self, tmp_path):
        """SIGINT reaches the new worker process while it is still
        importing, before it could install its own handler."""
        proc, base = serve_in_own_group(tmp_path)
        try:
            job_id = post_job(base, NATIVE)
            wait_until(lambda: spawned_children(proc.pid), timeout=30)
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=60) == 0
        finally:
            reap_group(proc)
        runs = FindingsSink(tmp_path / "sink").query(kind="run")
        assert [row["job_id"] for row in runs] == [job_id]

    def test_warm_only_daemon_starts_no_worker_process(self, tmp_path):
        RunService(cache_dir=str(tmp_path / "cache")).run(NATIVE.to_spec())
        daemon = make_daemon(tmp_path, workers=2)
        try:
            assert daemon.worker_pids() == []  # no jobs yet
            client = Client(daemon)
            for _ in range(3):
                _, body, _ = client.submit(NATIVE)
                job = client.wait(body["id"])
                assert job["status"] == "done" and job["cached"] is True
            assert daemon.worker_pids() == []
        finally:
            daemon.shutdown()


class FlakySink(FindingsSink):
    """A sink whose first ``record_outcome`` fails like a full disk."""

    def __init__(self, root):
        super().__init__(root)
        self.failures = 1

    def record_outcome(self, *args, **kwargs):
        if self.failures:
            self.failures -= 1
            raise OSError(28, "No space left on device")
        return super().record_outcome(*args, **kwargs)


class TestWorkerBoundary:
    def test_unexpected_error_fails_the_job_not_the_worker(
            self, tmp_path, capsys):
        daemon = make_daemon(tmp_path, sink=FlakySink(tmp_path / "sink"))
        try:
            client = Client(daemon)
            _, first, _ = client.submit(NATIVE)
            job = client.wait(first["id"], timeout=30)
            assert job["status"] == "failed"
            assert job["error"] == \
                "OSError: [Errno 28] No space left on device"
            assert client.events(first["id"]) == []  # the stream ends
            _, second, _ = client.submit(WINDOWED)
            assert client.wait(second["id"], timeout=30)["status"] == "done"
            text = daemon.render_metrics()
            assert 'daemon_jobs_total{status="failed"} 1' in text
            assert 'daemon_jobs_total{status="done"} 1' in text
        finally:
            daemon.shutdown()
        assert "Traceback" in capsys.readouterr().err


class TestStartupFailures:
    def test_port_in_use_is_service_error(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(ServiceError, match="cannot bind"):
                Daemon(ServeConfig(port=port,
                                   cache_dir=str(tmp_path / "cache"),
                                   sink_dir=str(tmp_path / "sink")))
        finally:
            blocker.close()

    def test_cli_exit_2_on_occupied_port(self, tmp_path, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = cli_main(["serve", "--port", str(port),
                           "--cache-dir", str(tmp_path / "cache"),
                           "--sink-dir", str(tmp_path / "sink")])
        finally:
            blocker.close()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve:")
        assert "\n" == err[err.index("\n"):]  # exactly one line

    def test_cli_exit_2_on_bad_quota_config(self, capsys):
        rc = cli_main(["serve", "--port", "0", "--rate", "5",
                       "--burst", "0.5"])
        assert rc == 2
        assert "burst" in capsys.readouterr().err

    def test_bad_serve_config_rejected(self):
        with pytest.raises(ConfigError):
            ServeConfig(workers=0)
        with pytest.raises(ConfigError):
            ServeConfig(port=99999)
        with pytest.raises(ConfigError):
            ServeConfig(max_queue=0)
        with pytest.raises(ConfigError):
            ServeConfig(drain_timeout=-1.0)


class TestJobRetention:
    """The job table keeps at most JOBS_KEPT finished jobs, each with
    its outcome compressed."""

    @pytest.fixture
    def warm(self, tmp_path):
        """A daemon whose store already holds NATIVE (no process)."""
        RunService(cache_dir=str(tmp_path / "cache")).run(NATIVE.to_spec())
        d = make_daemon(tmp_path)
        yield d
        d.shutdown()

    def test_count_bound_evicts_the_oldest_finished_jobs(
            self, warm, monkeypatch):
        monkeypatch.setattr(daemon_module, "JOBS_KEPT", 2)
        client = Client(warm)
        ids = []
        for _ in range(4):
            _, body, _ = client.submit(NATIVE)
            assert client.wait(body["id"])["cached"] is True
            ids.append(body["id"])
        assert [warm.get_job(job_id) is None for job_id in ids] \
            == [True, True, False, False]
        assert warm.stats()["jobs"] == {"done": 2}
        text = warm.render_metrics()
        assert "\ndaemon_jobs_retained 2\n" in text
        assert "\ndaemon_jobs_evicted_total 2\n" in text
        assert 'daemon_jobs_total{status="done"} 4' in text

    def test_evicted_id_410_never_issued_404(self, warm, monkeypatch):
        monkeypatch.setattr(daemon_module, "JOBS_KEPT", 0)
        client = Client(warm)
        _, body, _ = client.submit(NATIVE)
        job_id = body["id"]
        wait_until(lambda: warm.get_job(job_id) is None)
        for path in (f"/v1/jobs/{job_id}", f"/v1/jobs/{job_id}/events"):
            status, reply, _ = client.request(path)
            assert status == 410, path
            assert "evicted" in reply["error"] and "resubmit" in reply["error"]
        for never in ("job-000002", "job-1", "job-0000001", "job-000000",
                      "job-" + "9" * 5000, "job-x"):
            status, reply, _ = client.request(f"/v1/jobs/{never}")
            assert status == 404, never
            assert "no such job" in reply["error"]

    def test_submit_reply_names_the_store_key(self, warm):
        client = Client(warm)
        key = NATIVE.to_spec().key()
        status, body, _ = client.submit(NATIVE)
        assert status == 202 and body["key"] == key
        assert client.wait(body["id"])["key"] == key
        assert warm.service.store.contains(key)

    def test_kept_outcome_is_the_direct_runs(self, daemon):
        """The reply is the direct run's dict as json.dumps(...,
        sort_keys=True) writes it, byte for byte (16 threads: int keys
        1..16 in numeric order), and job.outcome rehydrates it."""
        request = RunRequest(workload="linear_regression", scale=0.1,
                             detector="windowed")
        client = Client(daemon)
        _, body, _ = client.submit(request)
        reply = client.wait(body["id"])
        direct = request.execute().to_dict()
        with urllib.request.urlopen(f"{client.base}/v1/jobs/{body['id']}",
                                    timeout=60) as resp:
            raw = resp.read().decode()
        assert raw == json.dumps(dict(reply, outcome=direct), sort_keys=True)
        job = daemon.get_job(body["id"])
        assert not hasattr(job, "spec")
        assert isinstance(job.outcome, RunOutcome)
        assert json.dumps(job.outcome.to_dict(), sort_keys=True) \
            == json.dumps(direct, sort_keys=True)

    def test_bytes_kept_per_finished_job(self, tmp_path):
        """200 warm windowed jobs: each finished job keeps about 7.7 KB
        (job, compressed outcome, events, sink rows), where a job that
        kept its RunOutcome held about 26 KB."""
        spec = WINDOWED.to_spec()
        RunService(cache_dir=str(tmp_path / "cache")).run(spec)
        daemon = make_daemon(tmp_path)

        def run(count):
            for _ in range(count):
                status, body = daemon.submit(spec, "t")
                assert status == 202
                job = daemon.get_job(body["id"])
                with job.cond:
                    assert job.cond.wait_for(lambda: job.events_done,
                                             timeout=60)
                assert job.status == "done" and len(job.events) == 3

        try:
            run(20)  # lazy imports and caches settle first
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run(200)
                gc.collect()
                per_job = (tracemalloc.get_traced_memory()[0] - base) / 200
            finally:
                tracemalloc.stop()
        finally:
            daemon.shutdown()
        assert per_job < 10_000, f"{per_job:.0f} bytes per job"
