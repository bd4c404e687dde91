#!/usr/bin/env python
"""CI smoke test for the serve daemon: real process, real HTTP.

Starts ``python -m repro serve`` on an ephemeral port as a subprocess,
posts malformed job bodies and bad ``Content-Length`` headers and
requires a 400 or 413 for each, then submits a windowed-detector job
over HTTP, polls it to completion,
asserts at least one NDJSON finding event and a non-empty ``/metrics``
exposition, then delivers SIGINT and checks the daemon drains and exits
0, leaving none of its child processes (the worker process that ran the
job among them) alive. The daemon runs under ``-X faulthandler``: if it
has not exited ``TIMEOUT`` seconds after SIGINT, it gets SIGABRT and the
smoke prints every thread's stack before it fails.

Before the SIGINT it resubmits the windowed job warm ``JOBS_KEPT + 100``
times and fails unless ``/metrics`` shows at most ``JOBS_KEPT`` finished
jobs retained (plus any in flight), evicted ids answer 410 and an id
never issued 404. It reports the daemon's VmRSS growth per warm job
(also to ``$GITHUB_STEP_SUMMARY`` when set); that figure is not gated.

Usage: PYTHONPATH=src python tools/serve_smoke.py
"""

import glob
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.service.daemon import JOBS_KEPT

TIMEOUT = 120.0

#: Job bodies the daemon must refuse with 400 (docs/service.md, "Job
#: body errors").
MALFORMED_BODIES = [
    {"spec": {"workload": "histogram", "bogus": 1}},
    {"spec": [1]},
    {"spec": {"workload": "histogram", "threads": "8"}},
    {"request": {"workload": "histogram", "threads": "8"}},
    {"request": {"workload": "histogram", "scale": "x"}},
    {"request": {"workload": "linear_regression", "fixed": "false"}},
]

#: (Content-Length, expected status): refused without reading a body.
BAD_LENGTHS = [("-1", 400), ("1000000000000", 413)]


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def fail_with_thread_dump(proc):
    """SIGABRT the daemon, whose faulthandler then writes every thread's
    stack to stderr (unread since the banner); print that and fail."""
    proc.send_signal(signal.SIGABRT)
    _, err = proc.communicate(timeout=TIMEOUT)
    sys.stderr.write(err.decode(errors="replace"))
    fail(f"daemon still running {TIMEOUT:.0f} s after SIGINT "
         "(its threads' stacks are above)")


def wait_for_listening(proc):
    """Parse the bind address off the daemon's stderr banner."""
    deadline = time.monotonic() + TIMEOUT
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            fail(f"daemon exited before listening (rc={proc.poll()})")
        line = line.decode(errors="replace").strip()
        if "listening on" in line:
            return line.rsplit("on ", 1)[1]
    fail("timed out waiting for the listening banner")


def child_pids(pid):
    """Pids of the processes whose parent is ``pid``.

    Read from each process's ``/proc/<pid>/stat``: the per-task
    ``children`` files need a kernel built with CONFIG_PROC_CHILDREN.
    """
    children = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[1]) == pid:
            children.append(int(path.split("/")[2]))
    return sorted(children)


def alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper has exited."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def get_json(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read())


def post_status(base, body):
    """Status of a ``POST /v1/jobs`` with JSON ``body``."""
    request = urllib.request.Request(
        f"{base}/v1/jobs", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status
    except urllib.error.HTTPError as exc:
        return exc.code
    except OSError as exc:  # a dropped connection, a timeout
        fail(f"no reply to body {body}: {exc!r}")


def raw_post_status(base, length):
    """Status of a ``POST /v1/jobs`` that sends ``Content-Length:
    length`` and no body. The client keeps its side open, so a daemon
    that waits for the body times the read out."""
    address = urllib.parse.urlsplit(base)
    try:
        with socket.create_connection((address.hostname, address.port),
                                      timeout=10) as sock:
            sock.sendall((f"POST /v1/jobs HTTP/1.1\r\n"
                          f"Host: {address.netloc}\r\n"
                          f"Content-Length: {length}\r\n\r\n").encode())
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        return int(reply.split(b" ", 2)[1])
    except (OSError, IndexError, ValueError) as exc:
        fail(f"no reply to Content-Length {length}: {exc!r}")


def get_status(url):
    """Status of a GET (the body is read and dropped)."""
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            resp.read()
            return resp.status
    except urllib.error.HTTPError as exc:
        return exc.code


def vm_rss_kb(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    fail(f"no VmRSS line for pid {pid}")


def metric(text, series):
    """The value of one exposition line, e.g. ``daemon_queue_depth`` or
    ``daemon_jobs_total{status="done"}``; 0 when absent."""
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name == series:
            return float(value)
    return 0.0


def check_retention(base, pid, body, first_id):
    """Resubmit ``body`` warm ``JOBS_KEPT + 100`` times, one at a time;
    the job table must stay bounded. Reports VmRSS growth per job."""
    warm = JOBS_KEPT + 100
    rss_before = vm_rss_kb(pid)
    ids = []
    for _ in range(warm):
        request = urllib.request.Request(
            f"{base}/v1/jobs", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as resp:
            ids.append(json.loads(resp.read())["id"])
        # The event stream ends when the job does.
        with urllib.request.urlopen(f"{base}/v1/jobs/{ids[-1]}/events",
                                    timeout=TIMEOUT) as resp:
            resp.read()
    rss_after = vm_rss_kb(pid)
    with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
        metrics = resp.read().decode()
    done = metric(metrics, 'daemon_jobs_total{status="done"}')
    if done != warm + 1:
        fail(f"{done:.0f} jobs done, expected {warm + 1}")
    in_flight = (metric(metrics,
                        'daemon_submissions_total{outcome="accepted"}')
                 - done - metric(metrics,
                                 'daemon_jobs_total{status="failed"}'))
    retained = metric(metrics, "daemon_jobs_retained")
    if retained > JOBS_KEPT + in_flight:
        fail(f"daemon_jobs_retained is {retained:.0f} after {warm} warm "
             f"jobs, above JOBS_KEPT={JOBS_KEPT} plus {in_flight:.0f} "
             "in flight")
    evicted = metric(metrics, "daemon_jobs_evicted_total")
    for job_id in (first_id, ids[0]):
        status = get_status(f"{base}/v1/jobs/{job_id}")
        if status != 410:
            fail(f"evicted job {job_id} got {status}, expected 410")
    status = get_status(f"{base}/v1/jobs/job-{10 * warm:06d}")
    if status != 404:
        fail(f"a job id never issued got {status}, expected 404")
    growth = (rss_after - rss_before) / warm
    report = (f"{warm} warm jobs: {retained:.0f} retained "
              f"(JOBS_KEPT={JOBS_KEPT}), {evicted:.0f} evicted; daemon "
              f"VmRSS {rss_before / 1024:.1f} -> {rss_after / 1024:.1f} MB, "
              f"{growth:.2f} KB per warm job (reported, not gated)")
    print(f"serve_smoke: {report}")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write(f"Serve daemon job table: {report}\n")


def check_bad_requests(base):
    """Each malformed body gets 400, each bad Content-Length its 400 or
    413; the windowed job submitted after them must still end done."""
    for body in MALFORMED_BODIES:
        status = post_status(base, body)
        if status != 400:
            fail(f"body {body} got {status}, expected 400")
    for length, expected in BAD_LENGTHS:
        status = raw_post_status(base, length)
        if status != expected:
            fail(f"Content-Length {length} got {status}, "
                 f"expected {expected}")
    print(f"serve_smoke: {len(MALFORMED_BODIES)} malformed bodies and "
          f"{len(BAD_LENGTHS)} bad Content-Length headers refused")


def main():
    tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.Popen(
        [sys.executable, "-X", "faulthandler", "-m", "repro", "serve",
         "--port", "0",
         "--cache-dir", os.path.join(tmp, "cache"),
         "--sink-dir", os.path.join(tmp, "sink")],
        stderr=subprocess.PIPE, env=env)
    children = []
    try:
        base = wait_for_listening(proc)
        print(f"serve_smoke: daemon at {base}")
        check_bad_requests(base)

        body = json.dumps({"request": {
            "workload": "linear_regression", "threads": 4,
            "detector": "windowed"}}).encode()
        request = urllib.request.Request(
            f"{base}/v1/jobs", data=body,
            headers={"Content-Type": "application/json",
                     "X-Repro-Tenant": "ci"})
        with urllib.request.urlopen(request, timeout=30) as resp:
            submitted = json.loads(resp.read())
            if resp.status != 202:
                fail(f"submit returned {resp.status}: {submitted}")
        job_id = submitted["id"]
        print(f"serve_smoke: submitted {job_id}")

        deadline = time.monotonic() + TIMEOUT
        job = None
        while time.monotonic() < deadline:
            job = get_json(f"{base}/v1/jobs/{job_id}")
            if job["status"] in ("done", "failed"):
                break
            time.sleep(0.1)
        if job is None or job["status"] != "done":
            fail(f"job did not complete: {job and job.get('status')} "
                 f"{job and job.get('error')}")
        if job["outcome"]["result"]["runtime"] <= 0:
            fail("outcome carries no runtime")
        print(f"serve_smoke: job done, "
              f"runtime={job['outcome']['result']['runtime']}")

        events = []
        with urllib.request.urlopen(f"{base}/v1/jobs/{job_id}/events",
                                    timeout=30) as resp:
            content_type = resp.headers["Content-Type"]
            if content_type != "application/x-ndjson":
                fail(f"events content-type is {content_type}")
            for line in resp:
                if line.strip():
                    events.append(json.loads(line))
        if not events:
            fail("no NDJSON finding events for a windowed run")
        if events[0].get("line", 0) <= 0:
            fail(f"malformed finding event: {events[0]}")
        print(f"serve_smoke: {len(events)} finding event(s)")

        check_retention(base, proc.pid, body, job_id)

        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
            metrics = resp.read().decode()
        if "daemon_jobs_total" not in metrics:
            fail("metrics exposition is missing daemon counters")
        print(f"serve_smoke: /metrics ok ({len(metrics.splitlines())} lines)")

        findings = get_json(f"{base}/v1/findings?view=stats")
        if findings["stats"]["rows"] < 1:
            fail("findings sink is empty after a completed job")

        children = child_pids(proc.pid)
        if not children:
            fail("the daemon has no worker process after a cold job")
        print(f"serve_smoke: daemon children {children}")

        proc.send_signal(signal.SIGINT)
        try:
            rc = proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            fail_with_thread_dump(proc)
        if rc != 0:
            fail(f"daemon exited {rc} after SIGINT")
        # multiprocessing's resource tracker exits once the daemon's end
        # of its pipe closes, so allow it a moment.
        deadline = time.monotonic() + 10.0
        while any(map(alive, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in children if alive(pid)]
        if left:
            fail(f"child processes {left} outlived the daemon")
        print("serve_smoke: clean shutdown, no child left, PASS")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in children:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)


if __name__ == "__main__":
    main()
