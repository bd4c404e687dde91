#!/usr/bin/env python
"""CI smoke test for the serve daemon: real process, real HTTP.

Starts ``python -m repro serve`` on an ephemeral port as a subprocess,
submits a windowed-detector job over HTTP, polls it to completion,
asserts at least one NDJSON finding event and a non-empty ``/metrics``
exposition, then delivers SIGINT and checks the daemon drains and exits
0.

Usage: PYTHONPATH=src python tools/serve_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

TIMEOUT = 120.0


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


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


def get_json(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read())


def main():
    tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", os.path.join(tmp, "cache"),
         "--sink-dir", os.path.join(tmp, "sink")],
        stderr=subprocess.PIPE, env=env)
    try:
        base = wait_for_listening(proc)
        print(f"serve_smoke: daemon at {base}")

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

        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
            metrics = resp.read().decode()
        if "daemon_jobs_total" not in metrics:
            fail("metrics exposition is missing daemon counters")
        print(f"serve_smoke: /metrics ok ({len(metrics.splitlines())} lines)")

        findings = get_json(f"{base}/v1/findings?view=stats")
        if findings["stats"]["rows"] < 1:
            fail("findings sink is empty after a completed job")

        proc.send_signal(signal.SIGINT)
        rc = proc.wait(timeout=TIMEOUT)
        if rc != 0:
            fail(f"daemon exited {rc} after SIGINT")
        print("serve_smoke: clean shutdown, PASS")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
