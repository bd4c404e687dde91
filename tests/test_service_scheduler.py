"""Deterministic tests for the resilient job scheduler.

Faults are injected through the scheduler's ``fault_hook`` (runs in the
worker before the cell function; raising simulates a crash) and time is
controlled by an injectable ``sleep``, so retry/backoff behavior is
asserted exactly. The pool tests run real worker processes, so their
timeouts and interrupts are real, with margins of half a second or more.
"""

import _thread
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigError, ServiceError
from repro.experiments import scaling
from repro.service import (
    JobFailure,
    RunService,
    RunSpec,
    Scheduler,
    using_service,
)


def _square(cell):
    return cell * cell


def _sleep_forever(cell):
    time.sleep(60)
    return cell


def _nap(cell):
    time.sleep(0.6)
    return cell


def _bad_config(cell):
    raise ConfigError(f"cell {cell} is misconfigured")


class _FailTimes:
    """Picklable fault hook failing the first ``n`` attempts per key."""

    def __init__(self, n):
        self.n = n

    def __call__(self, key, attempt):
        if attempt <= self.n:
            raise RuntimeError(f"injected fault on attempt {attempt}")


def _kill_first_attempt(key, attempt):
    """Fault hook: the worker process dies on attempt 1."""
    if attempt == 1:
        os.kill(os.getpid(), signal.SIGKILL)


def _fail_by_key(key, attempt):
    """Fault hook: ``bad-*`` keys always fail, ``flaky-*`` ones once."""
    if key.startswith("bad") or (key.startswith("flaky") and attempt == 1):
        raise RuntimeError(f"injected fault on {key}, attempt {attempt}")


class TestInline:
    def test_maps_in_order(self):
        recorded = []
        sched = Scheduler(jobs=1, sleep=recorded.append)
        assert sched.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert recorded == []

    def test_dedupes_identical_cells(self):
        calls = []
        sched = Scheduler(jobs=1)

        def fn(cell):
            calls.append(cell)
            return cell * 10

        assert sched.map(fn, [5, 5, 7, 5]) == [50, 50, 70, 50]
        assert calls == [5, 7]
        snapshot = sched.registry.snapshot()["counters"]
        assert snapshot["service_scheduler_deduped_total"] == 2

    def test_explicit_keys_control_dedupe(self):
        calls = []
        sched = Scheduler(jobs=1)

        def fn(cell):
            calls.append(cell)
            return cell

        out = sched.map(fn, [1, 2], keys=["same", "same"])
        assert out == [1, 1]  # first occurrence wins, result fans out
        assert calls == [1]

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ServiceError, match="keys"):
            Scheduler(jobs=1).map(_square, [1, 2], keys=["a"])

    def test_transient_fault_heals_with_backoff(self):
        slept = []
        sched = Scheduler(jobs=1, retries=2, backoff_base=0.05,
                          backoff_factor=2.0, jitter_frac=0.0,
                          sleep=slept.append, fault_hook=_FailTimes(2))
        assert sched.map(_square, [3]) == [9]
        # Two retries, exponential schedule, no jitter: 0.05 then 0.1.
        assert slept == pytest.approx([0.05, 0.1])
        assert sched.delays == slept
        counters = sched.registry.snapshot()["counters"]
        assert counters["service_scheduler_retries_total"] == 2

    def test_backoff_is_capped_and_jittered_deterministically(self):
        a = Scheduler(jobs=1, backoff_base=1.0, backoff_factor=10.0,
                      backoff_cap=2.0, jitter_frac=0.5, jitter_seed=42)
        b = Scheduler(jobs=1, backoff_base=1.0, backoff_factor=10.0,
                      backoff_cap=2.0, jitter_frac=0.5, jitter_seed=42)
        delays_a = [a.backoff_delay(n) for n in (1, 2, 3)]
        delays_b = [b.backoff_delay(n) for n in (1, 2, 3)]
        assert delays_a == delays_b  # same seed, same schedule
        assert all(d <= 2.0 * 1.5 for d in delays_a)  # cap * max jitter
        assert delays_a[1] >= 2.0  # cap reached by attempt 2

    def test_exhausted_retries_degrade_to_job_failure(self):
        sched = Scheduler(jobs=1, retries=1, sleep=lambda _: None,
                          fault_hook=_FailTimes(99))
        out = sched.map(_square, [3, 4], keys=["bad-3", "bad-4"])
        assert all(isinstance(o, JobFailure) for o in out)
        assert out[0].key == "bad-3"
        assert out[0].kind == "exception"
        assert out[0].attempts == 2
        assert "injected fault" in out[0].error
        assert "bad-3" in out[0].render()
        counters = sched.registry.snapshot()["counters"]
        assert counters["service_scheduler_jobs_total"]["failed"] == 2

    def test_cells_own_repro_error_is_not_retried(self):
        slept = []
        sched = Scheduler(jobs=1, retries=2, sleep=slept.append)
        [out] = sched.map(_bad_config, [7])
        assert out == JobFailure(
            key="cell-0", kind="exception",
            error="ConfigError: cell 7 is misconfigured", attempts=1)
        assert slept == []
        counters = sched.registry.snapshot()["counters"]
        assert counters["service_scheduler_retries_total"] == 0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ServiceError):
            Scheduler(retries=-1)
        with pytest.raises(ServiceError):
            Scheduler(timeout=0)


class TestPool:
    def test_pool_maps_in_order(self):
        sched = Scheduler(jobs=2)
        assert sched.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]

    def test_pool_fault_retries_then_succeeds(self):
        # The hook travels to the worker by pickle, so its state resets
        # per attempt dispatch; attempt numbers come from the parent.
        sched = Scheduler(jobs=2, retries=2, sleep=lambda _: None,
                          fault_hook=_FailTimes(1))
        assert sched.map(_square, [5, 6]) == [25, 36]

    def test_pool_timeout_degrades_to_job_failure(self):
        sched = Scheduler(jobs=2, timeout=0.5, retries=0,
                          sleep=lambda _: None)
        out = sched.map(_sleep_forever, [1], keys=["hung"])
        assert isinstance(out[0], JobFailure)
        assert out[0].kind == "timeout"
        assert "0.5" in out[0].error
        counters = sched.registry.snapshot()["counters"]
        assert counters["service_scheduler_timeouts_total"] == 1

    def test_pool_survives_timeout_and_completes_rest(self):
        # One hung cell must not take down the others (pool recycled).
        sched = Scheduler(jobs=2, timeout=0.5, retries=0,
                          sleep=lambda _: None)
        cells = [1, "hang", 3]

        out = sched.map(_hang_on_marker, cells)
        assert out[0] == 1 and out[2] == 3
        assert isinstance(out[1], JobFailure)


    def test_cells_own_repro_error_is_not_retried(self):
        slept = []
        sched = Scheduler(jobs=2, retries=2, sleep=slept.append)
        out = sched.map(_bad_config, [7, 8])
        assert [o.attempts for o in out] == [1, 1]
        assert out[0].error == "ConfigError: cell 7 is misconfigured"
        assert slept == []

    def test_timed_out_attempt_leaves_no_process(self):
        sched = Scheduler(jobs=2, timeout=0.5, retries=1,
                          sleep=lambda _: None)
        [out] = sched.map(_sleep_forever, [30])
        assert out.kind == "timeout" and out.attempts == 2
        assert multiprocessing.active_children() == []

    def test_timeout_counts_from_when_the_attempt_reaches_a_worker(self):
        # Each worker takes three cells in turn: the later ones wait
        # longer than the timeout before they start.
        sched = Scheduler(jobs=2, timeout=1.0, retries=0)
        assert sched.map(_nap, list(range(6))) == list(range(6))

    def test_killed_worker_is_retried_on_a_fresh_process(self):
        sched = Scheduler(jobs=2, retries=1, sleep=lambda _: None,
                          fault_hook=_kill_first_attempt)
        assert sched.map(_square, [7]) == [49]
        counters = sched.registry.snapshot()["counters"]
        assert counters["service_scheduler_retries_total"] == 1
        assert counters["service_scheduler_jobs_total"] == {"completed": 1}

    def test_keyboard_interrupt_stops_every_worker(self):
        timer = threading.Timer(1.5, _thread.interrupt_main)
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                Scheduler(jobs=2, retries=0).map(_sleep_forever, [1, 2])
        finally:
            timer.cancel()
        assert multiprocessing.active_children() == []

    def test_counters_are_exact_across_worker_threads(self):
        keys = ([f"ok-{n}" for n in range(6)] + ["ok-0", "ok-1"]
                + [f"flaky-{n}" for n in range(3)] + ["bad-0", "bad-1"])
        sched = Scheduler(jobs=3, retries=1, sleep=lambda _: None,
                          fault_hook=_fail_by_key)
        out = sched.map(_square, list(range(len(keys))), keys=keys)
        assert sum(isinstance(o, JobFailure) for o in out) == 2
        counters = sched.registry.snapshot()["counters"]
        assert counters["service_scheduler_jobs_total"] == {
            "completed": 9, "failed": 2}
        assert counters["service_scheduler_retries_total"] == 5
        assert counters["service_scheduler_deduped_total"] == 2
        assert counters["service_scheduler_timeouts_total"] == 0


class TestWorkerInitializer:
    def test_jobs_run_fills_the_parent_store(self, tmp_path):
        """Each worker reopens the ambient service's store, so what the
        cells simulated is served to the parent afterwards."""
        service = RunService(cache_dir=tmp_path / "cache")
        with using_service(service):
            fanned = scaling.run(scale=0.1, thread_counts=(2, 4), jobs=2)
            assert not fanned.failures
            assert service.stats()["entries"] == 4
            assert scaling.run(scale=0.1, thread_counts=(2, 4)) == fanned
        assert service.stats()["runs"] == {"hit": 4}


class TestRunMany:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_workload_fails_at_once(self, tmp_path, jobs):
        service = RunService(cache_dir=tmp_path / "cache",
                             sleep=lambda _: None)
        [out] = service.run_many([RunSpec(workload="no_such_workload")],
                                 jobs=jobs)
        assert isinstance(out, JobFailure)
        assert out.attempts == 1
        assert out.error.startswith("ConfigError: ")


def _hang_on_marker(cell):
    if cell == "hang":
        time.sleep(60)
    return cell
