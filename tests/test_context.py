"""The run context: one contextvar carrying the ambient service, obs
collector and finding listeners, scoped by ``using`` and private to the
thread that set it."""

import sys
import threading

import pytest

from repro.context import RunContext, current, using
from repro.errors import ObsError
from repro.obs import DefaultObs, ObsConfig
from repro.request import RunRequest
from repro.run import run_workload
from repro.service import RunService, using_service
from repro.workloads.micro import ArrayIncrement


def in_thread(fn):
    """``fn()`` on a new thread; returns its value or re-raises."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(60)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestThreadIsolation:
    def test_other_threads_see_none_of_this_threads_context(self, tmp_path):
        handle = DefaultObs(ObsConfig(trace=False))
        service = RunService(cache_dir=tmp_path / "cache")
        with using(obs=handle), using_service(service):
            assert current().obs is handle
            assert current().service is service

            def other_thread():
                outcome = run_workload(ArrayIncrement(num_threads=2,
                                                      scale=0.1))
                return current(), outcome

            seen, outcome = in_thread(other_thread)
            assert current().obs is handle  # still set on this thread
        assert outcome.obs is None  # the run was not observed
        assert handle.collected == []
        assert seen.service is None
        assert seen == RunContext()
        assert service.stats()["runs"] == {}

    def test_listeners_stay_on_their_thread(self):
        request = RunRequest(workload="linear_regression", threads=4,
                             detector="windowed")
        heard = []
        with using(listeners=(heard.append,)):
            outcome = request.execute()
            other = in_thread(request.execute)
        # Only this thread's run reached the listener; the other thread
        # emitted the same findings to no one.
        assert heard
        assert [f.to_dict() for f in heard] == outcome.streaming_findings
        assert other.streaming_findings == outcome.streaming_findings
        assert current().listeners == ()


class TestConcurrentScopes:
    def test_threads_switching_scopes_never_see_each_other(self, tmp_path):
        services = [RunService(cache_dir=tmp_path / f"cache{i}")
                    for i in range(8)]  # more threads than cores
        start = threading.Barrier(len(services))
        wrong = []

        def worker(service):
            start.wait(10)
            for _ in range(300):
                with using(service=service):
                    if current().service is not service:
                        wrong.append(service)
                if current().service is not None:
                    wrong.append(None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(service,))
                       for service in services]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestScopes:
    def test_using_restores_on_exit_and_on_error(self, tmp_path):
        service = RunService(cache_dir=tmp_path / "cache")
        with pytest.raises(RuntimeError):
            with using(service=service):
                assert current().service is service
                raise RuntimeError("unwinds")
        assert current() == RunContext()

    def test_nested_scopes_keep_outer_fields(self, tmp_path):
        service = RunService(cache_dir=tmp_path / "cache")
        handle = DefaultObs(ObsConfig(trace=False))
        with using(service=service) as outer:
            with using(obs=handle) as inner:
                assert inner.service is service and inner.obs is handle
            assert current() is outer

    def test_invalid_values_are_refused(self):
        with pytest.raises(ObsError):
            with using(obs=ObsConfig()):  # a config, not a collector
                pass
        with pytest.raises(ObsError):
            with using(listeners=("not callable",)):
                pass
        with pytest.raises(TypeError):
            with using(nonsense=1):
                pass
        assert current() == RunContext()


class TestCacheRule:
    def test_cache_needs_an_enabled_service_and_no_obs(self, tmp_path):
        enabled = RunService(cache_dir=tmp_path / "cache")
        disabled = RunService(cache_dir=tmp_path / "cache", enabled=False)
        handle = DefaultObs(ObsConfig(trace=False))
        assert RunContext().cache is None
        assert RunContext(service=enabled).cache is enabled
        assert RunContext(service=disabled).cache is None
        assert RunContext(service=enabled, obs=handle).cache is None
