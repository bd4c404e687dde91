"""The run service end to end: cache-first runs, ambient wiring, and the
Session content-hash fix.
"""

import json

import pytest

import repro.api
from repro.api import Session
from repro.context import current, using
from repro.errors import ServiceError
from repro.obs import DefaultObs, ObsConfig
from repro.run import RunOutcome, RunSummary
from repro.service import (
    JobFailure,
    RunService,
    RunSpec,
    cached_run,
    content_key,
    spec_for_workload_cls,
    using_service,
)
from repro.sim.params import MachineConfig
from repro.workloads.micro import ArrayIncrement
from repro.workloads.phoenix import LinearRegression


@pytest.fixture(autouse=True)
def fresh_session_memo():
    repro.api.clear_session_memo()
    yield
    repro.api.clear_session_memo()


def _service(tmp_path, **kwargs):
    return RunService(cache_dir=tmp_path / "cache", **kwargs)


SPEC = RunSpec(workload="array_increment", threads=2, scale=0.1,
               jitter_seed=7)


class TestSpecKeys:
    def test_key_is_stable_and_content_addressed(self):
        assert SPEC.key() == RunSpec(workload="array_increment", threads=2,
                                     scale=0.1, jitter_seed=7).key()
        assert SPEC.key() != SPEC.__class__(
            workload="array_increment", threads=2, scale=0.1,
            jitter_seed=8).key()

    def test_default_machine_and_explicit_default_share_a_key(self):
        explicit = RunSpec(workload="array_increment", threads=2,
                           scale=0.1, jitter_seed=7,
                           machine=MachineConfig())
        assert explicit.key() == SPEC.key()

    def test_pmu_only_keyed_for_profiled_runs(self):
        from repro.pmu.sampler import PMUConfig
        plain = RunSpec(workload="array_increment", pmu=PMUConfig(period=8))
        assert plain.key() == RunSpec(workload="array_increment").key()
        profiled = RunSpec(workload="array_increment", with_cheetah=True,
                           pmu=PMUConfig(period=8))
        assert profiled.key() != RunSpec(workload="array_increment",
                                         with_cheetah=True).key()

    def test_spec_round_trips(self):
        again = RunSpec.from_dict(SPEC.to_dict())
        assert again == SPEC and again.key() == SPEC.key()

    def test_only_canonical_registry_classes_get_specs(self):
        assert spec_for_workload_cls(ArrayIncrement) is not None

        class Subclass(ArrayIncrement):
            pass

        assert spec_for_workload_cls(Subclass) is None
        assert spec_for_workload_cls(object) is None

    def test_workload_must_be_a_name(self):
        with pytest.raises(ServiceError):
            RunSpec(workload=ArrayIncrement)


class TestRunService:
    def test_miss_then_hit_is_byte_identical(self, tmp_path):
        service = _service(tmp_path)
        cold = service.run(SPEC)
        warm = service.run(SPEC)
        assert not cold.from_cache and warm.from_cache
        assert json.dumps(warm.to_dict(), sort_keys=True) \
            == json.dumps(cold.to_dict(), sort_keys=True)
        assert service.hit_ratio() == 0.5
        assert service.stats()["runs"] == {"executed": 1, "hit": 1}

    def test_force_reexecutes(self, tmp_path):
        service = _service(tmp_path)
        service.run(SPEC)
        assert not service.run(SPEC, force=True).from_cache

    def test_disabled_service_never_touches_store(self, tmp_path):
        service = _service(tmp_path, enabled=False)
        service.run(SPEC)
        service.run(SPEC)
        assert service.stats()["entries"] == 0
        assert service.stats()["runs"] == {"disabled": 2}

    def test_ambient_obs_default_bypasses_cache(self, tmp_path):
        service = _service(tmp_path)
        with using(obs=DefaultObs(ObsConfig(trace=False))) as context:
            outcome = service.run(SPEC)
        assert outcome.obs is not None  # the run was actually observed
        assert context.obs.collected == [outcome.obs]
        assert current().obs is None  # the scope restored the context
        assert service.stats()["entries"] == 0
        assert service.stats()["runs"] == {"bypassed": 1}

    def test_rejects_non_spec(self, tmp_path):
        with pytest.raises(ServiceError, match="RunSpec"):
            _service(tmp_path).run("array_increment")

    def test_run_many_dedupes_and_caches(self, tmp_path):
        other = RunSpec(workload="array_increment", threads=2, scale=0.1,
                        jitter_seed=8)
        for jobs in (1, 2):  # in this process, then in worker processes
            service = _service(tmp_path / f"jobs{jobs}")
            out = service.run_many([SPEC, SPEC, other], jobs=jobs)
            assert all(isinstance(o, RunOutcome) for o in out)
            # Simulated for this call, so none reads as a cache hit.
            assert not any(o.from_cache for o in out)
            assert out[0].runtime == out[1].runtime  # deduped onto one job
            assert service.stats()["entries"] == 2
            # Second call: all three served from the store.
            again = service.run_many([SPEC, SPEC, other], jobs=jobs)
            assert all(o.from_cache for o in again)
            assert [o.runtime for o in again] == [o.runtime for o in out]

    def test_run_many_degrades_to_job_failure(self, tmp_path):
        def explode(key, attempt):
            raise RuntimeError("boom")

        service = _service(tmp_path, retries=0, sleep=lambda _: None,
                           fault_hook=explode)
        out = service.run_many([SPEC])
        assert isinstance(out[0], JobFailure)
        assert out[0].kind == "exception"
        assert service.stats()["entries"] == 0  # failures are not cached


class TestCachedRun:
    def test_no_ambient_service_runs_directly(self):
        outcome = cached_run(ArrayIncrement, num_threads=2, scale=0.1,
                             jitter_seed=7)
        assert isinstance(outcome, RunOutcome) and not outcome.from_cache

    def test_ambient_service_serves_second_call(self, tmp_path):
        with using_service(_service(tmp_path)) as service:
            cold = cached_run(ArrayIncrement, num_threads=2, scale=0.1,
                              jitter_seed=7)
            warm = cached_run(ArrayIncrement, num_threads=2, scale=0.1,
                              jitter_seed=7)
        assert warm.from_cache and warm.runtime == cold.runtime
        assert service.stats()["runs"] == {"executed": 1, "hit": 1}
        assert current().service is None  # the scope restored it

    def test_push_pop_discipline(self, tmp_path):
        """Scopes nest and unwind, exceptions included; a non-service
        is refused before anything changes."""
        with pytest.raises(ServiceError):
            with using(service="not a service"):
                pass
        with pytest.raises(ServiceError):
            with using_service("not a service"):
                pass
        assert current().service is None
        outer, inner = _service(tmp_path), _service(tmp_path)
        with using_service(outer) as pushed:
            assert pushed is outer and current().service is outer
            with pytest.raises(RuntimeError):
                with using(service=inner):
                    assert current().service is inner
                    raise RuntimeError("unwinds the inner scope")
            assert current().service is outer
        assert current().service is None


class TestSessionContentHash:
    def test_equal_sessions_share_one_result(self):
        """Regression: result memo used to be keyed by Session identity,
        so two sessions with equal configs simulated twice. The memo is
        now keyed by the spec's content hash."""
        a = Session("array_increment", threads=2, scale=0.1,
                    jitter_seed=7).run()
        b = Session("array_increment", threads=2, scale=0.1,
                    jitter_seed=7).run()
        assert b is a

    def test_equal_configs_spelled_differently_share(self):
        a = Session("array_increment", threads=2, scale=0.1).run()
        b = Session("array_increment", threads=2, scale=0.1,
                    machine=MachineConfig()).run()
        assert b is a  # None machine ≡ explicit default machine

    def test_different_configs_do_not_share(self):
        a = Session("array_increment", threads=2, scale=0.1).run()
        b = Session("array_increment", threads=2, scale=0.1,
                    jitter_seed=99).run()
        assert b is not a

    def test_class_and_name_forms_share(self):
        a = Session("array_increment", threads=2, scale=0.1).run()
        b = Session(ArrayIncrement, threads=2, scale=0.1).run()
        assert b is a

    def test_observed_sessions_never_share(self):
        a = Session("array_increment", threads=2, scale=0.1,
                    obs=ObsConfig(trace=False)).run()
        b = Session("array_increment", threads=2, scale=0.1,
                    obs=ObsConfig(trace=False)).run()
        assert b is not a  # each observed run must actually execute

    def test_session_routes_through_ambient_service(self, tmp_path):
        with using_service(_service(tmp_path)) as service:
            Session("array_increment", threads=2, scale=0.1).run()
            out = Session("array_increment", threads=2, scale=0.1).run()
        assert out.from_cache
        assert isinstance(out.result, RunSummary)
        assert service.stats()["runs"] == {"executed": 1, "hit": 1}


class TestExperimentIntegration:
    def test_warm_scaling_experiment_is_byte_identical(self, tmp_path):
        """A warm pass renders the cold pass's bytes with every run
        served from the store, for ``scaling`` and for ``table1``."""
        from repro.experiments import scaling, table1
        experiments = [
            ("scaling", 4, lambda: scaling.run(
                scale=0.2, thread_counts=(2, 4))),
            ("table1", 24, lambda: table1.run(
                scale=0.2, thread_counts=(4, 2), seeds=(11, 22))),
        ]
        for name, runs, experiment in experiments:
            with using_service(_service(tmp_path / name)) as service:
                cold = experiment().render()
                warm = experiment().render()
            assert warm == cold, name
            stats = service.stats()
            assert stats["hits"] == runs and stats["misses"] == runs, name

    def test_scaling_matches_uncached_baseline(self, tmp_path):
        from repro.experiments import scaling
        baseline = scaling.run(scale=0.2, thread_counts=(2,)).render()
        with using_service(_service(tmp_path)):
            cached = scaling.run(scale=0.2, thread_counts=(2,)).render()
        assert cached == baseline


class TestCacheCLI:
    def test_cache_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_no_cache_flag_disables_store(self, tmp_path, capsys):
        from repro.cli import main
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "array_increment", "--threads", "2",
                     "--scale", "0.1", "--no-cache",
                     "--cache-dir", cache_dir, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["from_cache"] is False
        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_run_json_reports_cache_hit(self, tmp_path, capsys):
        from repro.cli import main
        cache_dir = str(tmp_path / "cache")
        argv = ["run", "array_increment", "--threads", "2",
                "--scale", "0.1", "--cache-dir", cache_dir, "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["from_cache"] is False
        assert warm["from_cache"] is True
        assert warm["runtime"] == cold["runtime"]
        assert warm["invalidations"] == cold["invalidations"]
