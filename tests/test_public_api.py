"""Pins the frozen v2 public surface of the ``repro`` package.

These tests are the API contract: a change that adds to, removes from,
or renames anything in ``repro.__all__`` must bump ``__api_version__``
and edit the expected set here *deliberately*. Everything outside the
surface is reachable only through its defining submodule; the retired
pre-v1 names no longer resolve at all.

v2 is a strict superset of v1: ``test_v1_names_survive`` guards the
compatibility promise that nothing a v1 caller imported ever goes away
within the v2 line.
"""

import importlib
import json
import os
import subprocess
import sys
import warnings

import pytest

import repro

#: The v1 surface, kept verbatim as the backward-compatibility floor.
V1_SURFACE = {
    # the front door and the canonical runner
    "Session", "run_workload", "RunOutcome", "RunSummary", "DEFAULT_SEEDS",
    # config dataclasses
    "MachineConfig", "LatencyModel", "PMUConfig", "DetectorConfig",
    "CheetahConfig", "ObsConfig",
    # reporting and errors
    "CheetahReport", "ReproError",
    # the run service
    "RunService", "RunSpec", "ResultStore", "Scheduler", "JobFailure",
    "cached_run", "default_cache_dir", "using_service",
    # metadata
    "__version__", "__api_version__",
}

#: The frozen v2 surface, verbatim. Do not edit casually — this set is
#: the compatibility promise pinned by test_surface_is_exactly_v2.
V2_SURFACE = V1_SURFACE | {
    # the unified request object (one front door for every layer)
    "RunRequest",
    # streaming (windowed online) detection
    "StreamingConfig", "StreamingDetector", "StreamingFinding",
    # analytical entry points
    "predict_outcome", "sampled_outcome",
    # the serve daemon and its cross-run findings store
    "ServeConfig", "FindingsSink",
}

#: The workload-registry API, exposed *additively* on top of the frozen
#: v2 surface (``__api_version__`` stays 2; nothing a v2 caller imports
#: moved or changed meaning).
WORKLOAD_API_NAMES = {
    "GroundTruth", "Verdict", "Workload", "get_workload", "iter_workloads",
}

#: Pre-v1 names the package root used to resolve through a deprecation
#: shim; they are retired (docs/api.md names each replacement).
DEPRECATED_NAMES = (
    "profile", "run_plain", "Engine", "RunResult", "PMU",
    "CheetahProfiler", "SymbolTable", "Observability", "CheetahAllocator",
)

#: Names ``repro.experiments.runner`` used to alias from ``repro.run``.
RUNNER_MOVED_NAMES = ("run_workload", "RunOutcome", "DEFAULT_SEEDS")


class TestFrozenSurface:
    def test_api_version_is_two(self):
        assert repro.__api_version__ == 2

    def test_surface_is_exactly_v2_plus_workload_api(self):
        assert set(repro.__all__) == V2_SURFACE | WORKLOAD_API_NAMES

    def test_v1_names_survive(self):
        """v2 removed nothing a v1 caller could import."""
        assert V1_SURFACE <= set(repro.__all__)

    def test_v2_names_survive(self):
        """The workload-API extension removed nothing from v2."""
        assert V2_SURFACE <= set(repro.__all__)

    def test_every_name_resolves_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in sorted(V2_SURFACE | WORKLOAD_API_NAMES):
                assert getattr(repro, name) is not None

    def test_no_deprecated_name_in_surface(self):
        assert not set(DEPRECATED_NAMES) & set(repro.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_an_api

    def test_dir_lists_surface(self):
        listing = dir(repro)
        for name in V2_SURFACE | WORKLOAD_API_NAMES:
            assert name in listing


class TestRetiredNames:
    def test_retired_names_are_gone(self):
        """Each retired shim name raises AttributeError (no warning, no
        fallback) and is missing from ``dir()``."""
        import repro.experiments.runner as runner
        retired = ([(repro, name) for name in DEPRECATED_NAMES]
                   + [(runner, name) for name in RUNNER_MOVED_NAMES])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for module, name in retired:
                with pytest.raises(AttributeError):
                    getattr(module, name)
                assert name not in dir(module), (module.__name__, name)
        assert "__getattr__" not in vars(runner)
        # The root binds its names on first use (PEP 562). That loader is
        # confined to ``__all__``: it is no fallback for retired names.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in DEPRECATED_NAMES + ("definitely_not_an_api",):
                with pytest.raises(AttributeError):
                    repro.__getattr__(name)
            candidates = (set(repro.__all__) | set(DEPRECATED_NAMES)
                          | set(vars(repro)))
            resolved = set()
            for name in candidates:
                try:
                    repro.__getattr__(name)
                except AttributeError:
                    continue
                resolved.add(name)
        assert resolved == (set(repro.__all__)
                            - {"__version__", "__api_version__"})


def fresh_interpreter(code):
    """Run ``code`` in a new interpreter that imports this ``repro``
    and return what it printed, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__)),
         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout)


class TestFirstUseBinding:
    """Package namespaces bind their lazy names on first use and list
    them in ``dir()`` before that."""

    #: What ``import repro.run`` must not load: none of it runs a cell.
    NOT_ON_THE_RUN_PATH = (
        "repro.api", "repro.service", "repro.service.daemon",
        "repro.predict", "repro.trace", "repro.request", "http.server",
    )

    def test_run_import_leaves_service_and_predict_unloaded(self):
        loaded = fresh_interpreter(
            "import json, sys\n"
            "import repro.run\n"
            f"names = {self.NOT_ON_THE_RUN_PATH!r}\n"
            "print(json.dumps([m for m in names if m in sys.modules]))")
        assert loaded == []

    def test_fresh_dir_lists_surface(self):
        """``dir(repro)`` lists every ``__all__`` name before any name
        is read (in-suite, earlier tests have resolved them all)."""
        missing = fresh_interpreter(
            "import json, repro\n"
            "print(json.dumps(sorted(set(repro.__all__)"
            " - set(dir(repro)))))")
        assert missing == []

    def test_names_are_their_modules_objects_bound_here(self):
        for name in set(repro.__all__) - {"__version__", "__api_version__"}:
            value = getattr(repro, name)
            module = importlib.import_module(repro._SOURCES[name])
            assert value is getattr(module, name), name
            assert vars(repro)[name] is value, name

    def test_sim_dir_lists_its_surface(self):
        import repro.sim
        import repro.sim.engine as engine
        assert set(repro.sim.__all__) <= set(dir(repro.sim))
        assert repro.sim.Engine is engine.Engine
        assert repro.sim.RunResult is engine.RunResult
        assert vars(repro.sim)["Engine"] is engine.Engine
        with pytest.raises(AttributeError, match="no attribute"):
            repro.sim.definitely_not_an_api


class TestV2Names:
    """The v2 additions are the real objects, not re-exports of shims."""

    def test_run_request_front_door(self):
        request = repro.RunRequest(workload="histogram", threads=2)
        assert request.to_spec().workload == "histogram"

    def test_serve_config_round_trips(self):
        config = repro.ServeConfig(port=0, workers=1)
        assert repro.ServeConfig.from_dict(config.to_dict()) == config

    def test_findings_sink_constructs(self, tmp_path):
        sink = repro.FindingsSink(tmp_path / "sink")
        assert sink.stats()["rows"] == 0

    def test_streaming_types_are_core_types(self):
        from repro.core.streaming import StreamingDetector, StreamingFinding
        assert repro.StreamingDetector is StreamingDetector
        assert repro.StreamingFinding is StreamingFinding

    def test_predict_entry_points_are_predict_package(self):
        from repro.predict import predict_outcome, sampled_outcome
        assert repro.predict_outcome is predict_outcome
        assert repro.sampled_outcome is sampled_outcome


class TestWorkloadAPINames:
    """The additive workload-registry names are the real objects."""

    def test_names_are_workloads_package_objects(self):
        from repro.workloads import (
            GroundTruth, Verdict, Workload, get_workload, iter_workloads,
        )
        assert repro.GroundTruth is GroundTruth
        assert repro.Verdict is Verdict
        assert repro.Workload is Workload
        assert repro.get_workload is get_workload
        assert repro.iter_workloads is iter_workloads

    def test_ground_truth_is_queryable(self):
        cls = repro.get_workload("linear_regression")
        truth = cls.ground_truth
        assert truth.verdict is repro.Verdict.FALSE_SHARING
        assert truth.significant

    def test_iter_workloads_filters(self):
        names = [cls.name
                 for cls in repro.iter_workloads(suite="concurrent")]
        assert "producer_consumer_ring" in names
        assert "linear_regression" not in names


class TestDeprecatedWorkloadFlags:
    """The old boolean pair still reads, derived from ground_truth,
    with a DeprecationWarning — on classes and on instances."""

    @pytest.mark.parametrize("attr", ["documented_false_sharing",
                                      "significant_false_sharing"])
    def test_class_access_warns(self, attr):
        cls = repro.get_workload("linear_regression")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = getattr(cls, attr)
        assert value is True
        assert any(issubclass(w.category, DeprecationWarning)
                   for w in caught)
        assert any("ground_truth" in str(w.message) for w in caught)

    def test_instance_access_warns_and_derives(self):
        cls = repro.get_workload("kmeans")
        workload = cls(num_threads=2, scale=0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert workload.documented_false_sharing is False
            assert workload.significant_false_sharing is False
        assert any(issubclass(w.category, DeprecationWarning)
                   for w in caught)

    def test_negligible_false_sharing_derivation(self):
        cls = repro.get_workload("histogram")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cls.documented_false_sharing is True
            assert cls.significant_false_sharing is False
