"""Reproduction of "Cheetah: Detecting False Sharing Efficiently and
Effectively" (Liu & Liu, CGO 2016) on a simulated multicore substrate.

Quick start::

    from repro import Session

    session = Session("linear_regression", threads=8)
    print(session.report().render())

The package layers:

- ``repro.sim`` / ``repro.runtime`` / ``repro.heap`` / ``repro.pmu`` /
  ``repro.symbols`` — the simulated hardware and runtime substrate;
- ``repro.core`` — Cheetah itself (detection, assessment, reporting);
- ``repro.baselines`` — Predator-style full instrumentation and the
  Zhao et al. ownership rule;
- ``repro.workloads`` — synthetic Phoenix/PARSEC benchmarks;
- ``repro.experiments`` — regeneration of every table and figure in the
  paper's evaluation;
- ``repro.service`` — the persistent run service (content-addressed
  result cache + resilient job scheduler).

Public API (v2)
---------------

``__all__`` below is the frozen v2 surface (``repro.__api_version__``),
pinned by ``tests/test_public_api.py`` and documented in ``docs/api.md``.
Each name is bound on first use from its defining module (``_SOURCES``),
so ``import repro.run`` costs no more than that module's own imports.
v2 is a strict superset of v1 — nothing was removed. New in v2: the
unified :class:`~repro.request.RunRequest` front door (one object
collapsing the kernel/mode/detector selection knobs every layer used to
re-assemble), the streaming detector types, the analytical entry points
(``predict_outcome`` / ``sampled_outcome``), and the serve-daemon pieces
(:class:`~repro.service.daemon.ServeConfig`,
:class:`~repro.service.sink.FindingsSink`).

The workload-registry API rides on v2 *additively*: the v2 names are
frozen verbatim, and the redesigned ground-truth surface
(:class:`~repro.workloads.GroundTruth`,
:class:`~repro.workloads.Verdict`, :class:`~repro.workloads.Workload`,
:func:`~repro.workloads.get_workload`,
:func:`~repro.workloads.iter_workloads`) extends it without touching
anything a v2 caller imports. The old ``Workload`` boolean pair
(``documented_false_sharing`` / ``significant_false_sharing``) still
reads, derived from ``ground_truth`` with a :class:`DeprecationWarning`.

Everything else is internal and imports from its defining submodule.
The pre-v1 names that used to resolve here (``profile``, ``run_plain``
and the raw substrate classes) are retired; ``docs/api.md`` names the
replacement for each.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "2.1.0"

#: Version of the frozen public surface (not the package version).
#: Bumped when a name is removed or renamed; purely additive extensions
#: (the workload-registry names below) keep the version and are pinned
#: separately by ``tests/test_public_api.py``.
__api_version__ = 2

#: Each public name and the module that defines it; ``__getattr__``
#: imports that module the first time the name is read.
_SOURCES = {
    "CheetahConfig": "repro.core.profiler",
    "CheetahReport": "repro.core.profiler",
    "DEFAULT_SEEDS": "repro.run",
    "DetectorConfig": "repro.core.detection",
    "FindingsSink": "repro.service.sink",
    "GroundTruth": "repro.workloads",
    "JobFailure": "repro.service",
    "LatencyModel": "repro.sim.params",
    "MachineConfig": "repro.sim.params",
    "ObsConfig": "repro.obs",
    "PMUConfig": "repro.pmu.sampler",
    "ReproError": "repro.errors",
    "ResultStore": "repro.service",
    "RunOutcome": "repro.run",
    "RunRequest": "repro.request",
    "RunService": "repro.service",
    "RunSpec": "repro.service",
    "RunSummary": "repro.run",
    "Scheduler": "repro.service",
    "ServeConfig": "repro.service.daemon",
    "Session": "repro.api",
    "StreamingConfig": "repro.core.streaming",
    "StreamingDetector": "repro.core.streaming",
    "StreamingFinding": "repro.core.streaming",
    "Verdict": "repro.workloads",
    "Workload": "repro.workloads",
    "cached_run": "repro.service",
    "default_cache_dir": "repro.service",
    "get_workload": "repro.workloads",
    "iter_workloads": "repro.workloads",
    "predict_outcome": "repro.predict",
    "run_workload": "repro.run",
    "sampled_outcome": "repro.predict",
    "using_service": "repro.service",
}

__all__ = [*_SOURCES, "__api_version__", "__version__"]


def __getattr__(name: str):
    """Bind public ``name`` on first use (PEP 562); nothing else resolves."""
    if name not in _SOURCES:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_SOURCES[name]), name)
    return value


def __dir__():
    return sorted(set(globals()).union(__all__))
