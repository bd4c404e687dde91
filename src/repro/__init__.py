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

from repro.api import Session
from repro.core.detection import DetectorConfig
from repro.core.profiler import CheetahConfig, CheetahReport
from repro.core.streaming import (
    StreamingConfig,
    StreamingDetector,
    StreamingFinding,
)
from repro.errors import ReproError
from repro.obs import ObsConfig
from repro.pmu.sampler import PMUConfig
from repro.predict import predict_outcome, sampled_outcome
from repro.request import RunRequest
from repro.run import DEFAULT_SEEDS, RunOutcome, RunSummary, run_workload
from repro.service import (
    JobFailure,
    ResultStore,
    RunService,
    RunSpec,
    Scheduler,
    cached_run,
    default_cache_dir,
    using_service,
)
from repro.service.daemon import ServeConfig
from repro.service.sink import FindingsSink
from repro.sim.params import LatencyModel, MachineConfig
from repro.workloads import (
    GroundTruth,
    Verdict,
    Workload,
    get_workload,
    iter_workloads,
)

__version__ = "2.1.0"

#: Version of the frozen public surface (not the package version).
#: Bumped when a name is removed or renamed; purely additive extensions
#: (the workload-registry names below) keep the version and are pinned
#: separately by ``tests/test_public_api.py``.
__api_version__ = 2

__all__ = [
    "CheetahConfig",
    "CheetahReport",
    "DEFAULT_SEEDS",
    "DetectorConfig",
    "FindingsSink",
    "GroundTruth",
    "JobFailure",
    "LatencyModel",
    "MachineConfig",
    "ObsConfig",
    "PMUConfig",
    "ReproError",
    "ResultStore",
    "RunOutcome",
    "RunRequest",
    "RunService",
    "RunSpec",
    "RunSummary",
    "Scheduler",
    "ServeConfig",
    "Session",
    "StreamingConfig",
    "StreamingDetector",
    "StreamingFinding",
    "Verdict",
    "Workload",
    "cached_run",
    "default_cache_dir",
    "get_workload",
    "iter_workloads",
    "predict_outcome",
    "run_workload",
    "sampled_outcome",
    "using_service",
    "__api_version__",
    "__version__",
]

