"""One front door for the whole reproduction: :class:`Session`.

Instead of importing from five subpackages (engine from ``repro.sim``,
PMU from ``repro.pmu``, profiler from ``repro.core``, runner from
``repro.run``, workloads from ``repro.workloads``), a user states *what*
to run and *how* once, and asks for results::

    from repro.api import Session

    session = Session("linear_regression", threads=8)
    outcome = session.profile()          # PMU + Cheetah attached
    print(session.report().render())

    from repro.obs import ObsConfig
    traced = Session("histogram", threads=4, obs=ObsConfig())
    outcome = traced.run()               # outcome.obs has trace + metrics

The session accepts a workload in any of four shapes: a registry name
(``"histogram"``), a :class:`~repro.workloads.base.Workload` subclass, a
ready-made instance, or a bare generator function taking the thread API.
For names and classes, a *fresh* workload instance is built per run —
workload objects carry a mutable ``rng``, so reusing one across runs
would change its access stream. A pre-built instance is used as-is
(run it once, or accept that a second run continues its rng stream).

Results are computed lazily and cached: ``.run()`` and ``.profile()``
each execute at most once per session. The memo is keyed by the
*content* of the session's configuration (the
:meth:`repro.service.RunSpec.key` hash), not by session identity, so two
equal sessions share one result — and when an ambient
:class:`repro.service.RunService` is active, that shared result lives in
its persistent store. Sessions with an observer, a coherence check, an
observability collector, or a non-registry workload always execute.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.context import current
from repro.core.detection import DetectorConfig
from repro.core.profiler import CheetahConfig, CheetahReport
from repro.errors import ConfigError
from repro.obs import ObsConfig, Observability
from repro.pmu.sampler import PMUConfig
from repro.request import apply_knobs
from repro.run import RunOutcome, run_workload
from repro.service import RunSpec, spec_for_workload_cls
from repro.sim.engine import Observer
from repro.sim.params import MachineConfig
from repro.workloads import Workload, get_workload

#: In-process memo shared by every Session without an ambient service,
#: keyed by RunSpec content hash. Bounded: oldest entries fall out first.
_MEMO: Dict[str, RunOutcome] = {}
_MEMO_MAX = 64


def _memo_put(key: str, outcome: RunOutcome) -> None:
    while len(_MEMO) >= _MEMO_MAX:
        _MEMO.pop(next(iter(_MEMO)))
    _MEMO[key] = outcome


def clear_session_memo() -> None:
    """Drop the in-process Session result memo (tests, long processes)."""
    _MEMO.clear()


class _CallableWorkload(Workload):
    """Adapter wrapping a bare generator function as a Workload."""

    suite = "adhoc"

    def __init__(self, fn: Callable[..., Any], num_threads: Optional[int],
                 scale: float, fixed: bool, seed: int):
        super().__init__(num_threads=num_threads, scale=scale, fixed=fixed,
                         seed=seed)
        self.name = getattr(fn, "__name__", "callable")
        self._fn = fn

    def main(self, api) -> Any:
        return self._fn(api)


class Session:
    """A configured (workload, machine, profiling, observability) bundle.

    Args:
        workload: registry name, Workload subclass, Workload instance,
            or a generator function ``fn(api)``.
        threads/scale/fixed/seed: workload construction knobs; only legal
            when the session builds the workload itself (name, class or
            function form) — passing them with a ready-made instance
            raises :class:`~repro.errors.ConfigError`.
        jitter_seed: the machine's timing-jitter seed (run-to-run
            hardware variation).
        machine: :class:`~repro.sim.params.MachineConfig`.
        pmu: :class:`~repro.pmu.sampler.PMUConfig` (profiled runs).
        detector: :class:`~repro.core.detection.DetectorConfig`; folded
            into ``cheetah`` (mutually exclusive with a ``cheetah`` that
            already carries a non-default detector is fine — ``detector``
            wins).
        cheetah: full :class:`~repro.core.profiler.CheetahConfig`.
        detector_mode: ``"offline"`` or ``"windowed"``; folded into
            ``cheetah`` (like ``detector``, the explicit kwarg wins).
        adaptive: ``True`` enables the ``pmu.adaptive`` policy (default
            knobs unless ``pmu`` sets them), counting hotness at the
            machine's cache-line size; folded, like ``detector_mode``,
            by :func:`repro.request.apply_knobs`, as RunRequest's are.
        obs: :class:`~repro.obs.ObsConfig` (each run gets its own
            collector) or a single unwired
            :class:`~repro.obs.Observability`.
        observer: full-instrumentation :class:`~repro.sim.engine.Observer`
            (Predator-style baselines, or a bare ``Tracer``).
        check: run under the coherence sanitizer.
    """

    def __init__(self, workload: Union[str, type, Workload, Callable], *,
                 threads: Optional[int] = None,
                 scale: float = 1.0,
                 fixed: bool = False,
                 seed: int = 0,
                 jitter_seed: int = 0xC0FFEE,
                 machine: Optional[MachineConfig] = None,
                 pmu: Optional[PMUConfig] = None,
                 detector: Optional[DetectorConfig] = None,
                 cheetah: Optional[CheetahConfig] = None,
                 detector_mode: Optional[str] = None,
                 adaptive: bool = False,
                 obs: Optional[Union[ObsConfig, Observability]] = None,
                 observer: Optional[Observer] = None,
                 check: bool = False):
        overrides = (threads is not None or scale != 1.0 or fixed
                     or seed != 0)
        # Remembered for content-hash memoization: only sessions that
        # build a registry workload themselves have a well-defined
        # RunSpec (instances carry hidden rng state; ad-hoc callables
        # carry arbitrary code).
        self._workload_cls: Optional[type] = None
        self._build_kwargs: Dict[str, Any] = dict(
            num_threads=threads, scale=scale, fixed=fixed, seed=seed)
        if isinstance(workload, Workload):
            if overrides:
                raise ConfigError(
                    "threads/scale/fixed/seed can only be passed when the "
                    "Session builds the workload; configure the instance "
                    "directly instead")
            instance = workload
            self._make_workload = lambda: instance
        elif isinstance(workload, type) and issubclass(workload, Workload):
            cls = workload
            self._workload_cls = cls
            self._make_workload = lambda: cls(
                num_threads=threads, scale=scale, fixed=fixed, seed=seed)
        elif isinstance(workload, str):
            cls = get_workload(workload)
            self._workload_cls = cls
            self._make_workload = lambda: cls(
                num_threads=threads, scale=scale, fixed=fixed, seed=seed)
        elif callable(workload):
            fn = workload
            self._make_workload = lambda: _CallableWorkload(
                fn, num_threads=threads, scale=scale, fixed=fixed, seed=seed)
        else:
            raise ConfigError(
                f"workload must be a name, Workload class/instance or "
                f"generator function, got {type(workload).__name__}")
        if detector is not None:
            cheetah = (cheetah or CheetahConfig()).replace(detector=detector)
        machine, pmu, cheetah = apply_knobs(
            machine, pmu, cheetah, detector=detector_mode, adaptive=adaptive)
        self.jitter_seed = jitter_seed
        self.machine = machine
        self.pmu = pmu
        self.cheetah = cheetah
        self.obs = obs
        self.observer = observer
        self.check = check
        self._run_outcome: Optional[RunOutcome] = None
        self._profile_outcome: Optional[RunOutcome] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_request(cls, request: Any, *,
                     obs: Optional[Union[ObsConfig, Observability]] = None,
                     observer: Optional[Observer] = None,
                     check: bool = False) -> "Session":
        """A session configured from a :class:`repro.request.RunRequest`.

        The v2 front door: the request carries every selection knob
        (kernel, mode, detector, sampling) in one object; observation
        concerns (``obs``/``observer``/``check``) stay per-session
        because they are not part of a run's content-addressed identity.
        """
        from repro.request import RunRequest
        if not isinstance(request, RunRequest):
            raise ConfigError(
                f"Session.from_request expects a RunRequest, "
                f"got {type(request).__name__}")
        return request.session(obs=obs, observer=observer, check=check)

    # -- execution -------------------------------------------------------------

    def run(self) -> RunOutcome:
        """Native run (no PMU, no profiler); cached."""
        if self._run_outcome is None:
            self._run_outcome = self._execute(with_cheetah=False)
        return self._run_outcome

    def profile(self) -> RunOutcome:
        """Profiled run (PMU + Cheetah attached); cached."""
        if self._profile_outcome is None:
            self._profile_outcome = self._execute(with_cheetah=True)
        return self._profile_outcome

    def report(self) -> CheetahReport:
        """The Cheetah report of the profiled run."""
        outcome = self.profile()
        assert outcome.report is not None
        return outcome.report

    def _spec(self, with_cheetah: bool) -> Optional[RunSpec]:
        """The content-addressed spec of this run, or None if uncacheable.

        Sessions that watch the simulation happen (observer, obs
        collector, coherence check) and sessions whose workload is not a
        canonical registry class have no spec: they must execute.
        """
        if (self._workload_cls is None or self.observer is not None
                or self.obs is not None or self.check):
            return None
        return spec_for_workload_cls(
            self._workload_cls,
            jitter_seed=self.jitter_seed,
            with_cheetah=with_cheetah,
            machine_config=self.machine,
            pmu_config=self.pmu,
            cheetah_config=self.cheetah,
            **self._build_kwargs)

    def _execute(self, with_cheetah: bool) -> RunOutcome:
        spec = self._spec(with_cheetah)
        context = current()
        if spec is not None and context.obs is None:
            if context.cache is not None:
                return context.cache.run(spec)
            key = spec.key()
            cached = _MEMO.get(key)
            if cached is not None:
                return cached
            outcome = self._execute_direct(with_cheetah)
            _memo_put(key, outcome)
            return outcome
        return self._execute_direct(with_cheetah)

    def _execute_direct(self, with_cheetah: bool) -> RunOutcome:
        return run_workload(
            self._make_workload(),
            machine_config=self.machine,
            jitter_seed=self.jitter_seed,
            pmu_config=self.pmu,
            with_cheetah=with_cheetah,
            cheetah_config=self.cheetah,
            observer=self.observer,
            check=self.check,
            obs=self.obs,
        )
