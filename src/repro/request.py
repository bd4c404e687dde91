"""One request object naming a run end-to-end: :class:`RunRequest`.

Before the v2 API, choosing *how* a run executes meant three ad-hoc
selection knobs scattered over two config dataclasses and the CLI:
``MachineConfig.kernel`` (burst kernel), ``MachineConfig.mode``
(simulate / predict / sampled) and ``CheetahConfig.detector_mode``
(offline / windowed) — plus the PMU period and adaptive switches living
in a third config. Every layer (CLI ``build_configs``, ``Session``, the
run service, and now the HTTP job body of ``repro serve``) re-assembled
those configs with its own plumbing.

:class:`RunRequest` collapses all of that into one frozen, validated,
JSON-round-trippable dataclass. Each layer builds *from* it:

- the CLI maps parsed flags onto a request
  (:func:`repro.config.build_configs` returns it in
  ``CLIConfigs.request``);
- ``Session.from_request(request)`` builds the API facade;
- ``RunService.run_request(request)`` resolves it to a
  content-addressed :class:`~repro.service.spec.RunSpec` and serves it
  cache-first;
- the ``repro serve`` daemon accepts its dict form as the
  ``POST /v1/jobs`` body (``{"request": {...}}``).

:func:`apply_knobs` is the one function that folds scalar knobs into
configs: :meth:`RunRequest.machine_config`, :meth:`~RunRequest.pmu_config`
and :meth:`~RunRequest.cheetah_config` call it, and so does
``Session.__init__`` for its ``detector_mode`` and ``adaptive``
arguments, so every spelling of one run resolves to one spec. A config
stays ``None`` while no knob touches it, which keeps
:meth:`~repro.service.spec.RunSpec.key` content hashes identical to
hand-built specs (``None`` configs canonicalize to their defaults).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.config import ConfigBase
from repro.core.profiler import CheetahConfig
from repro.errors import ConfigError
from repro.pmu.sampler import PMUConfig
from repro.sim.params import MachineConfig, check_cycles, check_jitter_seed

_KERNELS = ("fused", "vector", "auto")
_MODES = ("simulate", "predict", "sampled")
_DETECTORS = ("offline", "windowed")
#: The scalar knobs :func:`apply_knobs` folds, as named on RunRequest.
_KNOBS = ("kernel", "mode", "line_size", "cores", "numa_nodes",
          "remote_fetch_penalty", "remote_transfer_penalty", "period",
          "adaptive", "detector", "true_sharing")


def apply_knobs(machine: Optional[MachineConfig] = None,
                pmu: Optional[PMUConfig] = None,
                cheetah: Optional[CheetahConfig] = None, *,
                kernel: Optional[str] = None, mode: Optional[str] = None,
                line_size: Optional[int] = None, cores: Optional[int] = None,
                numa_nodes: Optional[int] = None,
                remote_fetch_penalty: Optional[int] = None,
                remote_transfer_penalty: Optional[int] = None,
                period: Optional[int] = None, adaptive: bool = False,
                detector: Optional[str] = None, true_sharing: bool = False,
                ) -> Tuple[Optional[MachineConfig], Optional[PMUConfig],
                           Optional[CheetahConfig]]:
    """The ``(machine, pmu, cheetah)`` configs with the scalar knobs
    (named as on :class:`RunRequest`) applied on top of the base ones.

    A base config is returned as given, ``None`` included, unless a knob
    sets one of its fields. ``adaptive=True`` enables the base
    ``pmu.adaptive`` policy, keeping its other fields, and counts
    hotness at the resolved machine's ``cache_line_size``.
    """
    changes = {name: value for name, value in (
        ("kernel", kernel), ("mode", mode), ("cache_line_size", line_size),
        ("num_cores", cores), ("numa_nodes", numa_nodes),
        ("remote_fetch_penalty", remote_fetch_penalty),
        ("remote_transfer_penalty", remote_transfer_penalty))
        if value is not None}
    if changes:
        machine = (machine or MachineConfig()).replace(**changes)
    if period is not None:
        pmu = (pmu or PMUConfig()).replace(period=period)
    if adaptive:
        pmu = pmu or PMUConfig()
        pmu = pmu.replace(adaptive=pmu.adaptive.replace(
            enabled=True,
            line_size=(machine or MachineConfig()).cache_line_size))
    changes = {}
    if detector is not None:
        changes["detector_mode"] = detector
    if true_sharing:
        changes["report_true_sharing"] = True
    if changes:
        cheetah = (cheetah or CheetahConfig()).replace(**changes)
    return machine, pmu, cheetah


@dataclass(frozen=True)
class RunRequest(ConfigBase):
    """Everything a caller states to run one workload, in one object.

    Attributes:
        workload: registry name (see ``repro list``).
        threads / scale / fixed / seed: workload construction knobs
            (``seed`` is the workload's rng seed).
        jitter_seed: the machine's timing-jitter seed.
        profile: attach the PMU and the Cheetah profiler. Profiling is
            also *implied* by any profiling-only knob below (``period``,
            ``adaptive``, ``detector``, ``true_sharing``, ``pmu``,
            ``cheetah``) — see :attr:`profiled` — mirroring the CLI,
            where ``--period``/``--detector``/``--adaptive`` switch a
            command into profiled mode.
        kernel: validated (``fused`` / ``vector`` / ``auto``) and kept
            in the content key for compatibility, but selects nothing
            (see ``MachineConfig.kernel``); ``None`` keeps the machine
            default.
        mode: execution mode (``simulate`` / ``predict`` / ``sampled``);
            ``None`` keeps the machine default.
        detector: detection mode (``offline`` / ``windowed``); ``None``
            keeps the Cheetah default.
        adaptive: enable the adaptive PMU sampling policy (the
            ``pmu.adaptive`` one, counting hotness at the machine's
            cache-line size; see :func:`apply_knobs`).
        period: PMU sampling period in instructions.
        true_sharing: include true-sharing instances in the report.
        line_size / cores: machine geometry overrides.
        numa_nodes / remote_fetch_penalty / remote_transfer_penalty:
            NUMA topology overrides (see
            :class:`~repro.sim.params.MachineConfig`); ``None`` keeps
            the machine default (single node, no penalties).
        machine / pmu / cheetah: full config overrides; the scalar knobs
            above are applied *on top* of them (an explicit ``kernel``
            wins over ``machine.kernel``).
    """

    workload: str
    threads: Optional[int] = None
    scale: float = 1.0
    fixed: bool = False
    seed: int = 0
    jitter_seed: int = 0xC0FFEE
    profile: bool = False
    kernel: Optional[str] = None
    mode: Optional[str] = None
    detector: Optional[str] = None
    adaptive: bool = False
    period: Optional[int] = None
    true_sharing: bool = False
    line_size: Optional[int] = None
    cores: Optional[int] = None
    numa_nodes: Optional[int] = None
    remote_fetch_penalty: Optional[int] = None
    remote_transfer_penalty: Optional[int] = None
    machine: Optional[MachineConfig] = None
    pmu: Optional[PMUConfig] = None
    cheetah: Optional[CheetahConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise ConfigError(
                "RunRequest.workload must be a non-empty registry name, "
                f"got {self.workload!r}")
        self._check_field_types()
        if self.kernel is not None and self.kernel not in _KERNELS:
            raise ConfigError(
                f"kernel must be one of {_KERNELS}, got {self.kernel!r}")
        if self.mode is not None and self.mode not in _MODES:
            raise ConfigError(
                f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.detector is not None and self.detector not in _DETECTORS:
            raise ConfigError(
                f"detector must be one of {_DETECTORS}, "
                f"got {self.detector!r}")
        check_jitter_seed(self.jitter_seed)
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.period is not None and self.period < 1:
            raise ConfigError(f"period must be >= 1, got {self.period}")
        if self.numa_nodes is not None and self.numa_nodes < 1:
            raise ConfigError(
                f"numa_nodes must be >= 1, got {self.numa_nodes}")
        for name in ("remote_fetch_penalty", "remote_transfer_penalty"):
            value = getattr(self, name)
            if value is not None:
                check_cycles(name, value)

    # -- derived state -------------------------------------------------------

    @property
    def profiled(self) -> bool:
        """Whether this request runs under the PMU + Cheetah.

        True when ``profile`` is set explicitly or any profiling-only
        knob is present.
        """
        return bool(self.profile or self.period is not None or self.adaptive
                    or self.detector is not None or self.true_sharing
                    or self.pmu is not None or self.cheetah is not None)

    def _configs(self) -> Tuple[Optional[MachineConfig], Optional[PMUConfig],
                                Optional[CheetahConfig]]:
        return apply_knobs(self.machine, self.pmu, self.cheetah,
                           **{name: getattr(self, name) for name in _KNOBS})

    def machine_config(self) -> Optional[MachineConfig]:
        """The machine config this request names, or ``None`` for the
        defaults (``None`` and ``MachineConfig()`` hash identically in a
        :class:`~repro.service.spec.RunSpec`)."""
        return self._configs()[0]

    def pmu_config(self) -> Optional[PMUConfig]:
        """The PMU config, or ``None`` for the defaults."""
        return self._configs()[1]

    def cheetah_config(self) -> Optional[CheetahConfig]:
        """The Cheetah config, or ``None`` for the defaults."""
        return self._configs()[2]

    # -- the three resolutions every layer shares ----------------------------

    def to_spec(self):
        """The content-addressed :class:`~repro.service.spec.RunSpec`."""
        from repro.service.spec import RunSpec
        machine, pmu, cheetah = self._configs()
        return RunSpec(
            workload=self.workload, threads=self.threads, scale=self.scale,
            fixed=self.fixed, workload_seed=self.seed,
            jitter_seed=self.jitter_seed, with_cheetah=self.profiled,
            machine=machine, pmu=pmu, cheetah=cheetah)

    def session(self, *, obs: Any = None, observer: Any = None,
                check: bool = False):
        """A :class:`~repro.api.Session` configured from this request.

        ``obs`` / ``observer`` / ``check`` are execution-observation
        concerns, not part of the request's content-addressed identity,
        so they stay arguments rather than fields.
        """
        from repro.api import Session
        machine, pmu, cheetah = self._configs()
        return Session(
            self.workload, threads=self.threads, scale=self.scale,
            fixed=self.fixed, seed=self.seed, jitter_seed=self.jitter_seed,
            machine=machine, pmu=pmu, cheetah=cheetah, obs=obs,
            observer=observer, check=check)

    def execute(self):
        """Run this request directly (no cache): the daemon's miss path
        and the CLI's ``--no-cache`` path resolve to the same call."""
        return self.to_spec().execute()
