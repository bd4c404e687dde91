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

The collapse is *lossless*: :meth:`machine_config`,
:meth:`pmu_config` and :meth:`cheetah_config` produce exactly the
configs the pre-v2 plumbing would have built, returning ``None`` when
every corresponding knob is at its default — which keeps
:meth:`~repro.service.spec.RunSpec.key` content hashes identical to
hand-built specs (``None`` configs canonicalize to their defaults).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.config import ConfigBase
from repro.core.profiler import CheetahConfig
from repro.errors import ConfigError
from repro.pmu.adaptive import AdaptiveConfig
from repro.pmu.sampler import PMUConfig
from repro.sim.params import MachineConfig

_KERNELS = ("fused", "vector", "auto")
_MODES = ("simulate", "predict", "sampled")
_DETECTORS = ("offline", "windowed")


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
        adaptive: enable the adaptive PMU sampling policy.
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
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")

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

    def machine_config(self) -> Optional[MachineConfig]:
        """The machine config this request names, or ``None`` for the
        defaults (``None`` and ``MachineConfig()`` hash identically in a
        :class:`~repro.service.spec.RunSpec`)."""
        if (self.machine is None and self.kernel is None and self.mode is None
                and self.line_size is None and self.cores is None
                and self.numa_nodes is None
                and self.remote_fetch_penalty is None
                and self.remote_transfer_penalty is None):
            return None
        base = self.machine or MachineConfig()
        changes: Dict[str, Any] = {}
        if self.kernel is not None:
            changes["kernel"] = self.kernel
        if self.mode is not None:
            changes["mode"] = self.mode
        if self.line_size is not None:
            changes["cache_line_size"] = self.line_size
        if self.cores is not None:
            changes["num_cores"] = self.cores
        if self.numa_nodes is not None:
            changes["numa_nodes"] = self.numa_nodes
        if self.remote_fetch_penalty is not None:
            changes["remote_fetch_penalty"] = self.remote_fetch_penalty
        if self.remote_transfer_penalty is not None:
            changes["remote_transfer_penalty"] = self.remote_transfer_penalty
        return base.replace(**changes) if changes else base

    def pmu_config(self) -> Optional[PMUConfig]:
        """The PMU config, or ``None`` for the defaults."""
        if self.pmu is None and self.period is None and not self.adaptive:
            return None
        base = self.pmu or PMUConfig()
        if self.period is not None:
            base = base.replace(period=self.period)
        if self.adaptive:
            line = (self.line_size if self.line_size is not None
                    else MachineConfig().cache_line_size)
            base = base.replace(
                adaptive=AdaptiveConfig(enabled=True, line_size=line))
        return base

    def cheetah_config(self) -> Optional[CheetahConfig]:
        """The Cheetah config, or ``None`` for the defaults."""
        if (self.cheetah is None and self.detector is None
                and not self.true_sharing):
            return None
        base = self.cheetah or CheetahConfig()
        changes: Dict[str, Any] = {}
        if self.detector is not None:
            changes["detector_mode"] = self.detector
        if self.true_sharing:
            changes["report_true_sharing"] = True
        return base.replace(**changes) if changes else base

    # -- the three resolutions every layer shares ----------------------------

    def to_spec(self):
        """The content-addressed :class:`~repro.service.spec.RunSpec`."""
        from repro.service.spec import RunSpec
        return RunSpec(
            workload=self.workload, threads=self.threads, scale=self.scale,
            fixed=self.fixed, workload_seed=self.seed,
            jitter_seed=self.jitter_seed, with_cheetah=self.profiled,
            machine=self.machine_config(), pmu=self.pmu_config(),
            cheetah=self.cheetah_config())

    def session(self, *, obs: Any = None, observer: Any = None,
                check: bool = False):
        """A :class:`~repro.api.Session` configured from this request.

        ``obs`` / ``observer`` / ``check`` are execution-observation
        concerns, not part of the request's content-addressed identity,
        so they stay arguments rather than fields.
        """
        from repro.api import Session
        return Session(
            self.workload, threads=self.threads, scale=self.scale,
            fixed=self.fixed, seed=self.seed, jitter_seed=self.jitter_seed,
            machine=self.machine_config(), pmu=self.pmu_config(),
            cheetah=self.cheetah_config(), obs=obs, observer=observer,
            check=check)

    def execute(self):
        """Run this request directly (no cache): the daemon's miss path
        and the CLI's ``--no-cache`` path resolve to the same call."""
        return self.to_spec().execute()

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRequest":
        """Build a request from a plain mapping (the HTTP body form).

        Nested ``machine`` / ``pmu`` / ``cheetah`` mappings decode
        through their own ``from_dict`` (their ``Optional[...]`` field
        types defeat :class:`ConfigBase`'s automatic recursion).
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"RunRequest.from_dict expects a mapping, "
                f"got {type(data).__name__}")
        converted = dict(data)
        for name, config_cls in (("machine", MachineConfig),
                                 ("pmu", PMUConfig),
                                 ("cheetah", CheetahConfig)):
            value = converted.get(name)
            if isinstance(value, Mapping):
                converted[name] = config_cls.from_dict(value)
        return super().from_dict(converted)  # type: ignore[return-value]
