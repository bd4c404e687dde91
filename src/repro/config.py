"""Shared configuration conventions for every public config dataclass.

All four user-facing configuration dataclasses — ``MachineConfig``,
``PMUConfig``, ``DetectorConfig`` and ``CheetahConfig`` (plus their
nested ``LatencyModel`` / ``AssessmentConfig`` members and the
observability ``ObsConfig``) — share one construction convention,
provided by :class:`ConfigBase`:

- ``Cls.from_dict(data)`` builds a config from a plain mapping,
  recursing into nested config dataclasses, rejecting unknown keys with
  :class:`~repro.errors.ConfigError`, and running the class's own
  ``__post_init__`` validation;
- ``cfg.to_dict()`` produces the inverse plain-dict form (nested
  configs become nested dicts), suitable for JSON round-tripping;
- ``cfg.replace(**changes)`` is :func:`dataclasses.replace` spelled as
  a method, so callers need not import ``dataclasses`` to vary one
  field.

The CLI builds all of its configs through :func:`build_configs`, one
helper mapping a parsed ``argparse`` namespace onto the config objects
instead of ad-hoc kwargs plumbing per subcommand.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigError


class ConfigBase:
    """Mixin giving config dataclasses ``from_dict``/``to_dict``/``replace``.

    Subclasses must be dataclasses; construction-time validation lives in
    each subclass's ``__post_init__`` and is exercised by every
    ``from_dict`` call (a dict that decodes to an invalid config raises
    :class:`~repro.errors.ConfigError` exactly like direct construction).
    """

    @classmethod
    def _field_types(cls) -> Dict[str, Any]:
        # ``from __future__ import annotations`` turns field types into
        # strings; resolve them so nested config dataclasses can be
        # detected. Fall back to the raw annotations when resolution
        # fails (e.g. names only available under TYPE_CHECKING).
        try:
            return typing.get_type_hints(cls)
        except Exception:  # pragma: no cover - defensive
            return {f.name: f.type for f in dataclasses.fields(cls)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConfigBase":
        """Build a validated config from a plain mapping.

        Unknown keys raise :class:`~repro.errors.ConfigError`; values for
        fields that are themselves config dataclasses may be given as
        nested mappings and are converted recursively.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"{cls.__name__}.from_dict expects a mapping, "
                f"got {type(data).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(fields))})")
        hints = cls._field_types()
        kwargs: Dict[str, Any] = {}
        for name in fields:
            if name not in data:
                continue
            value = data[name]
            ftype = hints.get(name)
            if (isinstance(value, Mapping) and isinstance(ftype, type)
                    and dataclasses.is_dataclass(ftype)):
                if issubclass(ftype, ConfigBase):
                    value = ftype.from_dict(value)
                else:  # pragma: no cover - all nested configs use the mixin
                    value = ftype(**value)
            kwargs[name] = value
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; nested config dataclasses become nested dicts."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            if not f.init:
                continue
            value = getattr(self, f.name)
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                value = (value.to_dict() if isinstance(value, ConfigBase)
                         else dataclasses.asdict(value))
            out[f.name] = value
        return out

    def replace(self, **changes: Any) -> "ConfigBase":
        """A new config with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class CLIConfigs:
    """Everything :func:`build_configs` derives from a CLI namespace."""

    workload_kwargs: Dict[str, Any]
    jitter_seed: int
    machine: Optional[Any]  # MachineConfig
    pmu: Optional[Any]      # PMUConfig
    cheetah: Optional[Any]  # CheetahConfig
    obs: Optional[Any]      # ObsConfig
    cache_enabled: bool = True
    cache_dir: Optional[str] = None  # None: repro.service.default_cache_dir
    jobs: Optional[int] = None
    check: bool = False  # run under the coherence sanitizer
    #: The unified :class:`repro.request.RunRequest` the configs above
    #: were derived from; None for subcommands without a workload.
    request: Optional[Any] = None


def build_configs(args: Any) -> CLIConfigs:
    """Map a parsed CLI namespace onto the public config dataclasses.

    Every ``repro`` subcommand that runs a workload funnels its arguments
    through here, so flag-to-config wiring lives in exactly one place.
    Missing attributes fall back to their defaults, which lets commands
    with different flag subsets share the helper.
    """
    # Local imports: this module sits below the config-owning packages in
    # the import graph (sim.params and friends import ConfigBase from
    # here), so importing them at module load would be circular.
    from repro.obs.config import ObsConfig
    from repro.request import RunRequest

    def get(name: str, default: Any = None) -> Any:
        return getattr(args, name, default)

    workload_kwargs: Dict[str, Any] = {
        "num_threads": get("threads"),
        "scale": get("scale", 1.0),
        "fixed": bool(get("fixed", False)),
    }

    line_size = get("line_size")
    cores = get("cores")
    mode = get("mode")
    check = bool(get("check", False))
    want_trace = bool(get("trace")) or get("command") == "trace"
    want_metrics = bool(get("metrics")) or get("command") == "metrics"

    # Execution-mode sanity: the analytical modes skip (most of) the full
    # simulation, so flags that need to observe every access of the real
    # run cannot mean anything. Reject the combination here — with the
    # flag spellings the user typed — instead of deep in the run layer.
    if mode is not None and mode != "simulate":
        if mode == "predict" and check:
            raise ConfigError(
                "--mode predict cannot be combined with --check: "
                "prediction performs no full simulation for the "
                "sanitizer to shadow; use --mode sampled (bursts run "
                "under the sanitizer) or --mode simulate")
        if want_trace or want_metrics:
            offender = "--trace" if want_trace else "--metrics"
            command = get("command")
            if command in ("trace", "metrics"):
                offender = f"the '{command}' command"
            raise ConfigError(
                f"--mode {mode} cannot be combined with {offender}: "
                "predicted runs have no full simulation timeline to "
                "observe; use --mode simulate")

    # Every selection knob funnels through one RunRequest; the configs
    # below are *derived* from it, so the CLI, Session, RunService and
    # the serve daemon's HTTP body all resolve knobs identically.
    # Subcommands without a workload (experiment, cache, ...) share the
    # derivation through a placeholder request that is not exposed.
    workload = get("workload")
    command = get("command")
    request = RunRequest(
        workload=workload if isinstance(workload, str) and workload else "_",
        threads=workload_kwargs["num_threads"],
        scale=workload_kwargs["scale"],
        fixed=workload_kwargs["fixed"],
        seed=0,
        jitter_seed=get("seed", 0xC0FFEE),
        profile=(bool(get("profile", False))
                 or command in ("profile", "predict")),
        mode=mode,
        detector=get("detector"),
        adaptive=bool(get("adaptive", False)),
        period=get("period") or None,
        true_sharing=bool(get("true_sharing", False)),
        line_size=line_size,
        cores=cores,
        numa_nodes=get("numa_nodes"),
        remote_fetch_penalty=get("remote_fetch_penalty"),
        remote_transfer_penalty=get("remote_transfer_penalty"),
    )
    machine = request.machine_config()
    pmu = request.pmu_config()
    cheetah = request.cheetah_config()

    obs = None
    if want_trace or want_metrics:
        obs = ObsConfig(
            trace=want_trace,
            metrics=want_metrics,
            trace_accesses=bool(get("accesses", False)),
            max_events=get("max_events") or ObsConfig.max_events,
        )

    return CLIConfigs(
        workload_kwargs=workload_kwargs,
        jitter_seed=get("seed", 0xC0FFEE),
        machine=machine,
        pmu=pmu,
        cheetah=cheetah,
        obs=obs,
        cache_enabled=bool(get("cache", True)),
        cache_dir=get("cache_dir"),
        jobs=get("jobs"),
        check=check,
        request=request if request.workload != "_" else None,
    )
