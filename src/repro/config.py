"""Shared configuration conventions for every public config dataclass.

All four user-facing configuration dataclasses — ``MachineConfig``,
``PMUConfig``, ``DetectorConfig`` and ``CheetahConfig`` (plus their
nested ``LatencyModel`` / ``AssessmentConfig`` members and the
observability ``ObsConfig``) — share one construction convention,
provided by :class:`ConfigBase`:

- ``Cls.from_dict(data)`` builds a config from a plain mapping,
  recursing into nested config dataclasses (``Optional`` ones too),
  rejecting unknown keys and values of the wrong type with
  :class:`~repro.errors.ConfigError`, and running the class's own
  ``__post_init__`` validation;
- ``cfg.to_dict()`` produces the inverse plain-dict form (nested
  configs become nested dicts), suitable for JSON round-tripping;
- ``cfg.replace(**changes)`` is :func:`dataclasses.replace` spelled as
  a method, so callers need not import ``dataclasses`` to vary one
  field.

The CLI maps each parsed ``argparse`` namespace through
:func:`build_configs`, which returns the command's
:class:`~repro.request.RunRequest` (when it names a workload), its
observability config and its coherence-check flag; the request alone
turns run knobs into configs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Tuple[Any, bool]]:
    """Each init field of dataclass ``cls`` as ``name -> (type,
    optional)``, with ``Optional[X]`` unwrapped to ``(X, True)``.

    ``from __future__ import annotations`` turns field types into
    strings; they are resolved once per class. When resolution fails,
    the raw annotation strings stand in.
    """
    try:
        hints = typing.get_type_hints(cls)
    except Exception:  # pragma: no cover - defensive
        hints = {}
    types = {}
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        hint = hints.get(f.name, f.type)
        args = typing.get_args(hint)
        optional = (typing.get_origin(hint) is typing.Union
                    and len(args) == 2 and type(None) in args)
        if optional:
            hint = args[0] if args[1] is type(None) else args[1]
        types[f.name] = (hint, optional)
    return types


def _type_ok(ftype: Any, value: Any) -> bool:
    if ftype in (bool, int):
        return type(value) is ftype  # an int field refuses a bool
    if ftype is float:
        return type(value) is int or (type(value) is float
                                      and math.isfinite(value))
    args = typing.get_args(ftype)
    if typing.get_origin(ftype) is tuple and args[1:] == (Ellipsis,):
        # JSON arrays decode to lists; __post_init__ makes them tuples.
        return (isinstance(value, (list, tuple))
                and all(_type_ok(args[0], item) for item in value))
    return not isinstance(ftype, type) or isinstance(value, ftype)


def _check_type(owner: str, name: str, ftype: Any, optional: bool,
                value: Any) -> None:
    """Raise :class:`ConfigError` unless ``value`` suits field type
    ``ftype``: a ``bool`` field takes a bool, an ``int`` field an int
    that is not a bool, a ``float`` field an int or a finite float, a
    ``Tuple[X, ...]`` field a list or tuple of X, any other class an
    instance of it (other generic hints go unchecked); an ``optional``
    field also takes ``None``."""
    if (value is None and optional) or _type_ok(ftype, value):
        return
    what = {bool: "a bool", int: "an int", float: "a finite number",
            str: "a string"}.get(ftype) or (
                f"a list of {typing.get_args(ftype)[0].__name__}"
                if typing.get_origin(ftype) is tuple
                else f"a {ftype.__name__}")
    raise ConfigError(f"{owner}.{name} must be {what}"
                      f"{' or null' if optional else ''}, got {value!r}")


class ConfigBase:
    """Mixin giving config dataclasses ``from_dict``/``to_dict``/``replace``.

    Subclasses must be dataclasses; construction-time validation lives in
    each subclass's ``__post_init__`` and is exercised by every
    ``from_dict`` call (a dict that decodes to an invalid config raises
    :class:`~repro.errors.ConfigError` exactly like direct construction).
    """

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConfigBase":
        """Build a validated config from a plain mapping.

        Unknown keys and values of the wrong type (see
        :meth:`_check_field_types`) raise
        :class:`~repro.errors.ConfigError` before the class's own
        validation runs; values for fields that are themselves config
        dataclasses (or ``Optional`` ones) may be given as nested
        mappings and are converted recursively.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"{cls.__name__}.from_dict expects a mapping, "
                f"got {type(data).__name__}")
        fields = _field_types(cls)
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(fields))})")
        kwargs: Dict[str, Any] = {}
        for name, (ftype, optional) in fields.items():
            if name not in data:
                continue
            value = data[name]
            if (isinstance(value, Mapping) and isinstance(ftype, type)
                    and dataclasses.is_dataclass(ftype)):
                if issubclass(ftype, ConfigBase):
                    value = ftype.from_dict(value)
                else:  # pragma: no cover - all nested configs use the mixin
                    value = ftype(**value)
            _check_type(cls.__name__, name, ftype, optional, value)
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

    def _check_field_types(self) -> None:
        """Raise :class:`ConfigError` unless every field holds its
        annotated type, by the rule of ``_check_type``; ``from_dict``
        applies the same rule to every key it is given."""
        cls = type(self)
        for name, (ftype, optional) in _field_types(cls).items():
            _check_type(cls.__name__, name, ftype, optional,
                        getattr(self, name))


@dataclasses.dataclass(frozen=True)
class CLIConfigs:
    """Everything :func:`build_configs` derives from a CLI namespace."""

    #: The :class:`repro.request.RunRequest` the command names; None for
    #: subcommands without a workload.
    request: Optional[Any]
    obs: Optional[Any]  # ObsConfig
    check: bool = False  # run under the coherence sanitizer


def build_configs(args: Any) -> CLIConfigs:
    """Map a parsed CLI namespace onto a run request and its observation.

    Every ``repro`` subcommand that runs a workload funnels its arguments
    through here, so flag-to-request wiring lives in exactly one place.
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

    # Every run knob goes into the one RunRequest; Session, RunService
    # and the serve daemon's HTTP body resolve it to configs the same way.
    request = None
    if get("workload") is not None:
        request = RunRequest(
            workload=get("workload"),
            threads=get("threads"),
            scale=get("scale", 1.0),
            fixed=bool(get("fixed", False)),
            jitter_seed=get("seed", 0xC0FFEE),
            profile=(bool(get("profile", False))
                     or get("command") in ("profile", "predict")),
            mode=mode,
            detector=get("detector"),
            adaptive=bool(get("adaptive", False)),
            period=get("period"),
            true_sharing=bool(get("true_sharing", False)),
            line_size=get("line_size"),
            cores=get("cores"),
            numa_nodes=get("numa_nodes"),
            remote_fetch_penalty=get("remote_fetch_penalty"),
            remote_transfer_penalty=get("remote_transfer_penalty"),
        )

    obs = None
    if want_trace or want_metrics:
        obs = ObsConfig(
            trace=want_trace,
            metrics=want_metrics,
            trace_accesses=bool(get("accesses", False)),
            max_events=get("max_events") or ObsConfig.max_events,
        )
    return CLIConfigs(request=request, obs=obs, check=check)
