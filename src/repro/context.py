"""Run-scoped ambient state: one :class:`RunContext` in one contextvar.

Three things reach a run without being threaded through every call
between the caller and :func:`repro.run.run_workload`:

- ``service`` — the :class:`~repro.service.RunService` whose store
  serves repeated runs (the ``repro`` CLI, ``using_service``);
- ``obs`` — a :class:`~repro.obs.DefaultObs` collector: each run
  underneath builds its own :class:`~repro.obs.Observability` from its
  config and appends it to ``obs.collected``;
- ``listeners`` — callables the windowed detector hands each streaming
  finding the moment it emits it.

They live in one frozen :class:`RunContext`, held by one
:class:`contextvars.ContextVar`. Read it with :func:`current`; change
it for a block with ``with using(...)``, which restores the previous
context on exit. A new thread starts from an empty ``RunContext``
(PEP 567), so nothing one thread sets is seen by another: that is what
keeps the serve daemon's jobs apart from whatever the thread that
started the daemon had set. Only code that owns its whole process (a
worker-process body, a worker-process initializer) sets its context once,
with :func:`install`.
"""

from __future__ import annotations

import contextvars
import dataclasses
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Tuple

from repro.errors import ObsError, ServiceError

if TYPE_CHECKING:
    from repro.obs.hooks import DefaultObs
    from repro.service import RunService


@dataclasses.dataclass(frozen=True)
class RunContext:
    """The ambient state of the runs started in one context."""

    service: Optional["RunService"] = None
    obs: Optional["DefaultObs"] = None
    listeners: Tuple[Callable[[Any], None], ...] = ()

    @property
    def cache(self) -> Optional["RunService"]:
        """The service whose store serves runs here, or None.

        That is the ambient service when it is enabled and no ``obs``
        collector is active: observed runs exist to be watched, not
        replayed.
        """
        service = self.service
        if service is not None and service.enabled and self.obs is None:
            return service
        return None


_CONTEXT: "contextvars.ContextVar[RunContext]" = contextvars.ContextVar(
    "repro_run_context", default=RunContext())


def current() -> RunContext:
    """The :class:`RunContext` of the calling context."""
    return _CONTEXT.get()


def _derive(changes: Any) -> RunContext:
    """The current context with ``changes`` applied, validated."""
    from repro.obs.hooks import DefaultObs
    from repro.service import RunService
    context = dataclasses.replace(_CONTEXT.get(), **changes)
    if not isinstance(context.service, (RunService, type(None))):
        raise ServiceError(
            f"the ambient service must be a RunService, got "
            f"{type(context.service).__name__}")
    if not isinstance(context.obs, (DefaultObs, type(None))):
        raise ObsError(
            f"the ambient obs must be a DefaultObs, got "
            f"{type(context.obs).__name__}")
    listeners = context.listeners
    if not (isinstance(listeners, tuple) and all(map(callable, listeners))):
        raise ObsError(
            f"finding listeners must be a tuple of callables, got "
            f"{listeners!r}")
    return context


@contextmanager
def using(**changes: Any) -> Iterator[RunContext]:
    """``with using(service=svc, obs=handle): ...`` — run the block in
    the current context with ``changes`` (:class:`RunContext` fields)
    applied; the previous context is restored on exit."""
    context = _derive(changes)
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


def install(**changes: Any) -> None:
    """Apply ``changes`` to this context for good (no scope).

    Only for code that owns its whole process and never returns it to a
    caller: a worker-process body or initializer.
    """
    _CONTEXT.set(_derive(changes))
