"""Host-time tracing of the program's layers, from outside the program.

A :class:`Tracer` wraps public entry points of each layer (class methods
and module functions) with timing code, and restores the originals on
:meth:`Tracer.uninstall`. Two kinds of wrapper exist:

- a *span* wrapper records one span per call: name, start, end, parent
  span and request id (the benchmark cell or daemon job);
- a *boundary* wrapper, used on per-access entry points
  (``Machine.access_tuple``, PMU fires, the sample handler, the
  detector, the batch planner), only adds a call count and nanoseconds
  to its enclosing span, so the trace stays small.

Every wrapped call also feeds per-name totals: calls, busy (inclusive)
nanoseconds and self nanoseconds, where self time is a call's duration
minus the time its wrapped children cover. State is kept per thread,
so wrappers are safe on daemon worker and HTTP threads; totals from all
threads are merged by :meth:`Tracer.snapshot` once the traced work is
over. Wrappers only time and count: they never touch program state, so
kernel selection and every simulated output stay as they are.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter_ns


class _ThreadState:
    """Per-thread trace state (no locking needed on the hot path)."""

    __slots__ = ("stack", "totals", "extras", "samples", "spans", "request")

    def __init__(self) -> None:
        # Active wrapped calls, innermost last:
        # [name, child_ns, own span or None, nearest enclosing span].
        self.stack: List[list] = []
        # name -> [calls, busy_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        self.extras: Dict[str, float] = {}
        self.samples: Dict[str, list] = {}
        self.spans: List[Dict[str, Any]] = []
        self.request: Optional[str] = None


class Tracer:
    """Spans and per-layer totals gathered by wrappers it installs."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[tuple] = []
        self._ids = itertools.count(1)

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def set_request(self, request: Optional[str]) -> None:
        """Request id stamped on spans opened by this thread."""
        self._state().request = request

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the extra counter ``name``."""
        extras = self._state().extras
        extras[name] = extras.get(name, 0) + value

    def sample(self, name: str, value: Any) -> None:
        """Append ``value`` to the sample list ``name``."""
        self._state().samples.setdefault(name, []).append(value)

    def _record(self, state: _ThreadState, name: str, busy: int,
                child: int, boundary: bool) -> None:
        """Book one finished call into totals and its enclosing frame."""
        entry = state.totals.get(name)
        if entry is None:
            entry = state.totals[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += busy
        entry[2] += busy - child
        stack = state.stack
        if stack:
            parent = stack[-1]
            parent[1] += busy
            span = parent[3]
            if boundary and span is not None:
                # Boundary calls are booked on the nearest enclosing span.
                counts = span["counts"]
                acc = counts.get(name)
                if acc is None:
                    counts[name] = [1, busy - child]
                else:
                    acc[0] += 1
                    acc[1] += busy - child

    # -- wrapper factories ---------------------------------------------------

    def boundary(self, name: str, fn: Callable,
                 fired: Optional[Callable[[Any], int]] = None) -> Callable:
        """Per-access wrapper: count + nanoseconds into the enclosing span.

        With ``fired``, a call only counts when ``fired(args[0])`` changed
        across it (PMU fires); other calls are transparent, so their
        time stays with the caller. A call nested directly in a call of
        the same name (``super()`` chains) is transparent too.
        """
        local = self._local
        state_of = self._state
        record = self._record

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            stack = state.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            before = fired(args[0]) if fired is not None else None
            frame = [name, 0, None, stack[-1][3] if stack else None]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = _clock() - start
                stack.pop()
                if fired is None or fired(args[0]) != before:
                    record(state, name, busy, frame[1], True)
                elif stack:
                    # Transparent call: its wrapped children (none for a
                    # non-firing PMU call) stay charged to the caller.
                    stack[-1][1] += frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Count-only wrapper (no timing): for the cheapest probes."""
        local = self._local
        state_of = self._state

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            extras = state.extras
            extras[name] = extras.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn: Callable,
             before: Optional[Callable[..., Optional[str]]] = None,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """Span wrapper.

        The span's request id is ``before(tracer, args, kwargs)`` when
        that returns one, else the thread's (:meth:`set_request`), else
        the enclosing span's. ``after(tracer, span, args, kwargs,
        result)`` runs once the call returned, outside the timed
        interval.
        """
        local = self._local
        state_of = self._state
        record = self._record
        ids = self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            stack = state.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            outer = stack[-1][3] if stack else None
            request = before(tracer, args, kwargs) if before else None
            if request is None:
                request = state.request
            if request is None and outer is not None:
                request = outer["request"]
            span = {"id": next(ids), "name": name,
                    "parent": outer["id"] if outer is not None else None,
                    "request": request, "counts": {}}
            frame = [name, 0, span, span]
            stack.append(frame)
            start = _clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = _clock()
                stack.pop()
                record(state, name, end - start, frame[1], False)
                span["start_ns"] = start
                span["end_ns"] = end
                span["self_ns"] = end - start - frame[1]
                if ok and after is not None:
                    after(tracer, span, args, kwargs, result)
                state.spans.append(span)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) with
        ``make(original)``, keeping class/static method descriptors."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Totals, extras and samples merged over every thread, plus
        all spans in start order. Call once the traced work is over."""
        totals: Dict[str, List[int]] = {}
        extras: Dict[str, float] = {}
        samples: Dict[str, list] = {}
        spans: List[Dict[str, Any]] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, busy, own) in list(state.totals.items()):
                entry = totals.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += own
            for name, value in list(state.extras.items()):
                extras[name] = extras.get(name, 0) + value
            for name, values in list(state.samples.items()):
                samples.setdefault(name, []).extend(values)
            spans.extend(state.spans)
        spans.sort(key=lambda span: span["start_ns"])
        return {"totals": totals, "extras": extras, "samples": samples,
                "spans": spans}


def write_spans(path: str, spans: List[Dict[str, Any]]) -> None:
    """Write spans as JSON lines (the in-memory trace, at run end)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
