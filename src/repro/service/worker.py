"""Worker processes: the one way this package runs work in another process.

A :class:`WorkerProcess` is a long-lived process started with the
``spawn`` method on its first :meth:`~WorkerProcess.call` and connected
to it by a :func:`multiprocessing.Pipe`; it runs any picklable
``fn(*args)``::

    worker -> parent   ("ready",)                        once started
    parent -> worker   (fn, args)                        one call
    worker -> parent   ("finding", finding.to_dict())    as the detector emits
    worker -> parent   ("result", value)                 then the result,
                       or ("error", "Type: message", r)  or the failure
    parent -> worker   None                              stop

where ``r`` says whether the failure was a
:class:`~repro.errors.ReproError`. Each serve daemon worker thread owns
one for its cold jobs, and so does each thread of a
:class:`~repro.service.scheduler.Scheduler` with ``jobs > 1``. An
optional ``initializer(*initargs)`` runs once in each process before it
reports ready. A call's ``timeout`` counts from the moment the call
reaches the ready process; when it expires, the process is killed and
the call raises :class:`WorkerTimeout`. After any death, the next call
starts a new process.

Worker processes ignore SIGINT from the moment they start (they inherit
it blocked until they ignore it): Ctrl-C reaches the whole process
group, and the parent, not its workers, decides how work stops
(:meth:`WorkerProcess.stop` ends the process, after which every call
fails instead of starting a new one).
As with any ``spawn`` process, each worker imports the program's main
module, so a program that starts workers (a daemon, or a scheduler with
``jobs > 1``) must do so under ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import threading
import time
import traceback
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, Optional, Tuple

from repro.context import install
from repro.errors import ReproError, ServiceError

__all__ = ["WorkerError", "WorkerProcess", "WorkerTimeout", "describe"]

_SPAWN = multiprocessing.get_context("spawn")

#: Seconds :meth:`WorkerProcess.stop` waits for an idle process to exit
#: before killing it.
STOP_TIMEOUT = 5.0


class WorkerError(ServiceError):
    """A call failed inside its worker process.

    ``str()`` is the failure as the worker reported it,
    ``"Type: message"`` of the original exception; ``repro_error`` says
    whether that exception was a :class:`~repro.errors.ReproError`.
    """

    def __init__(self, message: str, repro_error: bool = False):
        super().__init__(message)
        self.repro_error = repro_error


class WorkerTimeout(ServiceError):
    """A call outlived its timeout; its process was killed."""


def describe(exc: BaseException) -> str:
    """``"Type: message"`` of ``exc``, or a worker's own report of the
    exception behind a :class:`WorkerError`."""
    if isinstance(exc, WorkerError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


class WorkerProcess:
    """One thread's process for running calls.

    The process starts on the first :meth:`call` and is restarted by
    the next one if it died. :meth:`stop` ends it for good; it is safe
    to call from another thread and more than once.
    """

    def __init__(self, name: str,
                 initializer: Optional[Callable[..., None]] = None,
                 initargs: Tuple[Any, ...] = ()):
        self.name = name
        self._initializer = initializer
        self._initargs = initargs
        self._lock = threading.Lock()
        self._process: Optional[BaseProcess] = None
        self._conn: Optional[Connection] = None
        self._busy = False  # a call is in the pipe
        self._stopped = False

    @property
    def pid(self) -> Optional[int]:
        """The live process's pid, or None when none is running."""
        process = self._process
        if process is None or not process.is_alive():
            return None
        return process.pid

    def call(self, fn: Callable[..., Any], *args: Any,
             timeout: Optional[float] = None,
             on_event: Optional[Callable[[Dict[str, Any]], None]] = None
             ) -> Any:
        """``fn(*args)`` in the worker process; returns its result.

        ``on_event`` receives each streaming finding as a dict while the
        call runs (without it they are dropped). Raises
        :class:`WorkerError` when ``fn`` raised, :class:`WorkerTimeout`
        when ``timeout`` seconds passed first, and
        :class:`~repro.errors.ServiceError` when the process died
        during the call or was stopped.
        """
        conn, started = self._checkout()
        try:
            if started:
                conn.recv()  # ("ready",): the initializer has run
            conn.send((fn, args))
            deadline = None if timeout is None \
                else time.monotonic() + timeout
            while True:
                if deadline is not None and not conn.poll(
                        max(0.0, deadline - time.monotonic())):
                    raise WorkerTimeout(f"timed out after {timeout}s")
                reply = conn.recv()
                if reply[0] != "finding":
                    break
                if on_event is not None:
                    on_event(reply[1])
        except (EOFError, OSError) as exc:
            raise ServiceError(
                f"worker process {self.name} died during the job "
                f"({self._reap(conn)})") from exc
        except BaseException:
            # The rest of this call's replies are still in the pipe (or
            # it overran its timeout): a new process is cleaner.
            self._reap(conn, kill=True)
            raise
        finally:
            self._checkin(conn)
        if reply[0] == "error":
            raise WorkerError(reply[1], reply[2])
        return reply[1]

    def stop(self, timeout: float = STOP_TIMEOUT) -> None:
        """End the process; every later :meth:`call` raises
        :class:`~repro.errors.ServiceError` instead of starting another.

        An idle process is asked to exit and killed if it has not within
        ``timeout`` seconds. A busy one is killed at once, which fails
        its call.
        """
        with self._lock:
            self._stopped = True
            process, conn, busy = self._process, self._conn, self._busy
            self._process = self._conn = None
        if process is None:
            return
        if busy:
            # The call's thread owns the pipe: it reads EOF, fails the
            # call and closes its end.
            process.kill()
        else:
            try:
                conn.send(None)
            except OSError:
                pass  # already gone
            process.join(timeout)
            if process.is_alive():
                process.kill()
            conn.close()
        process.join()

    def _checkout(self) -> Tuple[Connection, bool]:
        """The pipe to a live process, marked busy, and whether the
        process was started for this call."""
        with self._lock:
            if self._stopped:
                raise ServiceError(f"worker process {self.name} is stopped")
            started = self._process is None or not self._process.is_alive()
            if started:
                if self._conn is not None:
                    self._conn.close()
                self._process = self._conn = None
                parent, child = _SPAWN.Pipe()
                process = _SPAWN.Process(
                    target=_serve,
                    args=(child, self._initializer, self._initargs),
                    name=self.name, daemon=True)
                # The child inherits SIGINT blocked, so a Ctrl-C while it
                # imports cannot kill it before _serve ignores SIGINT.
                # Starting the resource tracker unblocks SIGINT, so it
                # must already run when the mask is set. (Imported here,
                # as Process.start would: daemon start-up skips it.)
                from multiprocessing import resource_tracker
                resource_tracker.ensure_running()
                mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                              {signal.SIGINT})
                try:
                    process.start()
                except OSError as exc:
                    parent.close()
                    raise ServiceError(
                        f"cannot start worker process {self.name}: "
                        f"{exc}") from exc
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    # Only the child may hold its end: a dead worker
                    # must read as EOF here, not as a silent hang.
                    child.close()
                self._process, self._conn = process, parent
            self._busy = True
            return self._conn, started

    def _checkin(self, conn: Connection) -> None:
        """End the call on ``conn``; closes the pipe if its process was
        detached meanwhile (it died, or :meth:`stop` killed it)."""
        with self._lock:
            self._busy = False
            detached = self._conn is not conn
        if detached:
            conn.close()

    def _reap(self, conn: Connection, kill: bool = False) -> str:
        """Detach and collect the process behind ``conn`` (killing it
        first with ``kill``); describes how it ended."""
        with self._lock:
            process = self._process if self._conn is conn else None
            if process is not None:
                self._process = self._conn = None
        if process is None:
            return "stopped"  # by stop(), which also collects it
        if kill:
            process.kill()
        process.join(STOP_TIMEOUT)
        if process.exitcode is None:  # its pipe broke, yet it lingers
            process.kill()
            process.join()
        code = process.exitcode
        return (f"killed by signal {-code}" if code < 0
                else f"exit code {code}")


def _serve(conn: Connection, initializer: Optional[Callable[..., None]],
           initargs: Tuple[Any, ...]) -> None:
    """Worker process body: run calls from ``conn`` until told to stop
    (``None``) or until the parent's end of the pipe closes."""
    # Ignoring SIGINT also discards one that arrived while it was still
    # blocked (from the start, see WorkerProcess._checkout).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    if initializer is not None:
        initializer(*initargs)
    install(listeners=(
        lambda finding: conn.send(("finding", finding.to_dict())),))
    conn.send(("ready",))
    while True:
        try:
            call = conn.recv()
        except EOFError:
            return
        if call is None:
            return
        fn, args = call
        try:  # pickled here, so an unpicklable result fails only its call
            reply = pickle.dumps(("result", fn(*args)))
        except Exception as exc:  # the call fails, the worker keeps serving
            if not isinstance(exc, ReproError):
                traceback.print_exc()
            reply = pickle.dumps(
                ("error", describe(exc), isinstance(exc, ReproError)))
        conn.send_bytes(reply)
