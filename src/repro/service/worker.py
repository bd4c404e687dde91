"""Worker processes that simulate the serve daemon's cold jobs.

Each daemon worker thread owns one :class:`WorkerProcess`: a long-lived
process started with the ``spawn`` method on the thread's first cold
job and connected to it by a :func:`multiprocessing.Pipe`. The daemon
keeps the job table, the result store and the findings sink; only the
simulation of a cache miss crosses the pipe::

    daemon -> worker   spec.to_dict()                   one job
    worker -> daemon   ("finding", finding.to_dict())   as the detector emits
    worker -> daemon   ("outcome", outcome.to_dict())   then the result,
                       or ("error", "Type: message")    or the failure
    daemon -> worker   None                             stop

Findings are forwarded the moment the windowed detector emits them, so
``/v1/jobs/{id}/events`` streams live. The outcome is rehydrated with
:meth:`~repro.run.RunOutcome.from_dict`, whose round trip keeps its
JSON byte-identical to a direct run of the same spec.

Worker processes ignore SIGINT from the moment they start (they inherit
it blocked until they ignore it): Ctrl-C on ``repro serve`` reaches the
whole process group, and the daemon, not its workers, decides how jobs
drain (:meth:`repro.service.daemon.Daemon.shutdown` stops every worker,
after which a worker thread's next cold job fails instead of starting a
new process).
As with any ``spawn`` process, each worker imports the program's main
module, so a program that starts the daemon must do so under
``if __name__ == "__main__":``.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import traceback
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, Optional

from repro.context import install
from repro.errors import ReproError, ServiceError
from repro.run import RunOutcome
from repro.service.spec import RunSpec

__all__ = ["WorkerError", "WorkerProcess"]

_SPAWN = multiprocessing.get_context("spawn")

#: Seconds :meth:`WorkerProcess.stop` waits for an idle process to exit
#: before killing it.
STOP_TIMEOUT = 5.0


class WorkerError(ServiceError):
    """A job failed inside its worker process.

    ``str()`` is the failure as the worker reported it,
    ``"Type: message"`` of the original exception.
    """


class WorkerProcess:
    """One daemon worker thread's simulation process.

    The process starts on the first :meth:`execute` and is restarted by
    the next one if it died. :meth:`stop` ends it for good; it is safe
    to call from another thread and more than once.
    """

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._process: Optional[BaseProcess] = None
        self._conn: Optional[Connection] = None
        self._busy = False  # a job is in the pipe
        self._stopped = False

    @property
    def pid(self) -> Optional[int]:
        """The live process's pid, or None when none is running."""
        process = self._process
        if process is None or not process.is_alive():
            return None
        return process.pid

    def execute(self, spec: RunSpec,
                on_event: Callable[[Dict[str, Any]], None]) -> RunOutcome:
        """Simulate ``spec`` in the worker process.

        ``on_event`` receives each streaming finding as a dict while the
        run is in progress. Raises :class:`WorkerError` when the run
        failed and :class:`~repro.errors.ServiceError` when the process
        died during the job or was stopped.
        """
        conn = self._checkout()
        try:
            conn.send(spec.to_dict())
            kind, payload = conn.recv()
            while kind == "finding":
                on_event(payload)
                kind, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise ServiceError(
                f"worker process {self.name} died during the job "
                f"({self._reap(conn)})") from exc
        except BaseException:
            # The rest of this job's replies are still in the pipe; a
            # new process is cleaner than draining them.
            self._reap(conn, kill=True)
            raise
        finally:
            self._checkin(conn)
        if kind == "error":
            raise WorkerError(payload)
        outcome = RunOutcome.from_dict(payload)
        outcome.fresh = True  # simulated for this job, not a cache hit
        return outcome

    def stop(self, timeout: float = STOP_TIMEOUT) -> None:
        """End the process; every later :meth:`execute` raises
        :class:`~repro.errors.ServiceError` instead of starting another.

        An idle process is asked to exit and killed if it has not within
        ``timeout`` seconds. A busy one is killed at once, which fails
        its job.
        """
        with self._lock:
            self._stopped = True
            process, conn, busy = self._process, self._conn, self._busy
            self._process = self._conn = None
        if process is None:
            return
        if busy:
            # The job's thread owns the pipe: it reads EOF, fails the
            # job and closes its end.
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

    def _checkout(self) -> Connection:
        """The pipe to a live process, marked busy; starts the process
        if none is running."""
        with self._lock:
            if self._stopped:
                raise ServiceError(f"worker process {self.name} is stopped")
            if self._process is None or not self._process.is_alive():
                if self._conn is not None:
                    self._conn.close()
                self._process = self._conn = None
                parent, child = _SPAWN.Pipe()
                process = _SPAWN.Process(target=_serve, args=(child,),
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
            return self._conn

    def _checkin(self, conn: Connection) -> None:
        """End the job on ``conn``; closes the pipe if its process was
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


def _serve(conn: Connection) -> None:
    """Worker process body: run specs from ``conn`` until told to stop
    (``None``) or until the daemon's end of the pipe closes."""
    # Ignoring SIGINT also discards one that arrived while it was still
    # blocked (from the start, see WorkerProcess._checkout).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    install(listeners=(
        lambda finding: conn.send(("finding", finding.to_dict())),))
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        if payload is None:
            return
        try:
            reply = ("outcome",
                     RunSpec.from_dict(payload).execute().to_dict())
        except Exception as exc:  # the job fails, the worker keeps serving
            if not isinstance(exc, ReproError):
                traceback.print_exc()
            reply = ("error", f"{type(exc).__name__}: {exc}")
        conn.send(reply)
