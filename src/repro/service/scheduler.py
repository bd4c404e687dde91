"""Resilient job scheduler: dedupe, timeout, bounded retry, degradation.

``Scheduler.map`` runs a cell function over independent cells and
returns the results in submission order, so a matrix fanned out over
worker processes equals its serial run. Around that it adds:

- **dedupe** — identical pending jobs (same key) execute once and the
  result fans out to every position that asked for it;
- **per-job timeout** — with ``jobs > 1``, an attempt still running
  ``timeout`` seconds after it reached its worker process is killed;
- **bounded retry with exponential backoff + jitter** — failed jobs are
  re-run up to ``retries`` times, sleeping
  ``base * factor**(attempt-1)`` (capped) plus a deterministic jitter
  drawn from ``jitter_seed``, so transient faults heal and thundering
  herds de-synchronize. A cell's own
  :class:`~repro.errors.ReproError` (a ``ConfigError``, a
  ``SchemaError``) is deterministic and fails at once;
- **graceful degradation** — a job that exhausts its retries yields a
  structured :class:`JobFailure` in its result slot instead of raising,
  so one bad cell cannot take down the rest of the matrix.

With ``jobs > 1``, ``min(jobs, unique cells)`` threads each own one
:class:`~repro.service.worker.WorkerProcess` (replaced after a death)
and take pending jobs in turn; every worker process is stopped before
:meth:`Scheduler.map` returns or raises, a ``KeyboardInterrupt`` too.

Determinism for tests: ``sleep`` and ``fault_hook`` are injectable, the
backoff schedule is a pure function of the constructor arguments, and
every delay actually requested is recorded in :attr:`Scheduler.delays`.

Counters (``service_scheduler_*``) land in the
:class:`~repro.obs.MetricsRegistry` passed at construction.
"""

from __future__ import annotations

import collections
import random
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, ServiceError
from repro.obs import MetricsRegistry
from repro.service.worker import (
    WorkerError,
    WorkerProcess,
    WorkerTimeout,
    describe,
)


@dataclass(frozen=True)
class JobFailure:
    """Structured record of a job that exhausted its retries.

    Appears in the scheduler's (and the service's) result list at the
    failed job's position; callers filter with ``isinstance`` and decide
    whether a partial matrix is acceptable.
    """

    key: str
    kind: str  # "exception" | "timeout"
    error: str
    attempts: int

    def render(self) -> str:
        return (f"job {self.key}: {self.kind} after {self.attempts} "
                f"attempt(s): {self.error}")


def _run_job(fn: Callable[..., Any], cell: Any,
             fault_hook: Optional[Callable[[str, int], None]],
             key: str, attempt: int) -> Any:
    """One attempt at one job (picklable, to run in a worker process)."""
    if fault_hook is not None:
        fault_hook(key, attempt)
    return fn(cell)


class Scheduler:
    """Maps a cell function over cells with dedupe/timeout/retry.

    Args:
        jobs: worker processes; ``None``/``0``/``1`` runs inline in this
            process (no timeout enforcement — there is no process to
            kill — but dedupe, retry and degradation still apply).
        timeout: per-attempt seconds, counted from the moment the
            attempt reaches its worker process, before the attempt is
            killed and counts as failed.
        retries: additional attempts after the first (``retries=2`` means
            at most 3 attempts).
        backoff_base / backoff_factor / backoff_cap: exponential backoff
            schedule in seconds.
        jitter_frac: each delay is multiplied by ``1 + U(0, jitter_frac)``
            with a :class:`random.Random` seeded at ``jitter_seed``.
        sleep: injectable sleep (tests pass a recorder).
        registry: metrics registry for the ``service_scheduler_*``
            counters.
        fault_hook: test-only ``(key, attempt) -> None`` invoked in the
            worker before the cell function; raising simulates a fault.
        initializer / initargs: run once in each worker process as it
            starts (the experiments use it to reopen the result store).
    """

    def __init__(self, jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_cap: float = 2.0,
                 jitter_frac: float = 0.25,
                 jitter_seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep,
                 registry: Optional[MetricsRegistry] = None,
                 fault_hook: Optional[Callable[[str, int], None]] = None,
                 initializer: Optional[Callable[..., None]] = None,
                 initargs: Tuple[Any, ...] = ()):
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ServiceError(f"timeout must be positive, got {timeout}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_cap = backoff_cap
        self.jitter_frac = jitter_frac
        self._rng = random.Random(jitter_seed)
        self._sleep = sleep
        self._fault_hook = fault_hook
        self._initializer = initializer
        self._initargs = initargs
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Every backoff delay actually requested, in order (test hook).
        self.delays: List[float] = []
        self._jobs_total = self.registry.counter(
            "service_scheduler_jobs_total",
            "Scheduled jobs by final outcome.", label="outcome")
        self._retries_total = self.registry.counter(
            "service_scheduler_retries_total",
            "Job attempts re-submitted after a failure.")
        self._timeouts_total = self.registry.counter(
            "service_scheduler_timeouts_total",
            "Job attempts killed for exceeding the per-job timeout.")
        self._dedup_total = self.registry.counter(
            "service_scheduler_deduped_total",
            "Submitted cells coalesced onto an identical pending job.")

    # -- backoff -------------------------------------------------------------

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), jitter included."""
        base = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        base = min(base, self.backoff_cap)
        return base * (1.0 + self._rng.uniform(0.0, self.jitter_frac))

    def _backoff(self, attempt: int) -> None:
        delay = self.backoff_delay(attempt)
        self.delays.append(delay)
        self._sleep(delay)

    # -- mapping -------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], cells: Sequence[Any],
            keys: Optional[Sequence[str]] = None) -> List[Any]:
        """Run ``fn`` over ``cells``; result list is in cell order.

        ``keys[i]`` identifies cell ``i`` for dedupe and failure
        reporting; when omitted, hashable cells dedupe on their own
        value (unhashable cells never dedupe). Each slot holds the
        cell's result or a :class:`JobFailure`.
        """
        if keys is not None and len(keys) != len(cells):
            raise ServiceError(
                f"got {len(keys)} keys for {len(cells)} cells")
        # Unique pending jobs, first occurrence wins; positions records
        # every slot each unique job must fill.
        unique: Dict[Any, int] = {}
        order: List[Tuple[str, Any]] = []  # (key, cell) per unique job
        positions: List[List[int]] = []
        for index, cell in enumerate(cells):
            if keys is not None:
                dedupe_key: Any = keys[index]
            else:
                try:
                    hash(cell)
                    dedupe_key = cell
                except TypeError:
                    dedupe_key = ("__slot__", index)
            if dedupe_key in unique:
                positions[unique[dedupe_key]].append(index)
                self._dedup_total.inc()
                continue
            unique[dedupe_key] = len(order)
            label = (keys[index] if keys is not None
                     else f"cell-{index}")
            order.append((label, cell))
            positions.append([index])

        if not self.jobs or self.jobs <= 1:
            outcomes = [
                self._run_attempts(
                    key, partial(_run_job, fn, cell, self._fault_hook, key))
                for key, cell in order]
        else:
            outcomes = self._map_workers(fn, order)

        results: List[Any] = [None] * len(cells)
        for job_index, outcome in enumerate(outcomes):
            for slot in positions[job_index]:
                results[slot] = outcome
        return results

    def _run_attempts(self, key: str, attempt: Callable[[int], Any],
                      stopping: Optional[threading.Event] = None) -> Any:
        """``attempt(n)`` for n = 1, 2, ... until one returns, the cell
        raises its own ReproError, the retries run out or ``stopping``
        (given in worker mode, where only a :class:`WorkerError` is the
        cell's own exception) is set."""
        for number in range(1, self.retries + 2):
            try:
                result = attempt(number)
            except WorkerTimeout as exc:
                self._timeouts_total.inc()
                kind, error = "timeout", str(exc)
            except Exception as exc:
                kind, error = "exception", describe(exc)
                if (exc.repro_error if isinstance(exc, WorkerError)
                        else stopping is None and isinstance(exc, ReproError)):
                    break  # the cell's own ReproError: it fails alike again
            else:
                self._jobs_total.inc(label_value="completed")
                return result
            if number > self.retries or (stopping and stopping.is_set()):
                break
            self._retries_total.inc()
            self._backoff(number)
        self._jobs_total.inc(label_value="failed")
        return JobFailure(key=key, kind=kind, error=error, attempts=number)

    def _map_workers(self, fn, order: List[Tuple[str, Any]]) -> List[Any]:
        outcomes: List[Any] = [None] * len(order)
        pending = collections.deque(range(len(order)))  # thread-safe pops
        stopping = threading.Event()
        errors: List[BaseException] = []

        def drain(worker: WorkerProcess) -> None:
            try:
                while not stopping.is_set():
                    try:
                        job_index = pending.popleft()
                    except IndexError:
                        return
                    key, cell = order[job_index]
                    outcomes[job_index] = self._run_attempts(
                        key, partial(worker.call, _run_job, fn, cell,
                                     self._fault_hook, key,
                                     timeout=self.timeout),
                        stopping)
            except BaseException as exc:  # re-raised by map
                errors.append(exc)
                stopping.set()
            finally:
                worker.stop()

        workers = [WorkerProcess(f"repro-scheduler-worker-{n}",
                                 self._initializer, self._initargs)
                   for n in range(min(self.jobs, len(order)))]
        threads = [threading.Thread(target=drain, args=(worker,),
                                    name=worker.name, daemon=True)
                   for worker in workers]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                while thread.is_alive():
                    thread.join(0.1)  # wakes up for a KeyboardInterrupt
        finally:
            stopping.set()
            for worker in workers:
                worker.stop()  # kills a busy process: its call fails
            for thread in threads:
                if thread.is_alive():
                    thread.join()
        if errors:
            raise errors[0]
        return outcomes
