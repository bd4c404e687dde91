"""Per-thread instruction-based address sampling with overhead accounting.

Models the sampling mechanics the paper relies on:

- the PMU counts retired instructions per thread and fires every
  ``period`` instructions (the paper samples one out of 64K; the simulated
  workloads are smaller, so the default period is proportionally lower);
- a fired sample on a memory instruction delivers a
  :class:`~repro.pmu.sample.MemorySample` to the installed handler and
  charges the handler's cost to the *sampled thread's* clock — this is
  the "handling of each sampled memory access" that dominates Cheetah's
  ~7% overhead (Section 4.1);
- fires on non-memory instructions cost a cheap trap but deliver nothing;
- every thread start pays a setup cost (the six pfmon API calls and six
  system calls of Section 4.1) — the reason thread-heavy applications
  such as kmeans (224 threads) and x264 (1024 threads) show >20% overhead.

Sampling periods are jittered deterministically per thread so that
strided loops cannot alias with the period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.config import ConfigBase
from repro.errors import ConfigError, SimulationError
from repro.pmu.adaptive import AdaptiveConfig, AdaptiveController
from repro.pmu.sample import MemorySample
from repro.sim.params import check_cycles

SampleHandler = Callable[[MemorySample], None]


@dataclass(frozen=True)
class PMUConfig(ConfigBase):
    """Sampling parameters.

    Attributes:
        period: mean instructions between sample fires. The paper samples
            one out of 64K instructions on runs lasting >=5s (~10^10
            instructions); simulated workloads retire ~10^5-10^6
            instructions, so the default period is scaled down by the
            same factor to preserve the samples-per-run ratio.
        jitter: fraction of the period used as uniform jitter (+-).
        handler_cost: cycles charged per delivered memory sample.
        trap_cost: cycles charged per fire on a non-memory instruction.
        thread_setup_cost: cycles charged to each thread at start for
            programming the PMU registers.
        seed: base seed for per-thread jitter streams.
        adaptive: adaptive-policy knobs (:class:`AdaptiveConfig`);
            ``period`` is the *starting* period when the policy is
            enabled, and the fixed period otherwise.
    """

    period: int = 128
    jitter: float = 0.25
    handler_cost: int = 22
    trap_cost: int = 5
    thread_setup_cost: int = 2_500
    seed: int = 0x5EED
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigError(f"sampling period must be >= 1, got {self.period}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError(f"jitter must be in [0, 1), got {self.jitter}")
        for name in ("handler_cost", "trap_cost", "thread_setup_cost"):
            check_cycles(name, getattr(self, name))


class PMU:
    """Samples one memory access out of every ~``period`` instructions."""

    def __init__(self, config: Optional[PMUConfig] = None,
                 handler: Optional[SampleHandler] = None):
        self.config = config or PMUConfig()
        self.handler = handler
        # Live sampling period. Equals ``config.period`` forever unless
        # an adaptive controller (or an explicit ``set_period`` call)
        # retunes it mid-run; ``_next_period`` always reads this.
        self.period = self.config.period
        self.period_changes = 0
        self.controller: Optional[AdaptiveController] = (
            AdaptiveController(self, self.config.adaptive)
            if self.config.adaptive.enabled else None)
        self._countdown: Dict[int, int] = {}
        self._rng: Dict[int, random.Random] = {}
        self.samples_fired = 0
        self.memory_samples = 0
        # Memory fires whose sample the current rotation slot discarded.
        self.rotation_skipped = 0
        self.threads_set_up = 0
        # Cycles this PMU charged to each thread (setup + handlers +
        # traps). The profiler can subtract its own overhead from
        # runtime decompositions.
        self.overhead_by_tid: Dict[int, int] = {}
        # Observability hook (set by Observability.wire). Fires always
        # route through on_access/on_work even under the engine's fused
        # burst loop, so sample/trap events are seen regardless of which
        # burst path the run takes.
        self.obs = None

    def install_handler(self, handler: SampleHandler) -> None:
        """Install the callback invoked with every memory sample."""
        self.handler = handler

    def set_period(self, period: int) -> None:
        """Retune the live sampling period (floored at 1).

        Takes effect at each thread's *next* fire — in-flight countdowns
        keep their already-drawn period, exactly like reprogramming a
        hardware counter that is already armed.
        """
        period = max(1, int(period))
        if period != self.period:
            self.period = period
            self.period_changes += 1

    def on_thread_start(self, tid: int) -> int:
        """Arm sampling for a new thread; returns the setup cost in cycles."""
        rng = random.Random((self.config.seed << 17) ^ (tid * 0x9E3779B1))
        self._rng[tid] = rng
        self._countdown[tid] = self._next_period(tid)
        self.threads_set_up += 1
        self.overhead_by_tid[tid] = (self.overhead_by_tid.get(tid, 0)
                                     + self.config.thread_setup_cost)
        return self.config.thread_setup_cost

    def on_access(self, tid: int, core: int, addr: int, is_write: bool,
                  latency: int, size: int, timestamp: int) -> int:
        """Account one memory instruction; returns extra cycles charged.

        A fire with a handler installed (and whose sample the rotation
        slot, if any, delivers) charges ``handler_cost`` and counts as a
        memory sample. A fire with *no* handler — or one the rotation
        slot discards — still takes the interrupt but drops the sample
        at ``trap_cost``, like a fire on an event the hardware was not
        programmed to decode; it counts as a trap, not a memory sample.

        Raises :class:`SimulationError` for a thread that was never armed
        via :meth:`on_thread_start` (a bare ``KeyError`` from the
        countdown table is useless at the engine boundary).
        """
        try:
            remaining = self._countdown[tid] - 1
        except KeyError:
            raise self._not_armed(tid) from None
        if remaining > 0:
            self._countdown[tid] = remaining
            return 0
        self._countdown[tid] = self._next_period(tid)
        self.samples_fired += 1
        controller = self.controller
        delivered = self.handler is not None
        if (delivered and controller is not None
                and not controller.wants_sample(is_write, timestamp)):
            delivered = False
            self.rotation_skipped += 1
        if delivered:
            self.memory_samples += 1
            cost = self.config.handler_cost
            self.handler(MemorySample(
                tid=tid, core=core, addr=addr, is_write=is_write,
                latency=latency, size=size, timestamp=timestamp,
            ))
        else:
            cost = self.config.trap_cost
        self.overhead_by_tid[tid] = (self.overhead_by_tid.get(tid, 0)
                                     + cost)
        if controller is not None:
            controller.on_fire(addr, timestamp)
        if self.obs is not None:
            if delivered:
                self.obs.on_pmu_sample(tid, core, addr, is_write, cost,
                                       timestamp)
            else:
                self.obs.on_pmu_trap(tid, 1, cost, timestamp)
        return cost

    def on_work(self, tid: int, instructions: int,
                now: Optional[int] = None) -> int:
        """Account ``instructions`` non-memory instructions at once.

        Fires that land inside the batch cost a trap each but deliver no
        sample (the handler discards non-memory IBS samples immediately).
        ``now`` is the calling thread's clock after the batch, used only
        to timestamp trap events for observability.
        """
        try:
            remaining = self._countdown[tid] - instructions
        except KeyError:
            raise self._not_armed(tid) from None
        fires = 0
        while remaining <= 0:
            fires += 1
            remaining += self._next_period(tid)
        self._countdown[tid] = remaining
        if not fires:
            return 0
        self.samples_fired += fires
        cost = fires * self.config.trap_cost
        self.overhead_by_tid[tid] = (self.overhead_by_tid.get(tid, 0)
                                     + cost)
        if self.obs is not None:
            self.obs.on_pmu_trap(tid, fires, cost, now)
        return cost

    @staticmethod
    def _not_armed(tid: int) -> SimulationError:
        return SimulationError(
            f"PMU not armed for thread {tid}: on_thread_start({tid}) "
            "was never called")

    def _next_period(self, tid: int) -> int:
        period = self.period
        jitter = self.config.jitter
        if jitter == 0.0:
            return period
        spread = int(period * jitter)
        if spread == 0:
            return period
        return period + self._rng[tid].randint(-spread, spread)
