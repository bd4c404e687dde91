"""Adaptive sampling-period control and event rotation for the PMU.

Cheetah samples at a fixed period; real always-on agents (MicroSentinel's
``mode_controller`` / ``pmu_rotator``) steer the PMU instead: sample
coarsely while nothing is happening, tighten the period as soon as a
cache line turns hot, back off again in quiet phases, and rotate which
event flavour the hardware is programmed for. This module models that
policy over the simulated :class:`~repro.pmu.sampler.PMU`:

- :class:`AdaptiveConfig` describes the policy (enabled off by default,
  so an unconfigured PMU behaves exactly as before);
- :class:`AdaptiveController` watches delivered memory fires, keeps a
  windowed per-line hit count, and every ``evaluate_interval`` cycles
  either tightens the live period (any line hot: ``period *=
  tighten_factor``, floored at ``min_period``) or backs it off (no hot
  lines: ``period *= backoff_factor``, capped at ``max_period``);
- an optional ``rotation`` schedule gates *delivery*: in a ``"write"``
  slot only write samples reach the handler (reads still cost a trap,
  modelling an event the hardware was not programmed for), and
  vice-versa for ``"read"``; ``"all"`` delivers everything.

Period changes take effect at each thread's *next* fire — the engine's
burst loops only cache countdowns, never the period itself, so a live
change needs no engine cooperation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import ConfigBase
from repro.errors import ConfigError

#: Valid entries for :attr:`AdaptiveConfig.rotation`.
ROTATION_MODES = ("all", "read", "write")


@dataclass(frozen=True)
class AdaptiveConfig(ConfigBase):
    """Adaptive-sampling policy.

    Attributes:
        enabled: master switch; ``False`` (the default) leaves the PMU at
            its fixed configured period with no rotation.
        min_period: floor for the live period when tightening.
        max_period: ceiling for the live period when backing off.
        hot_line_samples: delivered samples a line needs inside
            ``window`` cycles to count as hot.
        window: cycles of hotness memory; a line idle this long resets.
        evaluate_interval: cycles of sample time between policy steps.
        tighten_factor: multiplier applied to the period when at least
            one line is hot (must be in ``(0, 1]``).
        backoff_factor: multiplier applied when no line is hot (``>= 1``).
        rotation: cyclic schedule of sampled-event emphasis; each slot
            lasts ``rotate_interval`` cycles. ``("all",)`` disables
            rotation.
        rotate_interval: cycles per rotation slot.
        line_size: cache-line granularity for hotness accounting.
    """

    enabled: bool = False
    min_period: int = 96
    max_period: int = 512
    hot_line_samples: int = 4
    window: int = 60_000
    evaluate_interval: int = 10_000
    tighten_factor: float = 0.5
    backoff_factor: float = 2.0
    rotation: Tuple[str, ...] = ("all",)
    rotate_interval: int = 40_000
    line_size: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", tuple(self.rotation))
        if self.min_period < 1:
            raise ConfigError("min_period must be >= 1")
        if self.max_period < self.min_period:
            raise ConfigError("max_period must be >= min_period")
        if self.hot_line_samples < 1:
            raise ConfigError("hot_line_samples must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.evaluate_interval < 1:
            raise ConfigError("evaluate_interval must be >= 1")
        if not 0.0 < self.tighten_factor <= 1.0:
            raise ConfigError("tighten_factor must be in (0, 1]")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if not self.rotation:
            raise ConfigError("rotation must name at least one slot")
        bad = sorted(set(self.rotation) - set(ROTATION_MODES))
        if bad:
            raise ConfigError(
                f"unknown rotation mode(s): {', '.join(bad)} "
                f"(valid: {', '.join(ROTATION_MODES)})")
        if self.rotate_interval < 1:
            raise ConfigError("rotate_interval must be >= 1")
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigError(
                f"line_size must be a power of two, got {self.line_size}")


class AdaptiveController:
    """Steers a live PMU period from the delivered-sample stream.

    The controller is pull-free: the PMU calls :meth:`wants_sample` on
    every fire to apply the rotation gate and :meth:`on_fire` afterwards
    to feed hotness accounting; policy evaluation happens inline when a
    fire's timestamp crosses the next evaluation boundary. All state is
    derived from sample timestamps, so behaviour is deterministic for a
    deterministic simulation.
    """

    def __init__(self, pmu, config: AdaptiveConfig):
        self.pmu = pmu
        self.config = config
        self._shift = config.line_size.bit_length() - 1
        # line -> (windowed count, last-seen timestamp)
        self._hits: Dict[int, Tuple[int, int]] = {}
        self._next_eval = config.evaluate_interval
        self.hot_lines = 0
        self.evaluations = 0
        self.tightenings = 0
        self.backoffs = 0
        #: (timestamp, new period) for every live change, oldest first.
        self.history: List[Tuple[int, int]] = []

    # -- rotation ------------------------------------------------------------

    def current_mode(self, now: int) -> str:
        rotation = self.config.rotation
        if len(rotation) == 1:
            return rotation[0]
        return rotation[(now // self.config.rotate_interval) % len(rotation)]

    def wants_sample(self, is_write: bool, now: int) -> bool:
        """Whether the current rotation slot delivers this fire."""
        mode = self.current_mode(now)
        if mode == "all":
            return True
        return (mode == "write") == is_write

    # -- hotness + policy ----------------------------------------------------

    def on_fire(self, addr: int, now: int) -> None:
        """Feed one memory fire (delivered or not) into hotness state."""
        line = addr >> self._shift
        entry = self._hits.get(line)
        if entry is not None and now - entry[1] <= self.config.window:
            self._hits[line] = (entry[0] + 1, now)
        else:
            self._hits[line] = (1, now)
        if now >= self._next_eval:
            self._evaluate(now)

    def _evaluate(self, now: int) -> None:
        cfg = self.config
        self.evaluations += 1
        self._next_eval = now + cfg.evaluate_interval
        hot = 0
        stale = []
        for line, (count, last) in self._hits.items():
            if now - last > cfg.window:
                stale.append(line)
            elif count >= cfg.hot_line_samples:
                hot += 1
        for line in stale:
            del self._hits[line]
        self.hot_lines = hot
        period = self.pmu.period
        if hot:
            target = max(cfg.min_period, int(period * cfg.tighten_factor))
        else:
            target = min(cfg.max_period, int(period * cfg.backoff_factor))
        if target != period:
            if target < period:
                self.tightenings += 1
            else:
                self.backoffs += 1
            self.pmu.set_period(target)
            self.history.append((now, target))
