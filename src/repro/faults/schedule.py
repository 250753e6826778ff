"""One seeded schedule of timed fault windows.

Every injected adversity that lasts a while is a :class:`FaultWindow`: a
kind, a start, a duration, an optional target and a magnitude.  A
:class:`FaultSchedule` holds a run's windows sorted by
``(start, kind, target)`` and answers which are open at a given time.
Three clocks read schedules:

* the epoch engine, in epochs: ``capacity`` locks and ``overhead``
  spikes (:class:`~repro.faults.injector.FaultInjector`);
* the placement service's traffic driver, in wire lines:
  ``slow_consumer`` and ``clock_stall`` stalls
  (:class:`~repro.faults.service.ServiceFaultInjector`);
* the fleet, in seconds: the five chaos kinds
  (:class:`~repro.fleet.chaos.ChaosEngine`).

Stochastic episodes are laid out up front by :func:`episode_windows`
from a dedicated child RNG stream, so the schedule is a pure function of
the seed and can be replayed.  Faults that are single draws rather than
windows (migration attempts, corrupt events, lost samples, wear errors)
stay draws on their own named streams in the injectors.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Fleet chaos kinds, timed in fleet seconds.
CHAOS_KINDS = (
    "noisy-neighbor",
    "dram-shrink",
    "migration-storm",
    "latency-spike",
    "tenant-resize",
)
#: Stochastic episode kinds, timed in engine epochs or service wire lines.
EPISODE_KINDS = ("capacity", "overhead", "slow_consumer", "clock_stall")


@dataclass(frozen=True)
class FaultWindow:
    """One timed fault window, open on ``[start, start + duration)``."""

    kind: str
    start: float
    duration: float
    #: Tenant name for tenant-scoped chaos kinds; ``None`` = everyone.
    target: str | None = None
    #: Chaos scale factor, or an episode's stall seconds.
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS + EPISODE_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r} "
                f"(choose from {', '.join(CHAOS_KINDS + EPISODE_KINDS)})"
            )
        if self.start < 0:
            raise ConfigError(f"window start must be >= 0: {self.start}")
        if self.duration <= 0:
            raise ConfigError(f"window duration must be positive: {self.duration}")
        if self.kind in CHAOS_KINDS and self.magnitude <= 0:
            raise ConfigError(f"chaos magnitude must be positive: {self.magnitude}")
        if self.magnitude < 0:
            raise ConfigError(f"window magnitude must be >= 0: {self.magnitude}")
        if self.kind == "dram-shrink" and not self.magnitude < 1.0:
            raise ConfigError(
                f"dram-shrink magnitude is the *removed* fraction and must "
                f"be < 1: {self.magnitude}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


class FaultSchedule:
    """A run's fault windows, sorted by ``(start, kind, target)``."""

    def __init__(self, windows: Iterable[FaultWindow] = ()) -> None:
        self.windows: tuple[FaultWindow, ...] = tuple(
            sorted(windows, key=lambda w: (w.start, w.kind, w.target or ""))
        )
        self._starts = [w.start for w in self.windows]
        # Running maximum of the window ends: every window before the
        # first reach beyond ``now`` has already closed.
        self._reach: list[float] = []
        reach = 0.0
        for window in self.windows:
            reach = max(reach, window.end)
            self._reach.append(reach)

    def active(self, now: float) -> tuple[FaultWindow, ...]:
        """The windows open at ``now``, in schedule order."""
        first = bisect.bisect_right(self._reach, now)
        last = bisect.bisect_right(self._starts, now)
        return tuple(w for w in self.windows[first:last] if now < w.end)


def episode_windows(
    kind: str,
    rng: np.random.Generator,
    rate: float,
    horizon: int,
    duration: int = 1,
    magnitude: float = 1.0,
) -> list[FaultWindow]:
    """Lay out stochastic episodes over steps ``0 .. horizon - 1``.

    At every step no episode covers, one uniform draw opens an episode of
    ``duration`` steps with probability ``rate``; steps inside an episode
    draw nothing.  A zero rate draws nothing at all.
    """
    windows: list[FaultWindow] = []
    step = 0
    while rate and step < horizon:
        if rng.random() < rate:
            windows.append(FaultWindow(kind, step, duration, magnitude=magnitude))
            step += duration
        else:
            step += 1
    return windows
