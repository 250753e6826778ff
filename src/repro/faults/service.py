"""Seeded fault injection for the online placement service path.

The offline engine's :class:`~repro.faults.injector.FaultInjector` covers
the *memory* adversity classes (migration failures, capacity exhaustion,
wear).  The service path has its own: consumers that stall, events that
arrive corrupted, clocks that freeze.  :class:`ServiceFaultInjector`
draws each from its own named child RNG stream — the same decorrelation
contract as the engine-side injector, so enabling corrupt events never
shifts the lines at which the consumer stalls, and a seeded soak replays
its fault schedule bit-identically.

Consumer and clock stalls are episodes laid out up front as one
:class:`~repro.faults.schedule.FaultSchedule` over the stream's wire
lines; corruption is a single draw per line.  The injector is consulted
by the synthetic traffic driver (:mod:`repro.service.traffic`); a fault
is on exactly when its rate is above 0, so the default configuration
injects nothing and draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.faults.schedule import FaultSchedule, episode_windows
from repro.obs.live import NULL_TELEMETRY
from repro.rng import child_rng


@dataclass(frozen=True)
class ServiceFaultConfig:
    """Service-path fault knobs (all off by default)."""

    #: Per-line probability that the consumer opens a stall window.
    slow_consumer_rate: float = 0.0
    #: Extra per-item processing latency while stalled, seconds.
    slow_consumer_stall_seconds: float = 0.05
    #: How many consecutive lines each stall window lasts.
    slow_consumer_duration_ticks: int = 4
    #: Per-event probability of in-flight corruption.
    corrupt_event_rate: float = 0.0
    #: Per-line probability that the observed clock freezes.
    clock_stall_rate: float = 0.0
    #: Seconds the observed clock stands still per stall.
    clock_stall_seconds: float = 0.5

    def __post_init__(self) -> None:
        for name in ("slow_consumer_rate", "corrupt_event_rate", "clock_stall_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]: {value}")
        for name in (
            "slow_consumer_stall_seconds",
            "clock_stall_seconds",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0: {getattr(self, name)}")
        if self.slow_consumer_duration_ticks < 1:
            raise ConfigError(
                f"slow_consumer_duration_ticks must be >= 1: "
                f"{self.slow_consumer_duration_ticks}"
            )


class ServiceFaultInjector:
    """One drive's service faults over ``num_ticks`` wire lines."""

    def __init__(
        self, config: ServiceFaultConfig, rng: np.random.Generator, num_ticks: int
    ) -> None:
        self.config = config
        #: Live telemetry plane; when active, every fault that actually
        #: fires becomes a ``fault`` event (span timeline + flight ring).
        #: Strictly observational — binding telemetry draws nothing.
        self.telemetry = NULL_TELEMETRY
        self._corrupt_rng = child_rng(rng, "service-faults:corrupt_event")
        self.schedule = FaultSchedule(
            episode_windows(
                "slow_consumer",
                child_rng(rng, "service-faults:slow_consumer"),
                config.slow_consumer_rate,
                num_ticks,
                duration=config.slow_consumer_duration_ticks,
                magnitude=config.slow_consumer_stall_seconds,
            )
            + episode_windows(
                "clock_stall",
                child_rng(rng, "service-faults:clock_stall"),
                config.clock_stall_rate,
                num_ticks,
                magnitude=config.clock_stall_seconds,
            )
        )

    def bind_telemetry(self, telemetry) -> None:
        """Attach a telemetry plane (fault firings become trace events)."""
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    # Hooks consulted by the traffic driver, once per wire line (tick)
    # ------------------------------------------------------------------

    def consumer_stall_seconds(self, tick: int, now: float = 0.0) -> float:
        """Extra per-item latency this tick (0.0 = consumer healthy)."""
        return self._stall("slow_consumer", tick, now)

    def clock_stall_seconds(self, tick: int, now: float = 0.0) -> float:
        """Seconds the observed clock freezes at this tick (0.0 = none)."""
        return self._stall("clock_stall", tick, now)

    def _stall(self, kind: str, tick: int, now: float) -> float:
        for window in self.schedule.active(tick):
            if window.kind == kind and window.magnitude:
                if self.telemetry.active:
                    self.telemetry.record(
                        "fault", kind, now, duration=window.magnitude
                    )
                return window.magnitude
        return 0.0

    def maybe_corrupt(self, payload: str, now: float = 0.0) -> tuple[str, bool]:
        """(possibly mangled payload, whether corruption struck)."""
        rate = self.config.corrupt_event_rate
        if rate == 0.0 or not self._corrupt_rng.random() < rate:
            return payload, False
        if self.telemetry.active:
            self.telemetry.record("fault", "corrupt_event", now)
        return self._mangle(payload), True

    def _mangle(self, payload: str) -> str:
        """A seeded mangling of one serialized event.

        Three corruption shapes, drawn uniformly: truncation (the torn
        write), a flipped byte mid-payload (the bit error), and swapped
        braces (structurally broken JSON).  All three must fail schema
        validation, never silently parse into a different valid event.
        """
        if not payload:
            return "\x00"
        rng = self._corrupt_rng
        shape = int(rng.integers(0, 3))
        if shape == 0:
            cut = int(rng.integers(0, max(len(payload) - 1, 1)))
            return payload[:cut]
        if shape == 1:
            pos = int(rng.integers(0, len(payload)))
            return payload[:pos] + "\x00" + payload[pos + 1 :]
        return payload.replace("{", "[", 1)
