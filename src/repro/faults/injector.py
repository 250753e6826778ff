"""Deterministic, seeded fault injection for the epoch engine.

The :class:`FaultInjector` draws every fault class from its own named
child stream of the simulation RNG (via :func:`repro.rng.child_rng`).
Two consequences:

* runs are reproducible — the same seed yields the same fault schedule,
  byte for byte, including :meth:`repro.sim.engine.SimulationResult.fault_summary`;
* fault classes are decorrelated — turning wear errors on does not shift
  the epochs at which capacity exhaustion strikes.

Capacity locks and overhead spikes are episodes laid out up front as one
:class:`~repro.faults.schedule.FaultSchedule` over the run's epochs.
Migration failures, lost samples and wear errors are single draws taken
when the engine asks.  The injector decides *what goes wrong*; the
degradation responses (retry with backoff, deferred demotions, page
rescue) live with the components they protect, so the default
no-injector path is untouched.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.config import FaultConfig
from repro.faults.schedule import FaultSchedule, episode_windows
from repro.rng import child_rng
from repro.sim.profile import EpochProfile


@dataclass(frozen=True)
class EpochFaultEvents:
    """What the injector scheduled for one epoch."""

    #: The slow tier refuses new demotions this epoch.
    capacity_locked: bool = False
    #: Extra monitoring overhead from an injected spike, seconds.
    overhead_spike_seconds: float = 0.0

    @property
    def count(self) -> int:
        """Number of distinct fault events scheduled."""
        return int(self.capacity_locked) + int(self.overhead_spike_seconds > 0)


class FaultInjector:
    """One run's engine faults, each drawn from its own named stream.

    ``num_epochs`` is the horizon the episode schedule covers.
    ``migration_rate`` overrides the config's fixed transient migration
    failure rate with a live lookup; the fleet passes its chaos engine's
    migration-storm rate for the tenant.
    """

    def __init__(
        self,
        config: FaultConfig,
        rng: np.random.Generator,
        num_epochs: int,
        migration_rate: Callable[[], float] | None = None,
    ) -> None:
        self.config = config
        self.migration_rate = migration_rate or (lambda: config.migration_failure_rate)
        self._migration_rng = child_rng(rng, "faults:migration")
        self._wear_rng = child_rng(rng, "faults:wear")
        self._samples_rng = child_rng(rng, "faults:samples")
        self.schedule = FaultSchedule(
            episode_windows(
                "capacity",
                child_rng(rng, "faults:capacity"),
                config.capacity_exhaustion_rate,
                num_epochs,
                duration=config.capacity_exhaustion_epochs,
            )
            + episode_windows(
                "overhead",
                child_rng(rng, "faults:overhead"),
                config.overhead_spike_rate,
                num_epochs,
                magnitude=config.overhead_spike_seconds,
            )
        )

    # ------------------------------------------------------------------
    # Per-epoch schedule
    # ------------------------------------------------------------------

    def begin_epoch(self, epoch_index: int) -> EpochFaultEvents:
        """This epoch's scheduled events (capacity locks, spikes)."""
        locked, spike = False, 0.0
        for window in self.schedule.active(epoch_index):
            if window.kind == "capacity":
                locked = True
            else:
                spike = window.magnitude
        return EpochFaultEvents(capacity_locked=locked, overhead_spike_seconds=spike)

    # ------------------------------------------------------------------
    # Hooks called by the components
    # ------------------------------------------------------------------

    def should_fail_migration(self) -> bool:
        """One migration batch attempt: does it transiently fail?"""
        rate = self.migration_rate()
        return rate > 0.0 and bool(self._migration_rng.random() < rate)

    def observe_profile(
        self, profile: EpochProfile
    ) -> tuple[EpochProfile, np.ndarray]:
        """The profile as the monitoring pipeline observed it.

        Lost access-bit samples zero out whole huge pages in the *policy's*
        view; the engine charges slow-memory stalls from the true profile,
        so ground truth is unaffected.  Returns the (possibly degraded)
        profile and the lost huge-page ids.
        """
        rate = self.config.sample_loss_rate
        if rate == 0.0 or profile.num_huge_pages <= 0:
            return profile, np.empty(0, dtype=np.int64)
        draws = self._samples_rng.random(profile.num_huge_pages)
        lost = np.flatnonzero(draws < rate).astype(np.int64)
        if lost.size == 0:
            return profile, lost
        return profile.zeroed(lost), lost

    def sample_ue_pages(
        self, write_counts: np.ndarray, slow_ids: np.ndarray
    ) -> np.ndarray:
        """Slow pages struck by an uncorrectable error this epoch.

        A slow region whose cumulative writes reach ``ue_endurance_writes``
        is worn; each worn region independently suffers an uncorrectable
        error with probability ``ue_probability``.  The engine models the
        recovery: the page is promoted through the correction path and its
        wear counter resets.
        """
        slow_ids = np.asarray(slow_ids, dtype=np.int64)
        endurance = self.config.ue_endurance_writes
        if endurance <= 0 or slow_ids.size == 0:
            return slow_ids[:0]
        worn = slow_ids[write_counts[slow_ids] >= endurance]
        if worn.size == 0 or self.config.ue_probability == 0.0:
            return worn[:0]
        return worn[self._wear_rng.random(worn.size) < self.config.ue_probability]
