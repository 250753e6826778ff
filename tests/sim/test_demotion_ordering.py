"""Demotion priority must survive dedupe, backpressure, and retries.

The ordering contract under test: a demotion list's order IS its
priority (coldest first).  Any layer that truncates or defers — the
capacity backpressure split, retry-exhausted migration batches, the
first-seen dedupe — must preserve that order, or backpressure silently
demotes the lowest-numbered pages instead of the coldest.
"""

import numpy as np
import pytest

from repro.config import FaultConfig, SimulationConfig, ThermostatConfig
from repro.core.thermostat import ThermostatPolicy
from repro.faults.injector import FaultInjector
from repro.mem.numa import NumaTopology
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.sim.engine import EpochSimulation
from repro.sim.profile import EpochProfile
from repro.sim.state import TieredMemoryState
from repro.units import HUGE_PAGE_SIZE, SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import RateModelWorkload


@pytest.fixture
def state() -> TieredMemoryState:
    return TieredMemoryState(
        num_huge_pages=16,
        topology=NumaTopology.small(),
        clock=VirtualClock(),
    )


class TestBackpressureOrdering:
    def test_near_full_slow_tier_keeps_head_of_list(self, state):
        """Only the first-submitted (highest-priority) pages fit."""
        state.topology.slow.tier.set_soft_limit(3 * HUGE_PAGE_SIZE)
        moved = state.demote(np.array([9, 2, 14, 5, 11]))
        assert moved == 3
        assert sorted(state.slow_ids().tolist()) == [2, 9, 14]
        assert state.last_deferred_demotions.tolist() == [5, 11]

    def test_duplicates_dedupe_by_first_seen_position(self, state):
        """A repeated id must not displace a higher-priority page."""
        state.topology.slow.tier.set_soft_limit(2 * HUGE_PAGE_SIZE)
        state.demote(np.array([7, 3, 7, 1, 3, 12]))
        # First-seen order is [7, 3, 1, 12]; the first two fit.
        assert sorted(state.slow_ids().tolist()) == [3, 7]
        assert state.last_deferred_demotions.tolist() == [1, 12]

    def test_lock_defers_everything_in_order(self, state):
        state.demotion_locked = True
        assert state.demote(np.array([8, 1, 5])) == 0
        assert state.last_deferred_demotions.tolist() == [8, 1, 5]


class TestRetryExhaustedOrdering:
    def _failing_state(self, seed: int = 0) -> TieredMemoryState:
        state = TieredMemoryState(
            num_huge_pages=16,
            topology=NumaTopology.small(),
            clock=VirtualClock(),
        )
        # Near-certain batch failure: with retries exhausted the whole
        # batch stays put and must come back as deferrals.
        state.migration.injector = FaultInjector(
            FaultConfig(enabled=True, migration_failure_rate=0.999),
            make_rng(seed),
            num_epochs=0,
        )
        return state

    def test_exhausted_batch_defers_in_submission_order(self):
        state = self._failing_state()
        moved = state.demote(np.array([6, 2, 11]))
        assert moved == 0
        assert state.last_deferred_demotions.tolist() == [6, 2, 11]
        assert not state.slow_mask().any()

    def test_exhausted_head_precedes_backpressure_tail(self):
        state = self._failing_state()
        state.topology.slow.tier.set_soft_limit(2 * HUGE_PAGE_SIZE)
        moved = state.demote(np.array([9, 4, 13, 1]))
        assert moved == 0
        # [9, 4] fit but failed their batch; [13, 1] never fit.  The
        # deferral list keeps the original priority order end-to-end.
        assert state.last_deferred_demotions.tolist() == [9, 4, 13, 1]


def _rated_profile(per_page_counts: np.ndarray, epoch: float) -> EpochProfile:
    """A profile where huge page i's traffic sits on its first subpage."""
    counts = np.zeros(per_page_counts.size * SUBPAGES_PER_HUGE_PAGE, np.int64)
    counts[:: SUBPAGES_PER_HUGE_PAGE] = per_page_counts
    return EpochProfile(start_time=0.0, duration=epoch, counts=counts)


class TestPolicyDemotesColdestFirst:
    def _policy_and_state(self, num=16):
        config = ThermostatConfig(
            sample_fraction=1.0,
            max_demotion_fraction=0.25,
            tolerable_slowdown=0.5,
        )
        policy = ThermostatPolicy(config)
        state = TieredMemoryState(
            num_huge_pages=num,
            topology=NumaTopology.small(),
            clock=VirtualClock(),
        )
        return policy, state

    def test_demotion_cap_keeps_the_coldest(self):
        """With the cap binding, exactly the lowest-rate pages demote."""
        policy, state = self._policy_and_state(num=16)
        rng = make_rng(3)
        epoch = 30.0
        # Epoch 1: no pending sample yet; the policy splits all pages.
        state.clock.advance(epoch)
        policy.on_epoch(state, _rated_profile(np.zeros(16, np.int64), epoch), rng)
        # Epoch 2: distinct per-page counts; cap = 25% of 16 = 4 pages.
        per_page = np.arange(16, dtype=np.int64) * 7 + 1
        state.clock.advance(epoch)
        policy.on_epoch(state, _rated_profile(per_page, epoch), rng)
        demoted = sorted(state.slow_ids().tolist())
        assert len(demoted) == 4
        assert demoted == [0, 1, 2, 3]  # the four lowest-rate pages

    def test_dram_budget_forces_coldest_known_pages(self):
        """Budget-forced demotions take rated-cold pages before unrated."""
        policy, state = self._policy_and_state(num=16)
        rng = make_rng(3)
        epoch = 30.0
        state.clock.advance(epoch)
        policy.on_epoch(state, _rated_profile(np.zeros(16, np.int64), epoch), rng)
        # Rates ascending in page id; budget allows only 12 fast pages, so
        # 4 must go — and they must be the 4 coldest-rated.
        policy.set_dram_budget(12 * HUGE_PAGE_SIZE)
        per_page = np.arange(16, dtype=np.int64) * 11 + 2
        state.clock.advance(epoch)
        policy.on_epoch(state, _rated_profile(per_page, epoch), rng)
        demoted = sorted(state.slow_ids().tolist())
        assert len(demoted) >= 4
        assert set([0, 1, 2, 3]).issubset(demoted)

    def test_deferred_pages_reoffered_ahead_of_fresh_candidates(self):
        """Deferral carry-over keeps its priority at the head of the list."""
        policy, state = self._policy_and_state(num=16)
        rng = make_rng(3)
        epoch = 30.0
        state.clock.advance(epoch)
        policy.on_epoch(state, _rated_profile(np.zeros(16, np.int64), epoch), rng)
        # Lock the slow tier: every candidate this epoch is deferred.
        state.demotion_locked = True
        per_page = np.arange(16, dtype=np.int64) * 7 + 1
        state.clock.advance(epoch)
        policy.on_epoch(state, _rated_profile(per_page, epoch), rng)
        deferred_first = state.last_deferred_demotions.copy()
        assert deferred_first.size > 0
        # Unlock with room for one page: the head of the deferral list —
        # the coldest page from last epoch — must demote first.
        state.demotion_locked = False
        state.topology.slow.tier.set_soft_limit(1 * HUGE_PAGE_SIZE)
        state.clock.advance(epoch)
        policy.on_epoch(state, _rated_profile(per_page, epoch), rng)
        assert state.slow_ids().tolist() == [int(deferred_first[0])]


class TestEngineRunWithPressure:
    def test_audited_run_under_slow_tier_pressure(self):
        """End-to-end: a near-full slow tier defers without corrupting
        accounting (the invariant auditor runs every epoch)."""
        from repro.mem.tiers import TierSpec
        from repro.units import GB

        num_huge = 64
        per_page = np.concatenate(
            [np.full(48, 1.0), np.full(16, 5000.0)]
        )
        rates = np.repeat(per_page / 512, 512)
        workload = RateModelWorkload("pressure", rates)
        # Slow tier fits only 8 of the ~48 cold pages.
        topology = NumaTopology(
            fast=TierSpec.dram(1 * GB),
            slow=TierSpec.slow(8 * HUGE_PAGE_SIZE),
        )
        sim = EpochSimulation(
            workload,
            ThermostatPolicy(),
            SimulationConfig(duration=600, epoch=30, seed=5),
            topology=topology,
            audit=True,
        )
        result = sim.run()
        assert sim.auditor is not None and sim.auditor.checks_run == 20
        slow = result.state.slow_ids()
        assert 0 < slow.size <= 8
        # Every demoted page is from the cold band despite the pressure.
        assert slow.max() < 48
