"""Tests for the FaultInjector: composition and determinism."""

import numpy as np
import pytest

from repro.config import FaultConfig
from repro.faults import FaultInjector
from repro.rng import make_rng
from repro.sim.profile import EpochProfile
from repro.units import SUBPAGES_PER_HUGE_PAGE


def profile(num_huge=4, fill=3.0):
    counts = np.full(num_huge * SUBPAGES_PER_HUGE_PAGE, fill)
    return EpochProfile(start_time=0.0, duration=30.0, counts=counts)


def make_injector(config, seed=0, num_epochs=20):
    return FaultInjector(config, make_rng(seed), num_epochs)


class TestFromConfig:
    def test_default_config_builds_no_models(self):
        injector = make_injector(FaultConfig())
        assert injector.schedule.windows == ()
        assert injector.migration_rate() == 0.0

    def test_only_requested_models_built(self):
        config = FaultConfig(enabled=True, migration_failure_rate=0.2)
        injector = make_injector(config)
        assert injector.migration_rate() == 0.2
        assert injector.schedule.windows == ()

    def test_all_models_built(self):
        config = FaultConfig(
            enabled=True,
            migration_failure_rate=0.2,
            capacity_exhaustion_rate=0.5,
            ue_endurance_writes=100.0,
            ue_probability=1.0,
            overhead_spike_rate=0.5,
            sample_loss_rate=0.5,
        )
        injector = make_injector(config)
        assert {w.kind for w in injector.schedule.windows} == {"capacity", "overhead"}
        assert injector.migration_rate() == 0.2
        assert injector.sample_ue_pages(np.full(4, 200), np.arange(4)).size == 4
        assert injector.observe_profile(profile(num_huge=64))[1].size > 0


class TestNoOpHooks:
    """With every rate at 0, every hook is inert and draws nothing."""

    def test_inert(self):
        injector = make_injector(FaultConfig())
        events = injector.begin_epoch(0)
        assert events.count == 0
        assert not injector.should_fail_migration()
        true_profile = profile()
        observed, lost = injector.observe_profile(true_profile)
        assert observed is true_profile
        assert lost.size == 0
        assert injector.sample_ue_pages(np.zeros(4), np.arange(4)).size == 0


class TestObserveProfile:
    def test_lost_pages_zeroed_in_observation_only(self):
        config = FaultConfig(enabled=True, sample_loss_rate=0.5)
        injector = make_injector(config, seed=1)
        true_profile = profile(num_huge=64)
        observed, lost = injector.observe_profile(true_profile)
        assert 0 < lost.size < 64
        # The observation drops whole huge pages...
        assert np.all(observed.subpage_rows(lost) == 0)
        kept = np.setdiff1d(np.arange(64), lost)
        assert np.array_equal(
            observed.subpage_rows(kept), true_profile.subpage_rows(kept)
        )
        # ...while ground truth is untouched.
        assert float(true_profile.counts.sum()) == pytest.approx(
            64 * SUBPAGES_PER_HUGE_PAGE * 3.0
        )


class TestDeterminismAndDecorrelation:
    def test_same_seed_same_schedule(self):
        def schedule(seed):
            config = FaultConfig(
                enabled=True,
                migration_failure_rate=0.3,
                capacity_exhaustion_rate=0.2,
                overhead_spike_rate=0.2,
            )
            injector = make_injector(config, seed=seed)
            events = [injector.begin_epoch(e) for e in range(20)]
            fails = [injector.should_fail_migration() for _ in range(20)]
            return events, fails

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_adding_one_model_leaves_others_untouched(self):
        """Child streams decorrelate models: enabling sample loss must not
        shift the capacity-exhaustion schedule."""

        def capacity_schedule(**extra):
            config = FaultConfig(
                enabled=True, capacity_exhaustion_rate=0.25, **extra
            )
            injector = make_injector(config, seed=5, num_epochs=40)
            return [injector.begin_epoch(e).capacity_locked for e in range(40)]

        assert capacity_schedule() == capacity_schedule(sample_loss_rate=0.5)
