"""Tests for the FaultInjector facade: composition and determinism."""

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


class TestFromConfig:
    def test_default_config_builds_no_models(self):
        injector = FaultInjector.from_config(FaultConfig(), make_rng(0))
        assert injector.migration is None
        assert injector.capacity is None
        assert injector.wear is None
        assert injector.overhead is None
        assert injector.samples is None

    def test_only_requested_models_built(self):
        config = FaultConfig(enabled=True, migration_failure_rate=0.2)
        injector = FaultInjector.from_config(config, make_rng(0))
        assert injector.migration is not None
        assert injector.capacity is None

    def test_all_models_built(self):
        config = FaultConfig(
            enabled=True,
            migration_failure_rate=0.2,
            capacity_exhaustion_rate=0.1,
            ue_endurance_writes=100.0,
            overhead_spike_rate=0.1,
            sample_loss_rate=0.1,
        )
        injector = FaultInjector.from_config(config, make_rng(0))
        for model in (
            injector.migration,
            injector.capacity,
            injector.wear,
            injector.overhead,
            injector.samples,
        ):
            assert model is not None


class TestNoOpHooks:
    """With no models, every hook is inert and draws nothing."""

    def test_inert(self):
        injector = FaultInjector.from_config(FaultConfig(), make_rng(0))
        events = injector.begin_epoch()
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
        injector = FaultInjector.from_config(config, make_rng(1))
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
            injector = FaultInjector.from_config(config, make_rng(seed))
            events = [injector.begin_epoch() for _ in range(20)]
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
            injector = FaultInjector.from_config(config, make_rng(5))
            return [injector.begin_epoch().capacity_locked for _ in range(40)]

        assert capacity_schedule() == capacity_schedule(sample_loss_rate=0.5)
