"""Unit tests for each engine fault class behind the FaultInjector.

Capacity locks and overhead spikes are episode windows laid out up front;
migration failures, wear errors and lost samples are single draws on
their own named streams.  Range checks live in :class:`FaultConfig` and
:class:`FaultWindow`, which own the values.
"""

import numpy as np
import pytest

from repro.config import FaultConfig
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultWindow, episode_windows
from repro.rng import make_rng
from repro.sim.profile import EpochProfile
from repro.units import SUBPAGES_PER_HUGE_PAGE


def injector(seed=0, num_epochs=20, **fields):
    return FaultInjector(FaultConfig(enabled=True, **fields), make_rng(seed), num_epochs)


def profile(num_huge):
    counts = np.full(num_huge * SUBPAGES_PER_HUGE_PAGE, 2.0)
    return EpochProfile(start_time=0.0, duration=30.0, counts=counts)


class TestBinding:
    def test_zero_rate_needs_no_rng(self):
        # A zero rate short-circuits before touching the stream: attempts
        # made outside a storm leave the later draws where they were.
        rates = iter([0.0] * 5 + [0.5] * 50)
        gated = FaultInjector(
            FaultConfig(), make_rng(3), 0, migration_rate=lambda: next(rates)
        )
        plain = FaultInjector(FaultConfig(), make_rng(3), 0, migration_rate=lambda: 0.5)
        assert [gated.should_fail_migration() for _ in range(5)] == [False] * 5
        assert [gated.should_fail_migration() for _ in range(50)] == [
            plain.should_fail_migration() for _ in range(50)
        ]


class TestMigrationFaultModel:
    def test_rate_bounds(self):
        with pytest.raises(ConfigError, match="must be < 1"):
            FaultConfig(enabled=True, migration_failure_rate=1.0)
        with pytest.raises(ConfigError, match="migration_failure_rate"):
            FaultConfig(enabled=True, migration_failure_rate=-0.1)

    def test_deterministic_given_stream(self):
        def draws(seed):
            faults = injector(seed, migration_failure_rate=0.5)
            return [faults.should_fail_migration() for _ in range(50)]

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)

    def test_rate_roughly_respected(self):
        faults = injector(migration_failure_rate=0.25)
        hits = sum(faults.should_fail_migration() for _ in range(4000))
        assert 800 < hits < 1200


class TestCapacityFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigError, match="capacity_exhaustion_rate"):
            FaultConfig(capacity_exhaustion_rate=1.5)
        with pytest.raises(ConfigError, match="capacity_exhaustion_epochs"):
            FaultConfig(capacity_exhaustion_rate=0.5, capacity_exhaustion_epochs=0)

    def test_episode_spans_duration_epochs(self):
        # At rate 1.0 the first draw locks epochs 0-2; the next draw comes
        # only once that episode has closed.
        assert episode_windows("capacity", make_rng(0), 1.0, 7, duration=3) == [
            FaultWindow("capacity", 0, 3),
            FaultWindow("capacity", 3, 3),
            FaultWindow("capacity", 6, 3),
        ]
        faults = injector(capacity_exhaustion_rate=1.0, capacity_exhaustion_epochs=3)
        assert [faults.begin_epoch(e).capacity_locked for e in range(3)] == [True] * 3

    def test_zero_rate_never_locks(self):
        faults = injector(capacity_exhaustion_rate=0.0, capacity_exhaustion_epochs=2)
        assert faults.schedule.windows == ()
        assert not any(faults.begin_epoch(e).capacity_locked for e in range(20))


class TestWearFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigError, match="ue_endurance_writes"):
            FaultConfig(ue_endurance_writes=-1.0)
        with pytest.raises(ConfigError, match="ue_probability"):
            FaultConfig(ue_endurance_writes=100.0, ue_probability=1.5)

    def test_only_worn_candidates_struck(self):
        faults = injector(ue_endurance_writes=100.0, ue_probability=1.0)
        writes = np.array([10, 150, 99, 300, 500], dtype=np.int64)
        struck = faults.sample_ue_pages(writes, np.array([0, 1, 2, 3]))
        # Page 4 is worn but not a candidate (not in slow memory).
        assert struck.tolist() == [1, 3]

    def test_zero_probability_never_strikes(self):
        faults = injector(ue_endurance_writes=1.0, ue_probability=0.0)
        writes = np.full(4, 1000, dtype=np.int64)
        assert faults.sample_ue_pages(writes, np.arange(4)).size == 0

    def test_empty_candidates(self):
        faults = injector(ue_endurance_writes=1.0, ue_probability=1.0)
        assert faults.sample_ue_pages(np.zeros(4, np.int64), np.empty(0)).size == 0


class TestOverheadSpikeModel:
    def test_validation(self):
        with pytest.raises(ConfigError, match="overhead_spike_rate"):
            FaultConfig(overhead_spike_rate=-0.1)
        with pytest.raises(ConfigError, match="overhead_spike_seconds"):
            FaultConfig(overhead_spike_rate=0.1, overhead_spike_seconds=-1.0)
        with pytest.raises(ConfigError, match="magnitude"):
            FaultWindow("overhead", 0, 1, magnitude=-1.0)

    def test_certain_spike(self):
        faults = injector(overhead_spike_rate=1.0, overhead_spike_seconds=0.25)
        assert faults.begin_epoch(0).overhead_spike_seconds == pytest.approx(0.25)

    def test_zero_rate_no_spike(self):
        faults = injector(overhead_spike_rate=0.0, overhead_spike_seconds=0.25)
        assert faults.begin_epoch(0).overhead_spike_seconds == 0.0


class TestSampleLossModel:
    def test_validation(self):
        with pytest.raises(ConfigError, match="sample_loss_rate"):
            FaultConfig(sample_loss_rate=1.1)

    def test_loss_fraction(self):
        _, lost = injector(sample_loss_rate=0.3).observe_profile(profile(2000))
        assert 500 < lost.size < 700
        assert lost.dtype == np.int64

    def test_no_loss_and_no_pages(self):
        true_profile = profile(100)
        observed, lost = injector(sample_loss_rate=0.0).observe_profile(true_profile)
        assert observed is true_profile
        assert lost.size == 0
        _, lost = injector(sample_loss_rate=0.5).observe_profile(profile(0))
        assert lost.size == 0
