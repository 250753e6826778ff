"""Tests for the workload base class and profile generation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.base import RateModelWorkload, pad_to_huge


@pytest.fixture
def rng():
    return np.random.default_rng(4)


def make_workload(num_pages: int = 1024, rate: float = 1.0, **kwargs):
    return RateModelWorkload("test", np.full(num_pages, rate), **kwargs)


class TestPadding:
    def test_pad_to_huge(self):
        assert pad_to_huge(0) == 0
        assert pad_to_huge(1) == 512
        assert pad_to_huge(512) == 512
        assert pad_to_huge(513) == 1024

    def test_unaligned_rates_padded_with_zero(self):
        workload = RateModelWorkload("t", np.ones(100))
        rates = workload.rates_at(0.0)
        assert rates.size == 512
        assert rates[:100].sum() == pytest.approx(100.0)
        assert rates[100:].sum() == 0.0


class TestSizes:
    def test_footprint_accessors(self):
        workload = make_workload(1024)
        assert workload.total_base_pages == 1024
        assert workload.total_huge_pages == 2
        assert workload.footprint_bytes == 1024 * 4096

    def test_file_mapped_subtracted_from_rss(self):
        workload = RateModelWorkload("t", np.ones(1024), file_mapped_bytes=4096 * 24)
        assert workload.resident_bytes == 1000 * 4096
        assert workload.footprint_bytes == 1024 * 4096

    def test_file_exceeding_footprint_rejected(self):
        with pytest.raises(WorkloadError):
            RateModelWorkload("t", np.ones(10), file_mapped_bytes=4096 * 100)

    def test_negative_rates_rejected(self):
        with pytest.raises(WorkloadError):
            RateModelWorkload("t", np.array([1.0, -1.0]))


class TestProfiles:
    def test_deterministic_profile_is_expectation(self, rng):
        workload = make_workload(1024, rate=2.0)
        profile = workload.epoch_profile(0.0, 10.0, rng, stochastic=False)
        assert np.all(profile.counts == 20)

    def test_stochastic_profile_poisson_mean(self, rng):
        workload = make_workload(1024, rate=3.0)
        profile = workload.epoch_profile(0.0, 10.0, rng, stochastic=True)
        assert profile.counts.mean() == pytest.approx(30.0, rel=0.05)

    def test_profile_metadata(self, rng):
        workload = make_workload(write_fraction=0.4)
        profile = workload.epoch_profile(5.0, 2.0, rng)
        assert profile.start_time == 5.0
        assert profile.duration == 2.0
        assert profile.write_fraction == pytest.approx(0.4)

    def test_bad_duration_rejected(self, rng):
        with pytest.raises(WorkloadError):
            make_workload().epoch_profile(0.0, 0.0, rng)

    def test_total_access_rate(self):
        workload = make_workload(1024, rate=2.0)
        assert workload.total_access_rate() == pytest.approx(2048.0)

    def test_describe_mentions_name(self):
        assert "test" in make_workload().describe()


class TestBurstiness:
    def test_long_run_mean_preserved(self, rng):
        workload = make_workload(512 * 8, rate=5.0, burstiness=0.5)
        totals = [
            workload.epoch_profile(0.0, 10.0, rng).huge_counts().sum()
            for _ in range(30)
        ]
        expected = 512 * 8 * 5.0 * 10.0
        assert np.mean(totals) == pytest.approx(expected, rel=0.05)

    def test_bursty_counts_vary_more(self, rng):
        smooth = make_workload(512 * 2, rate=100.0, burstiness=0.0)
        bursty = make_workload(512 * 2, rate=100.0, burstiness=0.8)
        smooth_counts = smooth.epoch_profile(0.0, 1.0, rng).counts
        bursty_counts = bursty.epoch_profile(0.0, 1.0, rng).counts
        assert bursty_counts.std() > 1.5 * smooth_counts.std()

    def test_negative_burstiness_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload(burstiness=-0.5)


class TestDutyCycle:
    def test_duty_clipped_to_floor(self):
        workload = make_workload(
            1024, rate=0.001, duty_threshold=1000.0, duty_floor=0.2
        )
        duty = workload.huge_page_duty(workload.rates_at(0.0))
        assert np.all(duty == pytest.approx(0.2))

    def test_hot_pages_always_active(self):
        workload = make_workload(1024, rate=10.0, duty_threshold=1.0)
        duty = workload.huge_page_duty(workload.rates_at(0.0))
        assert np.all(duty == 1.0)

    def test_disabled_returns_none(self):
        workload = make_workload()
        assert workload.huge_page_duty(workload.rates_at(0.0)) is None

    def test_long_run_mean_preserved_with_duty(self, rng):
        workload = make_workload(
            512 * 8, rate=2.0, duty_threshold=4096.0, duty_floor=0.25
        )
        totals = [
            workload.epoch_profile(0.0, 10.0, rng).huge_counts().sum()
            for _ in range(200)
        ]
        expected = 512 * 8 * 2.0 * 10.0
        assert np.mean(totals) == pytest.approx(expected, rel=0.1)

    def test_idle_epochs_have_zero_counts(self, rng):
        """Duty cycling produces whole-huge-page idle windows (Figure 1)."""
        workload = make_workload(
            512 * 16, rate=1.0, duty_threshold=10_000.0, duty_floor=0.3
        )
        profile = workload.epoch_profile(0.0, 10.0, rng)
        huge_counts = profile.huge_counts()
        assert (huge_counts == 0).any()
        assert (huge_counts > 0).any()

    def test_duty_state_persists(self, rng):
        """With persistence, activity states are positively correlated
        across consecutive epochs."""
        workload = make_workload(
            512 * 64, rate=1.0, duty_threshold=1024.0, duty_floor=0.5,
            duty_persistence=8.0,
        )
        first = workload.epoch_profile(0.0, 10.0, rng).huge_counts() > 0
        second = workload.epoch_profile(10.0, 10.0, rng).huge_counts() > 0
        agreement = (first == second).mean()
        assert agreement > 0.7

    def test_validation(self):
        with pytest.raises(WorkloadError):
            make_workload(duty_threshold=0.0)
        with pytest.raises(WorkloadError):
            make_workload(duty_threshold=1.0, duty_floor=0.0)
        with pytest.raises(WorkloadError):
            make_workload(duty_threshold=1.0, duty_persistence=0.5)
