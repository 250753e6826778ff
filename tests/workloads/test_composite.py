"""Tests for multi-tenant composite workloads."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.thermostat import ThermostatPolicy
from repro.errors import WorkloadError
from repro.rng import make_rng
from repro.sim.engine import run_simulation
from repro.units import SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import RateModelWorkload
from repro.workloads.composite import CompositeWorkload


def make_member(name, num_huge, rate_per_page):
    rates = np.full(num_huge * SUBPAGES_PER_HUGE_PAGE,
                    rate_per_page / SUBPAGES_PER_HUGE_PAGE)
    return RateModelWorkload(name, rates, baseline_ops_per_second=100.0)


class TestConstruction:
    def test_footprints_concatenate(self):
        composite = CompositeWorkload(
            "pair", [make_member("a", 4, 1.0), make_member("b", 6, 1.0)]
        )
        assert composite.total_huge_pages == 10
        assert composite.member_range(0) == (0, 4)
        assert composite.member_range(1) == (4, 10)

    def test_rates_concatenate(self):
        composite = CompositeWorkload(
            "pair", [make_member("a", 2, 1.0), make_member("b", 2, 100.0)]
        )
        rates = composite.rates_at(0.0)
        assert rates.size == 4 * SUBPAGES_PER_HUGE_PAGE
        assert rates[: 2 * 512].sum() == pytest.approx(2.0)
        assert rates[2 * 512 :].sum() == pytest.approx(200.0)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            CompositeWorkload("empty", [])

    def test_growing_member_rejected(self):
        from repro.workloads.cassandra import CassandraWorkload

        growing = CassandraWorkload(
            "grow",
            np.full(512, 1.0),
            growth_bytes=4 * 2 * 1024 * 1024,
            growth_duration=100.0,
            file_mapped_bytes=0,
        )
        with pytest.raises(WorkloadError):
            CompositeWorkload("bad", [growing])

    def test_bad_member_index(self):
        composite = CompositeWorkload("one", [make_member("a", 2, 1.0)])
        with pytest.raises(WorkloadError):
            composite.member_range(1)


class TestSharedBudget:
    def test_budget_flows_to_coldest_tenant(self):
        """A shared Thermostat gives the slow tier to whichever tenant has
        the coldest pages — host-level efficiency the per-VM view misses."""
        cold_tenant = make_member("batch", 16, 5.0)       # nearly idle
        hot_tenant = make_member("frontend", 16, 50_000.0)
        composite = CompositeWorkload("host", [cold_tenant, hot_tenant])
        result = run_simulation(
            composite,
            ThermostatPolicy(),
            SimulationConfig(duration=1200, epoch=30, seed=6),
        )
        fractions = composite.member_cold_fractions(result.state.slow_mask())
        assert fractions["batch"] > 0.8
        assert fractions["frontend"] < 0.1

    def test_profiles_concatenate(self):
        composite = CompositeWorkload(
            "pair", [make_member("a", 2, 10.0), make_member("b", 2, 10.0)]
        )
        rng = np.random.default_rng(0)
        profile = composite.epoch_profile(0.0, 30.0, rng, stochastic=False)
        assert profile.num_huge_pages == 4


def make_bursty_member(name, num_huge, seed, duty_threshold=200.0):
    rates = np.random.default_rng(seed).exponential(
        0.5, size=num_huge * SUBPAGES_PER_HUGE_PAGE
    )
    return RateModelWorkload(
        name,
        rates,
        burstiness=0.4,
        duty_threshold=duty_threshold,
        duty_floor=0.2,
    )


class TestMemberRendering:
    """A composite renders each member with the member's own model."""

    def test_one_member_composite_equals_member(self):
        alone = make_bursty_member("m", 6, seed=1)
        composite = CompositeWorkload("m", [make_bursty_member("m", 6, seed=1)])
        rng_alone, rng_composite = make_rng(3), make_rng(3)
        ids = np.array([0, 2, 5])
        for epoch in range(5):
            mine = alone.epoch_profile(30.0 * epoch, 30.0, rng_alone)
            theirs = composite.epoch_profile(30.0 * epoch, 30.0, rng_composite)
            assert np.array_equal(mine.huge_counts(), theirs.huge_counts())
            assert np.array_equal(mine.subpage_rows(ids), theirs.subpage_rows(ids))

        config = SimulationConfig(duration=300, epoch=30, seed=4)
        solo = run_simulation(
            make_bursty_member("m", 6, seed=1), ThermostatPolicy(), config
        )
        wrapped = run_simulation(
            CompositeWorkload("m", [make_bursty_member("m", 6, seed=1)]),
            ThermostatPolicy(),
            config,
        )
        for name in ("slowdown", "cold_fraction", "slow_access_rate"):
            assert np.array_equal(
                solo.series(name).values, wrapped.series(name).values
            )

    def test_member_duty_off_pages_stay_idle(self):
        composite = CompositeWorkload(
            "pair",
            [
                make_bursty_member("a", 8, seed=2),
                make_bursty_member("b", 8, seed=3, duty_threshold=500.0),
            ],
        )
        rng = make_rng(5)
        idle_pages = 0
        for epoch in range(6):
            totals = composite.epoch_profile(30.0 * epoch, 30.0, rng).huge_counts()
            for index, member in enumerate(composite.members):
                start, end = composite.member_range(index)
                off = ~member._duty_on
                assert np.all(totals[start:end][off] == 0)
                idle_pages += int(off.sum())
        assert idle_pages > 0
