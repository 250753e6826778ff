"""Tests for epoch access profiles."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.profile import EpochProfile
from repro.units import SUBPAGES_PER_HUGE_PAGE


def make_profile(num_huge: int = 2, duration: float = 30.0) -> EpochProfile:
    counts = np.zeros(num_huge * SUBPAGES_PER_HUGE_PAGE, dtype=np.int64)
    return EpochProfile(start_time=0.0, duration=duration, counts=counts)


class TestValidation:
    def test_partial_huge_page_rejected(self):
        with pytest.raises(WorkloadError):
            EpochProfile(0.0, 30.0, np.zeros(100, dtype=np.int64))

    def test_bad_duration_rejected(self):
        with pytest.raises(WorkloadError):
            EpochProfile(0.0, 0.0, np.zeros(512, dtype=np.int64))

    def test_2d_counts_rejected(self):
        with pytest.raises(WorkloadError):
            EpochProfile(0.0, 1.0, np.zeros((2, 512), dtype=np.int64))

    def test_bad_write_fraction_rejected(self):
        with pytest.raises(WorkloadError):
            EpochProfile(0.0, 1.0, np.zeros(512, np.int64), write_fraction=1.5)


class TestAggregation:
    def test_shapes(self):
        profile = make_profile(num_huge=3)
        assert profile.num_base_pages == 3 * 512
        assert profile.num_huge_pages == 3
        assert profile.subpage_rows(np.arange(3)).shape == (3, 512)

    def test_huge_counts_sum_subpages(self):
        counts = np.zeros(2 * SUBPAGES_PER_HUGE_PAGE, dtype=np.int64)
        counts[0] = 3
        counts[511] = 4
        counts[512] = 5
        profile = EpochProfile(start_time=0.0, duration=30.0, counts=counts)
        huge = profile.huge_counts()
        assert huge[0] == 7
        assert huge[1] == 5

    def test_total_accesses(self):
        counts = np.zeros(2 * SUBPAGES_PER_HUGE_PAGE, dtype=np.int64)
        counts[10] = 9
        profile = EpochProfile(start_time=0.0, duration=30.0, counts=counts)
        assert profile.huge_counts().sum() == 9

    def test_accessed_masks(self):
        counts = np.zeros(2 * SUBPAGES_PER_HUGE_PAGE, dtype=np.int64)
        counts[0] = 1
        profile = EpochProfile(start_time=0.0, duration=30.0, counts=counts)
        accessed = profile.counts > 0
        assert accessed[0]
        assert not accessed[1]
        assert profile.huge_accessed_mask()[0]
        assert not profile.huge_accessed_mask()[1]


def random_counts(num_huge: int = 4, seed: int = 0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.poisson(3.0, size=num_huge * SUBPAGES_PER_HUGE_PAGE)


def drawn_profile(num_huge: int = 6, seed: int = 0, resolved=(1, 4)):
    """A drawn profile with rows for ``resolved`` and one resolver."""
    gen = np.random.default_rng(seed)
    weights = gen.random((num_huge, SUBPAGES_PER_HUGE_PAGE))
    totals = gen.integers(0, 5_000, size=num_huge)
    ids = np.array(resolved, dtype=np.int64)
    rows = gen.multinomial(
        totals[ids], weights[ids] / weights[ids].sum(axis=1, keepdims=True)
    )
    return EpochProfile.from_totals(
        start_time=0.0,
        duration=30.0,
        huge_totals=totals,
        resolvers=[(0, num_huge, np.random.default_rng(seed + 1), weights)],
        resolved_ids=ids,
        resolved_rows=rows,
    )


class TestViews:
    """The per-2MB fault and fleet views."""

    def test_dense_scaled_equals_rounded_counts(self):
        counts = random_counts()
        profile = EpochProfile(0.0, 30.0, counts, write_fraction=0.3)
        for factor in (0.5, 0.37, 1.8):
            scaled = profile.scaled(factor)
            expected = np.rint(counts * factor).astype(np.int64)
            assert np.array_equal(scaled.counts, expected)
            assert np.array_equal(
                scaled.huge_counts(),
                expected.reshape(-1, SUBPAGES_PER_HUGE_PAGE).sum(axis=1),
            )
            assert scaled.write_fraction == 0.3

    def test_dense_zeroed_equals_zeroed_copy(self):
        counts = random_counts()
        profile = EpochProfile(0.0, 30.0, counts)
        lost = np.array([0, 2])
        zeroed = profile.zeroed(lost)
        expected = counts.reshape(-1, SUBPAGES_PER_HUGE_PAGE).copy()
        expected[lost] = 0
        assert np.array_equal(zeroed.counts, expected.reshape(-1))
        assert np.array_equal(zeroed.huge_counts(), expected.sum(axis=1))
        # The source profile is untouched.
        assert np.array_equal(profile.counts, counts)

    def test_drawn_scaled_rows_sum_to_totals(self):
        profile = drawn_profile()
        scaled = profile.scaled(0.37)
        totals = profile.huge_counts()
        unresolved = np.array([0, 2, 3, 5])
        assert np.array_equal(
            scaled.huge_counts()[unresolved],
            np.rint(totals[unresolved] * 0.37).astype(np.int64),
        )
        rows = scaled.subpage_rows(np.arange(6))
        assert np.array_equal(rows.sum(axis=1), scaled.huge_counts())
        assert np.array_equal(
            rows[[1, 4]],
            np.rint(profile.subpage_rows(np.array([1, 4])) * 0.37),
        )

    def test_drawn_zeroed_keeps_other_pages(self):
        profile = drawn_profile()
        zeroed = profile.zeroed(np.array([0, 1]))
        assert np.all(zeroed.huge_counts()[:2] == 0)
        assert np.all(zeroed.subpage_rows(np.array([0, 1])) == 0)
        assert np.array_equal(
            zeroed.huge_counts()[2:], profile.huge_counts()[2:]
        )
        assert np.array_equal(
            zeroed.subpage_rows(np.array([4])), profile.subpage_rows(np.array([4]))
        )


class TestDrawnProfile:
    def test_counts_stack_every_row_without_workload_draws(self):
        from repro.workloads.base import RateModelWorkload

        rates = np.random.default_rng(2).exponential(
            0.5, size=5 * SUBPAGES_PER_HUGE_PAGE
        )
        workload = RateModelWorkload("w", rates, burstiness=0.3)
        rng = np.random.default_rng(9)
        profile = workload.epoch_profile(0.0, 30.0, rng)
        state = rng.bit_generator.state
        counts = profile.counts
        assert rng.bit_generator.state == state
        rows = profile.subpage_rows(np.arange(5))
        assert np.array_equal(counts, rows.reshape(-1))
        assert np.array_equal(rows.sum(axis=1), profile.huge_counts())

    def test_uncovered_unresolved_pages_rejected(self):
        weights = np.ones((2, SUBPAGES_PER_HUGE_PAGE))
        with pytest.raises(WorkloadError):
            EpochProfile.from_totals(
                start_time=0.0,
                duration=30.0,
                huge_totals=np.array([5, 6, 7]),
                resolvers=[(0, 2, np.random.default_rng(0), weights)],
            )
        with pytest.raises(WorkloadError):
            EpochProfile.from_totals(
                start_time=0.0, duration=30.0, huge_totals=np.array([5]), resolvers=[]
            )

    def test_resolved_pages_need_no_resolver(self):
        rows = np.zeros((1, SUBPAGES_PER_HUGE_PAGE), dtype=np.int64)
        rows[0, 7] = 5
        profile = EpochProfile.from_totals(
            start_time=0.0,
            duration=30.0,
            huge_totals=np.array([5]),
            resolvers=[],
            resolved_ids=np.array([0]),
            resolved_rows=rows,
        )
        assert np.array_equal(profile.counts, rows.reshape(-1))
