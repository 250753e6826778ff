"""Tests for the one fault-window type, the schedule and episode layout."""

import itertools

import pytest

from repro.errors import ConfigError
from repro.faults import FaultSchedule, FaultWindow, episode_windows
from repro.rng import make_rng


class TestFaultWindow:
    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultWindow("meteor-strike", 0, 1)
        with pytest.raises(ConfigError, match="start"):
            FaultWindow("capacity", -1, 1)
        with pytest.raises(ConfigError, match="duration"):
            FaultWindow("capacity", 0, 0)
        with pytest.raises(ConfigError, match="chaos magnitude"):
            FaultWindow("noisy-neighbor", 0, 1, magnitude=0.0)
        with pytest.raises(ConfigError, match="removed"):
            FaultWindow("dram-shrink", 0, 1, magnitude=1.0)
        # An episode may carry zero stall seconds (the draw still happens).
        assert FaultWindow("clock_stall", 0, 1, magnitude=0.0).magnitude == 0.0

    def test_end(self):
        assert FaultWindow("capacity", 4, 3).end == 7


class TestFaultSchedule:
    def test_sorted_by_start_kind_target(self):
        windows = [
            FaultWindow("noisy-neighbor", 30.0, 10.0, target="b"),
            FaultWindow("noisy-neighbor", 30.0, 10.0, target="a"),
            FaultWindow("dram-shrink", 30.0, 10.0, magnitude=0.5),
            FaultWindow("latency-spike", 0.0, 10.0),
        ]
        schedule = FaultSchedule(windows)
        assert [(w.start, w.kind, w.target) for w in schedule.windows] == [
            (0.0, "latency-spike", None),
            (30.0, "dram-shrink", None),
            (30.0, "noisy-neighbor", "a"),
            (30.0, "noisy-neighbor", "b"),
        ]

    def test_active_is_half_open_and_sees_long_windows(self):
        long = FaultWindow("latency-spike", 0.0, 100.0)
        short = FaultWindow("noisy-neighbor", 10.0, 5.0)
        late = FaultWindow("tenant-resize", 50.0, 10.0)
        schedule = FaultSchedule([late, short, long])
        assert schedule.active(0.0) == (long,)
        assert schedule.active(10.0) == (long, short)
        # A short window closing earlier does not hide a long one still open.
        assert schedule.active(20.0) == (long,)
        assert schedule.active(55.0) == (long, late)
        assert schedule.active(60.0) == (long,)
        assert schedule.active(100.0) == ()
        assert FaultSchedule().active(0.0) == ()


class TestEpisodeWindows:
    def test_draws_only_outside_open_windows(self):
        # At rate 1 every draw opens an episode, so the number of windows
        # is the number of draws taken.
        rng = make_rng(0)
        windows = episode_windows("capacity", rng, 1.0, 10, duration=4)
        assert [w.start for w in windows] == [0, 4, 8]
        fresh = make_rng(0)
        fresh.random(3)
        assert rng.random() == fresh.random()

    def test_zero_rate_draws_nothing(self):
        rng = make_rng(0)
        assert episode_windows("overhead", rng, 0.0, 100) == []
        assert rng.random() == make_rng(0).random()

    def test_layout_is_seeded(self):
        def layout(seed):
            return episode_windows("slow_consumer", make_rng(seed), 0.3, 200, duration=3)

        assert layout(5) == layout(5)
        assert layout(5) != layout(6)
        starts = [w.start for w in layout(5)]
        assert all(b - a >= 3 for a, b in itertools.pairwise(starts))
