"""Tests for trace record/replay."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.base import RateModelWorkload
from repro.workloads.trace import EpochTrace, TraceWorkload, record_trace


@pytest.fixture
def rng():
    return np.random.default_rng(8)


def make_workload():
    return RateModelWorkload("t", np.full(1024, 2.0))


class TestRecord:
    def test_records_requested_epochs(self, rng):
        trace = record_trace(make_workload(), num_epochs=5, epoch=10.0, rng=rng)
        assert len(trace) == 5
        assert trace.epoch == 10.0

    def test_start_times_advance(self, rng):
        trace = record_trace(make_workload(), 3, 10.0, rng)
        starts = [p.start_time for p in trace.profiles]
        assert starts == [0.0, 10.0, 20.0]

    def test_records_exact_subpage_counts(self, rng):
        # Mean 0.5 accesses per subpage: exact per-subpage counts are zero
        # with probability e^-0.5 ~ 0.61, where a spread of the page total
        # would leave nearly every subpage at zero.
        workload = RateModelWorkload("t", np.full(8 * 512, 0.05))
        counts = record_trace(workload, 2, 10.0, rng).profiles[1].counts
        assert 0.55 < (counts == 0).mean() < 0.67

    def test_bad_epoch_count_rejected(self, rng):
        with pytest.raises(WorkloadError):
            record_trace(make_workload(), 0, 10.0, rng)

    def test_append_duration_mismatch_rejected(self, rng):
        trace = EpochTrace("t", epoch=10.0)
        profile = make_workload().epoch_profile(0.0, 5.0, rng)
        with pytest.raises(WorkloadError):
            trace.append(profile)


class TestPersistence:
    def test_round_trip(self, rng, tmp_path):
        trace = record_trace(make_workload(), 4, 10.0, rng)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = EpochTrace.load(path)
        assert loaded.workload_name == "t"
        assert len(loaded) == 4
        for original, restored in zip(trace.profiles, loaded.profiles, strict=True):
            assert np.array_equal(original.counts, restored.counts)
            assert restored.start_time == original.start_time


class TestReplay:
    def test_replay_matches_recording(self, rng):
        trace = record_trace(make_workload(), 3, 10.0, rng)
        replay = TraceWorkload(trace)
        for original in trace.profiles:
            replayed = replay.epoch_profile(0.0, 10.0, rng)
            assert np.array_equal(replayed.counts, original.counts)

    def test_exhaustion_raises(self, rng):
        trace = record_trace(make_workload(), 1, 10.0, rng)
        replay = TraceWorkload(trace)
        replay.epoch_profile(0.0, 10.0, rng)
        with pytest.raises(WorkloadError):
            replay.epoch_profile(10.0, 10.0, rng)

    def test_rewind(self, rng):
        trace = record_trace(make_workload(), 1, 10.0, rng)
        replay = TraceWorkload(trace)
        first = replay.epoch_profile(0.0, 10.0, rng)
        replay.rewind()
        again = replay.epoch_profile(0.0, 10.0, rng)
        assert np.array_equal(first.counts, again.counts)

    def test_epoch_mismatch_rejected(self, rng):
        trace = record_trace(make_workload(), 1, 10.0, rng)
        replay = TraceWorkload(trace)
        with pytest.raises(WorkloadError):
            replay.epoch_profile(0.0, 5.0, rng)

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            TraceWorkload(EpochTrace("t", 10.0))

    def test_paired_policy_comparison(self, rng):
        """The headline use: run two policies on identical access streams."""
        from repro.baselines import AllDramPolicy, StaticFractionPolicy
        from repro.config import SimulationConfig
        from repro.sim.engine import run_simulation

        trace = record_trace(make_workload(), 4, 30.0, rng)
        config = SimulationConfig(duration=120, epoch=30, seed=0)
        baseline = run_simulation(TraceWorkload(trace), AllDramPolicy(), config)
        trace_copy = TraceWorkload(trace)
        trace_copy.rewind()
        static = run_simulation(trace_copy, StaticFractionPolicy(0.5), config)
        assert baseline.average_slowdown == 0.0
        assert static.average_slowdown > 0.0
