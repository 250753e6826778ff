"""Tests for the epoch simulation engine."""

import numpy as np
import pytest

from repro.baselines import AllDramPolicy, StaticFractionPolicy
from repro.config import SimulationConfig, ThermostatConfig
from repro.core.thermostat import ThermostatPolicy
from repro.sim.engine import EpochSimulation, run_simulation
from repro.units import SLOW_MEMORY_LATENCY, SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import RateModelWorkload


def make_workload(num_huge: int = 8, rate_per_page: float = 100.0) -> RateModelWorkload:
    rates = np.full(num_huge * SUBPAGES_PER_HUGE_PAGE, rate_per_page / 512)
    return RateModelWorkload("uniform", rates, baseline_ops_per_second=1000.0)


class TestAllDramRun:
    def test_no_slow_accesses(self):
        result = run_simulation(
            make_workload(),
            AllDramPolicy(),
            SimulationConfig(duration=120, epoch=30, seed=0),
        )
        assert result.average_slowdown == 0.0
        assert result.average_cold_fraction == 0.0
        assert result.stats.counter("total_slow_accesses").value == 0

    def test_epoch_count(self):
        result = run_simulation(
            make_workload(),
            AllDramPolicy(),
            SimulationConfig(duration=100, epoch=30, seed=0),
        )
        assert result.stats.counter("epochs").value == 3
        assert result.duration == pytest.approx(90.0)

    def test_throughput_matches_baseline(self):
        result = run_simulation(
            make_workload(),
            AllDramPolicy(),
            SimulationConfig(duration=60, epoch=30, seed=0),
        )
        assert result.achieved_ops_per_second == pytest.approx(1000.0)


class TestStaticPlacementRun:
    def test_slowdown_matches_model(self):
        """Demoting half a uniform workload costs half the accesses * t_s."""
        workload = make_workload(num_huge=10, rate_per_page=100.0)
        result = run_simulation(
            workload,
            StaticFractionPolicy(0.5),
            SimulationConfig(duration=600, epoch=30, seed=3, stochastic=False),
        )
        # Placement takes effect after epoch 1; expected slow rate is
        # 500 acc/s -> slowdown 500 * 1us = 0.05%.
        expected = 0.5 * 10 * 100.0 * SLOW_MEMORY_LATENCY
        settled = result.series("slowdown").values[2:]
        assert np.mean(settled) == pytest.approx(expected, rel=0.05)

    def test_cold_fraction_series_recorded(self):
        result = run_simulation(
            make_workload(),
            StaticFractionPolicy(0.25),
            SimulationConfig(duration=120, epoch=30, seed=0),
        )
        assert result.final_cold_fraction == pytest.approx(0.25)
        assert len(result.series("cold_fraction")) == 4

    def test_footprint_breakdown_recorded(self):
        result = run_simulation(
            make_workload(num_huge=4),
            StaticFractionPolicy(0.5),
            SimulationConfig(duration=90, epoch=30, seed=0),
        )
        cold = result.series("cold_2mb_bytes").last().value
        hot = result.series("hot_2mb_bytes").last().value
        assert cold + hot == 4 * 2 * 1024 * 1024


class TestResultMetrics:
    def test_throughput_degradation_formula(self):
        result = run_simulation(
            make_workload(),
            AllDramPolicy(),
            SimulationConfig(duration=60, epoch=30, seed=0),
        )
        assert result.throughput_degradation == pytest.approx(0.0)

    def test_summary_keys(self):
        result = run_simulation(
            make_workload(),
            AllDramPolicy(),
            SimulationConfig(duration=60, epoch=30, seed=0),
        )
        summary = result.summary()
        for key in (
            "average_slowdown",
            "average_cold_fraction",
            "final_cold_fraction",
            "migration_rate_mbps",
            "correction_rate_mbps",
        ):
            assert key in summary


class TestDeterminism:
    def test_same_seed_same_result(self):
        def run_once():
            return run_simulation(
                make_workload(),
                StaticFractionPolicy(0.5),
                SimulationConfig(duration=300, epoch=30, seed=9),
            )

        a, b = run_once(), run_once()
        assert np.array_equal(
            a.series("slow_access_rate").values, b.series("slow_access_rate").values
        )

    def test_different_seed_differs(self):
        def run_once(seed):
            return run_simulation(
                make_workload(),
                StaticFractionPolicy(0.5),
                SimulationConfig(duration=300, epoch=30, seed=seed),
            )

        a, b = run_once(1), run_once(2)
        assert not np.array_equal(
            a.series("slow_access_rate").values, b.series("slow_access_rate").values
        )


    def test_policies_see_common_random_numbers(self):
        """Which pages a policy splits (and so resolves to subpage rows)
        never moves the workload's draws: two policies under one seed see
        the same per-huge-page totals every epoch."""

        def observe(policy):
            rates = np.random.default_rng(8).exponential(
                0.3, size=64 * SUBPAGES_PER_HUGE_PAGE
            )
            workload = RateModelWorkload(
                "crn", rates, burstiness=0.5, duty_threshold=100.0, duty_floor=0.2
            )
            engine = EpochSimulation(
                workload, policy, SimulationConfig(duration=600, epoch=30, seed=3)
            )
            seen = []
            engine.profile_filter = lambda p, i: (
                seen.append((p.huge_counts().copy(), p.resolved_ids.size)) or p
            )
            engine.run()
            return seen

        thermostat = observe(ThermostatPolicy(ThermostatConfig(scan_interval=30.0)))
        all_dram = observe(AllDramPolicy())
        assert len(thermostat) == len(all_dram) == 20
        assert sum(resolved for _, resolved in thermostat) > 0
        assert all(resolved == 0 for _, resolved in all_dram)
        for (ours, _), (theirs, _) in zip(thermostat, all_dram, strict=True):
            assert np.array_equal(ours, theirs)


class TestZeroEpochGuards:
    def test_empty_result_metrics_are_zero_not_nan(self):
        """A result with no recorded epochs must report 0.0, not NaN."""
        from repro.config import SimulationConfig as Config
        from repro.mem.numa import NumaTopology
        from repro.sim.clock import VirtualClock
        from repro.sim.engine import SimulationResult
        from repro.sim.state import TieredMemoryState
        from repro.sim.stats import StatsRegistry

        result = SimulationResult(
            workload_name="empty",
            policy_name="none",
            config=Config(duration=60, epoch=30, seed=0),
            stats=StatsRegistry(),
            state=TieredMemoryState(0, NumaTopology.small(), VirtualClock()),
            duration=0.0,
            baseline_ops_per_second=1000.0,
        )
        assert result.average_slowdown == 0.0
        assert result.average_cold_fraction == 0.0
        assert result.final_cold_fraction == 0.0
        assert not np.isnan(result.throughput_degradation)


class TestPeakSlowTraffic:
    def _empty_result(self):
        from repro.config import SimulationConfig as Config
        from repro.mem.numa import NumaTopology
        from repro.sim.clock import VirtualClock
        from repro.sim.engine import SimulationResult
        from repro.sim.state import TieredMemoryState
        from repro.sim.stats import StatsRegistry

        clock = VirtualClock()
        topo = NumaTopology.small()
        topo.fast.tier.reserve_bytes(100 * 2 * 1024 * 1024)
        state = TieredMemoryState(100, topo, clock)
        return (
            SimulationResult(
                workload_name="scripted",
                policy_name="none",
                config=Config(duration=90, epoch=30, seed=0),
                stats=StatsRegistry(),
                state=state,
                duration=90.0,
                baseline_ops_per_second=1000.0,
            ),
            clock,
        )

    def test_peak_is_combined_stream_not_sum_of_peaks(self):
        """Regression locking the corrected Table 3 semantics: when the
        demotion and correction streams peak in *different* windows, the
        reported peak is the busiest single window — strictly less than
        the old sum-of-per-reason-peaks."""
        from repro.mem.migration import MigrationReason
        from repro.units import MB

        result, clock = self._empty_result()
        mig = result.state.migration
        clock.advance(5.0)
        mig.demote(huge=True, count=6)  # window 0
        clock.advance(30.0)
        mig.correct(huge=True, count=4)  # window 1
        window = 30.0
        per_reason_sum = (
            mig.peak_rate(MigrationReason.DEMOTION, window)
            + mig.peak_rate(MigrationReason.CORRECTION, window)
        ) / MB
        peak = result.peak_slow_traffic_mbps(window)
        assert peak == pytest.approx(6 * 2 / 30.0)  # 6 huge pages = 12 MB
        assert peak < per_reason_sum

    def test_peak_equals_sum_when_streams_coincide(self):
        result, _clock = self._empty_result()
        mig = result.state.migration
        mig.demote(huge=True, count=3)
        mig.correct(huge=True, count=2)
        assert result.peak_slow_traffic_mbps(30.0) == pytest.approx(5 * 2 / 30.0)


class TestTruncatedTail:
    def test_partial_epoch_surfaces_in_result(self):
        """duration=100, epoch=30 simulates 90s; the 10s tail is reported,
        not silently dropped."""
        from repro.errors import ConfigWarning

        with pytest.warns(ConfigWarning):
            config = SimulationConfig(duration=100, epoch=30, seed=0)
        result = run_simulation(make_workload(), AllDramPolicy(), config)
        assert result.duration == pytest.approx(90.0)
        assert result.truncated_seconds == pytest.approx(10.0)
        assert result.extras["truncated_tail_seconds"] == pytest.approx(10.0)
        assert result.duration + result.truncated_seconds == pytest.approx(
            config.duration
        )

    def test_whole_epochs_have_no_tail(self):
        result = run_simulation(
            make_workload(),
            AllDramPolicy(),
            SimulationConfig(duration=120, epoch=30, seed=0),
        )
        assert result.truncated_seconds == 0.0
        assert "truncated_tail_seconds" not in result.extras


class TestShrinkRejection:
    def test_shrinking_workload_raises_clear_error(self):
        from repro.errors import SimulationError

        class ShrinkingWorkload(RateModelWorkload):
            def num_huge_pages_at(self, time: float) -> int:
                full = super().num_huge_pages_at(time)
                return full if time < 30.0 else full - 2

        rates = np.full(8 * SUBPAGES_PER_HUGE_PAGE, 0.1)
        workload = ShrinkingWorkload(
            "shrinker", rates, baseline_ops_per_second=1000.0
        )
        sim = EpochSimulation(
            workload, AllDramPolicy(), SimulationConfig(duration=120, epoch=30, seed=0)
        )
        with pytest.raises(SimulationError, match="shrank its footprint"):
            sim.run()


class TestGrowthHandling:
    def test_growing_workload_grows_state(self):
        from repro.workloads.cassandra import CassandraWorkload

        base_rates = np.full(2 * SUBPAGES_PER_HUGE_PAGE, 0.1)
        workload = CassandraWorkload(
            "mini-cassandra",
            base_rates,
            growth_bytes=4 * 2 * 1024 * 1024,
            growth_duration=120.0,
            file_mapped_bytes=0,
        )
        sim = EpochSimulation(
            workload, AllDramPolicy(), SimulationConfig(duration=240, epoch=30, seed=0)
        )
        result = sim.run()
        assert result.state.num_huge_pages == 6
