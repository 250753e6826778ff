"""Integration tests: the pipeline degrades gracefully under injected faults.

These drive full simulations through ``run_simulation`` and check the
contract the fault harness promises: defaults stay bit-identical, fixed
seeds reproduce fault schedules exactly, and no supported fault class
escalates into an unhandled error.
"""

import hashlib

import numpy as np
import pytest

from repro import (
    FaultConfig,
    SimulationConfig,
    ThermostatConfig,
    ThermostatPolicy,
    make_workload,
    run_simulation,
)

DURATION = 300.0
EPOCH = 30.0
SCALE = 0.02


def simulate(faults=None, seed=7):
    return run_simulation(
        make_workload("redis", scale=SCALE),
        ThermostatPolicy(ThermostatConfig(tolerable_slowdown=0.03)),
        SimulationConfig(
            duration=DURATION,
            epoch=EPOCH,
            seed=seed,
            faults=faults if faults is not None else FaultConfig(),
        ),
    )


ALL_FAULTS = FaultConfig(
    enabled=True,
    migration_failure_rate=0.4,
    max_migration_retries=2,
    retry_backoff_seconds=1e-3,
    capacity_exhaustion_rate=0.3,
    capacity_exhaustion_epochs=2,
    ue_endurance_writes=1.0,
    ue_probability=0.5,
    overhead_spike_rate=0.3,
    overhead_spike_seconds=0.25,
    sample_loss_rate=0.3,
)


class TestBitIdenticalDefaults:
    def test_enabled_with_zero_rates_matches_disabled(self):
        """An armed injector with no active models must not perturb the run:
        no RNG draws, no schedule changes, identical slowdown series."""
        clean = simulate()
        armed = simulate(FaultConfig(enabled=True))
        for name in ("slowdown", "cold_fraction"):
            assert np.array_equal(
                clean.series(name).values, armed.series(name).values
            )
            assert np.array_equal(
                clean.series(name).times, armed.series(name).times
            )
        assert armed.fault_summary()["degraded_epochs"] == 0.0

    def test_disabled_run_reports_zero_fault_summary(self):
        assert all(value == 0.0 for value in simulate().fault_summary().values())


class TestDeterminism:
    def test_fixed_seed_reproduces_fault_summary(self):
        first = simulate(ALL_FAULTS)
        second = simulate(ALL_FAULTS)
        assert first.fault_summary() == second.fault_summary()
        assert first.average_slowdown == second.average_slowdown
        # Sanity: the scenario actually exercised the fault paths.
        assert first.fault_summary()["degraded_epochs"] > 0

    def test_different_seeds_differ(self):
        assert (
            simulate(ALL_FAULTS, seed=7).fault_summary()
            != simulate(ALL_FAULTS, seed=8).fault_summary()
        )


class TestGracefulDegradation:
    @pytest.mark.parametrize("rate", [0.3, 0.6, 0.9])
    def test_migration_failure_sweep_always_completes(self, rate):
        """Even at brutal per-attempt failure rates no MigrationError or
        CapacityError escapes: retries absorb what they can and exhausted
        batches are deferred for the next epoch."""
        result = simulate(
            FaultConfig(
                enabled=True,
                migration_failure_rate=rate,
                max_migration_retries=2,
                retry_backoff_seconds=1e-3,
            )
        )
        summary = result.fault_summary()
        assert np.isfinite(result.average_slowdown)
        assert summary["migration_failures"] > 0
        assert summary["retry_overhead_seconds"] > 0

    def test_capacity_lock_defers_then_replans(self):
        """Locked epochs defer demotions instead of raising; the policy
        re-plans and the cold set still reaches slow memory eventually."""
        result = simulate(
            FaultConfig(
                enabled=True,
                capacity_exhaustion_rate=0.5,
                capacity_exhaustion_epochs=1,
            )
        )
        summary = result.fault_summary()
        assert summary["capacity_lock_epochs"] > 0
        assert summary["deferred_demotions"] > 0
        # Re-planning caught up: pages were still demoted in open epochs.
        assert result.final_cold_fraction > 0

    def test_ue_rescue_goes_through_correction_path(self):
        clean = simulate()
        worn = simulate(
            FaultConfig(enabled=True, ue_endurance_writes=1.0, ue_probability=1.0)
        )
        assert worn.fault_summary()["uncorrectable_errors"] > 0
        # Rescued pages are promoted back, which shows up as extra
        # correction (promotion) traffic relative to the clean run.
        assert worn.correction_rate_mbps() > clean.correction_rate_mbps()


class TestSampleLossView:
    #: Series digest of this run when the policy's view was a zeroed dense
    #: copy of the profile; the per-2MB view must reproduce it exactly.
    DIGEST = "404c4fad64eab9c59062c4ab1c786c0ffad62c007f0e29872ffe7f3030fa6204"

    def test_sample_loss_series_unchanged(self):
        """Lost samples zero whole huge pages in the policy's view; the
        policy reads only pages resolved before the view is taken, so the
        run matches the one recorded with a dense zeroed copy."""
        result = simulate(FaultConfig(enabled=True, sample_loss_rate=0.2))
        digest = hashlib.sha256()
        for name in ("slowdown", "cold_fraction", "slow_access_rate"):
            digest.update(name.encode())
            for value in result.series(name).values:
                digest.update(f"{float(value):.12g},".encode())
        for key, value in sorted(result.fault_summary().items()):
            digest.update(f"{key}={float(value):.12g};".encode())
        assert result.fault_summary()["lost_sample_pages"] > 0
        assert digest.hexdigest() == self.DIGEST
