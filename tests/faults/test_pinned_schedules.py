"""Digests pinning every fault schedule the engine, fleet and service draw.

Each digest was recorded before the fault models were folded into one
seeded schedule of timed windows; a refactor of how windows are laid out
or applied must reproduce them byte for byte.
"""

import hashlib
import json

from repro import (
    FaultConfig,
    SimulationConfig,
    ThermostatConfig,
    ThermostatPolicy,
    make_workload,
    run_simulation,
)
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.ext_service import CHAOS_FAULTS, DEFAULT_SERVICE_TENANTS
from repro.fleet import ChaosEvent, FleetConfig, FleetSimulation, TenantSpec
from repro.obs.live import ServiceTelemetry
from repro.service.core import PlacementService, ServiceConfig
from repro.service.traffic import TrafficConfig, drive

#: All five engine fault classes on at once.
ENGINE_FAULTS = FaultConfig(
    enabled=True,
    migration_failure_rate=0.4,
    max_migration_retries=2,
    capacity_exhaustion_rate=0.3,
    capacity_exhaustion_epochs=2,
    ue_endurance_writes=1.0,
    ue_probability=0.5,
    overhead_spike_rate=0.3,
    overhead_spike_seconds=0.25,
    sample_loss_rate=0.2,
)


def _update_series(digest, result) -> None:
    for name in ("slowdown", "cold_fraction", "slow_access_rate"):
        digest.update(name.encode())
        for value in result.series(name).values:
            digest.update(f"{float(value):.12g},".encode())
    for key, value in sorted(result.fault_summary().items()):
        digest.update(f"{key}={float(value):.12g};".encode())


class TestEngineSchedulePinned:
    DIGEST = "dd2dbc24210823ce9c5bd75b31217c58dcaf8d2ad4e06b797652f7e3eae1a4dd"

    def test_all_engine_faults_series_and_summary(self):
        result = run_simulation(
            make_workload("redis", scale=0.02),
            ThermostatPolicy(ThermostatConfig(tolerable_slowdown=0.03)),
            SimulationConfig(duration=600.0, epoch=30.0, seed=11, faults=ENGINE_FAULTS),
        )
        summary = result.fault_summary()
        for key in (
            "capacity_lock_epochs",
            "fault_overhead_seconds",
            "migration_failures",
            "uncorrectable_errors",
            "lost_sample_pages",
        ):
            assert summary[key] > 0, key
        digest = hashlib.sha256()
        _update_series(digest, result)
        assert digest.hexdigest() == self.DIGEST


class TestFleetSchedulePinned:
    DIGEST = "63b1853688ee4d8d2d698851abb22f88aede55d2128221568475f2e150327f2e"

    EVENTS = (
        ChaosEvent("noisy-neighbor", start=30.0, duration=240.0, magnitude=2.0),
        ChaosEvent("dram-shrink", start=120.0, duration=90.0, magnitude=0.3),
        ChaosEvent("migration-storm", start=30.0, duration=150.0, magnitude=0.6),
        ChaosEvent("latency-spike", start=90.0, duration=180.0, magnitude=3.0),
        ChaosEvent(
            "tenant-resize", start=60.0, duration=210.0, target="late",
            magnitude=0.05,
        ),
    )

    def test_all_chaos_kinds_with_mid_window_admission(self):
        specs = [
            TenantSpec(name="a", workload="web-search", scale=0.01, seed=3),
            TenantSpec(name="b", workload="redis", scale=0.01, seed=4),
            # Arrives while every window but the DRAM shrink is open.
            TenantSpec(
                name="late", workload="redis", scale=0.01, seed=5,
                arrival_time=90.0,
            ),
        ]
        config = FleetConfig(
            duration=300.0, epoch=30.0, seed=7, host_dram_fraction=1.0
        )
        result = FleetSimulation(specs, self.EVENTS, config).run()
        late = result.scorecard["tenants"]["late"]
        assert late["admitted"]
        # Only the resize replayed at admission makes the newcomer's SLO
        # tight enough to violate.
        assert late["violation_epochs"] > 0
        assert result.results["late"].fault_summary()["migration_failures"] > 0
        digest = hashlib.sha256(result.scorecard_digest.encode())
        for name in sorted(result.results):
            digest.update(name.encode())
            _update_series(digest, result.results[name])
        assert digest.hexdigest() == self.DIGEST


class TestServiceSchedulePinned:
    DIGEST = "bece77512004d23eacbde1ba1ebc7c818b7ab71d7a239fef6c5705bd120eb50e"

    def test_ext_service_chaos_posture(self):
        telemetry = ServiceTelemetry(trace=True, label="chaos")
        service = PlacementService(
            config=ServiceConfig(seed=DEFAULT_SEED), telemetry=telemetry
        )
        responses: list = []
        report = drive(
            service,
            TrafficConfig(
                seed=DEFAULT_SEED,
                tenants=DEFAULT_SERVICE_TENANTS,
                decisions=150,
                faults=CHAOS_FAULTS,
            ),
            emit=responses.append,
        )
        service.close()
        faults = [
            [event.name, event.time, event.duration]
            for event in telemetry.observer.tracer.events
            if event.category == "fault"
        ]
        assert {name for name, _, _ in faults} == {
            "slow_consumer",
            "corrupt_event",
            "clock_stall",
        }
        payload = {
            "summary": report.summary(),
            "responses": [r.to_payload() for r in responses],
            "faults": faults,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.DIGEST
