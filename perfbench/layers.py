"""Which program callables the traced pass times, and how they roll up.

Every wrapper targets a public entry point of one layer.  Functions that
a module imports by name are wrapped in the importing module's namespace
(``repro.core.thermostat.poison_scan_batch``, ``repro.service.core.
parse_event``), because that is the name the caller looks up.
"""

from __future__ import annotations

import os

from layertrace import LayerTracer

#: Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "workloads.build_s": "s",
    "workloads.profile_ms": "ms",
    "core.policy_ms": "ms",
    "core.poison_scan_ms": "ms",
    "core.classify_ms": "ms",
    "core.correct_ms": "ms",
    "core.false_cold_ratio": "ratio",
    "sim.step_ms": "ms",
    "sim.self_ms": "ms",
    "sim.migrate_ms": "ms",
    "sim.demoted_pages": "count",
    "sim.promoted_pages": "count",
    "sim.deferred_pages": "count",
    "mem.migrated_bytes": "bytes",
    "mem.migration_retries": "count",
    "mem.migration_failures": "count",
    "faults.ms": "ms",
    "faults.degraded_epochs": "count",
    "fleet.arbiter_ms": "ms",
    "fleet.chaos_ms": "ms",
    "fleet.audit_ms": "ms",
    "fleet.slo_violations": "count",
    "service.ingest_ms": "ms",
    "service.parse_ms": "ms",
    "service.queue_ms": "ms",
    "service.decide_ms": "ms",
    "service.engine_ms": "ms",
    "service.wal_append_ms": "ms",
    "service.checkpoint_ms": "ms",
    "service.wal_bytes": "bytes",
    "service.fsyncs": "count",
    "service.recover_ms": "ms",
    "service.retries": "count",
    "service.breaker_trips": "count",
    "service.degraded.engine-error": "count",
    "service.degraded.breaker-open": "count",
    "service.degraded.deadline": "count",
    "service.degraded.quarantined": "count",
    "service.shed": "count",
    "trace.wall_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_frac": "fraction",
}

#: Self-time spans reported per unit of work: metric name -> span name.
_SELF_MS = {
    "workloads.profile_ms": "workloads.profile",
    "core.policy_ms": "core.policy",
    "core.poison_scan_ms": "core.poison_scan",
    "core.classify_ms": "core.classify",
    "core.correct_ms": "core.correct",
    "sim.self_ms": "sim.step",
    "sim.migrate_ms": "sim.migrate",
    "faults.ms": "faults",
    "fleet.arbiter_ms": "fleet.arbiter",
    "fleet.chaos_ms": "fleet.chaos",
    "fleet.audit_ms": "fleet.audit",
    "service.ingest_ms": "service.ingest",
    "service.parse_ms": "service.parse",
    "service.queue_ms": "service.queue",
    "service.decide_ms": "service.decide",
    "service.wal_append_ms": "service.wal_append",
    "service.checkpoint_ms": "service.checkpoint",
}


def _count_demotions(tracer, args, demoted) -> None:
    tracer.counts["sim.demoted_pages"] += demoted
    tracer.counts["sim.deferred_pages"] += args[0].last_deferred_demotions.size


def _count_promotions(tracer, args, promoted) -> None:
    tracer.counts["sim.promoted_pages"] += promoted


def install(tracer: LayerTracer) -> None:
    """Place a timing wrapper on each layer's entry points."""
    import repro.core.thermostat as thermostat
    import repro.fleet.tenant as fleet_tenant
    import repro.service.core as service_core
    import repro.workloads as workloads
    from repro.core.thermostat import ThermostatPolicy
    from repro.faults.injector import FaultInjector
    from repro.fleet.arbiter import Arbiter
    from repro.fleet.chaos import ChaosEngine
    from repro.fleet.invariants import FleetInvariantAuditor
    from repro.service.core import PlacementService
    from repro.service.queue import BoundedIngressQueue
    from repro.service.wal import DecisionLog
    from repro.sim.engine import EpochSimulation
    from repro.sim.state import TieredMemoryState
    from repro.workloads.base import Workload

    timed = tracer.time_calls
    timed(workloads, "make_workload", "workloads.build")
    timed(fleet_tenant, "make_workload", "workloads.build")
    timed(Workload, "epoch_profile", "workloads.profile")
    timed(Workload, "epoch_profile_hierarchical", "workloads.profile")
    timed(ThermostatPolicy, "on_epoch", "core.policy")
    timed(thermostat, "poison_scan_batch", "core.poison_scan")
    timed(thermostat, "estimate_rates_vectorized", "core.classify")
    timed(thermostat, "select_cold_pages", "core.classify")
    timed(thermostat, "select_promotions", "core.correct")
    timed(EpochSimulation, "step", "sim.step")
    timed(TieredMemoryState, "demote", "sim.migrate", on_return=_count_demotions)
    timed(TieredMemoryState, "promote", "sim.migrate", on_return=_count_promotions)
    timed(FaultInjector, "begin_epoch", "faults")
    timed(FaultInjector, "observe_profile", "faults")
    for method in ("admit_batch", "rebalance", "enforce_budget"):
        timed(Arbiter, method, "fleet.arbiter")
    timed(ChaosEngine, "apply", "fleet.chaos")
    timed(ChaosEngine, "sync_tenant", "fleet.chaos")
    timed(FleetInvariantAuditor, "check_epoch", "fleet.audit")
    timed(PlacementService, "ingest_line", "service.ingest")
    timed(service_core, "parse_event", "service.parse")
    timed(BoundedIngressQueue, "push", "service.queue")
    timed(BoundedIngressQueue, "pop", "service.queue")
    timed(PlacementService, "drain", "service.decide")
    timed(DecisionLog, "append", "service.wal_append")
    timed(PlacementService, "checkpoint", "service.checkpoint")
    timed(service_core, "recover", "service.recover")
    tracer.count_calls(os, "fsync", "service.fsyncs")


def layer_metrics(
    tracer: LayerTracer,
    units: int,
    traced_wall: float,
    untraced_wall: float,
    counts: dict[str, float],
    passes: int = 1,
    service: bool = False,
) -> dict[str, tuple[float, str]]:
    """Roll the traced passes up into every per-layer metric.

    Times are milliseconds of self time per unit of work (epoch, fleet
    epoch or decide); ``workloads.build_s`` and ``service.recover_ms`` are
    per call.  ``sim.step_ms`` and ``service.engine_ms`` are inclusive.
    Counts are per pass: ``counts`` carries the workload's own counters
    (pages, bytes, SLO violations, service counters) for one traced pass,
    and the tracer's counts are divided by ``passes``.
    """
    ms_per_unit = 1000.0 / units
    values: dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, span in _SELF_MS.items():
        values[name] = tracer.self_time.get(span, 0.0) * ms_per_unit
    builds = tracer.calls.get("workloads.build", 0)
    if builds:
        values["workloads.build_s"] = tracer.self_time["workloads.build"] / builds
    recovers = tracer.calls.get("service.recover", 0)
    if recovers:
        values["service.recover_ms"] = (
            tracer.self_time["service.recover"] * 1000.0 / recovers
        )
    step_ms = tracer.inclusive.get("sim.step", 0.0) * ms_per_unit
    values["sim.step_ms"] = step_ms
    if service:
        values["service.engine_ms"] = step_ms
        values["service.fsyncs"] = tracer.counts.get("service.fsyncs", 0.0) / passes
    for name in ("sim.demoted_pages", "sim.promoted_pages", "sim.deferred_pages"):
        values[name] = tracer.counts.get(name, 0.0) / passes
    for name, value in counts.items():
        if name not in PER_LAYER_UNITS:
            raise KeyError(f"unknown per-layer metric {name!r}")
        values[name] = float(value)
    values["trace.wall_ms"] = traced_wall * ms_per_unit
    values["trace.unattributed_ms"] = (
        traced_wall - tracer.top_level_seconds()
    ) * ms_per_unit
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {name: (values[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}


def migration_counts(runs) -> dict[str, float]:
    """Engine stats counters summed over runs (results or engines)."""
    migrated = corrected = retries = failures = degraded = 0.0
    for run in runs:
        counter = run.stats.counter
        migrated += counter("migration_bytes").value
        corrected += counter("correction_bytes").value
        retries += counter("fault_migration_retries").value
        failures += counter("fault_migration_failures").value
        degraded += counter("fault_degraded_epochs").value
    return {
        "mem.migrated_bytes": migrated + corrected,
        "mem.migration_retries": retries,
        "mem.migration_failures": failures,
        "faults.degraded_epochs": degraded,
        # Corrective promotions per demotion: both streams move 2MB pages.
        "core.false_cold_ratio": corrected / migrated if migrated else 0.0,
    }
