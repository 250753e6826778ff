"""fleet-chaos: tenant fleets in lockstep through DRAM shrink and migration storms.

Four hosts, each running the same four tenants -- redis, cassandra,
mysql-tpcc and web-search at the experiments' default scale of 0.1 --
for 1200 s of 30 s epochs.  Each tenant's SLO is a 4% slowdown and its
Thermostat target the paper's 3%; host DRAM covers 90% of the tenants'
footprints.  The chaos schedule joins the bundled ``dram-shrink`` window
(30% of host DRAM removed over the middle third) and ``migration-storm``
window (60% of migration attempts fail over the second quarter).  Many
small engines step in lockstep, cassandra's footprint grows, the arbiter
forces demotions under the shrunk DRAM budget, and the fault injector's
migration retries, failures and deferrals are live: the only workload
where ``repro.fleet``, ``repro.faults`` and migration do real work.

Each host draws its own seeds from the workload seed and the metrics
pool all hosts.  One host's SLO and slowdown figures swing with a few
mis-classification spikes of its redis tenant; four hosts keep a run's
figures close to the workload's, whatever the seed.
"""

from __future__ import annotations

import time

from benchlib import (
    STEP_PERCENTILE,
    WorkloadResult,
    check,
    host_clock,
    median,
    peak_rss_mb,
    percentile_ms,
    release_memory,
    repeat_passes,
    same_outputs,
    step_speed,
    timed_decisions,
)
from layers import layer_metrics, migration_counts

TENANTS = (
    ("tenant0", "redis"),
    ("tenant1", "cassandra"),
    ("tenant2", "mysql-tpcc"),
    ("tenant3", "web-search"),
)
HOSTS = 4
SCALE = 0.1
SLO_SLOWDOWN = 0.04
TOLERABLE_SLOWDOWN = 0.03
HOST_DRAM_FRACTION = 0.9
DURATION_SECONDS = 1200.0
EPOCH_SECONDS = 30.0
#: Set-ups timed per host, the one it runs last.  A set-up is ~60 ms, so
#: one sample is at the mercy of the host; 16 a pass, spread over the
#: pass, are not.
SETUPS_PER_HOST = 4
#: Fleet epoch 0 admits every tenant and starts its engine.
WARMUP_EPOCHS = 1


def _chaos_windows():
    """The bundled ``dram-shrink`` and ``migration-storm`` windows, joined."""
    from repro.fleet import ChaosEvent

    return [
        ChaosEvent(
            "dram-shrink",
            start=DURATION_SECONDS / 3,
            duration=DURATION_SECONDS / 3,
            magnitude=0.3,
        ),
        ChaosEvent(
            "migration-storm",
            start=DURATION_SECONDS * 0.25,
            duration=DURATION_SECONDS * 0.25,
            magnitude=0.6,
        ),
    ]


def _set_up(host_seed: int):
    from repro.fleet import FleetConfig, FleetSimulation, TenantSpec

    specs = [
        TenantSpec(
            name=name,
            workload=workload,
            scale=SCALE,
            slo_slowdown=SLO_SLOWDOWN,
            tolerable_slowdown=TOLERABLE_SLOWDOWN,
            seed=host_seed * len(TENANTS) + index,
        )
        for index, (name, workload) in enumerate(TENANTS)
    ]
    return FleetSimulation(
        specs,
        _chaos_windows(),
        FleetConfig(
            duration=DURATION_SECONDS,
            epoch=EPOCH_SECONDS,
            seed=host_seed,
            host_dram_fraction=HOST_DRAM_FRACTION,
        ),
    )


def _simulate_host(host_seed: int) -> dict:
    # Spare set-ups first, while none of this host's state is alive, so
    # they add samples without adding to peak memory.
    setups = []
    for _ in range(SETUPS_PER_HOST - 1):
        release_memory()
        started = host_clock()
        spare = _set_up(host_seed)
        setups.append(host_clock() - started)
        del spare
    release_memory()
    started = host_clock()
    fleet = _set_up(host_seed)
    setups.append(host_clock() - started)
    # The chaos engine is consulted once at the top of every fleet epoch;
    # stamping that call on this instance times epochs without touching
    # the program's code.
    epoch_starts: list[float] = []
    open_windows = fleet.chaos.apply

    def stamped_apply(now, owner):
        epoch_starts.append(host_clock())
        return open_windows(now, owner)

    fleet.chaos.apply = stamped_apply
    result = fleet.run()
    ended = host_clock()
    epochs = fleet.config.num_epochs
    check(len(epoch_starts) == epochs, "fleet-chaos: epoch count mismatch")
    scorecard = result.scorecard
    check(
        scorecard["invariants"]["checked_epochs"] == epochs,
        "fleet-chaos: the fleet auditor skipped epochs",
    )
    slo = scorecard["slo"]
    check(
        slo["violations_with_response"] == slo["violations_total"],
        "fleet-chaos: an SLO violation drew no arbiter response",
    )
    tenants = [fleet.tenants[name] for name, _ in TENANTS]
    check(
        all(t.admitted for t in tenants), "fleet-chaos: a tenant was not admitted"
    )
    return {
        "setups": setups,
        "epoch_times": [
            end - start
            for start, end in zip(epoch_starts, epoch_starts[1:] + [ended])
        ][WARMUP_EPOCHS:],
        "epochs": epochs,
        "tenants": tenants,
        "result": result,
    }


def _host_seeds(seed: int) -> range:
    return range(seed * HOSTS, (seed + 1) * HOSTS)


def _pool(hosts: list[dict]) -> dict:
    """Simulated outputs pooled over every host of a pass."""
    tenants = [t for host in hosts for t in host["tenants"]]
    footprint = sum(t.footprint_bytes for t in tenants)
    cold = sum(t.result.average_cold_fraction * t.footprint_bytes for t in tenants)
    active = sum(t.active_epochs for t in tenants)
    return {
        "cold_frac": cold / footprint,
        "slowdown_pct": 100.0
        * sum(t.result.average_slowdown for t in tenants)
        / len(tenants),
        "slo_viol_frac": sum(t.violation_epochs for t in tenants) / active,
        "scorecard_digests": [host["result"].scorecard_digest for host in hosts],
        "ladder": [
            ",".join(f"{t.spec.name}:{t.level.name.lower()}" for t in host["tenants"])
            for host in hosts
        ],
    }


def _simulate(seed: int) -> dict:
    """One pass: every host of the workload."""
    hosts = [_simulate_host(host_seed) for host_seed in _host_seeds(seed)]
    return {
        "setups": [t for host in hosts for t in host["setups"]],
        "epoch_times": [t for host in hosts for t in host["epoch_times"]],
        "epochs": sum(host["epochs"] for host in hosts),
        "outputs": _pool(hosts),
    }


def _notes(outputs: dict) -> list[str]:
    return [
        "fleet-chaos (unvalidated: no paper reference): cold_frac {:.4f}, "
        "slowdown_pct {:.3f}, slo_viol_frac {:.4f} over {} hosts; final "
        "ladder per host {}".format(
            outputs["cold_frac"],
            outputs["slowdown_pct"],
            outputs["slo_viol_frac"],
            HOSTS,
            outputs["ladder"],
        )
    ]


def run(seed: int, seconds: float) -> WorkloadResult:
    with timed_decisions() as decisions:
        passes = repeat_passes(seconds, 1, lambda: _simulate(seed))
    setups = [t for p in passes for t in p["setups"]]
    first = passes[0]["outputs"]
    for other in passes[1:]:
        same_outputs("fleet-chaos", first, other["outputs"])
    metrics = {
        "setup_s": (median(setups), "s"),
        "sim_speed": (
            step_speed(EPOCH_SECONDS, [t for p in passes for t in p["epoch_times"]]),
            "sim-s/host-s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "cold_frac": (first["cold_frac"], "fraction"),
        "slowdown_pct": (first["slowdown_pct"], "%"),
        "decide_ms_p90": (percentile_ms(decisions, STEP_PERCENTILE), "ms"),
    }
    return WorkloadResult(
        attempted=sum(p["epochs"] for p in passes),
        metrics=metrics,
        outputs=first,
        notes=_notes(first),
    )


def run_traced(seed: int, seconds: float, tracer, install) -> WorkloadResult:
    """Run every host untraced and then traced, host by host.

    Alternating at host granularity (a few seconds) puts both runs under
    the same host conditions, so their wall-time ratio is the tracing
    overhead and not host drift.
    """
    walls = {"untraced": 0.0, "traced": 0.0}
    plain, traced = [], []
    for host_seed in _host_seeds(seed):
        started = time.perf_counter()
        plain.append(_simulate_host(host_seed))
        walls["untraced"] += time.perf_counter() - started
        with tracer.installed(install):
            started = time.perf_counter()
            traced.append(_simulate_host(host_seed))
            walls["traced"] += time.perf_counter() - started
    reference = _pool(plain)
    same_outputs("fleet-chaos traced", reference, _pool(traced))
    results = [host["result"] for host in traced]
    counts = migration_counts(r for fleet in results for r in fleet.results.values())
    counts["fleet.slo_violations"] = sum(
        fleet.scorecard["slo"]["violations_total"] for fleet in results
    )
    epochs = sum(host["epochs"] for host in traced)
    metrics = layer_metrics(tracer, epochs, walls["traced"], walls["untraced"], counts)
    return WorkloadResult(
        attempted=2 * epochs,
        metrics=metrics,
        outputs=reference,
        notes=_notes(reference),
    )
