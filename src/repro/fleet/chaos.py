"""Seeded chaos scenarios composed from the fault models.

A chaos schedule is a list of :class:`ChaosEvent` windows; the
:class:`ChaosEngine` opens and closes them as fleet time passes, mutating
exactly the knobs each kind names and restoring them afterwards:

``noisy-neighbor``
    Scales the target tenant's ground-truth 2MB access totals by
    ``magnitude`` for the window (through the engine's ``profile_filter``
    — no RNG consumed, so the workload stream is untouched).
``dram-shrink``
    Shrinks the arbiter's host DRAM budget to ``1 - magnitude`` of the
    hardware size; the arbiter's ``enforce_budget`` reclaims grants to fit.
``migration-storm``
    Raises every tenant's transient migration failure rate to
    ``magnitude`` (their chaos injectors' :class:`MigrationFaultModel`),
    modelling contention on the migration bandwidth.
``latency-spike``
    Multiplies the slow tier's access latency by ``magnitude`` on every
    tenant's topology.  The policies' *model* latency is unchanged, so
    their budgets are now wrong — exactly the surprise a real latency
    regression springs.
``tenant-resize``
    Tightens (or relaxes) the target tenant's runtime SLO by
    ``magnitude`` for the window — a mid-run contract renegotiation.

Windows are pure functions of the schedule and the clock — no randomness —
so a replayed fleet run is bit-identical.  The per-tenant chaos injectors
consume RNG only *inside* a migration-storm window (a
:class:`MigrationFaultModel` at rate 0.0 draws nothing), keeping runs
without storms identical to runs with no injector at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.fleet.tenant import quantize_down
from repro.obs import NULL_OBSERVER

CHAOS_KINDS = (
    "noisy-neighbor",
    "dram-shrink",
    "migration-storm",
    "latency-spike",
    "tenant-resize",
)


@dataclass(frozen=True)
class ChaosEvent:
    """One timed interference window."""

    kind: str
    start: float
    duration: float
    #: Tenant name for tenant-scoped kinds; ``None`` = fleet-wide.
    target: str | None = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ConfigError(
                f"unknown chaos kind {self.kind!r} "
                f"(choose from {', '.join(CHAOS_KINDS)})"
            )
        if self.start < 0:
            raise ConfigError(f"chaos start must be >= 0: {self.start}")
        if self.duration <= 0:
            raise ConfigError(f"chaos duration must be positive: {self.duration}")
        if self.magnitude <= 0:
            raise ConfigError(f"chaos magnitude must be positive: {self.magnitude}")
        if self.kind == "dram-shrink" and not self.magnitude < 1.0:
            raise ConfigError(
                f"dram-shrink magnitude is the *removed* fraction and must "
                f"be < 1: {self.magnitude}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


class ChaosEngine:
    """Opens and closes chaos windows as the fleet clock advances."""

    def __init__(self, events, observer=None) -> None:
        self.events: list[ChaosEvent] = sorted(
            events, key=lambda e: (e.start, e.kind, e.target or "")
        )
        self.observer = observer if observer is not None else NULL_OBSERVER
        self._open: set[int] = set()

    def apply(self, now: float, fleet) -> bool:
        """Open/close windows for fleet time ``now``.

        Returns True when the host DRAM budget changed (the caller must
        run the arbiter's ``enforce_budget`` before stepping tenants).
        """
        budget_changed = False
        for index, event in enumerate(self.events):
            in_window = event.start <= now < event.end
            if in_window and index not in self._open:
                self._open.add(index)
                budget_changed |= self._apply_event(event, fleet, now, opening=True)
            elif not in_window and index in self._open and now >= event.end:
                self._open.remove(index)
                budget_changed |= self._apply_event(event, fleet, now, opening=False)
        return budget_changed

    def sync_tenant(self, tenant, now: float = 0.0) -> None:
        """Bring a tenant that arrived mid-window up to date.

        Admission can land inside an already-open window; the opening
        transition ran before the tenant was active, so its per-tenant
        effects must be replayed for the newcomer.
        """
        for index in sorted(self._open):
            event = self.events[index]
            if event.target is not None and event.target != tenant.spec.name:
                continue
            if event.kind == "noisy-neighbor":
                tenant.interference_factor = event.magnitude
            elif event.kind == "latency-spike":
                tenant.engine.topology.slow.tier.spec.access_latency = (
                    tenant.base_slow_latency * event.magnitude
                )
            elif event.kind == "tenant-resize":
                tenant.slo_slowdown = tenant.spec.slo_slowdown * event.magnitude
            # migration-storm scaling lives in the fleet's chaos_models
            # dict, keyed by name — already covered for every tenant by
            # the opening transition (models exist before admission).

    def _apply_event(
        self, event: ChaosEvent, fleet, now: float, opening: bool
    ) -> bool:
        obs = self.observer
        if obs.active:
            obs.emit(
                "chaos",
                f"{event.kind}:{'open' if opening else 'close'}",
                now,
                target=event.target,
                magnitude=event.magnitude,
                window_start=event.start,
                window_end=event.end,
            )
            obs.inc("repro_chaos_transitions_total")
        targets = self._targets(event, fleet)
        if event.kind == "noisy-neighbor":
            for tenant in targets:
                tenant.interference_factor = event.magnitude if opening else 1.0
        elif event.kind == "dram-shrink":
            base = fleet.arbiter.base_host_dram_bytes
            # Quantize the shrunk budget so grant arithmetic downstream
            # stays in whole huge pages.
            fleet.arbiter.host_dram_bytes = (
                quantize_down(int(base * (1.0 - event.magnitude)))
                if opening
                else base
            )
            return True
        elif event.kind == "migration-storm":
            # Set every matching model, active or not: an inactive tenant
            # draws nothing, and a tenant admitted mid-storm then starts
            # with the storm already in force.
            for name, model in sorted(fleet.chaos_models.items()):
                if event.target is None or event.target == name:
                    model.failure_rate = event.magnitude if opening else 0.0
        elif event.kind == "latency-spike":
            for tenant in targets:
                spec = tenant.engine.topology.slow.tier.spec
                spec.access_latency = (
                    tenant.base_slow_latency * event.magnitude
                    if opening
                    else tenant.base_slow_latency
                )
        elif event.kind == "tenant-resize":
            for tenant in targets:
                tenant.slo_slowdown = (
                    tenant.spec.slo_slowdown * event.magnitude
                    if opening
                    else tenant.spec.slo_slowdown
                )
        return False

    def _targets(self, event: ChaosEvent, fleet) -> list:
        tenants = [t for t in fleet.tenants.values() if t.active]
        if event.target is None:
            return sorted(tenants, key=lambda t: t.spec.name)
        return [t for t in tenants if t.spec.name == event.target]


# ----------------------------------------------------------------------
# Bundled scenarios
# ----------------------------------------------------------------------


def _noisy_neighbor(names, duration, scale):
    return [], [
        ChaosEvent(
            "noisy-neighbor",
            start=duration * 0.25,
            duration=duration * 0.25,
            target=names[0],
            magnitude=3.0,
        )
    ]


def _dram_shrink(names, duration, scale):
    return [], [
        ChaosEvent(
            "dram-shrink",
            start=duration / 3,
            duration=duration / 3,
            magnitude=0.3,
        )
    ]


def _migration_storm(names, duration, scale):
    return [], [
        ChaosEvent(
            "migration-storm",
            start=duration * 0.25,
            duration=duration * 0.25,
            magnitude=0.6,
        )
    ]


def _latency_spike(names, duration, scale):
    return [], [
        ChaosEvent(
            "latency-spike",
            start=duration / 3,
            duration=duration / 3,
            magnitude=4.0,
        )
    ]


def _churn(names, duration, scale):
    from repro.fleet.tenant import TenantSpec

    extra = TenantSpec(
        name="churn-visitor",
        workload="redis",
        scale=scale,
        slo_slowdown=0.05,
        seed=97,
        arrival_time=duration * 0.25,
        departure_time=duration * 0.75,
    )
    return [extra], [
        ChaosEvent(
            "tenant-resize",
            start=duration * 0.5,
            duration=duration * 0.125,
            target="churn-visitor",
            magnitude=0.5,
        )
    ]


def _adversarial(names, duration, scale):
    from repro.fleet.tenant import TenantSpec

    # An SLO no placement can meet: monitoring overhead alone exceeds it.
    # The ladder must walk this tenant to quarantine instead of letting it
    # consume the arbiter forever (or crashing the fleet).
    extra = TenantSpec(
        name="impossible",
        workload="web-search",
        scale=scale,
        slo_slowdown=0.0005,
        weight=0.1,
        seed=83,
    )
    return [extra], []


def _baseline(names, duration, scale):
    return [], []


#: name -> builder(tenant_names, duration, scale) -> (extra_specs, events)
SCENARIOS = {
    "baseline": _baseline,
    "noisy-neighbor": _noisy_neighbor,
    "dram-shrink": _dram_shrink,
    "migration-storm": _migration_storm,
    "latency-spike": _latency_spike,
    "churn": _churn,
    "adversarial": _adversarial,
}


def scenario_schedule(name: str, tenant_names, duration: float, scale: float):
    """Build one bundled scenario: (extra tenant specs, chaos events)."""
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown chaos scenario {name!r} "
            f"(choose from {', '.join(sorted(SCENARIOS))})"
        )
    if not tenant_names:
        raise ConfigError("scenario needs at least one base tenant")
    return SCENARIOS[name](list(tenant_names), duration, scale)
