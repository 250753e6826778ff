"""Seeded chaos scenarios: the fleet's schedule of fault windows.

A chaos schedule is a :class:`~repro.faults.schedule.FaultSchedule` of
windows (:class:`ChaosEvent` is :class:`~repro.faults.schedule.FaultWindow`)
timed in fleet seconds.  Each fleet epoch the :class:`ChaosEngine` compares
the windows the schedule reports open with those open at the last epoch
and applies every opening or closing, mutating exactly the knobs each kind
names and restoring them afterwards:

``noisy-neighbor``
    Scales the target tenant's ground-truth 2MB access totals by
    ``magnitude`` for the window (through the engine's ``profile_filter``
    — no RNG consumed, so the workload stream is untouched).
``dram-shrink``
    Shrinks the arbiter's host DRAM budget to ``1 - magnitude`` of the
    hardware size; the arbiter's ``enforce_budget`` reclaims grants to fit.
``migration-storm``
    Raises every matching tenant's transient migration failure rate to
    ``magnitude``, modelling contention on the migration bandwidth.  The
    tenants' injectors read the rate from the open window
    (:meth:`ChaosEngine.migration_failure_rate`), so nothing is mutated.
``latency-spike``
    Multiplies the slow tier's access latency by ``magnitude`` on every
    tenant's topology.  The policies' *model* latency is unchanged, so
    their budgets are now wrong — exactly the surprise a real latency
    regression springs.
``tenant-resize``
    Tightens (or relaxes) the target tenant's runtime SLO by
    ``magnitude`` for the window — a mid-run contract renegotiation.

Windows are pure functions of the schedule and the clock — no randomness —
so a replayed fleet run is bit-identical.  The per-tenant injectors
consume RNG only *inside* a migration-storm window (a zero failure rate
draws nothing), keeping runs without storms identical to runs with no
injector at all.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.faults.schedule import CHAOS_KINDS, FaultSchedule, FaultWindow
from repro.fleet.tenant import quantize_down
from repro.obs import NULL_OBSERVER

#: One timed interference window (fleet seconds).
ChaosEvent = FaultWindow


class ChaosEngine:
    """Opens and closes chaos windows as the fleet clock advances."""

    def __init__(self, events, observer=None) -> None:
        self.schedule = FaultSchedule(events)
        for window in self.schedule.windows:
            if window.kind not in CHAOS_KINDS:
                raise ConfigError(
                    f"unknown chaos kind {window.kind!r} "
                    f"(choose from {', '.join(CHAOS_KINDS)})"
                )
        self.events = self.schedule.windows
        self.observer = observer if observer is not None else NULL_OBSERVER
        #: Windows open as of the last :meth:`apply`, in schedule order.
        self.open: tuple[FaultWindow, ...] = ()

    def apply(self, now: float, fleet) -> bool:
        """Open/close windows for fleet time ``now``.

        Returns True when the host DRAM budget changed (the caller must
        run the arbiter's ``enforce_budget`` before stepping tenants).
        """
        obs = self.observer
        active = self.schedule.active(now)
        budget_changed = False
        for window in self.events:
            opening = window in active
            if opening == (window in self.open):
                continue
            if obs.active:
                obs.emit(
                    "chaos",
                    f"{window.kind}:{'open' if opening else 'close'}",
                    now,
                    target=window.target,
                    magnitude=window.magnitude,
                    window_start=window.start,
                    window_end=window.end,
                )
                obs.inc("repro_chaos_transitions_total")
            budget_changed |= self._transition(
                window, self._targets(window, fleet), opening, fleet.arbiter
            )
        self.open = active
        return budget_changed

    def sync_tenant(self, tenant, now: float = 0.0) -> None:
        """Bring a tenant that arrived mid-window up to date.

        Admission can land inside an already-open window; the opening
        transition ran before the tenant was active, so its per-tenant
        effects are replayed for the newcomer.
        """
        for window in self.open:
            if window.target in (None, tenant.spec.name):
                self._transition(window, [tenant], opening=True)

    def migration_failure_rate(self, tenant_name: str) -> float:
        """The tenant's transient migration failure rate right now.

        The magnitude of the open migration-storm window covering the
        tenant (the latest in schedule order), or 0.0 outside storms.
        """
        rate = 0.0
        for window in self.open:
            if window.kind == "migration-storm" and window.target in (None, tenant_name):
                rate = window.magnitude
        return rate

    @staticmethod
    def _transition(window: FaultWindow, tenants, opening: bool, arbiter=None) -> bool:
        """Apply one window opening or closing; True when the budget changed.

        ``arbiter`` is None when only the per-tenant effects are replayed
        (the host-wide DRAM shrink is already in force).
        """
        kind, magnitude = window.kind, window.magnitude
        if kind == "dram-shrink":
            if arbiter is None:
                return False
            base = arbiter.base_host_dram_bytes
            # Quantize the shrunk budget so grant arithmetic downstream
            # stays in whole huge pages.
            arbiter.host_dram_bytes = (
                quantize_down(int(base * (1.0 - magnitude))) if opening else base
            )
            return True
        # A migration storm sets nothing: tenant injectors read its rate
        # from the open window (migration_failure_rate).
        for tenant in tenants:
            if kind == "noisy-neighbor":
                tenant.interference_factor = magnitude if opening else 1.0
            elif kind == "latency-spike":
                tenant.engine.topology.slow.tier.spec.access_latency = (
                    tenant.base_slow_latency * magnitude
                    if opening
                    else tenant.base_slow_latency
                )
            elif kind == "tenant-resize":
                tenant.slo_slowdown = (
                    tenant.spec.slo_slowdown * magnitude
                    if opening
                    else tenant.spec.slo_slowdown
                )
        return False

    @staticmethod
    def _targets(window: FaultWindow, fleet) -> list:
        tenants = [t for t in fleet.tenants.values() if t.active]
        if window.target is None:
            return sorted(tenants, key=lambda t: t.spec.name)
        return [t for t in tenants if t.spec.name == window.target]


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
