"""Deterministic fault injection for the tiered-memory pipeline.

Every fault that lasts a while is a timed :class:`FaultWindow` in one
seeded :class:`FaultSchedule` (:mod:`repro.faults.schedule`): engine
capacity locks and overhead spikes, service consumer and clock stalls,
and the fleet's chaos windows.  :class:`FaultInjector` lays out the
engine's schedule and draws its single-shot faults (migration failures,
lost samples, wear errors); enable it via
:class:`repro.config.FaultConfig`, whose default injects nothing.  The
online placement service has its own faults behind
:class:`repro.faults.service.ServiceFaultInjector`.
"""

from repro.faults.injector import EpochFaultEvents, FaultInjector
from repro.faults.schedule import (
    CHAOS_KINDS,
    EPISODE_KINDS,
    FaultSchedule,
    FaultWindow,
    episode_windows,
)
from repro.faults.service import ServiceFaultConfig, ServiceFaultInjector

__all__ = [
    "CHAOS_KINDS",
    "EPISODE_KINDS",
    "EpochFaultEvents",
    "FaultInjector",
    "FaultSchedule",
    "FaultWindow",
    "ServiceFaultConfig",
    "ServiceFaultInjector",
    "episode_windows",
]
