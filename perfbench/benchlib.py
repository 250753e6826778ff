"""Helpers shared by the three workload modules and ``run.py``."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Root of the checkout: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
#: The program under test is the ``repro`` package in ``src/``.
SRC = ROOT / "src"
#: Scratch space for files the benchmark writes (the service WAL); inside
#: the checkout and removed when a run ends.
RUN_DIR = ROOT / ".perfbench_run"


#: The clock every end-to-end host time is read from: this process's CPU
#: time.  On a shared virtual machine, wall-clock readings of millisecond
#: steps carry the hypervisor's preemptions (steal) and the shared disk's
#: fsync waits, which no change to the program moves; CPU time keeps the
#: work the program does, the fsync calls' own cost included.  Per-layer
#: times in the traced run stay wall-clock, so device waits show there.
host_clock = time.process_time


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program to measure)."""


class CorrectnessError(Exception):
    """An output of the program failed one of the benchmark's checks."""


def load_program() -> None:
    """Make ``src/repro`` importable, or fail when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program to measure: {SRC / 'repro'} is missing; run the "
            "benchmark from the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def repeat_passes(seconds: float, minimum: int, one_pass) -> list:
    """Run whole passes of fixed work within a time budget.

    Another pass starts only while it is expected, at the length of the
    previous one, to end within ``seconds``; at least ``minimum`` run.
    Each pass is followed by a garbage collection, so peak memory tracks
    one live pass.
    """
    passes: list = []
    started = time.perf_counter()
    last = 0.0
    while len(passes) < minimum or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        passes.append(one_pass())
        release_memory()
        last = time.perf_counter() - began
    return passes


@contextlib.contextmanager
def timed_decisions():
    """Record the host time of every Thermostat placement decision.

    While the block runs, each call of ``ThermostatPolicy.on_epoch`` (one
    policy's decision for one epoch) appends its host time, in seconds,
    to the yielded list.  The method is put back when the block exits.
    """
    from repro.core.thermostat import ThermostatPolicy

    original = ThermostatPolicy.on_epoch
    times: list[float] = []

    def on_epoch(*args, **kwargs):
        started = host_clock()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(host_clock() - started)

    ThermostatPolicy.on_epoch = on_epoch
    try:
        yield times
    finally:
        ThermostatPolicy.on_epoch = original


def check(condition: bool, message: str) -> None:
    """Raise :class:`CorrectnessError` unless ``condition`` holds."""
    if not condition:
        raise CorrectnessError(message)


def median(values) -> float:
    values = list(values)
    check(bool(values), "no samples to take a median of")
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Maximum resident memory of this process so far, MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def release_memory() -> None:
    """Free what the previous pass left so peak RSS tracks one live pass."""
    gc.collect()


#: Percentile at which the host times of a repeated step (an epoch, a
#: decision) are reported.  The shared host runs this process at one of
#: two speeds, about 1.6x apart, and switches between them every few
#: seconds; the share of a run spent at each moves from run to run.  A
#: run's median falls between the two speeds and jumps with that share
#: (paper-redis decision medians of 6.5 to 9.5 ms on one code), while
#: its 90th percentile sits on the slower speed, which every run meets.
STEP_PERCENTILE = 90


def percentile_ms(seconds, q: float) -> float:
    """The ``q``-th percentile of host times given in seconds, in ms."""
    values = [1000.0 * t for t in seconds]
    check(bool(values), "no samples to take a percentile of")
    return float(np.percentile(values, q))


def step_speed(sim_seconds: float, host_times) -> float:
    """Simulated seconds per host second for steps of ``sim_seconds`` each.

    Each step's host time is read at the ``STEP_PERCENTILE``-th percentile
    of ``host_times`` (seconds).
    """
    return 1000.0 * sim_seconds / percentile_ms(host_times, STEP_PERCENTILE)


def float_digest(*arrays) -> str:
    """sha256 over the exact bytes of float sequences (bit-identity check)."""
    digest = hashlib.sha256()
    for values in arrays:
        for value in values:
            digest.update(float(value).hex().encode())
            digest.update(b",")
        digest.update(b";")
    return digest.hexdigest()


def same_outputs(label: str, reference: dict, other: dict) -> None:
    """Require two passes of one seed to produce identical outputs."""
    for key, value in reference.items():
        check(
            other.get(key) == value,
            f"{label}: {key} differs between passes of one seed: "
            f"{value!r} != {other.get(key)!r}",
        )


@dataclass
class WorkloadResult:
    """What a workload module hands back to ``run.py``."""

    #: Units of work attempted (epochs, fleet epochs or decides).
    attempted: int
    #: End-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).
    metrics: dict[str, tuple[float, str]]
    #: Simulated outputs and digests, printed for cross-run comparison.
    outputs: dict[str, object] = field(default_factory=dict)
    #: Human-readable notes printed above the result line.
    notes: list[str] = field(default_factory=list)
