"""Repository benchmark for the Thermostat reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-redis --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unmodified;
``--trace 1`` runs the same work untraced and then with timing wrappers on
each layer's entry points, and reports the per-layer metrics and the
tracing overhead.  Both check the program's outputs (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every check passed.
"""

from __future__ import annotations

import os

# One thread per numeric library, set before numpy is first imported:
# every workload runs single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402

# Leave no bytecode caches in the checkout.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402

from benchlib import (  # noqa: E402
    ROOT,
    RUN_DIR,
    BenchmarkError,
    CorrectnessError,
    load_program,
)

#: Workload name -> its module in this directory.
WORKLOADS = {
    "paper-redis": "wl_paper_redis",
    "fleet-chaos": "wl_fleet_chaos",
    "service-stream": "wl_service_stream",
}
DEFAULT_SEED = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; README.md names a held-out one)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=30.0,
        help="length of the measured phase; whole passes run until it is used",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _manifest_names(trace: int) -> list[str]:
    """The metric names ``BENCHMARK.json`` lists for this kind of run."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        load_program()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = importlib.import_module(WORKLOADS[args.workload])
    try:
        if args.trace:
            import layers
            from layertrace import LayerTracer

            result = workload.run_traced(
                args.seed, args.seconds, LayerTracer(), layers.install
            )
        else:
            result = workload.run(args.seed, args.seconds)
    except CorrectnessError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        _emit(False, 1, 1, {})
        return 1
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    for note in result.notes:
        print(note)
    print("outputs " + json.dumps(result.outputs, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:32s} {value:>16.6f} {unit}")
    expected = _manifest_names(args.trace)
    if sorted(result.metrics) != sorted(expected):
        print(
            "perfbench: the workload's metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(result.metrics))}, "
            f"extra {sorted(set(result.metrics) - set(expected))}",
            file=sys.stderr,
        )
        return 2
    bad = sorted(n for n, (v, _) in result.metrics.items() if not math.isfinite(v))
    if bad:
        print(f"perfbench: non-finite metrics: {bad}", file=sys.stderr)
        _emit(False, result.attempted, 1, {})
        return 1
    _emit(True, result.attempted, 0, {n: result.metrics[n] for n in expected})
    return 0


if __name__ == "__main__":
    sys.exit(main())
