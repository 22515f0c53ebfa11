"""Run one workload of the perf harness and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cosim --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it holds details that are not gated:
sample counts, tail percentiles, native figures such as kernel events
per second, and the host-drift calibration.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

WORKLOADS = ("cosim", "campaign", "service", "build")


def declared_metrics(trace: bool):
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def select_metrics(outcome: harness.Outcome, trace: bool) -> None:
    """Keep exactly the declared metrics.  A layer a workload leaves
    idle reads 0 in a traced run; an end-to-end metric must exist."""
    selected = {}
    for entry in declared_metrics(trace):
        name, unit = entry["name"], entry["unit"]
        if name in outcome.metrics:
            value, measured_unit = outcome.metrics[name]
            if measured_unit != unit:
                raise RuntimeError(
                    f"{name}: measured in {measured_unit}, declared {unit}")
        elif trace:
            value = 0.0
        else:
            raise RuntimeError(f"workload did not measure {name}")
        selected[name] = (value, unit)
    outcome.metrics = selected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not harness.program_available():
        print(f"error: no program under {harness.ROOT}/src; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    harness.import_program()
    trace = bool(args.trace)
    ctx = harness.Context(args.workload, args.seed, args.seconds, trace)
    try:
        calibration = {"start": harness.calibrate()}
        workload = importlib.import_module(f"workload_{args.workload}")
        outcome = workload.run(ctx)
        calibration["end"] = harness.calibrate()
    finally:
        ctx.cleanup()
    select_metrics(outcome, trace)
    harness.record_run(ctx, outcome, calibration)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": trace, "calibration_s": calibration,
                      "problems": outcome.problems,
                      "detail": outcome.detail}, sort_keys=True,
                     default=str))
    print(harness.result_line(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
