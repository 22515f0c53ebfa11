#!/usr/bin/env python
"""Regenerate every derived-experiment table (D1-D19).

Runs each bench module's ``table()`` and prints the rows — the data
recorded in EXPERIMENTS.md.  Usage::

    python benchmarks/run_experiments.py            # all experiments
    python benchmarks/run_experiments.py d3 d7      # a subset
    python benchmarks/run_experiments.py --quick    # CI smoke mode
    python benchmarks/run_experiments.py --quick --json report.json

``--quick`` shrinks every module's workload knobs (sweep sizes, event
counts, simulated time) to tiny values and checks table *shapes* only —
every table non-empty, rows are dicts with stable keys — so CI verifies
the experiment harness end-to-end in seconds without asserting timing
numbers that jitter on shared runners.  ``--json PATH`` additionally
writes every table (plus per-experiment wall time) as one JSON report —
CI uploads it as a build artifact.
"""

import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

#: --quick overrides for the modules' workload-size constants.
QUICK_KNOBS = {
    "SIZES": (3, 5),
    "SWEEP_SIZES": (3, 5),
    "SEEDS": (0, 1),
    "EVENTS": 50,
    "SIM_TIME": 40.0,
    "VARIANTS": 4,
    "LOOKUPS": 20,
    "LOCKSTEP_TIME": 40.0,
    "CAMPAIGN_TIME": 20.0,
    "REPEATS": 1,
}

EXPERIMENTS = {
    "d1": ("bench_d1_abstraction_gap",
           "abstraction/productivity gap"),
    "d2": ("bench_d2_statechart_exec",
           "statechart execution & flattening"),
    "d3": ("bench_d3_tokens_vs_petri",
           "token semantics vs Petri nets"),
    "d4": ("bench_d4_interaction_traces",
           "interaction trace explosion vs conformance"),
    "d5": ("bench_d5_profile_overhead",
           "profile application & validation overhead"),
    "d6": ("bench_d6_mda_transform",
           "MDA PIM->PSM scaling & completeness"),
    "d7": ("bench_d7_codegen",
           "code generation throughput & validity"),
    "d8": ("bench_d8_cosimulation",
           "early prototyping simulation levels"),
    "d9": ("bench_d9_ip_reuse",
           "IP reuse ratio & mismatch detection"),
    "d10": ("bench_d10_xmi_roundtrip",
            "XMI round-trip fidelity & cost"),
    "d11": ("bench_d11_faults",
            "fault injection & resilience"),
    "d12": ("bench_d12_trace_overhead",
            "trace-bus observation overhead"),
    "d13": ("bench_d13_coverage_overhead",
            "observability overhead & coverage closure"),
    "d14": ("bench_d14_recovery",
            "rollback recovery & campaign-runner scaling"),
    "d16": ("bench_d16_properties",
            "online property checking & pass-rate curves"),
    "d17": ("bench_d17_store",
            "artifact-store warm starts & incremental regeneration"),
    "d18": ("bench_d18_causality",
            "causal span tracing & live telemetry overhead"),
    "d19": ("bench_d19_service",
            "simulation service overhead & queue recovery"),
    "ablations": ("bench_ablations",
                  "design-choice ablations (A1-A3)"),
}


def _check_shape(key, rows):
    """Smoke assertions: non-empty, dict rows, stable keys per level."""
    if not rows:
        raise SystemExit(f"{key}: table() returned no rows")
    for row in rows:
        if not isinstance(row, dict) or not row:
            raise SystemExit(f"{key}: malformed row {row!r}")
        if not all(isinstance(name, str) for name in row):
            raise SystemExit(f"{key}: non-string column names in {row!r}")


def run(selected, quick=False):
    import repro

    report = {}
    for key in selected:
        module_name, title = EXPERIMENTS[key]
        repro.reset_ids()
        print(f"\n=== {key.upper()} — {title} ===")
        module = importlib.import_module(module_name)
        if quick:
            for knob, value in QUICK_KNOBS.items():
                if hasattr(module, knob):
                    setattr(module, knob, value)
        start = time.perf_counter()
        rows = list(module.table())
        elapsed = time.perf_counter() - start
        for row in rows:
            print("  ", row)
        if quick:
            _check_shape(key, rows)
        print(f"   ({elapsed:.1f}s)")
        report[key] = {"title": title, "wall_s": round(elapsed, 3),
                       "rows": rows}
    if quick:
        print(f"\nquick smoke OK: {len(selected)} experiment(s), "
              "shapes verified")
    return report


def main():
    arguments = sys.argv[1:]
    json_path = None
    if "--json" in arguments:
        index = arguments.index("--json")
        try:
            json_path = arguments[index + 1]
        except IndexError:
            raise SystemExit("--json requires a path argument")
        del arguments[index:index + 2]
    arguments = [a.lower() for a in arguments]
    quick = "--quick" in arguments
    requested = [a for a in arguments if a != "--quick"] \
        or list(EXPERIMENTS)
    unknown = [k for k in requested if k not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiments: {unknown}; "
                         f"choose from {list(EXPERIMENTS)}")
    report = run(requested, quick=quick)
    if json_path is not None:
        payload = {"quick": quick, "experiments": report}
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"JSON report written to {json_path}")


if __name__ == "__main__":
    main()
