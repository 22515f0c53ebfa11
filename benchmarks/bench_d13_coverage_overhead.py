"""D13 — observability overhead & coverage closure (PR 4).

Claim: verification-grade observability (functional coverage + the
deterministic profiler + the flight-recorder ring) is cheap enough to
leave on for every verification run, and merged coverage over a seeded
fault campaign converges — the coverage-closure loop hardware teams
run on RTL works on executable UML models.

Measured, per engine (interpreted and compiled):

* **default bus** — context row; the cost of *materializing*
  engine-level trace events at all is a PR 3 property (D12), not
  something a subscriber can undo.
* **materialized** — a TraceBus with one no-op subscriber on the five
  engine kinds: every engine event is built and delivered but nothing
  consumes it.  This is the **baseline** for the acceptance criterion,
  because any engine-kind subscriber (coverage included) forces
  materialization, so its cost is the floor any consumer pays.
* **materialized full** — the same no-op subscriber, wildcard: also
  materializes ``message``/``fault`` events.  The flight recorder
  records *every* kind (a post-mortem without messages is useless), so
  this — not the five-kind row — is the floor the flight ring pays.
* **coverage** / **profiler** / **flight** — exactly one consumer
  attached (``SystemSimulation(coverage=True)`` etc.), i.e. the
  *incremental* cost of each subscriber beyond materialization.
* **verification** — all three consumers at once
  (``coverage=True, profile=True, flight_recorder=256``).

Methodology: trials are *interleaved* round-robin across modes (all
modes run once, then again, REPEATS times; best trial per mode) so a
host-scheduling hiccup degrades one trial of every mode instead of one
mode's whole sample — on shared single-core containers mode-blocked
sampling produced 10-30% phantom overheads.

Acceptance (PR 4, measured on an idle machine and recorded in
BENCH_PR4.json): **each individual subscriber costs <= ~10% of
materialized throughput on the interpreted engine**.  Two caveats the
numbers force us to state honestly:

* Bus *dispatch* itself is not free: a no-op subscriber costs ~8% of
  the compiled engine's throughput, so attaching three consumers pays
  that floor three times (~24%) before any consumer logic runs.  "All
  three subscribers <= 10% combined" is therefore not achievable for a
  pure-Python bus on the compiled engine; the verification row lands
  at roughly 1.2-1.3x (interpreted) to 1.6-1.8x (compiled) of the
  materialized baseline, and that is the honest figure we record.
* On the interpreted engine the kernel itself is ~4x slower, so the
  same absolute per-event consumer cost (~0.3-1 us/event) reads as a
  much smaller percentage — which is also the engine verification
  runs actually use (fault campaigns exercise the interpreter).

The CI shape test only asserts a loose floor (no consumer may halve
throughput) because shared runners jitter far more than 10%.

Also reported: the coverage-closure curve.  The model under closure is
a retry-with-backoff bus master (``make_retry_master``) whose deep
``Wait_k``/``Backoff_k`` states are reachable only after *k
consecutive* dropped responses — probability ``p**k`` per cycle — and
whose ``Nak`` bins fire only when a corrupted address escapes the
decode map.  Successive fault-campaign seeds therefore cover the state
space progressively (cumulative coverage is monotonic and grows), and
some bins — e.g. ``WriteAck`` on a read-only master — are structurally
unreachable, exactly the asymptote real RTL closure fights.
"""

import time

from repro.engine import ENGINE_MODES, TraceBus
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import (make_memory, make_retry_master, make_soc,
                      make_traffic_generator)
from repro.observability import CoverageReport
from repro.simulation import SystemSimulation

SIM_TIME = 400.0
REPEATS = 3
SEEDS = (0, 1, 2, 3, 4)

MODES = ("default bus", "materialized", "materialized full",
         "coverage", "profiler", "flight", "verification")

#: SystemSimulation options per consumer mode.
CONSUMERS = {
    "coverage": {"coverage": True},
    "profiler": {"profile": True},
    "flight": {"flight_recorder": 256},
    "verification": {"coverage": True, "profile": True,
                     "flight_recorder": 256},
}

ENGINE_KINDS = ("event", "transition", "state_enter", "state_exit",
                "token")


def build_system():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x800)
    memory = make_memory("Ram", size_bytes=0x800)
    return make_soc("Bench", masters=[cpu],
                    slaves=[(memory, "bus", 0, 0x800)])


def build_closure_system():
    """The coverage-closure target: a retry master whose deep retry
    states need consecutive response drops to be reached."""
    master = make_retry_master("Retry", address=0x10, period=6.0,
                               timeout=3.0, backoff=0.5, max_retries=3)
    memory = make_memory("Ram", size_bytes=0x800)
    return make_soc("Closure", masters=[master],
                    slaves=[(memory, "bus", 0, 0x800)])


def closure_campaign(seed):
    """Drops make ``Wait_k`` reachable (k consecutive drops needed),
    corrupted addresses fall off the decode map and produce ``Nak``,
    delays land responses in ``Backoff``/``Idle`` cross bins."""
    return FaultCampaign(
        [FaultSpec("drop", signal="ReadResp", probability=0.04),
         FaultSpec("corrupt", signal="Read", field="addr", xor=0x10000,
                   probability=0.015),
         FaultSpec("delay", signal="ReadResp", delay=2.0, jitter=6.0,
                   probability=0.2)],
        name="closure", seed=seed)


def _run_once(mode, engine="interpreted"):
    options = CONSUMERS.get(mode, {})
    if mode == "default bus":
        bus = None
    elif mode in ("materialized", "materialized full"):
        bus = TraceBus()

        def swallow(event):
            pass

        bus.subscribe(swallow, kinds=ENGINE_KINDS
                      if mode == "materialized" else None)
    else:  # consumer modes build their own bus via the options
        bus = None
    simulation = SystemSimulation(build_system(), quantum=1.0,
                                  default_latency=1.0, bus=bus,
                                  engine=engine, **options)
    start = time.perf_counter()
    simulation.run(until=SIM_TIME)
    elapsed = time.perf_counter() - start
    result = {
        "kernel_events": simulation.simulator.events_processed,
        "elapsed_s": elapsed,
    }
    if mode == "verification":
        result["coverage_pct"] = \
            simulation.observability.coverage_report().total_percent()
    simulation.close()
    return result


def measure(mode, engine="interpreted"):
    """Best-of-N run of one mode (events/s is jitter-sensitive)."""
    best = min((_run_once(mode, engine) for _ in range(REPEATS)),
               key=lambda run: run["elapsed_s"])
    row = {
        "engine": engine,
        "mode": mode,
        "kernel_events": best["kernel_events"],
        "events_per_s": round(best["kernel_events"] / best["elapsed_s"]),
    }
    if "coverage_pct" in best:
        row["coverage_pct"] = best["coverage_pct"]
    return row


def measure_group(engine):
    """All modes of one engine, trials interleaved round-robin."""
    best = {mode: None for mode in MODES}
    for _ in range(REPEATS):
        for mode in MODES:
            run = _run_once(mode, engine)
            if best[mode] is None \
                    or run["elapsed_s"] < best[mode]["elapsed_s"]:
                best[mode] = run
    rows = []
    for mode in MODES:
        run = best[mode]
        row = {
            "engine": engine,
            "mode": mode,
            "kernel_events": run["kernel_events"],
            "events_per_s": round(run["kernel_events"]
                                  / run["elapsed_s"]),
        }
        if "coverage_pct" in run:
            row["coverage_pct"] = run["coverage_pct"]
        rows.append(row)
    return rows


def closure_curve(seeds=None):
    """Cumulative coverage after merging each fault-campaign seed."""
    merged = None
    curve = []
    for seed in (SEEDS if seeds is None else seeds):
        with SystemSimulation(build_closure_system(), quantum=1.0,
                              default_latency=1.0, coverage=True,
                              faults=closure_campaign(seed)) as simulation:
            simulation.run(until=SIM_TIME)
            report = simulation.observability.coverage_report()
        merged = report if merged is None else merged.merge(report)
        curve.append({
            "engine": "closure", "mode": f"seed {seed}",
            "seed_pct": report.total_percent(),
            "cumulative_pct": merged.total_percent(),
        })
    assert isinstance(merged, CoverageReport)
    return curve


def table():
    """Rows: observation mode vs throughput per engine (overhead vs the
    materialized baseline), then the closure curve."""
    rows = []
    for engine in ENGINE_MODES:
        group = measure_group(engine)
        throughput = {row["mode"]: row["events_per_s"] for row in group}
        for row in group:
            # flight records every kind, so its floor is the wildcard
            # materialization row, not the five-kind one
            floor = throughput["materialized full"] \
                if row["mode"] in ("flight", "materialized full") \
                else throughput["materialized"]
            row["overhead_vs_materialized_pct"] = round(
                100.0 * (floor - row["events_per_s"]) / floor, 1)
        rows.extend(group)
    rows.extend(closure_curve())
    return rows


class TestShape:
    def test_modes_agree_on_kernel_events(self):
        counts = {_run_once(mode)["kernel_events"] for mode in MODES}
        assert len(counts) == 1

    def test_verification_reports_nonzero_coverage(self):
        run = _run_once("verification")
        assert run["coverage_pct"] > 0

    def test_consumer_overhead_is_bounded(self):
        # the real acceptance numbers are measured off-CI and recorded
        # in BENCH_PR4.json; here only a loose floor so the guarantee
        # can't rot into a "coverage halves throughput" regression
        materialized = measure("materialized")["events_per_s"]
        full = measure("materialized full")["events_per_s"]
        for mode in ("coverage", "profiler"):
            assert measure(mode)["events_per_s"] >= 0.5 * materialized
        assert measure("flight")["events_per_s"] >= 0.5 * full

    def test_closure_curve_is_monotonic(self):
        curve = closure_curve(seeds=(0, 1))
        cumulative = [row["cumulative_pct"] for row in curve]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] >= curve[0]["seed_pct"]

    def test_closure_curve_actually_climbs(self):
        # the retry-master target makes seeds complementary: merging
        # all seeds must beat the best single seed (a flat curve means
        # the model is degenerate for closure)
        curve = closure_curve()
        best_single = max(row["seed_pct"] for row in curve)
        assert curve[-1]["cumulative_pct"] > best_single


def test_benchmark_verification_run(benchmark):
    def run():
        simulation = SystemSimulation(build_system(), quantum=1.0,
                                      coverage=True, profile=True,
                                      flight_recorder=256)
        simulation.run(until=100.0)
        simulation.close()
    benchmark(run)


if __name__ == "__main__":
    for row in table():
        print(row)
