"""D12 — trace-bus observation overhead (PR 3).

Claim: unified typed tracing (one TraceBus carrying engine, message
and fault events) can replace the per-channel observation hooks only
if an *unobserved* bus is effectively free on the cosimulation hot
path.

Measured: the D8 producer/bus/memory SoC executed three ways —

* **empty bus** (a live TraceBus with zero subscribers — the baseline:
  every emit site reduces to an attribute/set-membership check),
* **default bus** (the harness's built-in message-log/resilience
  subscribers; no engine-level kinds active),
* **engine subscriber** (a wildcard subscriber: every transition,
  state entry/exit, RTC dispatch and routed message materialized as a
  TraceEvent).

Reported: kernel events/second per mode and the overhead of each mode
against the empty bus, for both the interpreted and the compiled
engine.  PR 3's acceptance compared the empty bus with a simulation
that had no bus object at all; BENCH_PR3.json recorded the empty bus
at -7.2 % (compiled) and -10.8 % (interpreted) overhead against it,
i.e. within noise, so that mode is gone and every simulation has a
bus.  A slower unobserved bus shows in perfbench ``cosim`` ``warm_s``.
"""

import time

from repro.engine import ENGINE_MODES, TraceBus
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.simulation import SystemSimulation

SIM_TIME = 400.0
REPEATS = 3

MODES = ("empty bus", "default bus", "engine subscriber")


def build_system():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x800)
    memory = make_memory("Ram", size_bytes=0x800)
    return make_soc("Bench", masters=[cpu],
                    slaves=[(memory, "bus", 0, 0x800)])


def _run_once(mode, engine="interpreted"):
    if mode in ("default bus", "empty bus"):
        bus = None
    else:
        bus = TraceBus()
        dropped = [0]

        def swallow(event, _dropped=dropped):
            _dropped[0] += 1

        bus.subscribe(swallow)  # every kind, engine-level included
    simulation = SystemSimulation(build_system(), quantum=1.0,
                                  default_latency=1.0, bus=bus,
                                  engine=engine)
    if mode == "empty bus":
        # the baseline: a live bus with zero subscribers (even the
        # built-in message log detached)
        for subscription in simulation._builtin_subscriptions:
            subscription.cancel()
    start = time.perf_counter()
    simulation.run(until=SIM_TIME)
    elapsed = time.perf_counter() - start
    simulation.close()
    return {
        "kernel_events": simulation.simulator.events_processed,
        "trace_events": simulation.stats()["trace_events"],
        "elapsed_s": elapsed,
    }


def measure(mode, engine="interpreted"):
    """Best-of-N run of one mode (events/s is jitter-sensitive)."""
    best = min((_run_once(mode, engine) for _ in range(REPEATS)),
               key=lambda run: run["elapsed_s"])
    return {
        "engine": engine,
        "mode": mode,
        "kernel_events": best["kernel_events"],
        "trace_events": best["trace_events"],
        "events_per_s": round(best["kernel_events"] / best["elapsed_s"]),
    }


def table():
    """Rows: observation mode vs. cosimulation throughput, both the
    interpreted and (the tighter case) the compiled engine."""
    rows = []
    for engine in ENGINE_MODES:
        group = [measure(mode, engine) for mode in MODES]
        baseline = group[0]["events_per_s"]
        for row in group:
            row["overhead_pct"] = round(
                100.0 * (baseline - row["events_per_s"]) / baseline, 1)
        rows.extend(group)
    return rows


class TestShape:
    def test_modes_agree_on_kernel_events(self):
        counts = {_run_once(mode)["kernel_events"] for mode in MODES}
        assert len(counts) == 1

    def test_trace_event_counts_scale_with_observation(self):
        empty, default, engine = (_run_once(mode) for mode in MODES)
        assert empty["trace_events"] == 0
        assert 0 < default["trace_events"] < engine["trace_events"]


def test_benchmark_default_bus(benchmark):
    def run():
        simulation = SystemSimulation(build_system(), quantum=1.0)
        simulation.run(until=100.0)
        simulation.close()
    benchmark(run)


if __name__ == "__main__":
    for row in table():
        print(row)
