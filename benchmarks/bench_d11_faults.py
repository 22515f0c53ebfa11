"""D11 — fault injection & resilience (PR 2).

Claim under test: an executable-UML SoC model is only a credible early
verification vehicle if it can be exercised under *adversarial*
conditions — and that hardening must cost (almost) nothing when no
faults are armed.

Measured, on the D8 producer/bus/memory SoC:

* **baseline** — no injector attached (the D8 hot path);
* **fault-free hook** — an *empty* campaign attached, so every routed
  signal takes the interception path but no spec ever matches: the
  worst-case overhead of the hook itself;
* **faulted** — a mixed campaign (drop/duplicate/corrupt/delay/reorder)
  on both engines.

Reported: events/second per row, the fault-free hook overhead factor
(acceptance: ≥ 0.95x of baseline, i.e. ≤ 5% overhead), plus three
boolean invariants — compiled/interpreted lockstep under faults,
byte-identical reports across same-seed runs, and an exact
checkpoint → run → restore → replay round-trip.
"""

import time

from repro.faults import FaultCampaign, FaultSpec
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.simulation import SystemSimulation

SIM_TIME = 400.0

CAMPAIGN = FaultCampaign(
    [FaultSpec("drop", signal="ReadResp", probability=0.15),
     FaultSpec("duplicate", signal="Read", probability=0.1),
     FaultSpec("corrupt", signal="Write", field="addr", xor=0x4000,
               probability=0.1),
     FaultSpec("delay", signal="WriteAck", delay=2.0, jitter=1.0,
               probability=0.2),
     FaultSpec("reorder", signal="ReadResp", window=(50.0, 200.0))],
    name="d11-mixed", seed=2026)


def build_system():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    memory = make_memory("Ram", size_bytes=0x800)
    return make_soc("Bench", masters=[cpu],
                    slaves=[(memory, "bus", 0, 0x800)])


def _run(label, campaign=None, engine="interpreted"):
    with SystemSimulation(build_system(), quantum=1.0,
                          default_latency=1.0, engine=engine,
                          faults=campaign) as simulation:
        start = time.perf_counter()
        simulation.run(until=SIM_TIME)
        elapsed = time.perf_counter() - start
        events = simulation.simulator.events_processed
        return {
            "level": label,
            "kernel_events": events,
            "messages": simulation.messages_delivered,
            "events_per_s": round(events / elapsed),
            "faults_injected": simulation.resilience.total_injections,
        }, simulation.message_log, simulation.resilience.to_json()


def baseline():
    row, _log, _report = _run("baseline (no injector)")
    return row


def fault_free_hook():
    row, _log, _report = _run("fault-free hook (empty campaign)",
                              campaign=FaultCampaign(seed=0))
    return row


def _best(fn, repeats=3):
    """Best-of-N events/s — the overhead comparison is between two
    sub-100ms runs, so a single sample is noise-dominated."""
    rows = [fn() for _ in range(repeats)]
    return max(rows, key=lambda r: r["events_per_s"])


def faulted(engine="interpreted"):
    return _run(f"faulted {engine} cosimulation", campaign=CAMPAIGN,
                engine=engine)


def checkpoint_round_trip():
    """checkpoint mid-campaign, continue, restore, replay: exact match.

    The replay reference is the same simulation's *first* continuation
    (run boundaries are semantically visible — held reorder partners
    flush when a run() call drains — so a segmented run is compared
    against itself, not against one uninterrupted run).
    """
    with SystemSimulation(build_system(), faults=CAMPAIGN) as simulation:
        simulation.run(until=SIM_TIME / 2)
        snap = simulation.checkpoint()
        mid_log = len(simulation.message_log)
        mid_report = simulation.resilience.to_json()
        simulation.run(until=SIM_TIME)
        first_log = list(simulation.message_log)
        first_report = simulation.resilience.to_json()
        simulation.restore(snap)
        exact = (len(simulation.message_log) == mid_log
                 and simulation.resilience.to_json() == mid_report
                 and simulation.simulator.now == SIM_TIME / 2)
        simulation.run(until=SIM_TIME)
        replay_log = list(simulation.message_log)
        replay_report = simulation.resilience.to_json()
    return {
        "level": "checkpoint/restore round trip",
        "restore_exact": exact,
        "replay_matches_first_continuation": (replay_log == first_log
                                              and replay_report
                                              == first_report),
    }


def table():
    """Rows: resilience modes vs. throughput + the PR-2 invariants."""
    base = _best(baseline)
    hooked = _best(fault_free_hook)
    interpreted, interp_log, interp_report = faulted("interpreted")
    compiled, comp_log, comp_report = faulted("compiled")
    _again, again_log, again_report = faulted("interpreted")
    rows = [base, hooked, interpreted, compiled]
    rows.append({
        "level": "fault-free hook overhead",
        "factor": round(hooked["events_per_s"] / base["events_per_s"], 3),
        "acceptance": "≥ 0.95 (≤ 5% overhead)",
    })
    rows.append({
        "level": "lockstep compiled == interpreted under faults",
        "holds": (interp_log == comp_log
                  and interp_report == comp_report),
    })
    rows.append({
        "level": "same seed ⇒ byte-identical report + log",
        "holds": (again_log == interp_log
                  and again_report == interp_report),
    })
    rows.append(checkpoint_round_trip())
    return rows


class TestShape:
    def test_faults_are_injected(self):
        row, _log, report = faulted()
        assert row["faults_injected"] > 20
        assert '"drop"' in report

    def test_lockstep_under_faults(self):
        _row, interp_log, interp_report = faulted("interpreted")
        _row, comp_log, comp_report = faulted("compiled")
        assert interp_log == comp_log
        assert interp_report == comp_report

    def test_seeded_determinism(self):
        runs = [faulted() for _ in range(2)]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_checkpoint_round_trip_exact(self):
        row = checkpoint_round_trip()
        assert row["restore_exact"]
        assert row["replay_matches_first_continuation"]

    def test_hook_overhead_within_budget(self):
        """Acceptance is 5%; assert 15% to keep CI slack on noisy
        shared runners (the table records the true factor)."""
        base = _best(baseline)
        hooked = _best(fault_free_hook)
        assert hooked["events_per_s"] >= 0.85 * base["events_per_s"]


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv:
        SIM_TIME = 60.0
    for row in table():
        print(row)
