"""D14 — supervised rollback recovery & the campaign runner (PR 5).

Claim under test: graceful degradation is only useful if its recovery
actions are *cheap relative to what they save*.  A rollback restore
keeps everything the part learned since start for the price of one
snapshot copy; a restart is cheaper per event but forfeits state; a
quarantine is free and forfeits the part.  And at the campaign level,
sweeping seeds across worker processes must pay for itself quickly and
an interrupted sweep must resume for the cost of the missing seeds
only.

Measured:

* **recovery policies** — a SoC with a periodically failing part run
  under restore / restart / quarantine: events/s plus the recovery
  counts, against a never-failing baseline;
* **checkpoint cadence** — the cost of periodic per-part snapshots with
  no failures at all (the insurance premium);
* **campaign fan-out** — the same multi-seed sweep serial vs 2 vs 4
  worker processes: wall time and speedup;
* **resume cost** — re-running a journaled sweep with one seed missing:
  the runner must execute exactly that seed.

Invariants reported as boolean rows: parallel and serial sweeps
serialize byte-identically, and the resumed sweep equals the
uninterrupted reference.
"""

import json
import os
import tempfile
import time

import repro.metamodel as mm
from repro.faults import CampaignSpec, FaultCampaign, FaultSpec, run_campaign
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.simulation import SystemSimulation
from repro.statemachines import StateMachine, TransitionKind

SIM_TIME = 300.0
SEEDS = (0, 1, 2, 3, 4, 5)

#: simulated-time period of the flaky part's self-inflicted failure
FAIL_PERIOD = 25.0

CAMPAIGN = FaultCampaign(
    [FaultSpec("drop", signal="ReadResp", probability=0.2),
     FaultSpec("delay", signal="WriteAck", delay=2.0, jitter=1.0,
               probability=0.2)],
    name="d14-sweep", seed=0)


def make_flaky():
    """A heartbeat counter whose ``Poke`` signal raises in its effect."""
    part = mm.Component("Flaky")
    part.add_attribute("beats", mm.INTEGER, default=0)
    part.add_port("in", direction=mm.PortDirection.IN)
    machine = StateMachine("FlakyBehavior")
    region = machine.region
    init = region.add_initial()
    run = region.add_state("Run")
    region.add_transition(init, run)
    region.add_transition(run, run, after=1.0,
                          effect="beats = beats + 1;",
                          kind=TransitionKind.EXTERNAL)
    region.add_transition(run, run, trigger="Poke",
                          effect="x = undefined_name + 1;",
                          kind=TransitionKind.INTERNAL)
    part.add_behavior(machine, as_classifier_behavior=True)
    return part


def build_system():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    memory = make_memory("Ram", size_bytes=0x800)
    return make_soc("Bench", masters=[cpu],
                    slaves=[(memory, "bus", 0, 0x800)])


def build_flaky_system():
    top = build_system()
    top.add_part("flaky", make_flaky())
    return top


def _policy_run(policy, checkpoint_interval=None, flaky=True):
    builder = build_flaky_system if flaky else build_system
    with SystemSimulation(builder(), quantum=1.0,
                          on_part_error=policy,
                          checkpoint_interval=checkpoint_interval,
                          max_restores=10 ** 6,
                          max_restarts=10 ** 6) as simulation:
        if flaky:
            k = 1
            while FAIL_PERIOD * k < SIM_TIME:
                simulation.send("flaky", "Poke", delay=FAIL_PERIOD * k)
                k += 1
        start = time.perf_counter()
        simulation.run(until=SIM_TIME)
        elapsed = time.perf_counter() - start
        events = simulation.simulator.events_processed
        stats = simulation.stats()
        return {
            "kernel_events": events,
            "events_per_s": round(events / elapsed),
            "restores": stats["restores"],
            "restarts": stats["restarts"],
            "quarantined": len(simulation.quarantined_parts),
            "flaky_beats": (simulation.context_of("flaky")["beats"]
                            if flaky and "flaky" not in
                            simulation.quarantined_parts else None),
        }


def recovery_policy_rows():
    baseline = _policy_run("quarantine", flaky=False)
    rows = [{"level": "baseline (no failures)", **baseline}]
    for policy, interval in (("restore", FAIL_PERIOD / 2),
                             ("restart", None),
                             ("quarantine", None)):
        row = _policy_run(policy, checkpoint_interval=interval)
        rows.append({"level": f"policy={policy}", **row})
    return rows


def checkpoint_cadence_rows():
    off = _policy_run("quarantine", flaky=False)
    armed = _policy_run("quarantine", checkpoint_interval=5.0,
                        flaky=False)
    return [{
        "level": "periodic checkpoint premium (interval=5, no faults)",
        "factor": round(armed["events_per_s"]
                        / max(off["events_per_s"], 1), 3),
        "baseline_events_per_s": off["events_per_s"],
        "armed_events_per_s": armed["events_per_s"],
    }]


def _sweep_spec(campaign_path, seeds=None):
    return CampaignSpec(seeds=list(seeds or SEEDS),
                        builder="bench_d14_recovery:build_system",
                        campaign=campaign_path, until=SIM_TIME / 2,
                        name="d14-sweep")


def campaign_rows():
    rows = []
    with tempfile.TemporaryDirectory(prefix="d14-") as scratch:
        campaign_path = os.path.join(scratch, "campaign.json")
        with open(campaign_path, "w", encoding="utf-8") as handle:
            handle.write(CAMPAIGN.to_json())
        spec = _sweep_spec(campaign_path)
        timings = {}
        results = {}
        for workers in (0, 2, 4):
            start = time.perf_counter()
            # a run_timeout puts even one worker on the pool, so the
            # in-process serial baseline runs without one
            results[workers] = run_campaign(
                spec, workers=workers,
                run_timeout=300.0 if workers else None)
            timings[workers] = time.perf_counter() - start
        serial = timings[0]
        for workers in (0, 2, 4):
            rows.append({
                "level": ("campaign serial" if workers == 0
                          else f"campaign {workers} workers"),
                "seeds": len(spec.seeds),
                "cpus": os.cpu_count(),
                "wall_s": round(timings[workers], 3),
                "speedup": round(serial / timings[workers], 2),
            })
        rows.append({
            "level": "parallel == serial (byte-identical result)",
            "holds": all(results[workers].to_json()
                         == results[0].to_json()
                         for workers in (2, 4)),
        })
        # resume: journal the full sweep, drop the last seed's row,
        # re-run with resume — only the dropped seed may execute
        journal = os.path.join(scratch, "journal.jsonl")
        start = time.perf_counter()
        full = run_campaign(spec, journal=journal)
        full_wall = time.perf_counter() - start
        lines = open(journal, encoding="utf-8").read().splitlines()
        dropped_seed = json.loads(lines[-1])["seed"]
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
        start = time.perf_counter()
        resumed = run_campaign(spec, journal=journal, resume=True)
        resume_wall = time.perf_counter() - start
        rows.append({
            "level": "resume with one seed missing",
            "seeds_re_run": len(spec.seeds) - len(resumed.resumed_seeds),
            "dropped_seed": dropped_seed,
            "full_wall_s": round(full_wall, 3),
            "resume_wall_s": round(resume_wall, 3),
            "resume_equals_uninterrupted": resumed.to_json()
            == full.to_json(),
        })
    return rows


def table():
    """Rows: recovery-policy throughput, checkpoint premium, campaign
    fan-out speedup, resume cost + the PR-5 determinism invariants."""
    rows = recovery_policy_rows()
    rows.extend(checkpoint_cadence_rows())
    rows.extend(campaign_rows())
    return rows


class TestShape:
    def test_policies_recover(self):
        rows = {row["level"]: row for row in recovery_policy_rows()}
        assert rows["policy=restore"]["restores"] > 0
        assert rows["policy=restart"]["restarts"] > 0
        assert rows["policy=quarantine"]["quarantined"] == 1
        # restore keeps the counter the restart policy forfeits
        assert rows["policy=restore"]["flaky_beats"] \
            > rows["policy=restart"]["flaky_beats"]

    def test_campaign_invariants_hold(self):
        rows = {row["level"]: row for row in campaign_rows()}
        assert rows["parallel == serial (byte-identical result)"]["holds"]
        resume = rows["resume with one seed missing"]
        assert resume["seeds_re_run"] == 1
        assert resume["resume_equals_uninterrupted"]


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv:
        SIM_TIME = 60.0
        SEEDS = (0, 1)
    for row in table():
        print(row)
