"""Lockstep equivalence of interpreted vs compiled execution under
fault injection (PR 2).

The injector sits above both state machine engines, so for the same
seeded campaign the two modes must produce identical message logs,
resilience reports, quarantine sets and final states — this module is
the executable statement of that guarantee.
"""

import json

import pytest

import repro.metamodel as mm
from repro.engine import ENGINE_MODES
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import (
    make_dma,
    make_memory,
    make_retry_master,
    make_soc,
    make_traffic_generator,
)
from repro.simulation import SystemSimulation
from repro.statemachines import StateMachine
from repro.statemachines.kernel import TransitionKind


def soc_top():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)])


def dma_top():
    top = mm.Component("T")
    dma = make_dma()
    memory = make_memory("M", size_bytes=256)
    p_dma = top.add_part("dma", dma)
    p_mem = top.add_part("mem", memory)
    top.connect(dma.port("mem"), memory.port("bus"), p_dma, p_mem,
                check=False)
    return top


CAMPAIGNS = {
    "mixed": FaultCampaign(
        [FaultSpec("drop", signal="ReadResp", probability=0.25),
         FaultSpec("duplicate", signal="Read", max_count=4),
         FaultSpec("corrupt", signal="Write", field="addr", xor=0x4000,
                   window=(20, 60), max_count=5),
         FaultSpec("delay", signal="WriteAck", delay=3.0, jitter=2.0,
                   probability=0.3),
         FaultSpec("reorder", signal="ReadResp", window=(80, 140))],
        name="mixed", seed=1234),
    "heavy-drop": FaultCampaign(
        [FaultSpec("drop", probability=0.5)], name="heavy", seed=77),
    "jittery": FaultCampaign(
        [FaultSpec("delay", delay=0.5, jitter=4.0, probability=0.8)],
        name="jittery", seed=3),
}


def fingerprint(sim):
    return {
        "log": list(sim.message_log),
        "states": sim.state_snapshot(),
        "contexts": {name: dict(sim.context_of(name))
                     for name, inst in sim.parts.items()
                     if inst.runtime is not None},
        "report": sim.resilience.to_json(),
        "quarantined": sim.quarantined_parts,
        "delivered": sim.messages_delivered,
        "dropped": sim.messages_dropped,
    }


def run_both(top_factory, until=150.0, **kwargs):
    results = []
    for engine in ENGINE_MODES:
        with SystemSimulation(top_factory(), engine=engine,
                              **kwargs) as sim:
            sim.run(until=until)
            results.append(fingerprint(sim))
    return results


class TestLockstepUnderFaults:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_soc_traffic_is_bit_identical(self, name):
        interpreted, compiled = run_both(soc_top, faults=CAMPAIGNS[name])
        assert interpreted == compiled

    def test_dma_burst_under_faults(self):
        campaign = FaultCampaign(
            [FaultSpec("delay", signal="ReadResp", delay=1.5,
                       jitter=1.0, probability=0.5),
             FaultSpec("duplicate", signal="WriteAck", max_count=2)],
            seed=9)
        results = []
        for engine in ENGINE_MODES:
            with SystemSimulation(dma_top(), engine=engine,
                                  faults=campaign) as sim:
                sim.send("dma", "Start", src=0, dst=64, length=8,
                         delay=1.0)
                sim.run(until=120.0)
                results.append(fingerprint(sim))
        assert results[0] == results[1]

    def test_retry_master_under_drop_faults(self):
        # drops of the Nak response force the timeout path of the retry
        # protocol — both engines must walk the same backoff chain
        campaign = FaultCampaign(
            [FaultSpec("drop", signal="Nak", probability=0.5)], seed=21)
        results = []
        for engine in ENGINE_MODES:
            master = make_retry_master("Rm", address=0x900, period=40.0,
                                       timeout=6.0, backoff=1.0)
            ram = make_memory("Ram", size_bytes=0x800)
            top = make_soc("Soc", masters=[master],
                           slaves=[(ram, "bus", 0, 0x800)])
            with SystemSimulation(top, engine=engine,
                                  faults=campaign) as sim:
                sim.run(until=200.0)
                results.append(fingerprint(sim))
        assert results[0] == results[1]

    def test_same_seed_same_run_different_seed_diverges(self):
        spec = [FaultSpec("drop", signal="ReadResp", probability=0.4)]
        base = FaultCampaign(spec, seed=5)
        with SystemSimulation(soc_top(), faults=base) as first:
            first.run(until=100.0)
            one = fingerprint(first)
        with SystemSimulation(soc_top(), faults=base) as second:
            second.run(until=100.0)
            two = fingerprint(second)
        assert one == two
        with SystemSimulation(soc_top(), faults=base,
                              fault_seed=6) as third:
            third.run(until=100.0)
            other = fingerprint(third)
        assert other["report"] != one["report"]


class TestLockstepQuarantine:
    def top_with_fragile(self):
        top = soc_top()
        fragile = mm.Component("Fragile")
        fragile.add_attribute("pings", mm.INTEGER, default=0)
        fragile.add_port("in", direction=mm.PortDirection.IN)
        machine = StateMachine("FragileBehavior")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle")
        region.add_transition(init, idle)
        region.add_transition(idle, idle, trigger="Ping",
                              effect="pings = pings + 1;",
                              kind=TransitionKind.INTERNAL)
        region.add_transition(idle, idle, trigger="Poke",
                              effect="x = boom + 1;",
                              kind=TransitionKind.INTERNAL)
        fragile.add_behavior(machine, as_classifier_behavior=True)
        top.add_part("frag", fragile)
        return top

    @pytest.mark.parametrize("policy", ["quarantine", "restart"])
    def test_quarantine_sets_match(self, policy):
        results = []
        for engine in ENGINE_MODES:
            with SystemSimulation(self.top_with_fragile(),
                                  engine=engine,
                                  on_part_error=policy,
                                  max_restarts=1) as sim:
                sim.send("frag", "Ping", delay=1.0)
                sim.send("frag", "Poke", delay=2.0)
                sim.send("frag", "Poke", delay=4.0)
                sim.send("frag", "Ping", delay=6.0)
                sim.run(until=60.0)
                fp = fingerprint(sim)
                # the two engines phrase the underlying AslRuntimeError
                # differently; the *structure* (who failed, when, what
                # action was taken) must still be identical
                report = json.loads(fp["report"])
                for failure in report["part_failures"]:
                    assert failure.pop("error").startswith(
                        "AslRuntimeError")
                fp["report"] = report
                results.append(fp)
        assert results[0] == results[1]
        assert results[0]["quarantined"] == ("frag",) \
            or results[0]["report"]["restarts"] == {"frag": 1}
