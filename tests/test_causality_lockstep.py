"""Byte-identity of the causal span exports across engines (PR 9).

The span JSONL and Perfetto renderings are pure functions of the trace
stream, and the stream is lockstep-identical across the interpreted and
compiled engines — so the exports must be byte-identical too: plain,
under a seeded fault campaign, and through supervised rollback recovery
(where the only engine-divergent data is the free error text, which the
exporters exclude by contract).
"""

import pytest

import repro.metamodel as mm
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.simulation import SystemSimulation
from repro.statemachines import StateMachine, TransitionKind

ENGINES = ("interpreted", "compiled")


def soc_top():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)])


def campaign(seed=1234):
    return FaultCampaign(
        [FaultSpec("drop", signal="ReadResp", probability=0.25),
         FaultSpec("delay", signal="WriteAck", delay=3.0, jitter=2.0,
                   probability=0.3),
         FaultSpec("corrupt", signal="Write", field="addr", xor=0x4000,
                   window=(20, 60), max_count=5)],
        name="lockstep", seed=seed)


def make_fragile_top(fail_on="Poke"):
    part = mm.Component("Fragile")
    part.add_attribute("pings", mm.INTEGER, default=0)
    part.add_port("in", direction=mm.PortDirection.IN)
    machine = StateMachine("FragileBehavior")
    region = machine.region
    init = region.add_initial()
    idle = region.add_state("Idle")
    region.add_transition(init, idle)
    region.add_transition(idle, idle, trigger="Ping",
                          effect="pings = pings + 1;",
                          kind=TransitionKind.INTERNAL)
    region.add_transition(idle, idle, trigger=fail_on,
                          effect="x = undefined_name + 1;",
                          kind=TransitionKind.INTERNAL)
    part.add_behavior(machine, as_classifier_behavior=True)
    top = mm.Component("Top")
    top.add_part("frag", part)
    return top


def export(mode, until=120.0, faults=None, seed=None):
    with SystemSimulation(soc_top(), causality=True, faults=faults,
                          fault_seed=seed, engine=mode) as sim:
        sim.run(until=until)
        causal = sim.observability.causal
        return {"spans": causal.to_span_jsonl(),
                "perfetto": causal.to_perfetto(),
                "edges": causal.edge_counts()}


def export_recovery(mode):
    sim = SystemSimulation(make_fragile_top(), causality=True,
                           on_part_error="restore",
                           checkpoint_interval=5.0, engine=mode)
    with sim:
        sim.send("frag", "Ping", delay=1.0)
        sim.send("frag", "Ping", delay=2.0)
        sim.send("frag", "Poke", delay=7.0)
        sim.send("frag", "Ping", delay=9.0)
        sim.run(until=20.0)
        causal = sim.observability.causal
        return {"spans": causal.to_span_jsonl(),
                "perfetto": causal.to_perfetto()}


class TestPlainRuns:
    @pytest.fixture(scope="class")
    def exports(self):
        return {mode: export(mode) for mode in ENGINES}

    def test_spans_byte_identical(self, exports):
        assert exports["interpreted"]["spans"] \
            == exports["compiled"]["spans"]
        assert exports["interpreted"]["spans"].count("\n") > 100

    def test_perfetto_byte_identical(self, exports):
        assert exports["interpreted"]["perfetto"] \
            == exports["compiled"]["perfetto"]

    def test_edge_counts_identical_and_cross_part(self, exports):
        edges = exports["interpreted"]["edges"]
        assert edges == exports["compiled"]["edges"]
        assert any("->" in edge for edge in edges["parts"])


class TestFaultedRuns:
    def test_campaign_exports_byte_identical(self):
        runs = {mode: export(mode, faults=campaign(), seed=7)
                for mode in ENGINES}
        assert runs["interpreted"] == runs["compiled"]
        # faults appear in the stream, with provenance
        assert '"kind":"fault"' in runs["interpreted"]["spans"]

    def test_different_seeds_diverge(self):
        # sanity: the equality above is not vacuous
        first = export("interpreted", faults=campaign(), seed=1)
        second = export("interpreted", faults=campaign(), seed=2)
        assert first["spans"] != second["spans"]


class TestSupervisedRecovery:
    def test_rollback_exports_byte_identical(self):
        runs = {mode: export_recovery(mode) for mode in ENGINES}
        assert runs["interpreted"] == runs["compiled"]
        # the recovery path is present — and survived the volatile-text
        # exclusion that makes the engines comparable
        assert '"kind":"part_restored"' in runs["interpreted"]["spans"]
        assert '"kind":"supervisor_decision"' \
            in runs["interpreted"]["spans"]
