"""Fault injection, graceful degradation and resilience (PR 2)."""

import json

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.cli import main
from repro.errors import BusError, FaultError, SimulationError
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import (
    AddressMap,
    Region,
    make_interrupt_controller,
    make_memory,
    make_retry_master,
    make_soc,
    make_traffic_generator,
)
from repro.simulation import SystemSimulation
from repro.statemachines import StateMachineRuntime
from repro.statemachines.compiled import compile_fallback_reason
from repro.statemachines.kernel import StateMachine, TransitionKind


def make_soc_top(address_range=0x1000, size=0x800, period=2.0):
    """A small SoC whose traffic generator also hits unmapped space."""
    cpu = make_traffic_generator("Cpu", period=period,
                                 address_range=address_range)
    ram = make_memory("Ram", size_bytes=size)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, size)])


def make_fragile(fail_on="Poke"):
    """A component whose behavior raises AslRuntimeError on ``fail_on``."""
    part = Component = mm.Component("Fragile")
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
    # a healthy bystander so the simulation has a surviving part
    top.add_part("peer", make_memory("Peer", size_bytes=16))
    return top


class TestFaultSpec:
    def test_kind_validated(self):
        with pytest.raises(FaultError):
            FaultSpec("explode")

    def test_window_validated(self):
        with pytest.raises(FaultError):
            FaultSpec("drop", window=(10, 5))
        with pytest.raises(FaultError):
            FaultSpec("drop", window=(1,))

    def test_probability_validated(self):
        with pytest.raises(FaultError):
            FaultSpec("drop", probability=1.5)

    def test_matching_is_wildcard_by_default(self):
        spec = FaultSpec("drop")
        assert spec.matches(0.0, "a", "p", "b", "c", "Sig")

    def test_site_and_window_matching(self):
        spec = FaultSpec("drop", part="cpu", signal="Read",
                         window=(10.0, 20.0))
        assert spec.matches(10.0, "cpu", "bus", "mem", "c", "Read")
        assert not spec.matches(20.0, "cpu", "bus", "mem", "c", "Read")
        assert not spec.matches(15.0, "dma", "bus", "mem", "c", "Read")
        assert not spec.matches(15.0, "cpu", "bus", "mem", "c", "Write")

    def test_json_round_trip(self):
        campaign = FaultCampaign(
            [FaultSpec("delay", part="cpu", delay=2.5, jitter=0.5,
                       window=(5, 50), name="slow-bus"),
             FaultSpec("corrupt", signal="Write", field="addr", xor=0x40,
                       probability=0.5, max_count=3)],
            name="trip", seed=99)
        clone = FaultCampaign.from_json(campaign.to_json())
        assert clone.to_json() == campaign.to_json()
        assert clone.seed == 99 and len(clone) == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec.from_dict({"kind": "drop", "sneaky": 1})
        with pytest.raises(FaultError):
            FaultCampaign.from_dict({"faults": [], "extra": True})
        with pytest.raises(FaultError):
            FaultCampaign.from_json("{not json")


class TestInjectionKinds:
    def run_with(self, spec_or_specs, until=60.0, seed=1, **sim_kwargs):
        specs = (spec_or_specs if isinstance(spec_or_specs, list)
                 else [spec_or_specs])
        campaign = FaultCampaign(specs, seed=seed)
        with SystemSimulation(make_soc_top(),
                              faults=campaign, **sim_kwargs) as sim:
            sim.run(until=until)
            return sim

    def test_drop_removes_messages(self):
        baseline = None
        with SystemSimulation(make_soc_top()) as sim:
            sim.run(until=60.0)
            baseline = sim.context_of("m0_cpu")["responses"]
        dropped = self.run_with(
            FaultSpec("drop", signal="ReadResp", max_count=4))
        assert dropped.resilience.counts["drop"] == 4
        assert dropped.context_of("m0_cpu")["responses"] == baseline - 4

    def test_duplicate_doubles_delivery(self):
        sim = self.run_with(FaultSpec("duplicate", signal="WriteAck",
                                      max_count=3))
        assert sim.resilience.counts["duplicate"] == 3
        acks = [entry for entry in sim.message_log
                if entry[3] == "WriteAck" and entry[2] == "m0_cpu"]
        times = [entry[0] for entry in acks]
        assert len(times) != len(set(times))  # at least one doubled

    def test_corrupt_flips_the_addressed_field(self):
        # flipping a high address bit pushes Writes out of mapped space,
        # so the bus answers Nak instead of WriteAck
        sim = self.run_with(FaultSpec("corrupt", signal="Write",
                                      field="addr", xor=0x4000,
                                      max_count=2))
        assert sim.resilience.counts["corrupt"] == 2
        details = [r["detail"] for r in sim.resilience.injections]
        assert details == ["addr ^= 0x4000"] * 2
        assert sim.context_of("m0_cpu")["naks"] >= 2

    def test_delay_adds_latency(self):
        sim = self.run_with(FaultSpec("delay", signal="ReadResp",
                                      delay=7.0, max_count=1))
        record = sim.resilience.injections[0]
        assert record["kind"] == "delay" and record["detail"] == "+7"

    def test_reorder_swaps_consecutive_matches(self):
        spec = FaultSpec("reorder", signal="ReadResp", max_count=2)
        sim = self.run_with(spec)
        assert sim.resilience.counts["reorder"] == 1  # one swap per pair

    def test_probability_and_seed_are_deterministic(self):
        spec = FaultSpec("drop", signal="ReadResp", probability=0.4)
        runs = [self.run_with(spec, seed=7).resilience.to_json()
                for _ in range(2)]
        assert runs[0] == runs[1]
        other_seed = self.run_with(spec, seed=8).resilience.to_json()
        assert other_seed != runs[0]

    def test_unmatched_traffic_flows_untouched(self):
        sim = self.run_with(FaultSpec("drop", signal="NoSuchSignal"))
        assert sim.resilience.total_injections == 0
        assert sim.messages_delivered > 0


class TestGracefulDegradation:
    def test_raise_policy_propagates(self):
        sim = SystemSimulation(make_fragile())
        sim.send("frag", "Poke", delay=1.0)
        with pytest.raises(Exception) as excinfo:
            sim.run(until=10.0)
        assert "undefined_name" in str(excinfo.value)
        sim.close()

    def test_quarantine_isolates_failed_part(self):
        with SystemSimulation(make_fragile(),
                              on_part_error="quarantine") as sim:
            sim.send("frag", "Ping", delay=1.0)
            sim.send("frag", "Poke", delay=2.0)
            sim.send("frag", "Ping", delay=3.0)  # dropped: quarantined
            sim.send("peer", "Read", addr=4, delay=3.0)  # peer unaffected
            sim.run(until=10.0)
            assert sim.quarantined_parts == ("frag",)
            assert sim.context_of("frag")["pings"] == 1
            failure = sim.resilience.part_failures[0]
            assert failure["part"] == "frag"
            assert failure["action"] == "quarantine"
            assert "undefined_name" in failure["error"]
            assert sim.resilience.quarantined == {"frag": 2.0}
            assert sim.resilience.counts["quarantine_dropped"] == 1
            assert sim.parts["peer"].received == 1

    def test_restart_rebuilds_then_quarantines(self):
        with SystemSimulation(make_fragile(), on_part_error="restart",
                              max_restarts=2) as sim:
            sim.send("frag", "Ping", delay=1.0)
            for t in (2.0, 4.0, 6.0):  # three failures, budget of two
                sim.send("frag", "Poke", delay=t)
            sim.send("frag", "Ping", delay=8.0)
            sim.run(until=20.0)
            # restart resets the context to its initial configuration
            assert sim.resilience.restarts == {"frag": 2}
            assert sim.quarantined_parts == ("frag",)
            actions = [f["action"] for f in sim.resilience.part_failures]
            assert actions == ["restart", "restart",
                               "quarantine (restart budget exhausted)"]

    def test_restarted_part_keeps_working(self):
        with SystemSimulation(make_fragile(), on_part_error="restart",
                              max_restarts=5) as sim:
            sim.send("frag", "Ping", delay=1.0)
            sim.send("frag", "Poke", delay=2.0)
            sim.send("frag", "Ping", delay=3.0)
            sim.run(until=10.0)
            assert sim.quarantined_parts == ()
            # the restart wiped the pre-failure count; the later Ping
            # was handled by the fresh runtime
            assert sim.context_of("frag")["pings"] == 1

    def test_bad_policy_rejected(self):
        with pytest.raises(SimulationError):
            SystemSimulation(make_fragile(), on_part_error="ignore")


class TestCheckpointRestore:
    def test_full_round_trip_with_faults(self):
        campaign = FaultCampaign(
            [FaultSpec("drop", signal="ReadResp", probability=0.3),
             FaultSpec("delay", signal="WriteAck", delay=2.0, jitter=1.0,
                       probability=0.3)],
            seed=11)
        sim = SystemSimulation(make_soc_top(), faults=campaign)
        sim.run(until=40.0)
        snap = sim.checkpoint()
        states = sim.state_snapshot()
        log_len = len(sim.message_log)
        report = sim.resilience.to_json()
        sim.run(until=120.0)
        assert len(sim.message_log) > log_len
        sim.restore(snap)
        assert sim.simulator.now == 40.0
        assert sim.state_snapshot() == states
        assert len(sim.message_log) == log_len
        assert sim.resilience.to_json() == report

        # replay from the checkpoint matches an uninterrupted run
        sim.run(until=120.0)
        reference = SystemSimulation(make_soc_top(), faults=campaign)
        reference.run(until=120.0)
        assert sim.message_log == reference.message_log
        assert sim.resilience.to_json() == reference.resilience.to_json()
        assert sim.state_snapshot() == reference.state_snapshot()
        sim.close()
        reference.close()

    def test_round_trip_restores_contexts(self):
        sim = SystemSimulation(make_soc_top(), engine="compiled")
        sim.run(until=30.0)
        snap = sim.checkpoint()
        issued = sim.context_of("m0_cpu")["issued"]
        sim.run(until=60.0)
        assert sim.context_of("m0_cpu")["issued"] > issued
        sim.restore(snap)
        assert sim.context_of("m0_cpu")["issued"] == issued
        sim.close()


class TestRunGuards:
    def test_livelock_recorded_and_raised(self):
        top = mm.Component("T")
        ping = mm.Component("Ping")
        ping.add_port("out", direction=mm.PortDirection.OUT)
        machine = StateMachine("PB")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S")
        region.add_transition(init, state)
        # unguarded self-send: a zero-delay event storm
        region.add_transition(state, state, trigger="Go",
                              effect="send Go();",
                              kind=TransitionKind.INTERNAL)
        ping.add_behavior(machine, as_classifier_behavior=True)
        top.add_part("p", ping)
        sim = SystemSimulation(top)
        sim.send("p", "Go")
        with pytest.raises(SimulationError):
            sim.run(until=10.0, max_events_at_instant=200)
        incident = sim.resilience.kernel_incidents[0]
        assert incident["kind"] == "LivelockError"
        sim.close()

    def test_context_manager_closes_kernel(self):
        with SystemSimulation(make_soc_top()) as sim:
            sim.run(until=10.0)
        assert sim.simulator.is_closed
        with pytest.raises(SimulationError):
            sim.send("m0_cpu", "Ping")


class TestBusErrorAndNak:
    def test_decode_strict_raises_with_location(self):
        amap = AddressMap([Region(0, 0x100, "s0")])
        assert amap.decode_strict(0x20).port == "s0"
        with pytest.raises(BusError) as excinfo:
            amap.decode_strict(0x9999, master="cpu0")
        error = excinfo.value
        assert error.address == 0x9999
        assert error.master == "cpu0"
        assert "0x9999" in str(error) and "cpu0" in str(error)
        assert isinstance(error, SimulationError)

    def test_unmapped_address_answers_nak(self):
        with SystemSimulation(make_soc_top(address_range=0x1000,
                                           size=0x800)) as sim:
            sim.run(until=100.0)
            assert sim.context_of("m0_cpu")["naks"] > 0
            naks = [e for e in sim.message_log if e[3] == "Nak"]
            assert naks


class TestRetryMaster:
    def test_stays_in_compilable_subset(self):
        master = make_retry_master()
        assert compile_fallback_reason(master.classifier_behavior) is None

    def test_nak_retries_with_backoff_then_faults(self):
        master = make_retry_master("Rm", address=0x900, period=50.0,
                                   timeout=30.0, backoff=1.0,
                                   max_retries=3)
        ram = make_memory("Ram", size_bytes=0x800)
        top = make_soc("Soc", masters=[master],
                       slaves=[(ram, "bus", 0, 0x800)])
        with SystemSimulation(top) as sim:
            sim.run(until=90.0)
            ctx = sim.context_of("m0_rm")
            assert ctx["retries"] == 3
            assert ctx["faults"] == 1
            assert ctx["served"] == 0
            # retry requests really crossed the bus: 1 + 3 resends
            reads = [e for e in sim.message_log
                     if e[3] == "Read" and e[2] == "bus"]
            assert len(reads) == 4

    def test_mapped_address_served_without_retries(self):
        master = make_retry_master("Rm", address=0x10, period=20.0,
                                   timeout=10.0)
        ram = make_memory("Ram", size_bytes=0x800)
        top = make_soc("Soc", masters=[master],
                       slaves=[(ram, "bus", 0, 0x800)])
        with SystemSimulation(top) as sim:
            sim.run(until=100.0)
            ctx = sim.context_of("m0_rm")
            assert ctx["served"] >= 4
            assert ctx["retries"] == 0 and ctx["faults"] == 0

    def test_lockstep_compiled_vs_interpreted(self):
        def run(engine):
            master = make_retry_master("Rm", address=0x900, period=11.0,
                                       timeout=5.0, backoff=2.0)
            ram = make_memory("Ram", size_bytes=0x800)
            top = make_soc("Soc", masters=[master],
                           slaves=[(ram, "bus", 0, 0x800)])
            with SystemSimulation(top, engine=engine) as sim:
                sim.run(until=150.0)
                return sim.message_log, sim.context_of("m0_rm")
        interpreted = run("interpreted")
        compiled = run("compiled")
        assert interpreted == compiled


class TestIrqStorm:
    def test_storm_threshold_sheds_backlog(self):
        pic = make_interrupt_controller(storm_threshold=3)
        sink = []
        runtime = StateMachineRuntime(pic.classifier_behavior,
                                      context={"dispatched": 0, "storms": 0},
                                      signal_sink=sink.append).start()
        for line in range(4):
            runtime.send("Irq", line=line)
        storms = [s for s in sink if s.signal == "Storm"]
        assert len(storms) == 1
        assert storms[0].arguments["dropped"] == 3
        assert runtime.context["storms"] == 1
        assert runtime.context["pending"] == []
        # the controller still works after shedding
        runtime.send("Ack", line=0)
        runtime.send("Irq", line=6)
        assert sink[-1].signal == "Interrupt"

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            make_interrupt_controller(storm_threshold=0)

    def test_default_has_no_storm_machinery(self):
        pic = make_interrupt_controller()
        assert all(attr.name != "storms" for attr in pic.all_attributes())


class TestCliFaults:
    @pytest.fixture
    def model_file(self, tmp_path):
        model = mm.Model("faulttest")
        pkg = model.create_package("design")
        cpu = make_traffic_generator("Cpu", period=5.0, address_range=256)
        mem = make_memory("Ram", size_bytes=256)
        make_soc("Top", masters=[cpu], slaves=[(mem, "bus", 0, 256)],
                 package=pkg)
        path = tmp_path / "model.xmi"
        xmi.write_file(str(path), model)
        return str(path)

    def test_simulate_with_campaign(self, model_file, tmp_path, capsys):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({
            "name": "cli", "seed": 3,
            "faults": [{"kind": "drop", "signal": "ReadResp",
                        "max_count": 2}],
        }))
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "60", "--faults", str(campaign),
                     "--seed", "5", "--on-part-error", "quarantine"]) == 0
        output = capsys.readouterr().out
        assert "resilience report" in output
        assert '"drop": 2' in output

    def test_bad_campaign_fails_cleanly(self, model_file, tmp_path):
        campaign = tmp_path / "bad.json"
        campaign.write_text('{"faults": [{"kind": "explode"}]}')
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--faults", str(campaign)]) == 2
