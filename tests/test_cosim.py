"""Tests for the cosimulation harness executing UML component models."""

import gc
import json
import weakref

import pytest

import repro.metamodel as mm
from repro.errors import AslRuntimeError, QueueOverflowError, SimulationError
from repro.faults import FaultCampaign
from repro.properties import PropertySuite, bounded_liveness, response
from repro.simulation import SystemSimulation
from repro.statemachines import StateMachine, TransitionKind


def make_echo(name="Echo"):
    """A component that replies Pong(n) on port 'out' to Ping(n)."""
    comp = mm.Component(name)
    comp.add_port("in", direction=mm.PortDirection.IN)
    comp.add_port("out", direction=mm.PortDirection.OUT)
    comp.add_attribute("count", mm.INTEGER, default=0)
    machine = StateMachine(f"{name}Fsm")
    region = machine.region
    init = region.add_initial()
    ready = region.add_state("Ready")
    region.add_transition(init, ready)
    region.add_transition(
        ready, ready, trigger="Ping",
        effect='count = count + 1; send Pong(n=event.n) to "out";',
        kind=TransitionKind.INTERNAL)
    comp.add_behavior(machine, as_classifier_behavior=True)
    return comp


def make_collector(name="Collector"):
    comp = mm.Component(name)
    comp.add_port("rx", direction=mm.PortDirection.IN)
    machine = StateMachine(f"{name}Fsm")
    region = machine.region
    init = region.add_initial()
    listen = region.add_state("Listen")
    region.add_transition(init, listen)
    region.add_transition(listen, listen, trigger="Pong",
                          effect="got = got + [event.n];",
                          kind=TransitionKind.INTERNAL)
    comp.add_behavior(machine, as_classifier_behavior=True)
    return comp


def build_pair():
    top = mm.Component("Top")
    echo = make_echo()
    collector = make_collector()
    p_echo = top.add_part("echo", echo)
    p_col = top.add_part("col", collector)
    top.connect(echo.port("out"), collector.port("rx"),
                p_echo, p_col, check=False)
    return top


class TestBasics:
    def test_parts_instantiated_and_started(self):
        sim = SystemSimulation(build_pair())
        assert set(sim.parts) == {"echo", "col"}
        assert sim.state_snapshot() == {"col": ("Listen",),
                                        "echo": ("Ready",)}

    def test_empty_top_rejected(self):
        with pytest.raises(SimulationError):
            SystemSimulation(mm.Component("Empty"))

    @pytest.mark.parametrize("engine", ("warp", "batched", None))
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(SimulationError, match="unknown engine"):
            SystemSimulation(build_pair(), engine=engine)

    def test_attribute_defaults_seed_context(self):
        sim = SystemSimulation(build_pair())
        assert sim.context_of("echo")["count"] == 0

    def test_explicit_context_overrides(self):
        sim = SystemSimulation(build_pair(),
                               context={"echo": {"count": 100}})
        assert sim.context_of("echo")["count"] == 100

    def test_unknown_part_send_rejected(self):
        sim = SystemSimulation(build_pair())
        with pytest.raises(SimulationError):
            sim.send("ghost", "Ping")


#: observer name -> the SystemSimulation keywords that attach it; each
#: one holds the simulation it observes
OBSERVERS = {
    "faults": lambda: {
        "faults": FaultCampaign.from_dict({
            "name": "drops", "seed": 0,
            "faults": [{"kind": "drop", "signal": "Pong",
                        "probability": 0.5}]}),
        "fault_seed": 3},
    "coverage": lambda: {"coverage": True, "profile": True},
    "flight_recorder": lambda: {"flight_recorder": 32},
    "properties": lambda: {"properties": PropertySuite([
        response("ping-answered", trigger={"signal": "Ping"},
                 reaction={"signal": "Pong"}, within=2.0),
        # due at the end of the run: only the final sweep flags it
        bounded_liveness("pongs-keep-coming", match={"signal": "Pong"},
                         at_least=100, by=20.0)])},
}


def observed_reports(sim):
    """Every report a closed simulation must still answer alike."""
    reports = {}
    if sim.property_checker is not None:  # first: it may add violations
        reports["properties"] = sim.property_report().to_dict()
    reports["resilience"] = sim.resilience.to_dict()
    suite = sim.observability
    if suite is not None:
        if suite.coverage is not None:
            reports["coverage"] = suite.coverage_report().to_dict()
        if suite.profiler is not None:
            reports["profile"] = (suite.profile_lines("time")
                                  + suite.profile_lines("steps"))
        if suite.recorder is not None:
            reports["flight"] = suite.recorder.dump_text(sim)
    return reports


class TestClose:
    @pytest.mark.parametrize("engine", ("interpreted", "compiled"))
    def test_a_closed_simulation_is_freed_by_reference_counting(self,
                                                                engine):
        gc.collect()
        gc.disable()  # only reference counting may free it
        try:
            sim = SystemSimulation(build_pair(), engine=engine,
                                   context={"col": {"got": []}})
            for n in range(3):
                sim.send("echo", "Ping", n=n, delay=float(n))
            sim.run(until=10.0)
            sim.close()
            sim.close()  # idempotent
            # results stay readable after close()
            signals = [signal for _t, _sender, _part, signal
                       in sim.message_log]
            assert sorted(signals) == ["Ping"] * 3 + ["Pong"] * 3
            assert sim.stats()["messages_delivered"] == len(signals)
            assert sim.state_snapshot() == {"col": ("Listen",),
                                            "echo": ("Ready",)}
            freed = weakref.ref(sim)
            del sim
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("engine", ("interpreted", "compiled"))
    @pytest.mark.parametrize("observer", sorted(OBSERVERS))
    def test_a_closed_observed_simulation_is_freed_by_reference_counting(
            self, engine, observer):
        gc.collect()
        gc.disable()  # only reference counting may free it
        try:
            sim = SystemSimulation(build_pair(), engine=engine,
                                   context={"col": {"got": []}},
                                   **OBSERVERS[observer]())
            for n in range(6):
                sim.send("echo", "Ping", n=n, delay=float(n))
            sim.run(until=20.0)
            before = observed_reports(sim)
            sim.close()
            assert observed_reports(sim) == before
            freed = weakref.ref(sim)
            del sim
            assert freed() is None
        finally:
            gc.enable()

    def test_close_finalizes_what_the_reports_read(self):
        # reports read only after close() equal those of a twin run
        # read before it: close() finalizes properties and the profile
        runs = []
        for close_first in (False, True):
            sim = SystemSimulation(build_pair(),
                                   context={"col": {"got": []}},
                                   profile=True,
                                   **OBSERVERS["properties"]())
            sim.send("echo", "Ping", n=1)
            sim.run(until=20.0)
            if close_first:
                sim.close()
            runs.append(observed_reports(sim))
            sim.close()
        assert runs[0] == runs[1]
        assert runs[0]["properties"]["properties"]["pongs-keep-coming"][
            "verdict"] == "violated"

    @pytest.mark.parametrize("engine", ("interpreted", "compiled"))
    def test_teardown_fires_no_incident(self, engine, tmp_path):
        # the echo's action fails at t=1 under "raise", and only the
        # final sweep at t=1 finds the liveness property unmet: the
        # crash stays the last incident and the flight dump's reason
        dump = tmp_path / "postmortem.jsonl"
        incidents = []
        with pytest.raises(AslRuntimeError):
            with SystemSimulation(
                    build_pair(), engine=engine,
                    context={"echo": {"count": None},
                             "col": {"got": []}},
                    flight_recorder=16, flight_dump=str(dump),
                    properties=PropertySuite([bounded_liveness(
                        "two-pings", match={"signal": "Ping"},
                        at_least=2, by=1.0)])) as sim:
                sim.incident_hooks.append(
                    lambda reason, detail: incidents.append(reason))
                sim.send("echo", "Ping", n=1, delay=1.0)
                sim.run(until=5.0)
        assert incidents == ["simulation_error"]
        header = json.loads(dump.read_text().splitlines()[0])
        assert header["reason"] == "simulation_error"
        report = sim.property_report()
        assert report.properties["two-pings"]["verdict"] == "violated"
        assert sim.resilience.counts["property_violations"] == 1


class TestMessageFlow:
    def test_signal_routes_through_connector(self):
        sim = SystemSimulation(build_pair(),
                               context={"col": {"got": []}})
        sim.send("echo", "Ping", n=1)
        sim.send("echo", "Ping", n=2, delay=1.0)
        sim.run(until=10.0)
        assert sim.context_of("echo")["count"] == 2
        assert sim.context_of("col")["got"] == [1, 2]

    def test_latency_applied(self):
        sim = SystemSimulation(build_pair(), default_latency=5.0,
                               context={"col": {"got": []}})
        sim.send("echo", "Ping", n=9)
        sim.run(until=20.0)
        delivery_times = [t for t, _sender, _part, signal
                          in sim.message_log if signal == "Pong"]
        assert delivery_times == [5.0]  # injected at 0, one 5.0 hop

    def test_unconnected_port_send_drops_by_default(self):
        top = mm.Component("Top")
        lonely = make_echo("Lonely")
        top.add_part("lonely", lonely)
        sim = SystemSimulation(top)
        sim.send("lonely", "Ping", n=1)
        sim.run(until=5.0)
        assert sim.messages_dropped == 1

    def test_unconnected_port_send_raises_in_strict_mode(self):
        top = mm.Component("Top")
        lonely = make_echo("Lonely")
        top.add_part("lonely", lonely)
        sim = SystemSimulation(top, strict_routing=True)
        sim.send("lonely", "Ping", n=1)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_self_send_without_target(self):
        comp = mm.Component("Selfish")
        comp.add_attribute("n", mm.INTEGER, default=0)
        machine = StateMachine("fsm")
        region = machine.region
        init = region.add_initial()
        a = region.add_state("A")
        b = region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(a, b, trigger="kick",
                              effect="send Internal();")
        region.add_transition(b, b, trigger="Internal",
                              effect="n = n + 1;",
                              kind=TransitionKind.INTERNAL)
        comp.add_behavior(machine, as_classifier_behavior=True)
        top = mm.Component("Top")
        top.add_part("s", comp)
        sim = SystemSimulation(top)
        sim.send("s", "kick")
        sim.run(until=5.0)
        assert sim.context_of("s")["n"] == 1

    def test_messages_counted(self):
        sim = SystemSimulation(build_pair(),
                               context={"col": {"got": []}})
        sim.send("echo", "Ping", n=1)
        sim.run(until=10.0)
        assert sim.messages_delivered == 2  # Ping in + Pong across


class TestTimeIntegration:
    def test_state_machine_timers_advance_with_simulation(self):
        comp = mm.Component("Beeper")
        comp.add_attribute("beeps", mm.INTEGER, default=0)
        machine = StateMachine("fsm")
        region = machine.region
        init = region.add_initial()
        beat = region.add_state("Beat")
        region.add_transition(init, beat)
        region.add_transition(beat, beat, after=10.0,
                              effect="beeps = beeps + 1;")
        comp.add_behavior(machine, as_classifier_behavior=True)
        top = mm.Component("Top")
        top.add_part("beeper", comp)
        sim = SystemSimulation(top, quantum=1.0)
        sim.run(until=35.0)
        assert sim.context_of("beeper")["beeps"] == 3

    def test_delegated_port_input(self):
        top = mm.Component("Top")
        echo = make_echo()
        part = top.add_part("echo", echo)
        outer = top.add_port("ext", direction=mm.PortDirection.IN)
        top.delegate(outer, echo.port("in"), part)
        collector = make_collector()
        p_col = top.add_part("col", collector)
        top.connect(echo.port("out"), collector.port("rx"),
                    part, p_col, check=False)
        sim = SystemSimulation(top, context={"col": {"got": []}})
        sim.send_to_port("ext", "Ping", n=5)
        sim.run(until=10.0)
        assert sim.context_of("col")["got"] == [5]
        with pytest.raises(SimulationError):
            sim.send_to_port("ghost", "Ping")


class TestBoundedQueue:
    """``max_queue``/``overflow_policy`` pass through to the kernel
    (docs/FAULTS.md, "Bounded queues")."""

    @staticmethod
    def fan_out(policy):
        # every Ping becomes two Pongs in flight, so the queue grows
        # during the run rather than while stimuli are scheduled
        top = mm.Component("Top")
        echo = make_echo()
        collector = make_collector()
        p_echo = top.add_part("echo", echo)
        for name in ("a", "b"):
            part = top.add_part(name, collector)
            top.connect(echo.port("out"), collector.port("rx"),
                        p_echo, part, check=False)
        sim = SystemSimulation(top, default_latency=50.0, max_queue=6,
                               overflow_policy=policy,
                               context={"a": {"got": []},
                                        "b": {"got": []}})
        for n in range(4):
            sim.send("echo", "Ping", n=n, delay=float(n))
        return sim

    def test_drop_newest_sheds_and_counts(self):
        sim = self.fan_out("drop-newest")
        sim.run(until=100.0)
        dropped = sim.stats()["kernel_events_dropped"]
        assert dropped > 0
        pongs = len(sim.context_of("a")["got"]) \
            + len(sim.context_of("b")["got"])
        assert pongs == 8 - dropped

    def test_raise_policy_raises(self):
        sim = self.fan_out("raise")
        with pytest.raises(QueueOverflowError):
            sim.run(until=100.0)
