"""Activities as first-class part behaviors (PR 3).

A part whose classifier behavior is an Activity runs under the same
scheduler, fault injector, degradation policies and checkpoint/restore
as state-machine parts — this module is the executable statement of
that claim, mirroring tests/test_faults_lockstep.py for the mixed
Activity + StateMachine case."""

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.activities import Activity
from repro.engine import ENGINE_MODES, TOKEN, TraceBus, TraceRecorder
from repro.faults import CampaignSpec, FaultCampaign, FaultSpec, run_campaign
from repro.simulation import SystemSimulation
from repro.statemachines import StateMachine
from repro.statemachines.kernel import TransitionKind


def make_echo(fragile=False):
    """Component whose behavior is a server-loop activity: wait for
    Ping, count it, reply Pong through the 'link' port."""
    echo = mm.Component("Echo")
    echo.add_attribute("count", mm.INTEGER, default=0)
    echo.add_port("link")
    activity = Activity("EchoBehavior")
    init = activity.add_initial()
    merge = activity.add_merge()
    accept = activity.add_accept_event("wait", event="Ping")
    work = activity.add_action("work", "count = count + 1;")
    send = activity.add_send_signal("reply", signal="Pong", target="link")
    activity.chain(init, merge, accept, work, send)
    activity.flow(send, merge)
    if fragile:
        # an independent poll loop whose action raises at ASL runtime
        poll = activity.add_initial("poll")
        loop = activity.add_merge("pollMerge")
        poke = activity.add_accept_event("poked", event="Poke")
        boom = activity.add_action("boom", "x = undefined_name + 1;")
        activity.chain(poll, loop, poke, boom)
        activity.flow(boom, loop)
    echo.add_behavior(activity, as_classifier_behavior=True)
    return echo


def make_driver(pings=4):
    """State-machine component: sends Ping on start, re-pings on each
    Pong until its budget is spent."""
    driver = mm.Component("Driver")
    driver.add_attribute("pongs", mm.INTEGER, default=0)
    driver.add_port("link")
    machine = StateMachine("DriverBehavior")
    region = machine.region
    init = region.add_initial()
    run = region.add_state("Run", entry='send Ping() to "link";')
    region.add_transition(init, run)
    region.add_transition(run, run, trigger="Pong",
                          guard=f"pongs < {pings - 1}",
                          effect='pongs = pongs + 1; '
                                 'send Ping() to "link";',
                          kind=TransitionKind.INTERNAL)
    driver.add_behavior(machine, as_classifier_behavior=True)
    return driver


def mixed_top(pings=4, fragile=False):
    top = mm.Component("Top")
    echo = make_echo(fragile=fragile)
    driver = make_driver(pings)
    p_echo = top.add_part("echo", echo)
    p_driver = top.add_part("driver", driver)
    top.connect(echo.port("link"), driver.port("link"),
                p_echo, p_driver, check=False)
    return top


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


class TestMixedModelRuns:
    def test_ping_pong_round_trips(self):
        with SystemSimulation(mixed_top(pings=4),
                              engine="interpreted") as sim:
            sim.run(until=30.0)
            assert sim.context_of("echo")["count"] == 4
            assert sim.context_of("driver")["pongs"] == 3
            assert sim.compile_report["echo"] == "token-engine"
            assert sim.compile_report["driver"] == "interpreter"

    def test_activity_configuration_is_named(self):
        with SystemSimulation(mixed_top()) as sim:
            sim.run(until=30.0)
            states = sim.state_snapshot()["echo"]
            assert states  # quiesced at the accept node, not terminated
            assert all(":" in label for label in states)

    def test_start_time_send_is_routed(self):
        # the driver's entry action fires during construction; that
        # send must route through the connector like any other
        with SystemSimulation(mixed_top(pings=1)) as sim:
            sim.run(until=10.0)
            assert sim.context_of("echo")["count"] == 1

    def test_token_events_on_the_bus(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus, kinds=(TOKEN,))
        with SystemSimulation(mixed_top(), bus=bus) as sim:
            sim.run(until=30.0)
        fired = [event.data["node"] for event in recorder.events]
        assert "work" in fired and "reply" in fired
        assert all(event.part == "echo" for event in recorder.events)


class TestCheckpointRestore:
    def test_exact_replay_round_trip(self):
        with SystemSimulation(mixed_top(pings=6)) as sim:
            sim.run(until=5.0)
            snap = sim.checkpoint()
            sim.run(until=40.0)
            first = fingerprint(sim)
            sim.restore(snap)
            sim.run(until=40.0)
            second = fingerprint(sim)
        assert first == second
        assert first["contexts"]["echo"]["count"] == 6

    def test_checkpoint_under_faults_replays(self):
        campaign = FaultCampaign(
            [FaultSpec("drop", signal="Pong", probability=0.4)], seed=11)
        with SystemSimulation(mixed_top(pings=8),
                              faults=campaign) as sim:
            sim.run(until=6.0)
            snap = sim.checkpoint()
            sim.run(until=60.0)
            first = fingerprint(sim)
            sim.restore(snap)
            sim.run(until=60.0)
            second = fingerprint(sim)
        assert first == second


class TestLockstepWithActivityPart:
    def test_compiled_and_interpreted_agree(self):
        results = []
        for engine in ENGINE_MODES:
            with SystemSimulation(mixed_top(pings=5),
                                  engine=engine) as sim:
                sim.run(until=40.0)
                results.append(fingerprint(sim))
        assert results[0] == results[1]

    def test_lockstep_under_fault_campaign(self):
        campaign = FaultCampaign(
            [FaultSpec("drop", signal="Pong", probability=0.3),
             FaultSpec("duplicate", signal="Ping", max_count=2),
             FaultSpec("delay", signal="Pong", delay=1.5, jitter=1.0,
                       probability=0.5)],
            name="mixed", seed=42)
        results = []
        for engine in ENGINE_MODES:
            with SystemSimulation(mixed_top(pings=8), engine=engine,
                                  faults=campaign) as sim:
                sim.run(until=80.0)
                results.append(fingerprint(sim))
        assert results[0] == results[1]

    def test_trace_streams_byte_identical(self):
        campaign = FaultCampaign(
            [FaultSpec("drop", signal="Pong", probability=0.3)], seed=7)
        streams = []
        for engine in ENGINE_MODES:
            bus = TraceBus()
            recorder = TraceRecorder(bus)
            with SystemSimulation(mixed_top(pings=8), engine=engine,
                                  faults=campaign, bus=bus) as sim:
                sim.run(until=60.0)
            streams.append(recorder.to_jsonl())
        assert streams[0]
        assert streams[0] == streams[1]


class TestDegradationPolicies:
    def send_pokes(self, sim):
        sim.send("echo", "Poke", delay=2.5)
        sim.send("echo", "Poke", delay=4.5)

    def test_quarantine_isolates_activity_part(self):
        with SystemSimulation(mixed_top(pings=3, fragile=True),
                              on_part_error="quarantine") as sim:
            self.send_pokes(sim)
            sim.run(until=40.0)
            assert sim.quarantined_parts == ("echo",)
            assert sim.resilience.part_failures

    def test_restart_rebuilds_activity_part(self):
        with SystemSimulation(mixed_top(pings=3, fragile=True),
                              on_part_error="restart",
                              max_restarts=5) as sim:
            self.send_pokes(sim)
            sim.run(until=40.0)
            assert sim.quarantined_parts == ()
            assert sim.resilience.restarts.get("echo", 0) >= 1
            # the restarted engine is fresh: its counter restarted at 0
            assert sim.context_of("echo")["count"] >= 0

    @pytest.mark.parametrize("policy", ["quarantine", "restart"])
    def test_policies_lockstep(self, policy):
        results = []
        for engine in ENGINE_MODES:
            with SystemSimulation(mixed_top(pings=4, fragile=True),
                                  engine=engine,
                                  on_part_error=policy,
                                  max_restarts=1) as sim:
                self.send_pokes(sim)
                sim.run(until=40.0)
                results.append(fingerprint(sim))
        assert results[0] == results[1]


#: ASL text that fails with a Python error, not a ReproError
POP_EMPTY = "l = []; x = pop(l);"


def write_failing_model(path, activity):
    """A pinger (:func:`make_driver`) and a worker whose behaviour, an
    activity or a state machine, runs POP_EMPTY on the Ping."""
    worker = mm.Component("Worker")
    worker.add_port("link")
    if activity:
        behavior = Activity("Work")
        behavior.chain(behavior.add_initial(),
                       behavior.add_accept_event("wait", event="Ping"),
                       behavior.add_action("work", POP_EMPTY))
    else:
        behavior = StateMachine("Work")
        region = behavior.region
        wait = region.add_state("Wait")
        region.add_transition(region.add_initial(), wait)
        region.add_transition(wait, region.add_state("Done"),
                              trigger="Ping", effect=POP_EMPTY)
    worker.add_behavior(behavior, as_classifier_behavior=True)
    pinger = make_driver(pings=1)
    top = mm.Component("Top")
    p_worker = top.add_part("worker", worker)
    p_pinger = top.add_part("pinger", pinger)
    top.connect(worker.port("link"), pinger.port("link"),
                p_worker, p_pinger, check=False)
    model = mm.Model("m")
    for component in (worker, pinger, top):
        model.add(component)
    xmi.write_file(str(path), model)
    return str(path)


class TestAslFailureInACampaign:
    """A Python error inside ASL text ends a seed as the same
    ``sim_error`` row whether an activity or a state machine ran it,
    serially and on a worker pool: it neither aborts the sweep nor
    counts as a worker failure."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_activity_failure_is_the_state_machine_sim_error(
            self, tmp_path, workers):
        expected = ("AslRuntimeError: action failed: pop from empty list "
                    f"(in {POP_EMPTY!r})")
        for activity in (False, True):
            path = write_failing_model(tmp_path / f"{activity}.xmi",
                                       activity)
            result = run_campaign(
                CampaignSpec(seeds=[1, 2], model=path, top="Top",
                             until=10.0),
                workers=workers, max_retries=1)
            assert result.failures == []
            assert [row["sim_error"] for row in result.rows] == \
                [expected, expected]
