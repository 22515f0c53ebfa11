"""Supervised rollback recovery (PR 5): periodic part checkpoints, the
``on_part_error="restore"`` policy, and the Supervisor escalation chain
(restore -> restart -> quarantine, per-part budgets) — including the
lockstep guarantee that both engines walk the identical recovery path.
"""

import json

import pytest

import repro.metamodel as mm
from repro.engine import (
    CHECKPOINT,
    ENGINE_MODES,
    PART_RESTORED,
    SUPERVISOR_DECISION,
    TraceBus,
    TraceRecorder,
)
from repro.errors import SimulationError
from repro.simulation import SUPERVISOR_ACTIONS, Supervisor, SystemSimulation
from repro.statemachines import StateMachine, TransitionKind


def make_fragile_top(fail_on="Poke"):
    """A counter part whose ``fail_on`` signal raises inside its effect."""
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


class TestSupervisorUnit:
    def test_action_vocabulary(self):
        assert SUPERVISOR_ACTIONS == ("restore", "restart", "quarantine")

    def test_quarantine_policy_passthrough(self):
        supervisor = Supervisor("quarantine")
        assert supervisor.decide("p") == ("quarantine", "quarantine")

    def test_restore_escalation_chain(self):
        supervisor = Supervisor("restore", max_restores=2, max_restarts=1)
        assert supervisor.decide("p") == ("restore", "restore")
        assert supervisor.decide("p") == ("restore", "restore")
        assert supervisor.decide("p") == \
            ("restart", "restart (restore budget exhausted)")
        assert supervisor.decide("p") == \
            ("quarantine", "quarantine (recovery budgets exhausted)")
        # budgets are per part: a fresh part starts the chain over
        assert supervisor.decide("q") == ("restore", "restore")

    def test_restore_without_snapshot_restarts(self):
        supervisor = Supervisor("restore", max_restores=3)
        action, label = supervisor.decide("p", has_snapshot=False)
        assert action == "restart"
        assert label == "restart (no snapshot)"
        # the failed restore attempt did not burn the restore budget
        assert supervisor.budgets("p")["restores_left"] == 3

    def test_budgets_and_state_round_trip(self):
        supervisor = Supervisor("restore", max_restores=2, max_restarts=5)
        supervisor.decide("p")
        snap = supervisor.snapshot()
        supervisor.decide("p")
        assert supervisor.budgets("p")["restores_left"] == 0
        supervisor.restore_state(snap)
        assert supervisor.budgets("p") == \
            {"restores_left": 1, "restarts_left": 5}


class TestRestorePolicy:
    def scenario(self, **kwargs):
        sim = SystemSimulation(make_fragile_top(), **kwargs)
        sim.send("frag", "Ping", delay=1.0)
        sim.send("frag", "Ping", delay=2.0)
        sim.send("frag", "Poke", delay=7.0)
        sim.send("frag", "Ping", delay=9.0)
        sim.run(until=20.0)
        return sim

    def test_restore_rolls_back_to_last_checkpoint(self):
        # checkpoint at t=5 holds pings=2; the t=7 failure rolls back to
        # it, so the t=9 ping lands on the *preserved* counter
        with self.scenario(on_part_error="restore",
                           checkpoint_interval=5.0) as sim:
            assert sim.context_of("frag")["pings"] == 3
            assert sim.resilience.restores == {"frag": 1}
            assert sim.resilience.restarts == {}
            assert sim.quarantined_parts == ()
            assert sim.stats()["restores"] == 1

    def test_restart_loses_what_restore_keeps(self):
        # the identical scenario under the PR 2 restart policy rebuilds
        # the part cold: the two pre-failure pings are gone
        with self.scenario(on_part_error="restart") as sim:
            assert sim.context_of("frag")["pings"] == 1
            assert sim.resilience.restarts == {"frag": 1}

    def test_baseline_snapshot_without_interval(self):
        # restore policy alone arms a construction-time baseline: a
        # failure before any periodic checkpoint still rolls back
        with self.scenario(on_part_error="restore") as sim:
            assert sim.resilience.restores == {"frag": 1}
            assert sim.quarantined_parts == ()

    def test_escalation_exhausts_to_quarantine(self):
        sim = SystemSimulation(make_fragile_top(),
                               on_part_error="restore",
                               checkpoint_interval=4.0,
                               max_restores=1, max_restarts=1)
        for delay in (5.0, 6.0, 7.0, 8.0):
            sim.send("frag", "Poke", delay=delay)
        sim.run(until=20.0)
        actions = [failure["action"]
                   for failure in sim.resilience.part_failures]
        assert actions == [
            "restore",
            "restart (restore budget exhausted)",
            "quarantine (recovery budgets exhausted)",
        ]
        assert sim.quarantined_parts == ("frag",)
        # the 4th poke hit a quarantined part: no further failure rows
        assert len(sim.resilience.part_failures) == 3
        sim.close()

    def test_periodic_checkpoints_advance(self):
        with SystemSimulation(make_fragile_top(),
                              checkpoint_interval=5.0) as sim:
            assert sim.part_snapshot_times == {"frag": 0.0}
            sim.run(until=12.0)
            assert sim.part_snapshot_times == {"frag": 10.0}
            assert sim.take_part_checkpoints() == 1
            assert sim.part_snapshot_times == {"frag": 12.0}

    def test_checkpoint_interval_validation(self):
        with pytest.raises(SimulationError):
            SystemSimulation(make_fragile_top(), checkpoint_interval=0.0)

    def test_full_checkpoint_carries_recovery_state(self):
        sim = SystemSimulation(make_fragile_top(),
                               on_part_error="restore",
                               checkpoint_interval=5.0, max_restores=1)
        sim.send("frag", "Poke", delay=3.0)
        sim.run(until=10.0)
        assert sim.resilience.restores == {"frag": 1}
        snap = sim.checkpoint()
        sim.send("frag", "Poke", delay=2.0)
        sim.run(until=15.0)
        # second failure escalated past the exhausted restore budget
        assert sim.resilience.restarts == {"frag": 1}
        sim.restore(snap)
        assert sim.resilience.restarts == {}
        assert sim.supervisor.budgets("frag")["restores_left"] == 0
        assert sim.part_snapshot_times == {"frag": 10.0}
        sim.close()


class TestRecoveryTraceEvents:
    def recovery_trace(self, engine):
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        with SystemSimulation(make_fragile_top(), engine=engine,
                              on_part_error="restore",
                              checkpoint_interval=5.0, bus=bus) as sim:
            sim.send("frag", "Ping", delay=1.0)
            sim.send("frag", "Poke", delay=7.0)
            sim.send("frag", "Ping", delay=9.0)
            sim.run(until=20.0)
        return recorder

    def test_supervisor_decision_is_traced(self):
        recorder = self.recovery_trace("interpreted")
        decisions = [event for event in recorder.events
                     if event.kind == SUPERVISOR_DECISION]
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.part == "frag"
        assert decision.data["action"] == "restore"
        assert decision.data["label"] == "restore"
        assert "AslRuntimeError" in decision.data["reason"]
        assert decision.data["restores_left"] == 2
        assert decision.data["restarts_left"] == 3

    def test_restore_and_checkpoint_are_traced(self):
        recorder = self.recovery_trace("interpreted")
        restored = [event for event in recorder.events
                    if event.kind == PART_RESTORED]
        assert [event.part for event in restored] == ["frag"]
        assert restored[0].data["snapshot_t"] == 5.0
        checkpoints = [event for event in recorder.events
                       if event.kind == CHECKPOINT]
        assert checkpoints, "periodic checkpoints must be traced"
        assert all(event.data["parts"] == 1 for event in checkpoints)
        # the decision precedes the rollback it chose
        ordinals = [event.ordinal for event in recorder.events
                    if event.kind in (SUPERVISOR_DECISION, PART_RESTORED)]
        assert ordinals == sorted(ordinals)

    def test_recovery_is_lockstep_across_engines(self):
        # the engines word their action errors differently, so the
        # lockstep contract covers everything *except* the free-text
        # reason: same ordinals, times, kinds, actions, budgets.
        def normalized(recorder):
            lines = []
            for event in recorder.events:
                data = {key: value for key, value in event.data.items()
                        if key not in ("reason", "error")}
                lines.append(json.dumps(
                    [event.ordinal, event.t, event.kind, event.part,
                     data], sort_keys=True))
            return lines

        interpreted = self.recovery_trace("interpreted")
        compiled = self.recovery_trace("compiled")
        assert normalized(interpreted) == normalized(compiled)
        kinds = {event.kind for event in interpreted.events}
        assert {SUPERVISOR_DECISION, PART_RESTORED, CHECKPOINT} <= kinds

    def test_lockstep_final_state_after_rollback(self):
        results = []
        for engine in ENGINE_MODES:
            with SystemSimulation(make_fragile_top(), engine=engine,
                                  on_part_error="restore",
                                  checkpoint_interval=5.0) as sim:
                sim.send("frag", "Ping", delay=1.0)
                sim.send("frag", "Ping", delay=2.0)
                sim.send("frag", "Poke", delay=7.0)
                sim.send("frag", "Ping", delay=9.0)
                sim.run(until=20.0)
                results.append({
                    "pings": sim.context_of("frag")["pings"],
                    "states": sim.state_snapshot(),
                    "restores": dict(sim.resilience.restores),
                    "snapshots": sim.part_snapshot_times,
                })
        assert results[0] == results[1]
        assert results[0]["pings"] == 3
