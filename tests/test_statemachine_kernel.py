"""Unit tests for the state machine metamodel (structure + validate)."""

import pytest

from repro.errors import StateMachineError
from repro.metamodel import model_fingerprint
from repro.statemachines import (
    FinalState,
    PseudostateKind,
    SignalEvent,
    State,
    StateMachine,
    StateMachineRuntime,
    TimeEvent,
    Transition,
    TransitionKind,
)


class TestStructure:
    def test_region_auto_created(self):
        machine = StateMachine("m")
        region = machine.region
        assert machine.regions == (region,)
        assert machine.region is region  # idempotent

    def test_multi_region_requires_explicit_access(self):
        machine = StateMachine("m")
        machine.add_region("a")
        machine.add_region("b")
        with pytest.raises(StateMachineError):
            _ = machine.region

    def test_duplicate_vertex_names_rejected(self):
        region = StateMachine("m").region
        region.add_state("S")
        with pytest.raises(StateMachineError):
            region.add_state("S")

    def test_single_initial_per_region(self):
        region = StateMachine("m").region
        region.add_initial()
        with pytest.raises(StateMachineError):
            region.add_initial("another")

    def test_composite_orthogonal_simple(self):
        region = StateMachine("m").region
        state = region.add_state("S")
        assert state.is_simple
        state.add_region()
        assert state.is_composite and not state.is_orthogonal
        state.add_region()
        assert state.is_orthogonal

    def test_final_state_cannot_nest(self):
        region = StateMachine("m").region
        final = region.add_final()
        with pytest.raises(StateMachineError):
            final.add_region()

    def test_ancestor_states(self):
        machine = StateMachine("m")
        outer = machine.region.add_state("Outer")
        inner_region = outer.add_region()
        inner = inner_region.add_state("Inner")
        leaf_region = inner.add_region()
        leaf = leaf_region.add_state("Leaf")
        assert leaf.ancestor_states() == (inner, outer)
        assert leaf.machine is machine

    def test_find_state_anywhere(self):
        machine = StateMachine("m")
        outer = machine.region.add_state("Outer")
        nested = outer.add_region().add_state("Nested")
        assert machine.find_state("Nested") is nested
        with pytest.raises(StateMachineError):
            machine.find_state("Ghost")


class TestTransitions:
    def test_trigger_forms(self):
        region = StateMachine("m").region
        a, b = region.add_state("A"), region.add_state("B")
        by_string = region.add_transition(a, b, trigger="go")
        assert isinstance(by_string.triggers[0], SignalEvent)
        timed = region.add_transition(a, b, after=3.0)
        assert isinstance(timed.triggers[0], TimeEvent)
        completion = region.add_transition(b, a)
        assert completion.is_completion

    def test_exclusive_trigger_forms(self):
        region = StateMachine("m").region
        a, b = region.add_state("A"), region.add_state("B")
        with pytest.raises(StateMachineError):
            region.add_transition(a, b, trigger="go", after=1.0)

    def test_internal_requires_self_loop(self):
        region = StateMachine("m").region
        a, b = region.add_state("A"), region.add_state("B")
        with pytest.raises(StateMachineError):
            Transition(a, b, kind=TransitionKind.INTERNAL)

    def test_negative_time_event_rejected(self):
        with pytest.raises(ValueError):
            TimeEvent(-1.0)

    def test_vertex_outgoing_incoming(self):
        region = StateMachine("m").region
        a, b = region.add_state("A"), region.add_state("B")
        transition = region.add_transition(a, b, trigger="go")
        assert transition in a.outgoing
        assert transition in b.incoming


class TestValidate:
    def _minimal(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S")
        region.add_transition(init, state)
        return machine, region, init, state

    def test_valid_machine_passes(self):
        machine, *_ = self._minimal()
        machine.validate()

    def test_missing_initial_detected(self):
        machine = StateMachine("m")
        machine.region.add_state("S")
        with pytest.raises(StateMachineError):
            machine.validate()

    def test_guarded_initial_transition_rejected(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S")
        region.add_transition(init, state, guard="x > 0")
        with pytest.raises(StateMachineError):
            machine.validate()

    def test_fork_arity_checked(self):
        machine, region, init, state = self._minimal()
        fork = region.add_pseudostate(PseudostateKind.FORK)
        region.add_transition(state, fork, trigger="go")
        other = region.add_state("T")
        region.add_transition(fork, other)
        with pytest.raises(StateMachineError):
            machine.validate()

    def test_join_arity_checked(self):
        machine, region, init, state = self._minimal()
        join = region.add_pseudostate(PseudostateKind.JOIN)
        target = region.add_state("T")
        region.add_transition(state, join)
        region.add_transition(join, target)
        with pytest.raises(StateMachineError):
            machine.validate()

    def test_cross_machine_transition_rejected(self):
        machine, region, init, state = self._minimal()
        foreign = StateMachine("other").region.add_state("F")
        region.add_transition(state, foreign, trigger="jump")
        with pytest.raises(StateMachineError):
            machine.validate()

    def test_runtimes_validate_once_until_an_edit(self, monkeypatch):
        checks = []
        check = StateMachine._check_structure
        monkeypatch.setattr(
            StateMachine, "_check_structure",
            lambda machine: checks.append(machine) or check(machine))
        machine, region, _init, state = self._minimal()
        for _ in range(5):
            StateMachineRuntime(machine).start()
        assert checks == [machine]
        region.add_transition(state, region.add_state("T"), trigger="go")
        StateMachineRuntime(machine)
        assert checks == [machine, machine]

    def test_defective_machine_raises_on_every_call(self):
        machine = StateMachine("m")
        machine.region.add_state("S")
        for _ in range(2):
            with pytest.raises(StateMachineError):
                machine.validate()

    def test_validation_leaves_generation_and_fingerprint(self):
        validated, *_ = self._minimal()
        fresh, *_ = self._minimal()
        generation = validated.generation
        validated.validate()
        assert validated.generation == generation
        assert model_fingerprint(validated) == model_fingerprint(fresh)

    def test_deferrable_listing(self):
        state = State("S")
        state.defer("irq").defer("irq")
        assert state.deferrable == ["irq"]
