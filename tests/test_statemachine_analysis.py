"""Tests for the FSM lint analyses."""

from repro.statemachines import (
    PseudostateKind,
    StateMachine,
    analysis,
)


def build_clean():
    machine = StateMachine("clean")
    region = machine.region
    init = region.add_initial()
    a, b = region.add_state("A"), region.add_state("B")
    final = region.add_final()
    region.add_transition(init, a)
    region.add_transition(a, b, trigger="go")
    region.add_transition(b, a, trigger="back")
    region.add_transition(a, final, trigger="end")
    return machine


class TestReachability:
    def test_clean_machine_fully_reachable(self):
        machine = build_clean()
        assert analysis.unreachable_states(machine) == ()
        assert analysis.is_clean(machine)

    def test_orphan_detected(self):
        machine = build_clean()
        orphan = machine.region.add_state("Orphan")
        assert analysis.unreachable_states(machine) == (orphan,)
        assert not analysis.is_clean(machine)

    def test_nested_states_reachable_via_composite(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        comp = region.add_state("Comp")
        region.add_transition(init, comp)
        inner = comp.add_region()
        i2 = inner.add_initial()
        nested = inner.add_state("Nested")
        inner.add_transition(i2, nested)
        assert analysis.unreachable_states(machine) == ()

    def test_dead_transitions(self):
        machine = build_clean()
        orphan = machine.region.add_state("Orphan")
        elsewhere = machine.region.add_state("Elsewhere")
        dead = machine.region.add_transition(orphan, elsewhere, trigger="x")
        assert dead in analysis.dead_transitions(machine)


class TestNondeterminism:
    def test_guardless_same_trigger_pair_flagged(self):
        machine = build_clean()
        region = machine.region
        a = machine.find_state("A")
        b = machine.find_state("B")
        region.add_transition(a, b, trigger="go")  # duplicate of A--go-->B
        conflicts = analysis.nondeterministic_choices(machine)
        assert len(conflicts) == 1

    def test_guarded_pair_not_flagged(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        a, b, c = (region.add_state(n) for n in "ABC")
        region.add_transition(init, a)
        region.add_transition(a, b, trigger="go", guard="x > 0")
        region.add_transition(a, c, trigger="go", guard="x <= 0")
        assert analysis.nondeterministic_choices(machine) == ()


class TestSinksAndTermination:
    def test_sink_state_detected(self):
        machine = build_clean()
        region = machine.region
        a = machine.find_state("A")
        trap = region.add_state("Trap")
        region.add_transition(a, trap, trigger="fall")
        assert trap in analysis.sink_states(machine)

    def test_nested_state_not_sink_if_ancestor_can_exit(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        comp = region.add_state("Comp")
        out = region.add_state("Out")
        region.add_transition(init, comp)
        region.add_transition(comp, out, trigger="leave")
        inner = comp.add_region()
        i2 = inner.add_initial()
        nested = inner.add_state("Nested")  # no outgoing of its own
        inner.add_transition(i2, nested)
        assert nested not in analysis.sink_states(machine)

    def test_terminate_reachability(self):
        machine = build_clean()
        assert not analysis.can_terminate(machine)
        region = machine.region
        term = region.add_pseudostate(PseudostateKind.TERMINATE, "X")
        region.add_transition(machine.find_state("B"), term, trigger="kill")
        assert analysis.can_terminate(machine)

    def test_uses_time_and_change(self):
        machine = build_clean()
        assert not analysis.uses_time(machine)
        assert not analysis.uses_change_events(machine)
        region = machine.region
        region.add_transition(machine.find_state("A"),
                              machine.find_state("B"), after=1.0)
        region.add_transition(machine.find_state("B"),
                              machine.find_state("A"), when="x > 0")
        assert analysis.uses_time(machine)
        assert analysis.uses_change_events(machine)

    def test_lint_report_keys(self):
        report = analysis.lint(build_clean())
        assert set(report) == {"unreachable_states", "dead_transitions",
                               "nondeterministic_choices", "sink_states",
                               "completion_livelocks"}

    def test_completion_livelock_detected(self):
        machine = StateMachine("live")
        region = machine.region
        init = region.add_initial()
        a, b = region.add_state("A"), region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(a, b)
        region.add_transition(b, a)
        cycles = analysis.completion_livelocks(machine)
        assert cycles and {s.name for s in cycles[0]} == {"A", "B"}
        assert not analysis.is_clean(machine)

    def test_guarded_completion_cycle_not_flagged(self):
        machine = StateMachine("ok")
        region = machine.region
        init = region.add_initial()
        a, b = region.add_state("A"), region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(a, b, guard="ready")
        region.add_transition(b, a)
        assert analysis.completion_livelocks(machine) == ()

    def test_several_livelocks_come_in_state_order(self):
        machine = StateMachine("spin")
        region = machine.region
        fetch, decode, spin, beta, alpha, idle = (
            region.add_state(name) for name in
            ("Fetch", "Decode", "Spin", "Beta", "Alpha", "Idle"))
        region.add_transition(region.add_initial(), idle)
        for source, target in ((beta, alpha), (alpha, beta),
                               (spin, spin), (fetch, decode),
                               (decode, fetch), (idle, fetch)):
            region.add_transition(source, target)
        region.add_transition(idle, spin, trigger="go")
        region.add_transition(idle, beta, trigger="other")
        cycles = analysis.completion_livelocks(machine)
        assert [[state.name for state in cycle] for cycle in cycles] == [
            ["Decode", "Fetch"], ["Spin"], ["Alpha", "Beta"]]
        assert analysis.lint(machine)["completion_livelocks"] == cycles

    def test_a_chain_into_a_livelock_is_not_on_it(self):
        machine = StateMachine("lead-in")
        region = machine.region
        a, b, c = (region.add_state(name) for name in "ABC")
        region.add_transition(region.add_initial(), a)
        region.add_transition(a, b)
        region.add_transition(b, c)
        region.add_transition(c, b)
        assert [[state.name for state in cycle] for cycle in
                analysis.completion_livelocks(machine)] == [["B", "C"]]


class TestVertexGraph:
    def test_adjacency_dict_over_vertex_ids(self):
        machine = build_clean()
        graph = analysis.vertex_graph(machine)
        by_name = {vertex.name: vertex.xmi_id
                   for vertex in machine.all_vertices()}
        assert set(graph) == set(by_name.values())
        a, b = machine.find_state("A"), machine.find_state("B")
        assert sorted(graph[a.xmi_id]) == sorted(
            t.target.xmi_id for t in a.outgoing)
        assert graph[b.xmi_id] == [a.xmi_id]
