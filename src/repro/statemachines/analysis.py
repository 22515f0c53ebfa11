"""Static analysis of state machines.

Checks a hardware designer would expect from an FSM linter: state
reachability, dead transitions, potential nondeterminism, and sink
(deadlock) states.  Built on plain adjacency dicts over the state
machine's vertex/transition structure, walked iteratively.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .events import ChangeEvent, TimeEvent
from .kernel import (
    FinalState,
    Pseudostate,
    PseudostateKind,
    State,
    StateMachine,
    Transition,
)


def vertex_graph(machine: StateMachine) -> Dict[str, List[str]]:
    """The machine as an adjacency dict: each vertex's ``xmi_id`` maps
    to the ids its transitions lead to, in transition order.

    Containment is modelled with auxiliary edges from each composite
    state to its regions' initial pseudostates (entering the composite
    reaches the nested defaults), and from every nested vertex to its
    composite's outgoing scope (a nested active state can leave via the
    composite's transitions — reachability-wise the composite's edges
    apply).
    """
    graph: Dict[str, List[str]] = {
        vertex.xmi_id: [] for vertex in machine.all_vertices()}
    for transition in machine.all_transitions():
        graph.setdefault(transition.source.xmi_id, []).append(
            transition.target.xmi_id)
    for state in machine.all_states():
        for region in state.regions:
            initial = region.initial
            if initial is not None:
                graph[state.xmi_id].append(initial.xmi_id)
            history = region.history(False) or region.history(True)
            if history is not None:
                graph[state.xmi_id].append(history.xmi_id)
    return graph


def _reached(graph: Dict[str, List[str]], roots: Iterable[str]) -> Set[str]:
    """The roots and every node a path in ``graph`` leads to from one."""
    reached = set(roots)
    stack = list(reached)
    while stack:
        for target in graph.get(stack.pop(), ()):
            if target not in reached:
                reached.add(target)
                stack.append(target)
    return reached


def _reached_from_entries(machine: StateMachine) -> Set[str]:
    """Ids of the vertices the machine's initial pseudostates reach."""
    return _reached(vertex_graph(machine),
                    [region.initial.xmi_id for region in machine.regions
                     if region.initial is not None])


def reachable_states(machine: StateMachine) -> Tuple[State, ...]:
    """States reachable from the machine's initial pseudostates."""
    reached = _reached_from_entries(machine)
    return tuple(s for s in machine.all_states() if s.xmi_id in reached)


def unreachable_states(machine: StateMachine) -> Tuple[State, ...]:
    """States no initial pseudostate can ever reach."""
    reached = {s.xmi_id for s in reachable_states(machine)}
    return tuple(s for s in machine.all_states() if s.xmi_id not in reached)


def dead_transitions(machine: StateMachine) -> Tuple[Transition, ...]:
    """Transitions whose source is unreachable (can never fire)."""
    unreachable = {s.xmi_id for s in unreachable_states(machine)}
    dead = []
    for transition in machine.all_transitions():
        if transition.source.xmi_id in unreachable:
            dead.append(transition)
    return tuple(dead)


def nondeterministic_choices(machine: StateMachine) -> Tuple[Tuple[Transition, Transition], ...]:
    """Pairs of same-source transitions that can both fire on one event.

    Reported when two transitions share a source and a trigger name and
    neither carries a guard — the classic unintentional-nondeterminism
    lint.  Guarded pairs are assumed disjoint (guards are not solved).
    """
    by_source: Dict[str, List[Transition]] = {}
    for transition in machine.all_transitions():
        by_source.setdefault(transition.source.xmi_id, []).append(transition)
    conflicts = []
    for transitions in by_source.values():
        for i, first in enumerate(transitions):
            for second in transitions[i + 1:]:
                if first.guard is not None or second.guard is not None:
                    continue
                first_names = {e.name for e in first.triggers}
                second_names = {e.name for e in second.triggers}
                if first.is_completion and second.is_completion:
                    conflicts.append((first, second))
                elif first_names & second_names:
                    conflicts.append((first, second))
    return tuple(conflicts)


def sink_states(machine: StateMachine) -> Tuple[State, ...]:
    """Non-final states with no outgoing transitions (behavioral deadlock).

    A nested state may still leave via an ancestor's transitions, so a
    state counts as a sink only when neither it nor any enclosing state
    has an outgoing transition.
    """
    sinks = []
    for state in machine.all_states():
        if isinstance(state, FinalState) or state.is_composite:
            continue
        scope = (state,) + state.ancestor_states()
        if not any(v.outgoing for v in scope):
            sinks.append(state)
    return tuple(sinks)


def can_terminate(machine: StateMachine) -> bool:
    """True when a TERMINATE pseudostate is reachable."""
    terminators = [v for v in machine.all_vertices()
                   if isinstance(v, Pseudostate)
                   and v.kind is PseudostateKind.TERMINATE]
    if not terminators:
        return False
    reached = _reached_from_entries(machine)
    return any(t.xmi_id in reached for t in terminators)


def uses_time(machine: StateMachine) -> bool:
    """True when any transition is triggered by a time event."""
    return any(isinstance(e, TimeEvent)
               for t in machine.all_transitions() for e in t.triggers)


def uses_change_events(machine: StateMachine) -> bool:
    """True when any transition is triggered by a change event."""
    return any(isinstance(e, ChangeEvent)
               for t in machine.all_transitions() for e in t.triggers)


def completion_livelocks(machine: StateMachine) -> Tuple[Tuple[State, ...], ...]:
    """Cycles of guardless completion transitions between simple states.

    Such a cycle is a guaranteed run-to-completion livelock: each state
    completes immediately on entry and chains to the next forever.  The
    runtime's ``max_chain`` guard catches it dynamically; this analysis
    finds it statically.

    A state lies on a livelock when its completion chain reaches it
    again; its cycle is the states it reaches that reach it back.  Each
    cycle lists its states by name, and the cycles come in the order of
    their first state in :meth:`StateMachine.all_states`.
    """
    graph: Dict[str, List[str]] = {}
    for transition in machine.all_transitions():
        source, target = transition.source, transition.target
        if (isinstance(source, State) and isinstance(target, State)
                and source.is_simple and target.is_simple
                and not isinstance(source, FinalState)
                and not isinstance(target, FinalState)
                and transition.is_completion
                and transition.guard is None):
            graph.setdefault(source.xmi_id, []).append(target.xmi_id)
    # every node a chain of one or more completions leads to
    successors = {node: _reached(graph, targets)
                  for node, targets in graph.items()}
    states = machine.all_states()
    cycles = []
    on_cycle: Set[str] = set()
    for state in states:
        node = state.xmi_id
        if node in on_cycle or node not in successors.get(node, ()):
            continue
        cycle = [other for other in states
                 if other.xmi_id in successors[node]
                 and node in successors.get(other.xmi_id, ())]
        on_cycle.update(other.xmi_id for other in cycle)
        cycles.append(tuple(sorted(cycle, key=lambda s: s.name)))
    return tuple(cycles)


def lint(machine: StateMachine) -> Dict[str, Tuple]:
    """Run every analysis; returns a report dict keyed by finding kind."""
    return {
        "unreachable_states": unreachable_states(machine),
        "dead_transitions": dead_transitions(machine),
        "nondeterministic_choices": nondeterministic_choices(machine),
        "sink_states": sink_states(machine),
        "completion_livelocks": completion_livelocks(machine),
    }


def is_clean(machine: StateMachine) -> bool:
    """True when :func:`lint` reports no findings."""
    return not any(lint(machine).values())
