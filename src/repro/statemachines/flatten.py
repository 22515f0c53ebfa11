"""Semantic flattening of state machines.

A hierarchical/orthogonal statechart is *flattened* (:func:`flatten`)
into a plain finite state machine whose states are the reachable
active configurations.  The flat machine trades memory for dispatch
speed — stepping it is a single dict lookup, which is what a hardware
implementation (one-hot or encoded FSM) would synthesize to.
Flattening is *semantic*: we run the real
:class:`~repro.statemachines.runtime.StateMachineRuntime` over every
(configuration, event) pair, so entry/exit ordering, completion chains
and pseudostate cascades are honoured by construction.  Guards are
evaluated against the fixed ``context`` supplied at flattening time;
machines with time or change triggers cannot be flattened statically
and are rejected.

The cosimulation fast path that keeps the live context and clock is
the dispatch-table compiler in :mod:`repro.statemachines.compiled`.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import StateMachineError
from .events import ChangeEvent, TimeEvent
from .kernel import StateMachine
from .runtime import StateMachineRuntime

#: A configuration key: frozen set of active state ids + terminated flag.
ConfigKey = Tuple[FrozenSet[str], bool]


class FlatStateMachine:
    """The flattened (configuration-level) finite state machine.

    ``step`` is a dictionary lookup; unknown events leave the
    configuration unchanged (matching the UML rule that unmatched,
    non-deferred events are discarded).
    """

    __slots__ = ("initial", "transitions", "state_labels", "alphabet",
                 "current")

    def __init__(self, initial: str,
                 transitions: Dict[Tuple[str, str], str],
                 state_labels: Dict[str, Tuple[str, ...]],
                 alphabet: Tuple[str, ...]):
        self.initial = initial
        self.transitions = transitions
        self.state_labels = state_labels
        self.alphabet = alphabet
        self.current = initial

    @property
    def states(self) -> Tuple[str, ...]:
        """All configuration names, sorted."""
        return tuple(sorted(self.state_labels))

    def reset(self) -> "FlatStateMachine":
        """Return to the initial configuration (chainable)."""
        self.current = self.initial
        return self

    def step(self, event_name: str) -> str:
        """Process one event; returns the new configuration name."""
        self.current = self.transitions.get((self.current, event_name),
                                            self.current)
        return self.current

    def run(self, events: Sequence[str]) -> str:
        """Process a sequence of events; returns the final configuration."""
        current = self.current
        table = self.transitions
        for name in events:
            current = table.get((current, name), current)
        self.current = current
        return current

    def leaf_names(self) -> Tuple[str, ...]:
        """The active leaf state names of the current configuration."""
        return self.state_labels[self.current]

    def __repr__(self) -> str:
        return (f"<FlatStateMachine {len(self.state_labels)} configs, "
                f"{len(self.transitions)} edges>")


def _snapshot_key(runtime: StateMachineRuntime) -> ConfigKey:
    return (frozenset(s.xmi_id for s in runtime._active),
            runtime.is_terminated)


def _config_name(runtime: StateMachineRuntime) -> str:
    if runtime.is_terminated:
        return "<terminated>"
    leaves = runtime.active_leaf_names()
    return "+".join(leaves) if leaves else "<empty>"


def default_alphabet(machine: StateMachine) -> Tuple[str, ...]:
    """All signal/call trigger names appearing in the machine, sorted."""
    names = set()
    for transition in machine.all_transitions():
        for event in transition.triggers:
            if isinstance(event, (TimeEvent, ChangeEvent)):
                continue
            names.add(event.name)
    return tuple(sorted(names))


def flatten(machine: StateMachine,
            alphabet: Optional[Sequence[str]] = None,
            context: Optional[Dict[str, Any]] = None,
            max_configurations: int = 100_000) -> FlatStateMachine:
    """Flatten ``machine`` into a :class:`FlatStateMachine`.

    ``alphabet`` defaults to every signal/call trigger name in the
    machine.  ``context`` is the fixed variable environment used for
    guard evaluation during exploration.
    """
    for transition in machine.all_transitions():
        for event in transition.triggers:
            if isinstance(event, (TimeEvent, ChangeEvent)):
                raise StateMachineError(
                    "machines with time or change triggers cannot be "
                    "flattened statically"
                )
    event_names = tuple(alphabet) if alphabet is not None \
        else default_alphabet(machine)

    runtime = StateMachineRuntime(machine, dict(context or {})).start()
    initial_key = _snapshot_key(runtime)
    names: Dict[ConfigKey, str] = {initial_key: _config_name(runtime)}
    labels: Dict[str, Tuple[str, ...]] = {
        names[initial_key]: runtime.active_leaf_names()
    }
    # checkpoint each configuration once; exploration restores instead
    # of replaying event paths (O(configs x alphabet) total sends)
    snapshots: Dict[ConfigKey, dict] = {initial_key: runtime.snapshot()}
    transitions: Dict[Tuple[str, str], str] = {}
    frontier: List[ConfigKey] = [initial_key]
    explored = set()

    while frontier:
        key = frontier.pop(0)
        if key in explored:
            continue
        explored.add(key)
        if len(names) > max_configurations:
            raise StateMachineError(
                f"flattening exceeded {max_configurations} configurations"
            )
        for event_name in event_names:
            runtime.restore(snapshots[key])
            runtime.send(event_name)
            new_key = _snapshot_key(runtime)
            if new_key not in names:
                names[new_key] = _config_name(runtime)
                labels[names[new_key]] = runtime.active_leaf_names()
                snapshots[new_key] = runtime.snapshot()
                frontier.append(new_key)
            if new_key != key:
                transitions[(names[key], event_name)] = names[new_key]

    return FlatStateMachine(names[initial_key], transitions, labels,
                            event_names)
