"""UML 2.0 state machines (subsystem S2).

The StateChart variant the paper references, with STATEMATE-flavoured
run-to-completion execution, hierarchical and orthogonal states, the
full pseudostate set, semantic flattening (hierarchy -> flat FSM, the
form hardware synthesizes) and static FSM lint analyses.
"""

from .events import (
    CallEvent,
    ChangeEvent,
    CompletionEvent,
    Event,
    EventKind,
    EventOccurrence,
    SignalEvent,
    TimeEvent,
)
from .kernel import (
    FinalState,
    Pseudostate,
    PseudostateKind,
    Region,
    State,
    StateMachine,
    Transition,
    TransitionKind,
    Vertex,
)
from .runtime import ELSE_GUARD, StateMachineRuntime
from .flatten import (
    FlatStateMachine,
    default_alphabet,
    flatten,
)
from .compiled import (
    CompiledMachine,
    CompiledRuntime,
    compile_fallback_reason,
    compile_machine,
    compile_machine_cached,
)
from .compose import clone_machine, connection_point, inline_submachine
from . import analysis

__all__ = [
    "CallEvent", "ChangeEvent", "CompletionEvent", "Event", "EventKind",
    "EventOccurrence", "SignalEvent", "TimeEvent",
    "FinalState", "Pseudostate", "PseudostateKind", "Region", "State",
    "StateMachine", "Transition", "TransitionKind", "Vertex",
    "ELSE_GUARD", "StateMachineRuntime",
    "CompiledMachine", "CompiledRuntime", "FlatStateMachine",
    "compile_fallback_reason", "compile_machine",
    "compile_machine_cached",
    "default_alphabet", "flatten",
    "clone_machine", "connection_point", "inline_submachine",
    "analysis",
]
