"""State machine metamodel: machines, regions, states, transitions.

Implements the UML 2.0 StateChart variant the paper references
([Harel/STATEMATE]): hierarchical composite states, orthogonal regions,
the full set of pseudostates, entry/exit/do behaviors and guarded,
triggered transitions.  Execution semantics live in
:mod:`repro.statemachines.runtime`.

Behaviors (entry/exit/do, transition effects) and guards may be either
ASL source strings (interpreted by :mod:`repro.asl`) or Python
callables — the runtime accepts both.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Tuple, Union

from ..errors import StateMachineError
from ..metamodel.element import Element
from ..metamodel.namespaces import NamedElement, Namespace, PackageableElement
from .events import ChangeEvent, Event, SignalEvent, TimeEvent

#: A guard or behavior: ASL source text or a Python callable.
ActionSpec = Union[str, Callable, None]


class PseudostateKind(enum.Enum):
    """The UML 2.0 pseudostate kinds."""

    INITIAL = "initial"
    CHOICE = "choice"
    JUNCTION = "junction"
    FORK = "fork"
    JOIN = "join"
    SHALLOW_HISTORY = "shallowHistory"
    DEEP_HISTORY = "deepHistory"
    ENTRY_POINT = "entryPoint"
    EXIT_POINT = "exitPoint"
    TERMINATE = "terminate"


class TransitionKind(enum.Enum):
    """UML transition kinds."""

    EXTERNAL = "external"
    INTERNAL = "internal"
    LOCAL = "local"


class Vertex(NamedElement):
    """Abstract node of the state machine graph."""

    _id_tag = "Vertex"

    @property
    def container(self) -> Optional["Region"]:
        """The region that owns this vertex."""
        owner = self.owner
        return owner if isinstance(owner, Region) else None

    @property
    def outgoing(self) -> Tuple["Transition", ...]:
        """Transitions leaving this vertex (searched across the machine)."""
        machine = self.machine
        if machine is None:
            return ()
        return tuple(t for t in machine.all_transitions() if t.source is self)

    @property
    def incoming(self) -> Tuple["Transition", ...]:
        """Transitions entering this vertex."""
        machine = self.machine
        if machine is None:
            return ()
        return tuple(t for t in machine.all_transitions() if t.target is self)

    @property
    def machine(self) -> Optional["StateMachine"]:
        """The owning state machine, however deeply nested."""
        node: Optional[Element] = self.owner
        while node is not None:
            if isinstance(node, StateMachine):
                return node
            node = node.owner
        return None

    def ancestor_states(self) -> Tuple["State", ...]:
        """Enclosing composite states, innermost first."""
        result: List[State] = []
        node: Optional[Element] = self.owner
        while node is not None and not isinstance(node, StateMachine):
            if isinstance(node, State):
                result.append(node)
            node = node.owner
        return tuple(result)


class Pseudostate(Vertex):
    """A transient vertex: initial, choice, fork, join, history, ..."""

    _id_tag = "Pseudostate"

    def __init__(self, kind: PseudostateKind, name: str = ""):
        super().__init__(name or kind.value)
        self.kind = kind

    def __repr__(self) -> str:
        return f"<Pseudostate {self.kind.value} {self.name!r}>"


class State(Vertex, Namespace):
    """A state: simple, composite (>=1 region) or orthogonal (>1 region).

    ``entry``/``exit``/``do_activity`` are ASL strings or callables.
    ``deferrable`` lists event names whose occurrences are deferred
    rather than discarded while this state is active.
    """

    _id_tag = "State"

    def __init__(self, name: str = "", entry: ActionSpec = None,
                 exit: ActionSpec = None, do_activity: ActionSpec = None):
        super().__init__(name)
        self.entry = entry
        self.exit = exit
        self.do_activity = do_activity
        self.deferrable: List[str] = []

    # -- composition ------------------------------------------------------

    @property
    def regions(self) -> Tuple["Region", ...]:
        """Nested regions (non-empty for composite states)."""
        return self.owned_of_type(Region)

    def add_region(self, name: str = "") -> "Region":
        """Add a nested region, making this state composite."""
        region = Region(name or f"region{len(self.regions)}")
        self._own(region)
        return region

    @property
    def is_composite(self) -> bool:
        """True when the state contains at least one region."""
        return bool(self.regions)

    @property
    def is_orthogonal(self) -> bool:
        """True when the state contains more than one region."""
        return len(self.regions) > 1

    @property
    def is_simple(self) -> bool:
        """True for a plain leaf state."""
        return not self.regions

    def defer(self, event_name: str) -> "State":
        """Mark occurrences of ``event_name`` as deferrable here (chainable)."""
        if event_name not in self.deferrable:
            self.deferrable.append(event_name)
            self._note_mutation()
        return self

    def __repr__(self) -> str:
        flavor = "orthogonal" if self.is_orthogonal else (
            "composite" if self.is_composite else "simple")
        return f"<State {self.name!r} ({flavor})>"


class FinalState(State):
    """Entering this state completes the enclosing region."""

    _id_tag = "FinalState"

    def add_region(self, name: str = "") -> "Region":
        raise StateMachineError("final states cannot contain regions")


class Transition(Element):
    """A directed arc between two vertices.

    ``triggers`` lists the declared events enabling this transition; an
    empty list makes it a *completion transition*.  ``guard`` is an ASL
    boolean expression or predicate; ``effect`` an ASL statement block
    or callable.
    """

    _id_tag = "Transition"

    def __init__(self, source: Vertex, target: Vertex,
                 triggers: Tuple[Event, ...] = (),
                 guard: ActionSpec = None,
                 effect: ActionSpec = None,
                 kind: TransitionKind = TransitionKind.EXTERNAL,
                 name: str = ""):
        super().__init__()
        self.name = name
        self.source = source
        self.target = target
        self.triggers: List[Event] = list(triggers)
        self.guard = guard
        self.effect = effect
        self.kind = kind
        if kind is TransitionKind.INTERNAL and source is not target:
            raise StateMachineError(
                "internal transitions must have source == target"
            )

    @property
    def is_completion(self) -> bool:
        """True for a triggerless (completion) transition."""
        return not self.triggers

    def __repr__(self) -> str:
        trig = ",".join(t.name for t in self.triggers) or "/"
        return (f"<Transition {self.source.name!r} --{trig}--> "
                f"{self.target.name!r}>")


class Region(NamedElement):
    """An orthogonal part of a state machine or composite state."""

    _id_tag = "Region"

    # -- vertices -----------------------------------------------------------

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """Directly owned vertices."""
        return self.owned_of_type(Vertex)

    @property
    def states(self) -> Tuple[State, ...]:
        """Directly owned states (including final states)."""
        return self.owned_of_type(State)

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        """Transitions owned by this region."""
        return self.owned_of_type(Transition)

    def add_state(self, name: str, entry: ActionSpec = None,
                  exit: ActionSpec = None,
                  do_activity: ActionSpec = None) -> State:
        """Create and own a simple state."""
        self._reject_duplicate(name)
        state = State(name, entry, exit, do_activity)
        self._own(state)
        return state

    def add_final(self, name: str = "final") -> FinalState:
        """Create and own a final state."""
        self._reject_duplicate(name)
        final = FinalState(name)
        self._own(final)
        return final

    def add_pseudostate(self, kind: PseudostateKind,
                        name: str = "") -> Pseudostate:
        """Create and own a pseudostate of the given kind."""
        if kind is PseudostateKind.INITIAL and self.initial is not None:
            raise StateMachineError(
                f"region {self.name!r} already has an initial pseudostate"
            )
        pseudo = Pseudostate(kind, name)
        self._own(pseudo)
        return pseudo

    def add_initial(self, name: str = "initial") -> Pseudostate:
        """Shorthand for adding the INITIAL pseudostate."""
        return self.add_pseudostate(PseudostateKind.INITIAL, name)

    def _reject_duplicate(self, name: str) -> None:
        if any(v.name == name for v in self.vertices):
            raise StateMachineError(
                f"region {self.name!r} already has a vertex named {name!r}"
            )

    @property
    def initial(self) -> Optional[Pseudostate]:
        """The INITIAL pseudostate of this region, if declared."""
        for vertex in self.vertices:
            if (isinstance(vertex, Pseudostate)
                    and vertex.kind is PseudostateKind.INITIAL):
                return vertex
        return None

    def history(self, deep: bool = False) -> Optional[Pseudostate]:
        """This region's (shallow or deep) history pseudostate, if any."""
        wanted = (PseudostateKind.DEEP_HISTORY if deep
                  else PseudostateKind.SHALLOW_HISTORY)
        for vertex in self.vertices:
            if isinstance(vertex, Pseudostate) and vertex.kind is wanted:
                return vertex
        return None

    def state(self, name: str) -> State:
        """Lookup an owned state by name."""
        return self.member(name, State)

    # -- transitions -----------------------------------------------------------

    def add_transition(self, source: Vertex, target: Vertex,
                       trigger: Union[Event, str, None] = None,
                       guard: ActionSpec = None,
                       effect: ActionSpec = None,
                       kind: TransitionKind = TransitionKind.EXTERNAL,
                       after: Optional[float] = None,
                       when: Optional[str] = None) -> Transition:
        """Create a transition owned by this region.

        ``trigger`` may be an :class:`Event`, a plain string (treated as
        a signal event name), or None for a completion transition.
        ``after=duration`` declares a time trigger; ``when=expr`` a
        change trigger.  The three trigger forms are mutually exclusive.
        """
        declared = [trigger is not None, after is not None, when is not None]
        if sum(declared) > 1:
            raise StateMachineError(
                "give at most one of trigger=, after=, when="
            )
        triggers: Tuple[Event, ...] = ()
        if trigger is not None:
            event = SignalEvent(trigger) if isinstance(trigger, str) else trigger
            triggers = (event,)
        elif after is not None:
            triggers = (TimeEvent(after),)
        elif when is not None:
            triggers = (ChangeEvent(when),)
        transition = Transition(source, target, triggers, guard, effect, kind)
        for event in triggers:
            if event.owner is None:
                transition._own(event)
        self._own(transition)
        return transition


class StateMachine(PackageableElement):
    """A behavior defined as a UML 2.0 state machine.

    Owns one or more top-level regions (more than one models an
    implicitly orthogonal machine).  Attach to a class via
    :meth:`repro.metamodel.UmlClass.add_behavior`.
    """

    _id_tag = "StateMachine"

    def __init__(self, name: str = ""):
        super().__init__(name)

    @property
    def regions(self) -> Tuple[Region, ...]:
        """Top-level regions."""
        return self.owned_of_type(Region)

    def add_region(self, name: str = "") -> Region:
        """Add a top-level region."""
        region = Region(name or f"region{len(self.regions)}")
        self._own(region)
        return region

    @property
    def region(self) -> Region:
        """The single top-level region (created on first access)."""
        regions = self.regions
        if not regions:
            return self.add_region("top")
        if len(regions) > 1:
            raise StateMachineError(
                f"machine {self.name!r} has {len(regions)} regions; "
                "use .regions"
            )
        return regions[0]

    # -- whole-machine queries ---------------------------------------------

    def all_regions(self) -> Tuple[Region, ...]:
        """Every region, including those nested in composite states."""
        return self.descendants_of_type(Region)

    def all_vertices(self) -> Tuple[Vertex, ...]:
        """Every vertex in the machine."""
        return self.descendants_of_type(Vertex)

    def all_states(self) -> Tuple[State, ...]:
        """Every state in the machine."""
        return self.descendants_of_type(State)

    def all_transitions(self) -> Tuple[Transition, ...]:
        """Every transition in the machine."""
        return self.descendants_of_type(Transition)

    def find_state(self, name: str) -> State:
        """Lookup any state in the machine by (unqualified) name."""
        for state in self.all_states():
            if state.name == name:
                return state
        raise StateMachineError(f"machine {self.name!r} has no state {name!r}")

    def validate(self) -> None:
        """Raise on basic structural defects.

        Checks: every non-empty region has an initial pseudostate whose
        single outgoing transition is triggerless and guard-free; join/
        fork arities; transitions stay inside the machine.  A pass is
        recorded against the tree root's generation, so repeat calls on
        an unchanged tree (one per runtime) return at once; a defective
        machine raises on every call.  The record is written through
        ``__dict__``, so it neither bumps the generation nor enters
        fingerprints.
        """
        root = self.root()
        passed = (id(root), root.generation)
        if self.__dict__.get("_validated") != passed:
            self._check_structure()
            self.__dict__["_validated"] = passed

    def _check_structure(self) -> None:
        for region in self.all_regions():
            if region.states and region.initial is None:
                raise StateMachineError(
                    f"region {region.name!r} has states but no initial "
                    "pseudostate"
                )
            initial = region.initial
            if initial is not None:
                outs = initial.outgoing
                if len(outs) != 1:
                    raise StateMachineError(
                        f"initial pseudostate of region {region.name!r} "
                        f"must have exactly 1 outgoing transition, has {len(outs)}"
                    )
                if outs[0].triggers or outs[0].guard:
                    raise StateMachineError(
                        f"initial transition in region {region.name!r} must "
                        "be triggerless and unguarded"
                    )
        for vertex in self.all_vertices():
            if isinstance(vertex, Pseudostate):
                if vertex.kind is PseudostateKind.FORK and len(vertex.outgoing) < 2:
                    raise StateMachineError(
                        f"fork {vertex.name!r} needs >= 2 outgoing transitions"
                    )
                if vertex.kind is PseudostateKind.JOIN and len(vertex.incoming) < 2:
                    raise StateMachineError(
                        f"join {vertex.name!r} needs >= 2 incoming transitions"
                    )
        machine_elements = set(id(v) for v in self.all_vertices())
        for transition in self.all_transitions():
            if (id(transition.source) not in machine_elements
                    or id(transition.target) not in machine_elements):
                raise StateMachineError(
                    f"{transition!r} crosses out of machine {self.name!r}"
                )
