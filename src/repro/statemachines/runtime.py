"""Run-to-completion execution of UML state machines.

:class:`StateMachineRuntime` interprets a
:class:`~repro.statemachines.kernel.StateMachine` with the STATEMATE /
UML 2.0 semantics the paper points at: run-to-completion event
processing, innermost-first conflict resolution, orthogonal-region
concurrency within a step, entry/exit action ordering, history
restoration, choice/junction/fork/join pseudostates, time events,
change events, event deferral and completion events.

Guards and actions may be Python callables ``f(ctx, event)`` or ASL
source strings interpreted by :mod:`repro.asl` against the runtime's
``context`` dictionary (the xUML link the paper describes).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import asl
from ..asl.transpile import ACTION_NAMES
from ..errors import ReproError, StateMachineError
from .events import (
    ChangeEvent,
    EventKind,
    EventOccurrence,
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

#: Guard value meaning "take this branch if nothing else fired" (choices).
ELSE_GUARD = "else"


class _Timer:
    """A scheduled relative time trigger."""

    __slots__ = ("due", "transition", "event", "state", "seq")

    def __init__(self, due: float, transition: Transition, event: TimeEvent,
                 state: State, seq: int):
        self.due = due
        self.transition = transition
        self.event = event
        self.state = state
        self.seq = seq


class StateMachineRuntime:
    """Executes one state machine instance.

    ``context`` is the variable environment shared by guards, effects
    and entry/exit actions; it plays the role of the owning object's
    attribute values in xUML.
    """

    def __init__(self, machine: StateMachine,
                 context: Optional[Dict[str, Any]] = None,
                 max_chain: int = 10_000,
                 signal_sink=None):
        machine.validate()
        self.machine = machine
        self.signal_sink = signal_sink
        self.context: Dict[str, Any] = dict(context or {})
        self.time: float = 0.0
        self.is_terminated = False
        self._active: Set[State] = set()
        self._shallow_history: Dict[Region, State] = {}
        self._deep_history: Dict[Region, Tuple[State, ...]] = {}
        self._queue: deque = deque()
        self._deferred: List[EventOccurrence] = []
        self._timers: List[_Timer] = []
        self._timer_seq = 0
        self._completion_emitted: Set[State] = set()
        self._change_edges: Dict[str, bool] = {}
        self._change_events: List[ChangeEvent] = []
        # Trace-bus plumbing (set by the cosim harness).  Kinds are
        # literal strings so this module never imports repro.engine;
        # test_trace_bus pins them to the constants.  Emit sites mirror
        # CompiledRuntime exactly (byte-identical streams on the
        # compilable subset).
        self.trace_bus = None
        self.trace_part = ""
        self._max_chain = max_chain
        self._started = False
        self._draining = False
        self._exit_log: Optional[Set[State]] = None
        self._outgoing: Dict[int, List[Transition]] = {}
        self._incoming: Dict[int, List[Transition]] = {}
        for transition in machine.all_transitions():
            self._outgoing.setdefault(id(transition.source), []).append(transition)
            self._incoming.setdefault(id(transition.target), []).append(transition)
            for event in transition.triggers:
                if isinstance(event, ChangeEvent):
                    self._change_events.append(event)

    def _outgoing_of(self, vertex: Vertex) -> List[Transition]:
        return self._outgoing.get(id(vertex), [])

    def _incoming_of(self, vertex: Vertex) -> List[Transition]:
        return self._incoming.get(id(vertex), [])

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def start(self) -> "StateMachineRuntime":
        """Enter the machine's default configuration (chainable)."""
        if self._started:
            raise StateMachineError("runtime already started")
        self._started = True
        for region in self.machine.regions:
            self._enter_region_default(region, None)
        self._post_step_processing()
        self._drain()
        return self

    def dispatch(self, occurrence: EventOccurrence) -> "StateMachineRuntime":
        """Queue an event occurrence and run to completion (chainable)."""
        self._require_started()
        self._queue.append(occurrence)
        self._drain()
        return self

    def send(self, name: str, **parameters: Any) -> "StateMachineRuntime":
        """Shorthand: dispatch a signal occurrence by name."""
        return self.dispatch(EventOccurrence.signal(name, **parameters))

    def call(self, name: str, **parameters: Any) -> "StateMachineRuntime":
        """Shorthand: dispatch a call occurrence by name."""
        return self.dispatch(EventOccurrence.call(name, **parameters))

    def advance_time(self, delta: float) -> "StateMachineRuntime":
        """Advance the runtime clock, firing due time triggers in order."""
        self._require_started()
        if delta < 0:
            raise StateMachineError("time cannot move backwards")
        deadline = self.time + delta
        while True:
            due = [t for t in self._timers if t.due <= deadline]
            if not due:
                break
            timer = min(due, key=lambda t: (t.due, t.seq))
            self._timers.remove(timer)
            self.time = timer.due
            if timer.state in self._active and not self.is_terminated:
                occurrence = EventOccurrence(timer.event.name, EventKind.TIME,
                                             source=timer.event)
                self._queue.append(occurrence)
                self._drain()
        self.time = deadline
        return self

    def step(self, until: float) -> "StateMachineRuntime":
        """Advance to *absolute* time ``until`` (ExecutionEngine surface).

        Idempotent when the clock is already at or past ``until``.
        """
        if until > self.time:
            self.advance_time(until - self.time)
        return self

    @property
    def active_states(self) -> Tuple[State, ...]:
        """The active configuration, outermost first."""
        return tuple(sorted(self._active,
                            key=lambda s: (len(s.ancestor_states()), s.name)))

    def active_state_names(self) -> Tuple[str, ...]:
        """Names of active states, outermost first."""
        return tuple(s.name for s in self.active_states)

    def active_leaf_names(self) -> Tuple[str, ...]:
        """Names of active *leaf* states, sorted (a canonical snapshot)."""
        leaves = [s for s in self._active
                  if not any(child in self._active
                             for region in s.regions
                             for child in region.states)]
        return tuple(sorted(s.name for s in leaves))

    def active_configuration(self) -> Tuple[str, ...]:
        """Canonical configuration names (ExecutionEngine surface)."""
        return self.active_leaf_names()

    def in_state(self, name: str) -> bool:
        """True when a state with this name is active."""
        return any(s.name == name for s in self._active)

    @property
    def is_complete(self) -> bool:
        """True when every top-level region has reached a final state."""
        return all(self._region_complete(region)
                   for region in self.machine.regions)

    # ------------------------------------------------------------------
    # snapshot / restore (checkpointing, used by flatten and tests)
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Alias of :meth:`snapshot` (ExecutionEngine surface)."""
        return self.snapshot()

    def snapshot(self) -> Dict[str, Any]:
        """Capture the full execution state (configuration, history,
        timers, context, clock).  Restore with :meth:`restore`."""
        return {
            "active": frozenset(self._active),
            "shallow_history": dict(self._shallow_history),
            "deep_history": dict(self._deep_history),
            "completion_emitted": set(self._completion_emitted),
            "change_edges": dict(self._change_edges),
            "deferred": list(self._deferred),
            "timers": [(t.due, t.transition, t.event, t.state, t.seq)
                       for t in self._timers],
            "timer_seq": self._timer_seq,
            "time": self.time,
            "terminated": self.is_terminated,
            "context": dict(self.context),
            "started": self._started,
            "queue": list(self._queue),
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        self._active = set(snap["active"])
        self._shallow_history = dict(snap["shallow_history"])
        self._deep_history = dict(snap["deep_history"])
        self._completion_emitted = set(snap["completion_emitted"])
        self._change_edges = dict(snap["change_edges"])
        self._deferred = list(snap["deferred"])
        self._timers = [_Timer(due, transition, event, state, seq)
                        for due, transition, event, state, seq
                        in snap["timers"]]
        self._timer_seq = snap["timer_seq"]
        self.time = snap["time"]
        self.is_terminated = snap["terminated"]
        self.context = dict(snap["context"])
        self._started = snap["started"]
        self._queue = deque(snap.get("queue", ()))

    # ------------------------------------------------------------------
    # run-to-completion machinery
    # ------------------------------------------------------------------

    def _require_started(self) -> None:
        if not self._started:
            raise StateMachineError("call start() before dispatching events")

    def _drain(self) -> None:
        if self._draining:
            return  # re-entrant dispatch from an action: queue only
        self._draining = True
        try:
            guard_count = 0
            while self._queue and not self.is_terminated:
                guard_count += 1
                if guard_count > self._max_chain:
                    raise StateMachineError(
                        "run-to-completion exceeded max_chain; "
                        "likely a livelock of completion/change events"
                    )
                occurrence = self._queue.popleft()
                fired = self._rtc_step(occurrence)
                if fired:
                    self._recall_deferred()
                elif self._is_deferred(occurrence):
                    self._deferred.append(occurrence)
                self._post_step_processing()
        finally:
            self._draining = False

    def _rtc_step(self, occurrence: EventOccurrence) -> bool:
        """Process one occurrence; returns True if any transition fired."""
        bus = self.trace_bus
        event_cause = None
        if bus is not None and bus.engine_active:
            record = bus.emit("event", self.time, self.trace_part,
                              {"event": occurrence.name})
            if bus.causal and record is not None:
                # this dispatch is now the cause of whatever it fires
                event_cause = record.ordinal
                bus.cause = event_cause
        candidates = self._enabled_transitions(occurrence)
        fired_any = False
        exited: Set[State] = set()
        self._exit_log = exited
        try:
            for transition in candidates:
                if self.is_terminated:
                    break
                if not self._transition_source_active(transition):
                    continue  # conflict: an earlier firing exited this scope
                if exited and self._conflicts_with_exited(transition, exited):
                    continue  # UML: innermost-first conflict resolution
                self._fire(transition, occurrence)
                fired_any = True
                if event_cause is not None:
                    # each firing is caused by the event, not by the
                    # previous firing (orthogonal regions)
                    bus.cause = event_cause
        finally:
            self._exit_log = None
        return fired_any

    def _conflicts_with_exited(self, transition: Transition,
                               exited: Set[State]) -> bool:
        """Would firing this transition exit a state already exited?"""
        lca = self._least_common_region(transition.source, transition.target)
        main = self._scope_vertex(transition.source, lca)
        scope: Set[State] = set()
        if isinstance(transition.source, State):
            scope.add(transition.source)
        if isinstance(main, State):
            scope.add(main)
            for element in main.all_owned():
                if isinstance(element, State):
                    scope.add(element)
        return bool(scope & exited)

    def _enabled_transitions(self, occurrence: EventOccurrence) -> List[Transition]:
        """Enabled transitions, innermost sources first (UML priority)."""
        scored: List[Tuple[int, int, Transition]] = []
        order = 0
        for state in sorted(self._active, key=lambda s: s.xmi_id):
            for transition in self._outgoing_of(state):
                if self._transition_enabled(transition, occurrence):
                    depth = len(state.ancestor_states())
                    scored.append((-depth, order, transition))
                    order += 1
        scored.sort(key=lambda item: (item[0], item[1]))
        return [t for _, _, t in scored]

    def _transition_enabled(self, transition: Transition,
                            occurrence: EventOccurrence) -> bool:
        target = transition.target
        if isinstance(target, Pseudostate) and target.kind is PseudostateKind.JOIN:
            return self._join_leg_enabled(transition, target, occurrence)
        if transition.is_completion:
            matches = (occurrence.kind is EventKind.COMPLETION
                       and occurrence.name
                       == f"completion({transition.source.xmi_id})")
            if not matches:
                return False
        else:
            if not any(event.matches(occurrence) for event in transition.triggers):
                return False
        return self._guard_passes(transition.guard, occurrence)

    def _join_leg_enabled(self, leg: Transition, join: Pseudostate,
                          occurrence: EventOccurrence) -> bool:
        """A leg into a join fires only when the whole join is ready.

        The join is ready when every incoming leg's source state is
        active.  The triggering event is matched against the join's
        *outgoing* transition when that one declares triggers, otherwise
        against the completion event of this leg's source (completion-
        style join).
        """
        sources = [t.source for t in self._incoming_of(join)
                   if isinstance(t.source, State)]
        if not sources or not all(s in self._active for s in sources):
            return False
        outgoing = self._outgoing_of(join)
        if len(outgoing) != 1:
            return False
        out = outgoing[0]
        if out.triggers:
            if not any(event.matches(occurrence) for event in out.triggers):
                return False
        else:
            matches = (occurrence.kind is EventKind.COMPLETION
                       and occurrence.name
                       == f"completion({leg.source.xmi_id})")
            if not matches:
                return False
        return (self._guard_passes(leg.guard, occurrence)
                and self._guard_passes(out.guard, occurrence))

    def _transition_source_active(self, transition: Transition) -> bool:
        source = transition.source
        if isinstance(source, State):
            return source in self._active
        return True

    def _fire(self, transition: Transition, occurrence: EventOccurrence) -> None:
        bus = self.trace_bus
        if bus is not None and bus.engine_active:
            record = bus.emit("transition", self.time, self.trace_part,
                              {"source": transition.source.name,
                               "target": transition.target.name,
                               "event": occurrence.name})
            if bus.causal and record is not None:
                # exits, the effect's sends and entries descend from
                # this firing
                bus.cause = record.ordinal
        if transition.kind is TransitionKind.INTERNAL:
            self._run_action(transition.effect, occurrence)
            return

        source, target = transition.source, transition.target

        # Join: the compound transition exits the whole orthogonal state.
        if (isinstance(target, Pseudostate)
                and target.kind is PseudostateKind.JOIN):
            self._fire_join(target, occurrence, first_leg=transition)
            return

        lca = self._least_common_region(source, target)
        main_source = self._scope_vertex(source, lca)
        if transition.kind is TransitionKind.LOCAL and isinstance(source, State) \
                and self._is_ancestor_state(source, target):
            # local transition: do not exit the composite source itself
            self._exit_children_of(source, occurrence)
        elif isinstance(main_source, State) and main_source in self._active:
            self._deactivate(main_source, occurrence)
        elif isinstance(source, State) and source in self._active:
            self._deactivate(source, occurrence)

        self._run_action(transition.effect, occurrence)
        self._enter_target(target, occurrence)

    def _fire_join(self, join: Pseudostate, occurrence: EventOccurrence,
                   first_leg: Transition) -> None:
        """Fire a join: exit the orthogonal composite, follow the outgoing."""
        outgoing = self._outgoing_of(join)
        if len(outgoing) != 1:
            raise StateMachineError(
                f"join {join.name!r} must have exactly one outgoing transition"
            )
        # run the effects of all incoming legs (first the triggering one)
        legs = [first_leg] + [t for t in self._incoming_of(join)
                              if t is not first_leg]
        # exit the common orthogonal ancestor of the leg sources
        sources = [t.source for t in self._incoming_of(join)
                   if isinstance(t.source, State)]
        common = self._common_ancestor_state(sources)
        if common is not None and common in self._active:
            self._deactivate(common, occurrence)
        else:
            for leg_source in sources:
                if leg_source in self._active:
                    self._deactivate(leg_source, occurrence)
        for leg in legs:
            self._run_action(leg.effect, occurrence)
        out = outgoing[0]
        self._run_action(out.effect, occurrence)
        self._enter_target(out.target, occurrence)

    # -- entering ----------------------------------------------------------

    def _enter_target(self, vertex: Vertex, occurrence: Optional[EventOccurrence]) -> None:
        self._enter_ancestors(vertex, occurrence)
        if isinstance(vertex, Pseudostate):
            self._enter_pseudostate(vertex, occurrence)
        elif isinstance(vertex, State):
            self._activate(vertex, occurrence)
            for region in vertex.regions:
                self._enter_region_default(region, occurrence)

    def _enter_ancestors(self, vertex: Vertex,
                         occurrence: Optional[EventOccurrence],
                         extra_path_regions: Optional[set] = None) -> None:
        chain = [s for s in reversed(vertex.ancestor_states())
                 if s not in self._active]
        if not chain:
            return
        path_regions = {vertex.container}
        for ancestor in vertex.ancestor_states():
            path_regions.add(ancestor.container)
        if extra_path_regions:
            path_regions |= extra_path_regions
        for composite in chain:
            self._activate(composite, occurrence)
            for region in composite.regions:
                if region not in path_regions:
                    self._enter_region_default(region, occurrence)

    def _enter_region_default(self, region: Region,
                              occurrence: Optional[EventOccurrence]) -> None:
        initial = region.initial
        if initial is None:
            return
        transition = self._outgoing_of(initial)[0]
        self._run_action(transition.effect, occurrence)
        self._enter_target(transition.target, occurrence)

    def _enter_pseudostate(self, pseudo: Pseudostate,
                           occurrence: Optional[EventOccurrence]) -> None:
        kind = pseudo.kind
        if kind is PseudostateKind.TERMINATE:
            self.is_terminated = True
            return
        if kind in (PseudostateKind.CHOICE, PseudostateKind.JUNCTION):
            transition = self._select_branch(pseudo, occurrence)
            self._run_action(transition.effect, occurrence)
            self._enter_target(transition.target, occurrence)
            return
        if kind is PseudostateKind.FORK:
            legs = sorted(self._outgoing_of(pseudo), key=lambda t: t.xmi_id)
            # Regions explicitly targeted by any leg must not receive a
            # default entry when the shared orthogonal state is entered.
            targeted_regions = set()
            for leg in legs:
                targeted_regions.update(self._region_chain(leg.target))
            for leg in legs:
                self._run_action(leg.effect, occurrence)
                self._enter_ancestors(leg.target, occurrence,
                                      extra_path_regions=targeted_regions)
                if isinstance(leg.target, Pseudostate):
                    self._enter_pseudostate(leg.target, occurrence)
                else:
                    self._activate(leg.target, occurrence)
                    for region in leg.target.regions:
                        self._enter_region_default(region, occurrence)
            return
        if kind in (PseudostateKind.SHALLOW_HISTORY, PseudostateKind.DEEP_HISTORY):
            self._enter_history(pseudo, occurrence)
            return
        if kind is PseudostateKind.EXIT_POINT:
            # leaving through an exit point exits the enclosing composite
            region = pseudo.container
            owner = region.owner if region is not None else None
            if isinstance(owner, State) and owner in self._active:
                self._deactivate(owner, occurrence)
        if kind in (PseudostateKind.ENTRY_POINT, PseudostateKind.EXIT_POINT,
                    PseudostateKind.INITIAL):
            outgoing = self._outgoing_of(pseudo)
            if len(outgoing) != 1:
                raise StateMachineError(
                    f"{kind.value} pseudostate {pseudo.name!r} needs exactly "
                    f"one outgoing transition, has {len(outgoing)}"
                )
            transition = outgoing[0]
            self._run_action(transition.effect, occurrence)
            self._enter_target(transition.target, occurrence)
            return
        raise StateMachineError(f"unhandled pseudostate kind {kind}")

    def _enter_history(self, pseudo: Pseudostate,
                       occurrence: Optional[EventOccurrence]) -> None:
        region = pseudo.container
        if region is None:
            raise StateMachineError("history pseudostate outside a region")
        if pseudo.kind is PseudostateKind.DEEP_HISTORY:
            remembered = self._deep_history.get(region)
            if remembered:
                for leaf in remembered:
                    self._enter_target(leaf, occurrence)
                return
        else:
            last = self._shallow_history.get(region)
            if last is not None:
                self._enter_target(last, occurrence)
                return
        # no memory: default transition from the history vertex, else initial
        outgoing = self._outgoing_of(pseudo)
        if outgoing:
            transition = outgoing[0]
            self._run_action(transition.effect, occurrence)
            self._enter_target(transition.target, occurrence)
        else:
            self._enter_region_default(region, occurrence)

    def _select_branch(self, pseudo: Pseudostate,
                       occurrence: Optional[EventOccurrence]) -> Transition:
        else_branch: Optional[Transition] = None
        for transition in self._outgoing_of(pseudo):
            if isinstance(transition.guard, str) and \
                    transition.guard.strip() == ELSE_GUARD:
                else_branch = transition
                continue
            if self._guard_passes(transition.guard, occurrence):
                return transition
        if else_branch is not None:
            return else_branch
        raise StateMachineError(
            f"no enabled branch at {pseudo.kind.value} {pseudo.name!r} "
            "(and no else branch)"
        )

    def _activate(self, state: State, occurrence: Optional[EventOccurrence]) -> None:
        if state in self._active:
            return
        self._active.add(state)
        bus = self.trace_bus
        if bus is not None and bus.engine_active:
            bus.emit("state_enter", self.time, self.trace_part,
                     {"state": state.name})
        self._run_action(state.entry, occurrence)
        self._run_action(state.do_activity, occurrence)
        for transition in self._outgoing_of(state):
            for event in transition.triggers:
                if isinstance(event, TimeEvent):
                    self._timer_seq += 1
                    self._timers.append(_Timer(self.time + event.after,
                                               transition, event, state,
                                               self._timer_seq))

    # -- exiting ------------------------------------------------------------

    def _deactivate(self, state: State, occurrence: Optional[EventOccurrence]) -> None:
        self._exit_children_of(state, occurrence)
        self._run_action(state.exit, occurrence)
        self._active.discard(state)
        if self._exit_log is not None:
            self._exit_log.add(state)
        self._completion_emitted.discard(state)
        self._timers = [t for t in self._timers if t.state is not state]
        bus = self.trace_bus
        if bus is not None and bus.engine_active:
            bus.emit("state_exit", self.time, self.trace_part,
                     {"state": state.name})
        # record shallow history on the containing region
        region = state.container
        if region is not None and region.history(deep=False) is not None:
            self._shallow_history[region] = state

    def _exit_children_of(self, state: State,
                          occurrence: Optional[EventOccurrence]) -> None:
        for region in state.regions:
            active_children = [s for s in region.states if s in self._active]
            if region.history(deep=True) is not None:
                leaves = tuple(
                    leaf for leaf in self._active
                    if state in leaf.ancestor_states() and leaf.is_simple
                )
                if leaves:
                    self._deep_history[region] = leaves
            for child in active_children:
                self._deactivate(child, occurrence)

    # -- completion / change / deferral --------------------------------------

    def _post_step_processing(self) -> None:
        self._emit_completion_events()
        self._emit_change_events()

    def _emit_completion_events(self) -> None:
        for state in list(self._active):
            if state in self._completion_emitted:
                continue
            if not self._state_complete(state):
                continue
            if not any(t.is_completion for t in self._outgoing_of(state)):
                continue
            self._completion_emitted.add(state)
            occurrence = EventOccurrence(f"completion({state.xmi_id})",
                                         EventKind.COMPLETION)
            self._queue.append(occurrence)

    def _state_complete(self, state: State) -> bool:
        if state.is_simple:
            return True
        return all(self._region_complete(region) for region in state.regions)

    def _region_complete(self, region: Region) -> bool:
        return any(isinstance(s, FinalState) and s in self._active
                   for s in region.states)

    def _emit_change_events(self) -> None:
        for change in self._change_events:
            value = bool(self._guard_passes(change.condition, None))
            previous = self._change_edges.get(change.xmi_id, False)
            self._change_edges[change.xmi_id] = value
            if value and not previous:
                self._queue.append(EventOccurrence(change.name,
                                                   EventKind.CHANGE,
                                                   source=change))

    def _is_deferred(self, occurrence: EventOccurrence) -> bool:
        return any(occurrence.name in state.deferrable
                   for state in self._active)

    def _recall_deferred(self) -> None:
        if not self._deferred:
            return
        recalled, self._deferred = self._deferred, []
        for occurrence in reversed(recalled):
            self._queue.appendleft(occurrence)

    # -- scope helpers ----------------------------------------------------------

    def _region_chain(self, vertex: Vertex) -> List[Region]:
        chain: List[Region] = []
        container = vertex.container
        if container is not None:
            chain.append(container)
        for ancestor in vertex.ancestor_states():
            container = ancestor.container
            if container is not None:
                chain.append(container)
        return chain

    def _least_common_region(self, source: Vertex, target: Vertex) -> Optional[Region]:
        target_regions = set(map(id, self._region_chain(target)))
        for region in self._region_chain(source):
            if id(region) in target_regions:
                return region
        return None

    def _scope_vertex(self, vertex: Vertex, lca: Optional[Region]) -> Vertex:
        """The vertex or ancestor state of it sitting directly in ``lca``."""
        if lca is None:
            return vertex
        if vertex.container is lca:
            return vertex
        for ancestor in vertex.ancestor_states():
            if ancestor.container is lca:
                return ancestor
        return vertex

    @staticmethod
    def _is_ancestor_state(maybe_ancestor: State, vertex: Vertex) -> bool:
        return maybe_ancestor in vertex.ancestor_states()

    def _common_ancestor_state(self, states: Sequence[State]) -> Optional[State]:
        if not states:
            return None
        candidate_sets = [set(map(id, s.ancestor_states())) for s in states]
        common_ids = set.intersection(*candidate_sets) if candidate_sets else set()
        for ancestor in states[0].ancestor_states():  # innermost first
            if id(ancestor) in common_ids:
                return ancestor
        return None

    # -- guard / action evaluation ------------------------------------------

    def _guard_passes(self, guard, occurrence: Optional[EventOccurrence]) -> bool:
        if guard is None:
            return True
        if callable(guard):
            return bool(guard(self.context, occurrence))
        if isinstance(guard, str):
            if guard.strip() == ELSE_GUARD:
                return False
            return bool(self._eval_asl_expression(guard, occurrence))
        raise StateMachineError(f"unsupported guard type {type(guard).__name__}")

    def _run_action(self, action, occurrence: Optional[EventOccurrence]) -> None:
        if action is None:
            return
        if callable(action):
            action(self.context, occurrence)
            return
        if isinstance(action, str):
            self._exec_asl_statements(action, occurrence)
            return
        raise StateMachineError(f"unsupported action type {type(action).__name__}")

    def _asl_environment(self, occurrence: Optional[EventOccurrence]) -> Dict[str, Any]:
        env = dict(self.context)
        env["event"] = dict(occurrence.parameters) if occurrence else {}
        env["event_name"] = occurrence.name if occurrence else ""
        env["now"] = self.time
        return env

    # An ASL failure that is no ReproError leaves both ASL entry points
    # as asl.action_error, the boundary the compiled engine shares.

    def _eval_asl_expression(self, source: str,
                             occurrence: Optional[EventOccurrence]) -> Any:
        try:
            return asl.evaluate(source, self._asl_environment(occurrence))
        except ReproError:
            raise
        except Exception as exc:
            raise asl.action_error(source, exc) from exc

    def _exec_asl_statements(self, source: str,
                             occurrence: Optional[EventOccurrence]) -> None:
        env = self._asl_environment(occurrence)
        try:
            result_env = asl.execute(source, env,
                                     signal_sink=self.signal_sink)
        except ReproError:
            raise
        except Exception as exc:
            raise asl.action_error(source, exc) from exc
        for key, value in result_env.items():
            if key in ACTION_NAMES:
                continue
            self.context[key] = value
