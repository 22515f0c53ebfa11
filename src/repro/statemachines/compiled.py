"""Dispatch-table compilation of state machines.

:func:`compile_machine` / :class:`CompiledRuntime` are the
cosimulation fast path.  A flat (single-region, simple-state) machine
is compiled once into per-state dispatch tables whose guards and
effects are *Python functions* — each ASL text is transpiled by
:mod:`repro.asl.transpile`, the emitter of generated Python modules,
into ``def _asl_fn(_c, event, event_name, now, _send)``, in which
every ASL variable is an item of the scope dict ``_c``; running an
action is one call of tiny bytecode instead of a tree walk through a
freshly constructed interpreter.  The functions call the same
``_asl_*`` helpers every generated Python module embeds.  Unlike
:func:`~repro.statemachines.flatten.flatten`, the compiled form keeps
the live ``context`` and the runtime clock, so data-dependent guards
and ``after(n)`` time triggers work exactly as in the interpreter.
Behaviour is bit-identical to
:class:`~repro.statemachines.runtime.StateMachineRuntime` on the
supported subset (verified by lockstep equivalence tests).  Compilation
is all or nothing: a machine outside the subset, including one with a
single guard or effect that does not transpile, is refused with
:class:`NotCompilable`, :func:`compile_fallback_reason` names why, and
the caller runs the whole machine on the interpreter.

Compilation is cached in two layers.  Functions are keyed by their
ASL source text (and guard or action mode), so every parse of a model
shares them.  Dispatch tables are kept on the machine, against the
model's generation (:func:`compile_machine_cached`), so the parts and
seeds of one parsed model share one table, each fresh parse builds its
own, and the table is freed with its model.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import asl
from ..asl import SentSignal
from ..asl.transpile import (
    PYTHON_ATTR_HELPER,
    PYTHON_PRELUDE,
    Untranslatable,
    to_python_function,
)
from ..errors import ReproError, StateMachineError
from ..perf import PERF
from .events import ChangeEvent, EventKind, EventOccurrence, TimeEvent
from .kernel import (
    MachineWalk,
    Pseudostate,
    PseudostateKind,
    State,
    StateMachine,
    Transition,
    TransitionKind,
)
from .runtime import ELSE_GUARD

# ---------------------------------------------------------------------------
# Dispatch-table compilation (the cosimulation fast path)
# ---------------------------------------------------------------------------

class NotCompilable(StateMachineError):
    """The machine is outside the compilable subset; the message says
    why (the ``interpreter: <reason>`` label of an engine binding)."""


#: Globals of every compiled guard and action, built on first use.
#: ``__builtins__`` is emptied so the functions resolve exactly the
#: interpreter's builtin set: a call the transpiler emits of any other
#: name (an operation call's ``self``) raises.  The ``_asl_*`` helpers
#: are built from the prelude text every generated Python module
#: embeds, so both run one copy of ASL's runtime helpers.
_GLOBALS: Optional[Dict[str, Any]] = None


def _action_globals() -> Dict[str, Any]:
    global _GLOBALS
    if _GLOBALS is None:
        prelude: Dict[str, Any] = {}
        exec(PYTHON_PRELUDE + PYTHON_ATTR_HELPER, prelude)
        _GLOBALS = dict(
            {name: value for name, value in prelude.items()
             if name.startswith("_asl_")},
            __builtins__={}, abs=abs, min=min, max=max, len=len, int=int,
            float=float, str=str, bool=bool, sum=sum, sorted=sorted,
            list=list, range=range)
    return _GLOBALS


#: (ASL source text, mode) -> its function, or the refusal reason that
#: follows the site's name.  A function keeps no state (it runs on the
#: scope dict it is given), so every parse of a model shares one per
#: distinct text; cleared when full.
_TRANSPILE_MEMO: Dict[Tuple[str, str], Any] = {}
_TRANSPILE_MEMO_MAX = 1024


def _transpile(source: Any, site: str, mode: str) -> Any:
    """The function of ``source``'s Python transpilation (``mode`` is
    ``"eval"`` for a guard, ``"exec"`` for an action), memoized on the
    text and the mode.

    Raises :class:`NotCompilable` naming ``site`` when ``source`` is not
    ASL text, does not transpile, or holds a construct that compiled
    code would run differently from the interpreter (an operation or a
    method call, a builtin's name as a variable, a loop without a fixed
    trip count: the emitter,
    :func:`~repro.asl.transpile.to_python_function`, refuses the first
    in source order).  A memoized refusal is raised afresh, naming the
    current ``site``.
    """
    if not isinstance(source, str):
        raise NotCompilable(f"{site} has type {type(source).__name__}")
    key = (source, mode)
    outcome = _TRANSPILE_MEMO.get(key)
    if outcome is not None:
        PERF.incr("sm.transpile_hits")
    else:
        PERF.incr("sm.transpile_misses")
        try:
            outcome = _transpile_text(source, mode)
        except RecursionError as exc:
            # depends on the caller's stack depth: retried, not memoized
            raise NotCompilable(f"{site} does not transpile: {exc}")
        if len(_TRANSPILE_MEMO) >= _TRANSPILE_MEMO_MAX:
            _TRANSPILE_MEMO.clear()
        _TRANSPILE_MEMO[key] = outcome
    if isinstance(outcome, str):
        raise NotCompilable(f"{site} {outcome}")
    return outcome


def _transpile_text(source: str, mode: str) -> Any:
    """Parse ``source`` once, ``compile()`` its Python function and bind
    it to the action globals; returns the function, or why there is
    none."""
    try:
        tree = asl.parse_expression(source) if mode == "eval" \
            else asl.parse(source)
        python_source = to_python_function(tree)
        with warnings.catch_warnings():
            # Python's own compile-time hints (``3[a]``: "not
            # subscriptable") are no ASL diagnostics; the action raises
            # AslRuntimeError when it runs, as on the interpreter
            warnings.simplefilter("ignore", SyntaxWarning)
            code = compile(python_source, "<asl>", "exec")
    except Untranslatable as refusal:
        return str(refusal)
    except (ReproError, SyntaxError) as exc:
        return f"does not transpile: {exc}"
    namespace: Dict[str, Any] = {}
    exec(code, _action_globals(), namespace)
    return namespace["_asl_fn"]


def _compile_guard(guard, site: str) -> Optional[Callable]:
    """Compile a guard into ``g(runtime, occurrence) -> bool``.

    Returns None for the always-true guard.  The guard reads the live
    context: every guard of a step runs before any effect of it (the
    interpreter's upfront guard phase), and an expression cannot bind.
    """
    if guard is None:
        return None
    if isinstance(guard, str) and guard.strip() == ELSE_GUARD:
        def never(runtime, occurrence):
            return False
        return never
    function = _transpile(guard, site, "eval")

    def run_compiled(runtime, occurrence, _fn=function, _src=guard):
        try:
            # an expression sends nothing: no send callback
            return bool(_fn(runtime.context, occurrence.parameters,
                            occurrence.name, runtime.time, None))
        except ReproError:
            raise
        except Exception as exc:
            raise asl.action_error(_src, exc) from exc
    return run_compiled


def _compile_action(action, site: str) -> Optional[Callable]:
    """Compile an effect/entry/exit into ``a(runtime, occurrence)``.

    Same semantics as the interpreter: the action runs on a copy of the
    context, which replaces the context's variables only when it
    succeeds — temporaries intentionally leak into the context, and
    sends made before a failure stay sent.
    """
    if action is None:
        return None
    function = _transpile(action, site, "exec")

    def run_compiled(runtime, occurrence, _fn=function, _src=action):
        env = dict(runtime.context)
        try:
            if occurrence is None:
                _fn(env, {}, "", runtime.time, runtime._emit)
            else:
                _fn(env, occurrence.parameters, occurrence.name,
                    runtime.time, runtime._emit)
        except ReproError:
            raise
        except Exception as exc:
            raise asl.action_error(_src, exc) from exc
        runtime.context.update(env)
    return run_compiled


class CompiledTransition:
    """One row of a state's dispatch table, compiled from ``element``."""

    __slots__ = ("internal", "target", "guard", "effect", "source_name",
                 "element")

    def __init__(self, internal: bool, target: Optional["CompiledState"],
                 guard: Optional[Callable], effect: Optional[Callable],
                 source_name: str, element: Transition):
        self.internal = internal
        self.target = target
        self.guard = guard
        self.effect = effect
        self.source_name = source_name
        self.element = element

    def __repr__(self) -> str:
        kind = "internal" if self.internal else "external"
        target = self.target.name if self.target is not None else "?"
        return f"<CompiledTransition {kind} {self.source_name}->{target}>"


class CompiledState:
    """The dispatch tables and actions compiled from ``element``."""

    __slots__ = ("name", "entry", "do_activity", "exit", "by_key",
                 "by_timer", "timer_specs", "element")

    def __init__(self, element: State):
        self.name = element.name
        self.element = element
        self.entry: Optional[Callable] = None
        self.do_activity: Optional[Callable] = None
        self.exit: Optional[Callable] = None
        #: (EventKind, event name) -> candidate transitions, declaration order
        self.by_key: Dict[Tuple[EventKind, str], Tuple[CompiledTransition, ...]] = {}
        #: id(TimeEvent) -> candidate transitions for that timer
        self.by_timer: Dict[int, Tuple[CompiledTransition, ...]] = {}
        #: (after, TimeEvent) in registration order (= declaration order)
        self.timer_specs: Tuple[Tuple[float, TimeEvent], ...] = ()

    def __repr__(self) -> str:
        return f"<CompiledState {self.name!r} keys={len(self.by_key)}>"


class CompiledMachine:
    """The immutable compile artifact, shared by many runtimes: the one
    lowering of a flat machine, whose closures the compiled engine runs
    and whose model elements' ASL :mod:`repro.codegen.python_gen`
    emits."""

    __slots__ = ("machine", "states", "initial_state", "initial_effect",
                 "initial_transition")

    def __init__(self, machine: StateMachine,
                 states: Dict[str, CompiledState],
                 initial_state: CompiledState,
                 initial_effect: Optional[Callable],
                 initial_transition: Transition):
        self.machine = machine
        self.states = states
        self.initial_state = initial_state
        self.initial_effect = initial_effect
        self.initial_transition = initial_transition

    def __repr__(self) -> str:
        return (f"<CompiledMachine {self.machine.name!r} "
                f"states={len(self.states)}>")


def compile_fallback_reason(machine: StateMachine) -> Optional[str]:
    """Why ``machine`` cannot be compiled, or None when it can.

    The compilable subset is the flat-machine core the SoC IP library
    uses: one region, simple states, INITIAL as the only pseudostate,
    signal/call/time triggers, no deferral, no completion transitions,
    and every guard and effect is ASL text that transpiles (it parses,
    and compiled code runs it as the interpreter does).  Everything
    else (deep history, orthogonal regions, deferral, change triggers,
    a Python callable as a guard or an action, a context callable or a
    dict method called from ASL, a ``while`` loop, ...) answers with a
    reason string, and the caller runs the whole machine on the
    interpreter; the Python code generator skips the class.  None
    means the machine is compiled (and memoized by
    :func:`compile_machine_cached`).  The verdict depends on the
    machine alone: every variable of a compiled action is an item of
    the part's context, so a context key shadows no name the compiled
    code uses.  (A context *callable* named like a builtin would run
    differently: the interpreter calls it in place of the builtin, so
    :func:`~repro.engine.registry.build_engine_factory` runs such a
    part on the interpreter.)
    """
    try:
        compile_machine_cached(machine)
    except NotCompilable as refusal:
        return str(refusal)
    return None


def _structure_reason(machine: StateMachine,
                      walk: MachineWalk) -> Optional[str]:
    """The first structural feature outside the compilable subset;
    ``walk`` is the machine's :meth:`~StateMachine.walk`."""
    regions = machine.regions
    if len(regions) != 1:
        return f"machine has {len(regions)} top-level regions"
    try:
        machine.validate()
    except StateMachineError as exc:
        return f"machine fails validation: {exc}"
    if regions[0].initial is None:
        return "machine has no initial pseudostate"
    for state in walk.states:
        if not state.is_simple:
            return f"composite state {state.name!r}"
        if state.deferrable:
            return f"state {state.name!r} defers events"
    for vertex in walk.vertices:
        if isinstance(vertex, Pseudostate) \
                and vertex.kind is not PseudostateKind.INITIAL:
            return f"pseudostate kind {vertex.kind.value!r}"
    for transition in walk.transitions:
        if transition.kind is TransitionKind.LOCAL:
            return "local transition kind"
        if isinstance(transition.target, Pseudostate):
            return "transition targets a pseudostate"
        if isinstance(transition.source, State) and transition.is_completion:
            return f"completion transition from {transition.source.name!r}"
        for event in transition.triggers:
            if isinstance(event, ChangeEvent):
                return "change trigger"
            if event.kind not in (EventKind.SIGNAL, EventKind.CALL,
                                  EventKind.TIME):
                return f"unsupported trigger kind {event.kind.value!r}"
    return None


def compile_machine(machine: StateMachine) -> CompiledMachine:
    """Compile a flat machine into per-state dispatch tables.

    Raises :class:`NotCompilable` (a :class:`StateMachineError`) naming
    the first feature outside the compilable subset (see
    :func:`compile_fallback_reason`).  The structure check and the
    tables take the machine's parts from one :meth:`~StateMachine.walk`.
    """
    walk = machine.walk()
    reason = _structure_reason(machine, walk)
    if reason is not None:
        raise NotCompilable(reason)

    with PERF.timed("sm.compile_s"):
        # transitions by source, each list in declaration order
        outgoing: Dict[int, List[Any]] = {}
        for transition in walk.transitions:
            outgoing.setdefault(id(transition.source), []).append(transition)
        cstates: Dict[int, CompiledState] = {}
        by_name: Dict[str, CompiledState] = {}
        for state in walk.states:
            cstate = CompiledState(state)
            cstate.entry = _compile_action(state.entry, "entry")
            cstate.do_activity = _compile_action(state.do_activity, "do")
            cstate.exit = _compile_action(state.exit, "exit")
            cstates[id(state)] = cstate
            by_name[state.name] = cstate

        for state in walk.states:
            cstate = cstates[id(state)]
            by_key: Dict[Tuple[EventKind, str], List[CompiledTransition]] = {}
            by_timer: Dict[int, List[CompiledTransition]] = {}
            timer_specs: List[Tuple[float, TimeEvent]] = []
            for transition in outgoing.get(id(state), ()):
                compiled = CompiledTransition(
                    transition.kind is TransitionKind.INTERNAL,
                    cstates[id(transition.target)],
                    _compile_guard(transition.guard, "guard"),
                    _compile_action(transition.effect, "effect"),
                    state.name, transition)
                for event in transition.triggers:
                    if isinstance(event, TimeEvent):
                        timer_specs.append((event.after, event))
                        by_timer.setdefault(id(event), []).append(compiled)
                    else:
                        key = (event.kind, event.name)
                        by_key.setdefault(key, []).append(compiled)
            cstate.by_key = {key: tuple(value)
                             for key, value in by_key.items()}
            cstate.by_timer = {key: tuple(value)
                               for key, value in by_timer.items()}
            cstate.timer_specs = tuple(timer_specs)

        initial = machine.regions[0].initial
        initial_transition = outgoing[id(initial)][0]
        initial_effect = _compile_action(initial_transition.effect, "effect")
        initial_state = cstates[id(initial_transition.target)]

    PERF.incr("sm.machines_compiled")
    return CompiledMachine(machine, by_name, initial_state, initial_effect,
                           initial_transition)


def compile_machine_cached(machine: StateMachine) -> CompiledMachine:
    """Memoized :func:`compile_machine`, invalidated by model mutation.

    This is the second of the two compile layers.  The outcome is kept
    on the machine itself, in ``machine.__dict__["_compiled"]``, against
    its tree root's identity and generation counter (the way
    :meth:`~StateMachine.validate` keeps its record), so a machine
    edited after compilation recompiles, while N identical part
    instances (and N campaign seeds over one parsed model) share a
    single dispatch table, which the pre-fork campaign warm-up relies
    on.  The record lives and dies with its model: no global table
    holds a parsed model alive.  A fresh parse of a model builds fresh
    tables (``by_timer`` keys on ``id(TimeEvent)``) from functions
    of the first layer, which are keyed on their ASL source text and
    shared across parses.  A refusal is kept as its reason and raised
    as a fresh :class:`NotCompilable` on every hit.
    """
    root = machine.root()
    key = (id(root), root.generation)
    record = machine.__dict__.get("_compiled")
    if record is not None and record[0] == key:
        PERF.incr("sm.compile_cache_hits")
        outcome = record[1]
    else:
        try:
            outcome = compile_machine(machine)
        except NotCompilable as refusal:
            outcome = str(refusal)
        # through __dict__: the record must not bump the generation
        machine.__dict__["_compiled"] = (key, outcome)
        PERF.incr("sm.compile_cache_misses")
    if isinstance(outcome, str):
        raise NotCompilable(outcome)
    return outcome


class CompiledRuntime:
    """Executes one compiled machine instance — interpreter-equivalent.

    Mirrors the :class:`StateMachineRuntime` surface the cosimulation
    harness uses (``start``/``dispatch``/``send``/``advance_time``/
    ``context``/``time``/``active_leaf_names``), with run-to-completion
    steps reduced to: dict lookup of the candidate list, upfront guard
    calls on the live context, then effect calls in declaration order
    until the first external firing.  Each guard and effect is a
    function of the machine's shared tables, called with the context
    (an effect: a copy of it), the event's parameters and name, the
    clock and :meth:`_emit`.
    """

    __slots__ = ("compiled", "context", "time", "is_terminated",
                 "signal_sink", "trace_bus", "trace_part", "_state",
                 "_timers", "_timer_seq", "_queue", "_draining",
                 "_started")

    def __init__(self, compiled: CompiledMachine,
                 context: Optional[Dict[str, Any]] = None,
                 signal_sink=None):
        self.compiled = compiled
        self.context: Dict[str, Any] = dict(context or {})
        self.time: float = 0.0
        self.is_terminated = False
        self.signal_sink = signal_sink
        # Trace-bus plumbing (set by the cosim harness); emit sites
        # mirror StateMachineRuntime exactly so interpreted and compiled
        # runs produce byte-identical trace streams.  Kinds are literal
        # strings: this module never imports repro.engine.
        self.trace_bus = None
        self.trace_part = ""
        self._state: Optional[CompiledState] = None
        #: live timers: (due, seq, TimeEvent) — all owned by _state
        self._timers: List[Tuple[float, int, TimeEvent]] = []
        self._timer_seq = 0
        self._queue: deque = deque()
        self._draining = False
        self._started = False

    # -- public API (parity with StateMachineRuntime) --------------------

    def start(self) -> "CompiledRuntime":
        """Enter the machine's default configuration (chainable)."""
        if self._started:
            raise StateMachineError("runtime already started")
        self._started = True
        effect = self.compiled.initial_effect
        if effect is not None:
            effect(self, None)
        self._enter(self.compiled.initial_state, None)
        return self

    def dispatch(self, occurrence: EventOccurrence) -> "CompiledRuntime":
        """Queue an event occurrence and run to completion (chainable)."""
        self._require_started()
        self._queue.append(occurrence)
        if self._draining:
            return self  # re-entrant dispatch from an action: queue only
        self._draining = True
        try:
            while self._queue:
                self._rtc(self._queue.popleft())
        finally:
            self._draining = False
        return self

    def send(self, name: str, **parameters: Any) -> "CompiledRuntime":
        """Shorthand: dispatch a signal occurrence by name."""
        return self.dispatch(EventOccurrence(name, EventKind.SIGNAL,
                                             parameters))

    def call(self, name: str, **parameters: Any) -> "CompiledRuntime":
        """Shorthand: dispatch a call occurrence by name."""
        return self.dispatch(EventOccurrence(name, EventKind.CALL,
                                             parameters))

    def advance_time(self, delta: float) -> "CompiledRuntime":
        """Advance the runtime clock, firing due time triggers in order."""
        self._require_started()
        if delta < 0:
            raise StateMachineError("time cannot move backwards")
        deadline = self.time + delta
        timers = self._timers
        while timers:
            best = None
            for timer in timers:
                if timer[0] <= deadline and (best is None or timer < best):
                    best = timer
            if best is None:
                break
            timers.remove(best)
            self.time = best[0]
            event = best[2]
            self.dispatch(EventOccurrence(event.name, EventKind.TIME,
                                          source=event))
        self.time = deadline
        return self

    def step(self, until: float) -> "CompiledRuntime":
        """Advance to *absolute* time ``until`` (ExecutionEngine surface).

        Idempotent when the clock is already at or past ``until``.
        """
        if until > self.time:
            self.advance_time(until - self.time)
        return self

    # -- snapshot / restore (checkpointing, parity with the interpreter) --

    def checkpoint(self) -> Dict[str, Any]:
        """Alias of :meth:`snapshot` (ExecutionEngine surface)."""
        return self.snapshot()

    def snapshot(self) -> Dict[str, Any]:
        """Capture the full execution state (configuration, timers,
        context, clock).  Restore with :meth:`restore`."""
        return {
            "state": self._state.name if self._state is not None else None,
            "timers": list(self._timers),
            "timer_seq": self._timer_seq,
            "time": self.time,
            "terminated": self.is_terminated,
            "context": dict(self.context),
            "started": self._started,
            "queue": list(self._queue),
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        name = snap["state"]
        self._state = self.compiled.states[name] if name is not None else None
        self._timers = list(snap["timers"])
        self._timer_seq = snap["timer_seq"]
        self.time = snap["time"]
        self.is_terminated = snap["terminated"]
        self.context = dict(snap["context"])
        self._started = snap["started"]
        self._queue = deque(snap.get("queue", ()))

    def active_leaf_names(self) -> Tuple[str, ...]:
        """Names of active leaf states (one for a flat machine)."""
        return (self._state.name,) if self._state is not None else ()

    def active_configuration(self) -> Tuple[str, ...]:
        """Canonical configuration names (ExecutionEngine surface)."""
        return self.active_leaf_names()

    def active_state_names(self) -> Tuple[str, ...]:
        """Alias of :meth:`active_leaf_names` for flat machines."""
        return self.active_leaf_names()

    def in_state(self, name: str) -> bool:
        """True when the named state is the active one."""
        return self._state is not None and self._state.name == name

    # -- machinery --------------------------------------------------------

    def _require_started(self) -> None:
        if not self._started:
            raise StateMachineError("call start() before dispatching events")

    def _emit(self, signal: str, target: Any = None, **arguments: Any) -> None:
        """Target of transpiled ``send`` statements."""
        if self.signal_sink is not None:
            self.signal_sink(SentSignal(signal, arguments, target))

    def _rtc(self, occurrence: EventOccurrence) -> bool:
        """One run-to-completion step; True when any transition fired."""
        bus = self.trace_bus
        tracing = bus is not None and bus.engine_active
        event_cause = None
        if tracing:
            record = bus.emit("event", self.time, self.trace_part,
                              {"event": occurrence.name})
            if bus.causal and record is not None:
                # this dispatch is now the cause of whatever it fires
                event_cause = record.ordinal
                bus.cause = event_cause
        state = self._state
        if state is None:
            return False
        if occurrence.kind is EventKind.TIME:
            candidates = state.by_timer.get(id(occurrence.source))
        else:
            candidates = state.by_key.get((occurrence.kind, occurrence.name))
        if not candidates:
            return False
        # Guard phase: every candidate's guard is evaluated upfront
        # against the unmodified context (interpreter semantics), so a
        # guard made false by an earlier effect in the same step still
        # admits its transition.
        if len(candidates) == 1 and candidates[0].guard is None:
            enabled = candidates
        else:
            enabled = [candidate for candidate in candidates
                       if candidate.guard is None
                       or candidate.guard(self, occurrence)]
        fired = False
        for candidate in enabled:
            fired = True
            if tracing:
                record = bus.emit("transition", self.time, self.trace_part,
                                  {"source": candidate.source_name,
                                   "target": candidate.target.name,
                                   "event": occurrence.name})
                if bus.causal and record is not None:
                    # exits, the effect's sends and the entry descend
                    # from this firing
                    bus.cause = record.ordinal
            effect = candidate.effect
            if candidate.internal:
                if effect is not None:
                    effect(self, occurrence)
                if event_cause is not None:
                    bus.cause = event_cause
                continue
            # external: exit source, run effect, enter target; remaining
            # candidates conflict with the exited scope and are skipped.
            exit_action = state.exit
            if exit_action is not None:
                exit_action(self, occurrence)
            if tracing:
                bus.emit("state_exit", self.time, self.trace_part,
                         {"state": state.name})
            self._timers.clear()
            if effect is not None:
                effect(self, occurrence)
            self._enter(candidate.target, occurrence)
            if event_cause is not None:
                bus.cause = event_cause
            break
        return fired

    def _enter(self, state: CompiledState,
               occurrence: Optional[EventOccurrence]) -> None:
        self._state = state
        bus = self.trace_bus
        if bus is not None and bus.engine_active:
            bus.emit("state_enter", self.time, self.trace_part,
                     {"state": state.name})
        if state.entry is not None:
            state.entry(self, occurrence)
        if state.do_activity is not None:
            state.do_activity(self, occurrence)
        if state.timer_specs:
            now = self.time
            for after, event in state.timer_specs:
                self._timer_seq += 1
                self._timers.append((now + after, self._timer_seq, event))

    def __repr__(self) -> str:
        name = self._state.name if self._state is not None else "(unstarted)"
        return (f"<CompiledRuntime {self.compiled.machine.name!r} "
                f"state={name} t={self.time}>")
