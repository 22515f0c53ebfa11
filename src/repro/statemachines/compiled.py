"""Dispatch-table compilation of state machines.

:func:`compile_machine` / :class:`CompiledRuntime` are the
cosimulation fast path.  A flat (single-region, simple-state) machine
is compiled once into per-state dispatch tables whose guards and
effects are *precompiled Python closures* — ASL source is transpiled
via :mod:`repro.codegen.transpile` and ``compile()``d to code objects,
so executing an action is one ``eval``/``exec`` of tiny bytecode
instead of a tree walk through a freshly constructed interpreter.
Unlike :func:`~repro.statemachines.flatten.flatten`, the compiled form
keeps the live ``context`` and the runtime clock, so data-dependent
guards and ``after(n)`` time triggers work exactly as in the
interpreter.  Behaviour is bit-identical to
:class:`~repro.statemachines.runtime.StateMachineRuntime` on the
supported subset (verified by lockstep equivalence tests); machines
outside the subset are reported by :func:`compile_fallback_reason` and
the caller falls back to the interpreter.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..asl import SentSignal
from ..errors import AslRuntimeError, ReproError, StateMachineError
from ..perf import PERF
from .events import ChangeEvent, EventKind, EventOccurrence, TimeEvent
from .kernel import (
    Pseudostate,
    PseudostateKind,
    State,
    StateMachine,
    TransitionKind,
)
from .runtime import ELSE_GUARD

# ---------------------------------------------------------------------------
# Dispatch-table compilation (the cosimulation fast path)
# ---------------------------------------------------------------------------

#: Environment keys the interpreter never copies back into the context.
_SPECIALS = ("event", "event_name", "now")

#: Event kinds a compiled machine can dispatch directly.
_DISPATCHABLE = (EventKind.SIGNAL, EventKind.CALL)


def _asl_div(a, b):
    """ASL '/' floors on integer operands, divides otherwise."""
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    return a / b


def _asl_attr(obj, name):
    if isinstance(obj, dict):
        if name in obj:
            return obj[name]
        raise AslRuntimeError(f"object has no attribute {name!r}")
    try:
        return getattr(obj, name)
    except AttributeError as exc:
        raise AslRuntimeError(str(exc))


def _asl_append(seq, item):
    seq.append(item)
    return seq


def _asl_pop(seq):
    return seq.pop(0)


def _asl_contains(seq, item):
    return item in seq


#: Globals every compiled action executes against.  ``__builtins__`` is
#: emptied so generated code resolves exactly the interpreter's builtin
#: set — an undefined ASL name raises instead of finding a Python
#: builtin the interpreter would not have.
_BASE_GLOBALS: Dict[str, Any] = {
    "__builtins__": {},
    "abs": abs, "min": min, "max": max, "len": len, "int": int,
    "float": float, "str": str, "bool": bool, "sum": sum,
    "sorted": sorted, "list": list, "range": range,
    "_asl_div": _asl_div, "_asl_attr": _asl_attr,
    "_asl_append": _asl_append, "_asl_pop": _asl_pop,
    "_asl_contains": _asl_contains,
}


def _wrap_asl_error(source: str, exc: Exception) -> AslRuntimeError:
    return AslRuntimeError(f"compiled action failed: {exc} (in {source!r})")


def _compile_guard(guard) -> Optional[Callable]:
    """Compile a guard into ``g(runtime, env, occurrence) -> bool``.

    Returns None for the always-true guard.  The ``env`` argument is the
    shared per-dispatch environment (guards cannot mutate the context,
    so one copy serves every candidate — exactly the interpreter's
    upfront guard phase).
    """
    if guard is None:
        return None
    if callable(guard):
        def run_callable(runtime, env, occurrence, _fn=guard):
            return bool(_fn(runtime.context, occurrence))
        return run_callable
    if not isinstance(guard, str):
        raise StateMachineError(
            f"unsupported guard type {type(guard).__name__}")
    if guard.strip() == ELSE_GUARD:
        def never(runtime, env, occurrence):
            return False
        return never
    try:
        from .. import asl
        from ..codegen.transpile import to_python_expression

        python_source = to_python_expression(asl.parse_expression(guard))
        code = (compile(python_source, "<asl-guard>", "eval")
                if "self." not in python_source else None)
    except Exception:
        code = None
    if code is not None:
        def run_compiled(runtime, env, occurrence, _code=code, _src=guard):
            try:
                return bool(eval(_code, runtime._globals, env))
            except ReproError:
                raise
            except Exception as exc:
                raise _wrap_asl_error(_src, exc)
        return run_compiled

    def run_interpreted(runtime, env, occurrence, _src=guard):
        from .. import asl
        return bool(asl.evaluate(_src, env))
    return run_interpreted


def _compile_action(action) -> Optional[Callable]:
    """Compile an effect/entry/exit into ``a(runtime, occurrence)``.

    ASL source is transpiled and ``compile()``d when every construct has
    a Python equivalent; otherwise the closure falls back to the tree-
    walking interpreter (identical semantics either way: fresh
    environment copy in, full copy-back out — temporaries intentionally
    leak into the context, matching the interpreter).
    """
    if action is None:
        return None
    if callable(action):
        def run_callable(runtime, occurrence, _fn=action):
            _fn(runtime.context, occurrence)
        return run_callable
    if not isinstance(action, str):
        raise StateMachineError(
            f"unsupported action type {type(action).__name__}")
    try:
        from ..codegen.transpile import to_python_statements

        python_source = "\n".join(
            to_python_statements(action, set(), send_call="_send"))
        code = (compile(python_source, "<asl-effect>", "exec")
                if "self." not in python_source else None)
    except Exception:
        code = None
    if code is not None:
        def run_compiled(runtime, occurrence, _code=code, _src=action):
            env = dict(runtime.context)
            if occurrence is not None:
                env["event"] = dict(occurrence.parameters)
                env["event_name"] = occurrence.name
            else:
                env["event"] = {}
                env["event_name"] = ""
            env["now"] = runtime.time
            try:
                exec(_code, runtime._globals, env)
            except ReproError:
                raise
            except Exception as exc:
                raise _wrap_asl_error(_src, exc)
            context = runtime.context
            for key, value in env.items():
                if key not in _SPECIALS:
                    context[key] = value
        return run_compiled

    def run_interpreted(runtime, occurrence, _src=action):
        from .. import asl
        env = dict(runtime.context)
        if occurrence is not None:
            env["event"] = dict(occurrence.parameters)
            env["event_name"] = occurrence.name
        else:
            env["event"] = {}
            env["event_name"] = ""
        env["now"] = runtime.time
        asl.execute(_src, env, signal_sink=runtime.signal_sink)
        context = runtime.context
        for key, value in env.items():
            if key not in _SPECIALS:
                context[key] = value
    return run_interpreted


class CompiledTransition:
    """One row of a state's dispatch table."""

    __slots__ = ("internal", "target", "guard", "effect", "source_name")

    def __init__(self, internal: bool, target: Optional["CompiledState"],
                 guard: Optional[Callable], effect: Optional[Callable],
                 source_name: str):
        self.internal = internal
        self.target = target
        self.guard = guard
        self.effect = effect
        self.source_name = source_name

    def __repr__(self) -> str:
        kind = "internal" if self.internal else "external"
        target = self.target.name if self.target is not None else "?"
        return f"<CompiledTransition {kind} {self.source_name}->{target}>"


class CompiledState:
    """A state with precompiled entry/exit actions and dispatch tables."""

    __slots__ = ("name", "entry", "do_activity", "exit", "by_key",
                 "by_timer", "timer_specs")

    def __init__(self, name: str):
        self.name = name
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
    """The immutable compile artifact: share one across many runtimes."""

    __slots__ = ("machine", "states", "initial_state", "initial_effect")

    def __init__(self, machine: StateMachine,
                 states: Dict[str, CompiledState],
                 initial_state: CompiledState,
                 initial_effect: Optional[Callable]):
        self.machine = machine
        self.states = states
        self.initial_state = initial_state
        self.initial_effect = initial_effect

    def runtime(self, context: Optional[Dict[str, Any]] = None,
                signal_sink=None) -> "CompiledRuntime":
        """Convenience: a fresh :class:`CompiledRuntime` over this table."""
        return CompiledRuntime(self, context=context, signal_sink=signal_sink)

    def __repr__(self) -> str:
        return (f"<CompiledMachine {self.machine.name!r} "
                f"states={len(self.states)}>")


def compile_fallback_reason(machine: StateMachine) -> Optional[str]:
    """Why ``machine`` cannot be compiled, or None when it can.

    The compilable subset is the flat-machine core the SoC IP library
    uses: one region, simple states, INITIAL as the only pseudostate,
    signal/call/time triggers, no deferral, no completion transitions.
    Everything else (deep history, orthogonal regions, unbounded
    deferral, change triggers, ...) answers with a reason string and the
    caller stays on the interpreter.
    """
    regions = machine.regions
    if len(regions) != 1:
        return f"machine has {len(regions)} top-level regions"
    try:
        machine.validate()
    except StateMachineError as exc:
        return f"machine fails validation: {exc}"
    for state in machine.all_states():
        if not state.is_simple:
            return f"composite state {state.name!r}"
        if state.deferrable:
            return f"state {state.name!r} defers events"
    for vertex in machine.all_vertices():
        if isinstance(vertex, Pseudostate) \
                and vertex.kind is not PseudostateKind.INITIAL:
            return f"pseudostate kind {vertex.kind.value!r}"
    for transition in machine.all_transitions():
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
        for spec in (transition.guard, transition.effect):
            if spec is not None and not callable(spec) \
                    and not isinstance(spec, str):
                return f"unsupported guard/effect type {type(spec).__name__}"
    return None


def compile_machine(machine: StateMachine) -> CompiledMachine:
    """Compile a flat machine into per-state dispatch tables.

    Raises :class:`StateMachineError` when the machine is outside the
    compilable subset (check :func:`compile_fallback_reason` first).
    """
    reason = compile_fallback_reason(machine)
    if reason is not None:
        raise StateMachineError(
            f"machine {machine.name!r} cannot be compiled: {reason}")

    with PERF.timed("sm.compile_s"):
        ordered = machine.all_transitions()
        cstates: Dict[int, CompiledState] = {}
        by_name: Dict[str, CompiledState] = {}
        for state in machine.all_states():
            cstate = CompiledState(state.name)
            cstate.entry = _compile_action(state.entry)
            cstate.do_activity = _compile_action(state.do_activity)
            cstate.exit = _compile_action(state.exit)
            cstates[id(state)] = cstate
            by_name[state.name] = cstate

        for state in machine.all_states():
            cstate = cstates[id(state)]
            outgoing = [t for t in ordered if t.source is state]
            by_key: Dict[Tuple[EventKind, str], List[CompiledTransition]] = {}
            by_timer: Dict[int, List[CompiledTransition]] = {}
            timer_specs: List[Tuple[float, TimeEvent]] = []
            for transition in outgoing:
                compiled = CompiledTransition(
                    transition.kind is TransitionKind.INTERNAL,
                    cstates[id(transition.target)],
                    _compile_guard(transition.guard),
                    _compile_action(transition.effect),
                    state.name)
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

        region = machine.regions[0]
        initial = region.initial
        if initial is None:
            raise StateMachineError(
                f"machine {machine.name!r} has no initial pseudostate")
        initial_transition = initial.outgoing[0]
        initial_effect = _compile_action(initial_transition.effect)
        initial_state = cstates[id(initial_transition.target)]

    PERF.incr("sm.machines_compiled")
    return CompiledMachine(machine, by_name, initial_state, initial_effect)


#: id(machine) -> (machine, generation, CompiledMachine).  The strong
#: machine reference keeps the id stable for the cache entry's lifetime.
_COMPILE_CACHE: Dict[int, Tuple[StateMachine, int, CompiledMachine]] = {}
_COMPILE_CACHE_MAX = 256


def compile_machine_cached(machine: StateMachine) -> CompiledMachine:
    """Memoized :func:`compile_machine`, invalidated by model mutation.

    Keyed on identity plus the owning tree's generation counter, so a
    machine edited after compilation recompiles while N identical part
    instances (and N campaign seeds over one parsed model) share a
    single dispatch table, which the pre-fork campaign warm-up relies on.
    """
    key = id(machine)
    generation = machine.root().generation
    hit = _COMPILE_CACHE.get(key)
    if hit is not None and hit[0] is machine and hit[1] == generation:
        PERF.incr("sm.compile_cache_hits")
        return hit[2]

    compiled = compile_machine(machine)
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[key] = (machine, generation, compiled)
    PERF.incr("sm.compile_cache_misses")
    return compiled


class CompiledRuntime:
    """Executes one compiled machine instance — interpreter-equivalent.

    Mirrors the :class:`StateMachineRuntime` surface the cosimulation
    harness uses (``start``/``dispatch``/``send``/``advance_time``/
    ``context``/``time``/``active_leaf_names``), with run-to-completion
    steps reduced to: dict lookup of the candidate list, upfront guard
    ``eval``s, then effect ``exec``s in declaration order until the
    first external firing.
    """

    __slots__ = ("compiled", "context", "time", "is_terminated",
                 "signal_sink", "trace_bus", "trace_part", "_state",
                 "_timers", "_timer_seq", "_queue", "_draining",
                 "_globals", "_started")

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
        self._globals = dict(_BASE_GLOBALS)
        self._globals["_send"] = self._emit
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
        return self.dispatch(EventOccurrence.signal(name, **parameters))

    def call(self, name: str, **parameters: Any) -> "CompiledRuntime":
        """Shorthand: dispatch a call occurrence by name."""
        return self.dispatch(EventOccurrence.call(name, **parameters))

    def advance_time(self, delta: float) -> "CompiledRuntime":
        """Advance the runtime clock, firing due time triggers in order."""
        self._require_started()
        if delta < 0:
            raise StateMachineError("time cannot move backwards")
        deadline = self.time + delta
        timers = self._timers
        while True:
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
            env = dict(self.context)
            env["event"] = dict(occurrence.parameters)
            env["event_name"] = occurrence.name
            env["now"] = self.time
            enabled = [candidate for candidate in candidates
                       if candidate.guard is None
                       or candidate.guard(self, env, occurrence)]
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
