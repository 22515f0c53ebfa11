"""Behavior → engine binding: which engine executes a classifier behavior.

The cosimulation harness used to hard-code ``isinstance(behavior,
StateMachine)`` and pick between the interpreter and the compiled
runtime inline; activities were not executable as part behaviors at
all.  This registry centralizes the binding: each behavior *type* maps
to a builder that inspects the concrete behavior and answers with an
engine label (for the harness's ``compile_report``) plus a zero-arg
factory producing fresh, unstarted engines — the factory is what makes
restart-on-failure and checkpoint campaigns engine-agnostic.

Built-in bindings:

* :class:`~repro.statemachines.kernel.StateMachine` — the
  run-to-completion interpreter, or (with ``prefer_compiled`` and the
  machine inside the compilable subset) the dispatch-table
  :class:`~repro.statemachines.compiled.CompiledRuntime`;
* :class:`~repro.activities.graph.Activity` — the token-game
  :class:`~repro.activities.runtime.ActivityRuntime`.

Additional engines register via :func:`register_engine`; resolution is
most-recently-registered-first, so a custom binding can shadow a
built-in one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..activities.graph import Activity
from ..activities.runtime import ActivityRuntime
from ..perf import PERF
from ..statemachines.compiled import (
    CompiledRuntime,
    compile_fallback_reason,
    compile_machine_cached,
)
from ..statemachines.kernel import StateMachine
from ..statemachines.runtime import StateMachineRuntime

#: Valid explicit engine selections: the run-to-completion interpreter
#: and the dispatch-table compiled runtime (``engine=`` of
#: :class:`~repro.simulation.SystemSimulation` and of campaign specs).
ENGINE_MODES = ("interpreted", "compiled")

#: A zero-arg factory producing a fresh, unstarted engine.
EngineFactory = Callable[[], Any]

#: (label for the harness's engine report, factory) — or None when the
#: builder declines the concrete behavior.
EngineBinding = Tuple[str, EngineFactory]

#: builder(behavior, context, signal_sink, prefer_compiled) -> binding.
EngineBuilder = Callable[[Any, Dict[str, Any], Any, bool],
                         Optional[EngineBinding]]


def _build_state_machine(behavior: StateMachine, context: Dict[str, Any],
                         signal_sink: Any,
                         prefer_compiled: bool) -> EngineBinding:
    if prefer_compiled:
        reason = compile_fallback_reason(behavior)
        if reason is None:
            PERF.incr("cosim.compiled_parts")
            compiled = compile_machine_cached(behavior)

            def compiled_factory(_compiled=compiled, _context=context,
                                 _sink=signal_sink) -> CompiledRuntime:
                return CompiledRuntime(_compiled, context=dict(_context),
                                       signal_sink=_sink)
            return "compiled", compiled_factory
        PERF.incr("cosim.interpreted_parts")
        label = f"interpreter: {reason}"
    else:
        label = "interpreter"

    def interpreter_factory(_behavior=behavior, _context=context,
                            _sink=signal_sink) -> StateMachineRuntime:
        return StateMachineRuntime(_behavior, context=dict(_context),
                                   signal_sink=_sink)
    return label, interpreter_factory


def _build_activity(behavior: Activity, context: Dict[str, Any],
                    signal_sink: Any,
                    prefer_compiled: bool) -> EngineBinding:
    PERF.incr("cosim.activity_parts")

    def activity_factory(_behavior=behavior, _context=context,
                         _sink=signal_sink) -> ActivityRuntime:
        return ActivityRuntime(_behavior, context=dict(_context),
                               signal_sink=_sink)
    return "token-engine", activity_factory


#: (behavior type, builder), most-recently-registered first.
_BUILDERS: List[Tuple[type, EngineBuilder]] = [
    (Activity, _build_activity),
    (StateMachine, _build_state_machine),
]


def register_engine(behavior_type: type, builder: EngineBuilder) -> None:
    """Bind ``behavior_type`` to ``builder`` (shadows earlier bindings)."""
    _BUILDERS.insert(0, (behavior_type, builder))


def registered_behavior_types() -> Tuple[type, ...]:
    """The behavior types with a registered engine, resolution order."""
    return tuple(behavior_type for behavior_type, _builder in _BUILDERS)


def supports(behavior: Any) -> bool:
    """True when some registered builder covers this behavior's type."""
    return any(isinstance(behavior, behavior_type)
               for behavior_type, _builder in _BUILDERS)


def build_engine_factory(behavior: Any, *,
                         context: Optional[Dict[str, Any]] = None,
                         signal_sink: Any = None,
                         prefer_compiled: bool = False,
                         ) -> Optional[EngineBinding]:
    """Resolve ``behavior`` to ``(label, factory)``, or None.

    ``context`` seeds each fresh engine's variable environment (copied
    per factory call), ``signal_sink`` receives outbound signals, and
    ``prefer_compiled`` asks for the fast path where one exists (the
    label records the decision: ``"compiled"``, ``"interpreter"``,
    ``"interpreter: <reason>"``, ``"token-engine"``).
    """
    for behavior_type, builder in _BUILDERS:
        if isinstance(behavior, behavior_type):
            binding = builder(behavior, dict(context or {}), signal_sink,
                              prefer_compiled)
            if binding is not None:
                return binding
    return None
