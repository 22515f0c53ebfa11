"""Behavior → engine binding: which engine executes a classifier behavior.

:func:`build_engine_factory` is the one place that decides how a part's
behavior runs.  It inspects the concrete behavior and answers with an
engine label (for the harness's ``compile_report``) plus a zero-arg
factory producing fresh, unstarted engines — the factory is what makes
restart-on-failure and checkpoint campaigns engine-agnostic.

* :class:`~repro.statemachines.kernel.StateMachine` — the
  run-to-completion interpreter, or (with ``prefer_compiled`` and the
  machine inside the compilable subset) the dispatch-table
  :class:`~repro.statemachines.compiled.CompiledRuntime`.  Compilation
  is all or nothing per machine: a refused machine runs entirely on
  the interpreter, labelled with the reason.  The verdict is the
  machine's, with one exception from the context: a callable under a
  builtin's name, which the interpreter calls in place of the builtin.
* :class:`~repro.activities.graph.Activity` — the token-game
  :class:`~repro.activities.runtime.ActivityRuntime`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..activities.graph import Activity
from ..activities.runtime import ActivityRuntime
from ..asl.transpile import BUILTIN_NAMES
from ..perf import PERF
from ..statemachines.compiled import (
    CompiledRuntime,
    NotCompilable,
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

#: (label for the harness's engine report, factory).
EngineBinding = Tuple[str, EngineFactory]


def build_engine_factory(behavior: Any, *,
                         context: Optional[Dict[str, Any]] = None,
                         signal_sink: Any = None,
                         prefer_compiled: bool = False,
                         ) -> Optional[EngineBinding]:
    """Resolve ``behavior`` to ``(label, factory)``, or None when no
    engine executes it.

    ``context`` seeds each fresh engine's variable environment (copied
    per factory call), ``signal_sink`` receives outbound signals, and
    ``prefer_compiled`` asks for the compiled engine where the machine
    compiles (the label records the decision: ``"compiled"``,
    ``"interpreter"``, ``"interpreter: <reason>"``, ``"token-engine"``).
    """
    context = dict(context or {})
    if isinstance(behavior, Activity):
        PERF.incr("cosim.activity_parts")
        return "token-engine", lambda: ActivityRuntime(
            behavior, context=dict(context), signal_sink=signal_sink)
    if not isinstance(behavior, StateMachine):
        return None
    label = "interpreter"
    if prefer_compiled:
        try:
            compiled = compile_machine_cached(behavior)
            for name, value in context.items():
                # compiled code calls the builtin; the interpreter
                # calls a context callable of its name in its place
                if name in BUILTIN_NAMES and callable(value):
                    raise NotCompilable(
                        f"context callable {name!r} shadows a builtin")
        except NotCompilable as refusal:
            PERF.incr("cosim.interpreted_parts")
            label = f"interpreter: {refusal}"
        else:
            PERF.incr("cosim.compiled_parts")
            return "compiled", lambda: CompiledRuntime(
                compiled, context=dict(context), signal_sink=signal_sink)
    return label, lambda: StateMachineRuntime(
        behavior, context=dict(context), signal_sink=signal_sink)
