"""The :class:`ExecutionEngine` protocol: one behavioral substrate.

The paper's Section 4 claim — that UML's behavioral notations share
enough semantic common ground to execute as *one* system — is only
operational if every behavior formalism answers the same small calling
convention.  This protocol is that convention.  Three engines implement
it today:

* :class:`~repro.statemachines.runtime.StateMachineRuntime` — the
  run-to-completion statechart interpreter;
* :class:`~repro.statemachines.compiled.CompiledRuntime` — the
  dispatch-table compiled form of the flat subset;
* :class:`~repro.activities.runtime.ActivityRuntime` — the token-game
  engine for UML 2.0 activities.

The cosimulation harness (:mod:`repro.simulation.cosim`) talks *only*
this protocol: scheduling, fault injection, degradation policies and
checkpoint/restore are engine-agnostic, so a part whose classifier
behavior is an Activity runs under exactly the machinery of a
state-machine part.

The surface:

``start()``
    Enter the initial configuration (initial state entry cascade /
    initial token marking).  Called once; chainable.
``send(name, **parameters)``
    Deliver one named signal occurrence and run to completion (the
    engine's own notion of a step: an RTC step for statecharts, token
    firings to quiescence for activities).
``step(until)``
    Advance the engine-local clock to the *absolute* time ``until``,
    firing any due time triggers on the way.  Idempotent when the
    clock is already at or past ``until``; local clocks never run
    ahead of the caller's.
``active_configuration()``
    A canonical, deterministic tuple of strings naming the current
    configuration (active leaf states / current token marking).
``checkpoint()`` / ``restore(snap)``
    Capture / reinstate the complete execution state — configuration,
    context, timers, queues — such that a checkpoint → perturb →
    restore cycle replays byte-identically.

Required attributes: ``time`` (the engine-local clock, assignable),
``context`` (the variable environment, a mapping) and ``signal_sink``
(callable receiving :class:`~repro.asl.SentSignal`, or None).  Engines
may also carry ``trace_bus``/``trace_part`` (set by the harness) and
emit engine-level :class:`~repro.engine.trace.TraceEvent` records.
"""

from __future__ import annotations

from typing import Any, Dict, Protocol, Tuple, runtime_checkable

#: Methods every execution engine must provide (the checkable surface).
PROTOCOL_METHODS = ("start", "send", "step", "active_configuration",
                    "checkpoint", "restore")

#: Attributes every execution engine must carry.
PROTOCOL_ATTRIBUTES = ("time", "context", "signal_sink")


@runtime_checkable
class ExecutionEngine(Protocol):
    """Structural protocol for a part's behavior engine (see module doc)."""

    time: float

    def start(self) -> "ExecutionEngine":
        """Enter the initial configuration (chainable)."""
        ...

    def send(self, name: str, **parameters: Any) -> "ExecutionEngine":
        """Deliver a named signal occurrence and run to completion."""
        ...

    def step(self, until: float) -> "ExecutionEngine":
        """Advance the local clock to absolute time ``until``."""
        ...

    def active_configuration(self) -> Tuple[str, ...]:
        """Canonical names of the current configuration."""
        ...

    def checkpoint(self) -> Dict[str, Any]:
        """Capture the complete execution state."""
        ...

    def restore(self, snap: Dict[str, Any]) -> None:
        """Reinstate a state captured by :meth:`checkpoint`."""
        ...


def conforms(engine: Any) -> bool:
    """True when ``engine`` structurally satisfies the protocol.

    Checks the callable surface *and* the required data attributes
    (``isinstance`` against a runtime-checkable Protocol only verifies
    methods).
    """
    if not isinstance(engine, ExecutionEngine):
        return False
    return all(hasattr(engine, attribute)
               for attribute in PROTOCOL_ATTRIBUTES)
