"""Exception hierarchy for the repro (uml2soc) library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base type.  Subsystems raise the most specific
subclass that applies; messages always name the offending element where
one exists.  The JSON spec readers share the type checks below.
"""

from __future__ import annotations

import sys
from typing import Any


def is_json_number(value: Any) -> bool:
    """Whether a decoded JSON value is a number a float can hold (not
    ``true``/``false``, nor an integer literal beyond the float range)."""
    return isinstance(value, float) or (
        is_json_integer(value) and abs(value) <= sys.float_info.max)


def is_json_integer(value: Any) -> bool:
    """Whether a decoded JSON value is an integer (``2.0`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """A structural operation on the metamodel is invalid.

    Examples: adding an element to two owners, removing a member that is
    not present, or creating an association with fewer than two ends.
    """


class LookupFailed(ModelError, KeyError):
    """A named member was not found in a namespace.

    Inherits from :class:`KeyError` so ``namespace.member(...)`` failures
    behave like mapping lookups for callers that expect that.
    """

    def __str__(self) -> str:  # KeyError quotes its message; undo that.
        return Exception.__str__(self)


class ValidationError(ReproError):
    """A well-formedness rule was violated (raised by strict checks)."""


class ProfileError(ReproError):
    """A stereotype application or profile definition is invalid."""


class StateMachineError(ReproError):
    """A state machine is structurally invalid or cannot be executed."""


class ActivityError(ReproError):
    """An activity graph is structurally invalid or cannot be executed."""


class InteractionError(ReproError):
    """An interaction (sequence diagram) is invalid."""


class AslSyntaxError(ReproError):
    """The ASL source text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        base = super().__str__()
        if self.line:
            return f"{base} (line {self.line}, column {self.column})"
        return base


class AslRuntimeError(ReproError):
    """An ASL program failed during interpretation."""


class XmiError(ReproError):
    """XMI serialization or deserialization failed."""


class TransformError(ReproError):
    """An MDA transformation rule or engine failure."""


class CodegenError(ReproError):
    """A code generator received a model it cannot translate."""


class StoreError(ReproError):
    """The artifact store is misconfigured or an operation is invalid."""


class ServiceError(ReproError):
    """The simulation service refused a request or hit an invalid state.

    Covers admission rejections (full queue, draining daemon), unknown
    job ids, illegal job-lifecycle events and protocol violations on
    the JSONL socket API.
    """


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an invalid state."""


class WatchdogTimeout(SimulationError):
    """The wall-clock watchdog expired before the simulation finished.

    Raised by ``Simulator.run(timeout=...)`` when real elapsed time
    exceeds the budget — the defense against hung IP cores and runaway
    models that make progress in simulated time but never terminate.
    """


class LivelockError(SimulationError):
    """Too many events were processed without simulated time advancing.

    The no-progress heuristic of ``Simulator.run``: an unbounded chain
    of zero-delay events (an event storm or a self-rescheduling loop)
    keeps the kernel busy at one instant forever.
    """


class DeadlockError(SimulationError):
    """The event queue drained while live processes were still blocked.

    With ``detect_deadlock=True``, quiescence while generator processes
    wait on events that can no longer fire is reported instead of being
    silently returned as a finished run.
    """


class QueueOverflowError(SimulationError):
    """The bounded event queue overflowed under the ``raise`` policy."""


class BusError(SimulationError):
    """A bus transaction could not be decoded or completed.

    Carries the offending ``address`` and the requesting ``master``
    (when known) so fault reports can name the exact transaction.
    """

    def __init__(self, message: str, address=None, master=None):
        super().__init__(message)
        self.address = address
        self.master = master


class FaultError(SimulationError):
    """A fault-campaign specification is invalid or cannot be applied."""


class PropertyError(ReproError):
    """A temporal-property specification is invalid.

    Raised when a :mod:`repro.properties` spec cannot be constructed or
    parsed — an unknown kind, a non-positive deadline, an interaction
    whose trace set cannot be enumerated, malformed JSON fields.
    """


class PropertyViolationError(SimulationError):
    """A monitored temporal property was violated.

    Used by the ``on_violation="supervise"`` escalation path: the
    checker hands the failing part to the supervisor with this error,
    so a violation can trigger restore/restart/quarantine exactly like
    a part crash.  Carries ``property_name`` and the violation detail.
    """

    def __init__(self, message: str, property_name: str = "",
                 detail=None):
        super().__init__(message)
        self.property_name = property_name
        self.detail = detail
