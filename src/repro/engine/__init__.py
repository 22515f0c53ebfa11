"""`repro.engine` — the unified execution core (PR 3).

One :class:`ExecutionEngine` protocol spoken by every behavior engine,
one :class:`TraceBus` carrying every observation, one function
(:func:`build_engine_factory`) binding a behavior to its engine.  See
:mod:`repro.engine.protocol` for the calling convention and
:mod:`repro.engine.trace` for the event vocabulary.
"""

from .protocol import (
    PROTOCOL_ATTRIBUTES,
    PROTOCOL_METHODS,
    ExecutionEngine,
    conforms,
)
from .registry import (
    ENGINE_MODES,
    EngineBinding,
    EngineFactory,
    build_engine_factory,
)
from .trace import (
    CHECKPOINT,
    ENGINE_KINDS,
    EVENT,
    FAULT,
    KINDS,
    MESSAGE_DELIVERED,
    MESSAGE_DROPPED,
    MESSAGE_ROUTED,
    PART_QUARANTINED,
    PART_RESTARTED,
    PART_RESTORED,
    PROPERTY_VIOLATION,
    STATE_ENTER,
    STATE_EXIT,
    SUPERVISOR_DECISION,
    TOKEN,
    TRANSITION,
    JsonlTraceWriter,
    Subscription,
    TraceBus,
    TraceEvent,
    TraceRecorder,
    attach_perf_counters,
)

__all__ = [
    "ExecutionEngine",
    "conforms",
    "PROTOCOL_METHODS",
    "PROTOCOL_ATTRIBUTES",
    "ENGINE_MODES",
    "EngineBinding",
    "EngineFactory",
    "build_engine_factory",
    "TraceBus",
    "TraceEvent",
    "Subscription",
    "TraceRecorder",
    "JsonlTraceWriter",
    "attach_perf_counters",
    "EVENT",
    "TRANSITION",
    "STATE_ENTER",
    "STATE_EXIT",
    "TOKEN",
    "MESSAGE_ROUTED",
    "MESSAGE_DELIVERED",
    "MESSAGE_DROPPED",
    "FAULT",
    "PART_QUARANTINED",
    "PART_RESTARTED",
    "PART_RESTORED",
    "SUPERVISOR_DECISION",
    "CHECKPOINT",
    "PROPERTY_VIOLATION",
    "ENGINE_KINDS",
    "KINDS",
]
