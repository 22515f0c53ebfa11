"""Typed execution tracing: :class:`TraceEvent` records on a :class:`TraceBus`.

The unified execution core (PR 3) replaces the per-channel observation
hooks that had accreted around the three engines — cosimulation message
logs, the interactions observer, ``repro.perf`` cosim counters and the
fault/resilience accounting — with **one** publish/subscribe stream of
typed records.  Every engine (interpreted state machines, compiled
dispatch tables, the activities token game) and the cosimulation
harness emit the same vocabulary of events, stamped with *simulated*
time and a stable per-bus ordinal, so

* sequence-diagram extraction, fault accounting and perf counting are
  plain subscribers that work identically for every engine, and
* determinism is checkable byte-for-byte: two runs (or the interpreted
  and compiled engine over the same model and seed) must produce
  identical serialized streams.

Performance contract: an emit with no subscriber for its kind is one
dict lookup and a return.  The high-frequency *engine-level* kinds
(event dispatched, transition fired, state entered/exited, token moved)
are additionally gated at the call site by :attr:`TraceBus.engine_active`,
a plain attribute maintained on (un)subscribe — so a bus that only
carries message/fault subscribers (the cosimulation default) costs the
engines a single attribute check per run-to-completion step.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import SimulationError

# ---------------------------------------------------------------------------
# The event vocabulary.
#
# NOTE: the engine modules (statemachines.runtime, statemachines.compiled,
# activities.engine) emit these kinds as literal strings to stay free of
# any import on this package; test_trace_bus pins the literals to these
# constants so they cannot drift apart.
# ---------------------------------------------------------------------------

#: An engine dequeued one event occurrence for a run-to-completion step.
EVENT = "event"
#: A transition fired (source, target, triggering event).
TRANSITION = "transition"
#: A state became active (before its entry action runs).
STATE_ENTER = "state_enter"
#: A state was exited (after its exit action ran).
STATE_EXIT = "state_exit"
#: An activity node fired, moving tokens (node, variant).
TOKEN = "token"
#: The harness routed a signal out of a part's port.
MESSAGE_ROUTED = "message_routed"
#: The harness delivered a signal into a part.
MESSAGE_DELIVERED = "message_delivered"
#: The harness dropped a signal (unrouted port, quarantined part, ...).
MESSAGE_DROPPED = "message_dropped"
#: The fault injector fired a campaign spec on a routed signal.
FAULT = "fault"
#: The degradation policy quarantined a part.
PART_QUARANTINED = "part_quarantined"
#: The degradation policy restarted a part.
PART_RESTARTED = "part_restarted"
#: The recovery machinery rolled a part back to its last snapshot.
PART_RESTORED = "part_restored"
#: The supervisor chose a recovery action for a failing part.
SUPERVISOR_DECISION = "supervisor_decision"
#: The harness took a periodic per-part recovery checkpoint.
CHECKPOINT = "checkpoint"
#: The online property checker detected a temporal-assertion violation.
#: Emitted by :class:`repro.properties.PropertyChecker` as a nested
#: event immediately after the witnessing record (or at finalization
#: for deadline/liveness expiries), so post-mortems carry the violation
#: in stream position.
PROPERTY_VIOLATION = "property_violation"

#: High-frequency kinds emitted from inside the engines; call sites gate
#: these on :attr:`TraceBus.engine_active`.
ENGINE_KINDS = (EVENT, TRANSITION, STATE_ENTER, STATE_EXIT, TOKEN)

#: Every kind the bus knows, in a stable order (wildcard subscriptions
#: expand to exactly this tuple).
KINDS = ENGINE_KINDS + (MESSAGE_ROUTED, MESSAGE_DELIVERED, MESSAGE_DROPPED,
                        FAULT, PART_QUARANTINED, PART_RESTARTED,
                        PART_RESTORED, SUPERVISOR_DECISION, CHECKPOINT,
                        PROPERTY_VIOLATION)

_ENGINE_KIND_SET = frozenset(ENGINE_KINDS)
_KIND_SET = frozenset(KINDS)


class TraceEvent:
    """One typed observation: what happened, where, and when.

    ``ordinal`` is the bus-assigned sequence number (1-based, gapless
    over the emitted stream), ``t`` the *simulated* time stamp, ``part``
    the part name (or ``""`` for harness-level events without one) and
    ``data`` the kind-specific payload.  Events are value objects:
    equality and hashing follow :meth:`to_dict`.
    """

    __slots__ = ("ordinal", "t", "kind", "part", "data")

    def __init__(self, ordinal: int, t: float, kind: str, part: str,
                 data: Dict[str, Any]):
        self.ordinal = ordinal
        self.t = t
        self.kind = kind
        self.part = part
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (stable key order: identity, then payload)."""
        record: Dict[str, Any] = {
            "ordinal": self.ordinal, "t": self.t, "kind": self.kind,
            "part": self.part,
        }
        for key in sorted(self.data):
            record[key] = self.data[key]
        return record

    def to_json(self) -> str:
        """One compact JSON line (the ``--trace`` stream format)."""
        return json.dumps(self.to_dict(), separators=(",", ":"),
                          default=str)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.ordinal == other.ordinal and self.t == other.t
                and self.kind == other.kind and self.part == other.part
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.ordinal, self.t, self.kind, self.part))

    def __repr__(self) -> str:
        return (f"<TraceEvent #{self.ordinal} t={self.t} {self.kind} "
                f"{self.part!r} {self.data!r}>")


class Subscription:
    """Handle returned by :meth:`TraceBus.subscribe`; call :meth:`cancel`
    (or use it as a context manager) to detach."""

    __slots__ = ("bus", "callback", "kinds", "active")

    def __init__(self, bus: "TraceBus", callback: Callable[[TraceEvent], None],
                 kinds: Tuple[str, ...]):
        self.bus = bus
        self.callback = callback
        self.kinds = kinds
        self.active = True

    def cancel(self) -> None:
        """Detach the subscriber (idempotent)."""
        if self.active:
            self.active = False
            self.bus._detach(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> bool:
        self.cancel()
        return False


class TraceBus:
    """Publish/subscribe hub for :class:`TraceEvent` records.

    Subscribers declare the kinds they want; ``emit`` resolves the
    kind's subscriber tuple with one dict lookup and returns immediately
    when it is empty.  Ordinals are assigned only to *emitted* events
    (those with at least one subscriber), monotonically from 1, and are
    checkpointable so a checkpoint → run → restore → replay cycle
    reproduces the identical stream.
    """

    def __init__(self) -> None:
        self._by_kind: Dict[str, Tuple[Callable[[TraceEvent], None], ...]] = {}
        self._subscriptions: List[Subscription] = []
        self._ordinal = 0
        #: True when any subscriber wants an engine-level kind; engines
        #: check this attribute before building their event payloads.
        self.engine_active = False
        #: The kinds with at least one subscriber; hot emit sites test
        #: ``kind in bus.active_kinds`` before building a payload dict,
        #: so an unobserved kind costs one set-membership check.
        self.active_kinds: frozenset = frozenset()
        #: Causal provenance (PR 9).  ``cause`` is a register the
        #: engines and the harness point at the ordinal of the record
        #: that *caused* whatever is emitted next (delivery -> event,
        #: event -> transition, transition -> exit/effect/enter, ...);
        #: while ``causal`` is on, :meth:`emit` stamps the register into
        #: each payload as an optional ``cause`` field.  Off by default
        #: so the unobserved hot path pays nothing.
        self.causal = False
        self.cause: Optional[int] = None

    # -- subscription ------------------------------------------------------

    def subscribe(self, callback: Callable[[TraceEvent], None],
                  kinds: Optional[Iterable[str]] = None) -> Subscription:
        """Attach ``callback`` for ``kinds`` (default: every kind).

        Returns a :class:`Subscription`; callbacks fire synchronously,
        in subscription order, at the emit site.
        """
        wanted = KINDS if kinds is None else tuple(kinds)
        for kind in wanted:
            if kind not in _KIND_SET:
                raise SimulationError(
                    f"unknown trace kind {kind!r}; choose from {KINDS}")
        subscription = Subscription(self, callback, wanted)
        self._subscriptions.append(subscription)
        self._rebuild()
        return subscription

    def _detach(self, subscription: Subscription) -> None:
        self._subscriptions = [s for s in self._subscriptions
                               if s is not subscription]
        self._rebuild()

    def _rebuild(self) -> None:
        by_kind: Dict[str, List[Callable[[TraceEvent], None]]] = {}
        for subscription in self._subscriptions:
            for kind in subscription.kinds:
                by_kind.setdefault(kind, []).append(subscription.callback)
        self._by_kind = {kind: tuple(callbacks)
                         for kind, callbacks in by_kind.items()}
        self.engine_active = any(kind in _ENGINE_KIND_SET
                                 for kind in self._by_kind)
        self.active_kinds = frozenset(self._by_kind)

    @property
    def subscriber_count(self) -> int:
        """Number of attached subscriptions."""
        return len(self._subscriptions)

    # -- emission ----------------------------------------------------------

    def emit(self, kind: str, t: float, part: str,
             data: Dict[str, Any]) -> Optional[TraceEvent]:
        """Publish one event; returns it, or None when nobody listens.

        A subscriber that raises is *detached* (with a warning and a
        ``trace.subscriber_errors`` perf count) rather than allowed to
        kill the simulation: observation must never change the outcome
        of the thing being observed.  The remaining subscribers still
        receive the event.
        """
        callbacks = self._by_kind.get(kind)
        if not callbacks:
            return None
        self._ordinal += 1
        if self.causal and self.cause is not None and "cause" not in data:
            data["cause"] = self.cause
        event = TraceEvent(self._ordinal, t, kind, part, data)
        for callback in callbacks:
            try:
                callback(event)
            except Exception as error:  # noqa: BLE001 - observer fault
                self._subscriber_failed(callback, event, error)
        return event

    def _subscriber_failed(self, callback: Callable[[TraceEvent], None],
                           event: TraceEvent, error: BaseException) -> None:
        """Detach a raising subscriber; the simulation keeps running."""
        import warnings

        from ..perf import PERF

        for subscription in [s for s in self._subscriptions
                             if s.callback is callback]:
            subscription.cancel()
        PERF.incr("trace.subscriber_errors")
        warnings.warn(
            f"trace subscriber {callback!r} raised "
            f"{type(error).__name__}: {error} on {event.kind!r} event "
            f"#{event.ordinal}; subscriber detached",
            RuntimeWarning, stacklevel=3)

    @property
    def events_emitted(self) -> int:
        """Ordinal of the last emitted event (0 when none)."""
        return self._ordinal

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Capture the ordinal counter and the causal register
        (subscribers are not state)."""
        return {"ordinal": self._ordinal, "cause": self.cause}

    def restore(self, snap: Dict[str, Any]) -> None:
        """Rewind the ordinal counter (and causal register) to a
        checkpointed value."""
        self._ordinal = snap["ordinal"]
        self.cause = snap.get("cause")

    def __repr__(self) -> str:
        return (f"<TraceBus subscribers={len(self._subscriptions)} "
                f"emitted={self._ordinal}>")


# ---------------------------------------------------------------------------
# Stock subscribers
# ---------------------------------------------------------------------------


class TraceRecorder:
    """Collects every received event in :attr:`events` (test/analysis aid)."""

    def __init__(self, bus: Optional[TraceBus] = None,
                 kinds: Optional[Iterable[str]] = None):
        self.events: List[TraceEvent] = []
        self.subscription: Optional[Subscription] = None
        if bus is not None:
            self.subscription = bus.subscribe(self, kinds=kinds)

    def __call__(self, event: TraceEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """The recorded events of one kind, in emission order."""
        return [event for event in self.events if event.kind == kind]

    def to_jsonl(self) -> str:
        """The whole recording as JSON Lines (byte-comparable)."""
        return "\n".join(event.to_json() for event in self.events)

    def clear(self) -> None:
        self.events.clear()


class JsonlTraceWriter:
    """Streams each event as one JSON line into a writable text stream."""

    def __init__(self, stream, bus: Optional[TraceBus] = None,
                 kinds: Optional[Iterable[str]] = None):
        self.stream = stream
        self.lines_written = 0
        self.subscription: Optional[Subscription] = None
        if bus is not None:
            self.subscription = bus.subscribe(self, kinds=kinds)

    def __call__(self, event: TraceEvent) -> None:
        self.stream.write(event.to_json())
        self.stream.write("\n")
        self.lines_written += 1


def attach_perf_counters(bus: TraceBus, prefix: str = "trace",
                         kinds: Optional[Iterable[str]] = None) -> Subscription:
    """Count emitted events into :data:`repro.perf.PERF` per kind.

    Each event bumps ``<prefix>.<kind>`` — the cosim counters that used
    to be hand-maintained inside the harness, now just one subscriber.
    """
    from ..perf import PERF

    def count(event: TraceEvent) -> None:
        PERF.incr(f"{prefix}.{event.kind}")

    return bus.subscribe(count, kinds=kinds)
