"""The online property checker: monitor automata over the TraceBus.

One :class:`PropertyChecker` subscribes to exactly the trace kinds its
suite needs and advances one small monitor automaton per property on
each received event that the property can match: an index from a
record's ``(kind, part, signal)`` to the monitors that can match it,
filled the first time each key is seen, skips the rest, and a timed
monitor is advanced only once one of its deadlines can have passed.
Everything is driven by *event timestamps in simulated time* — deadline
expiry is detected when an observed event (or the run's finalization)
carries a time past the deadline, never by a wall clock — so verdicts,
violation records, and the ordinals of the emitted
``property_violation`` events are deterministic and identical
across the interpreted and compiled engines.

Violations are first-class robustness events.  Each one

* is appended to the per-property violation list (and therefore the
  :class:`~repro.properties.PropertyReport`),
* is emitted as a typed ``property_violation`` :class:`TraceEvent`
  nested immediately after its witnessing record (flight-recorder
  post-mortems carry it in stream position),
* bumps ``property_violations`` counters into the run's
  :class:`~repro.faults.ResilienceReport`, and
* depending on ``on_violation`` fires the PR 4 incident hooks
  (``"incident"``, the default — the flight recorder auto-dumps) or
  additionally escalates the witnessing part to the Supervisor
  (``"supervise"``); ``"record"`` only records.

Monitor state (pending obligations, armed flags, trie node sets,
violation lists) rides inside ``checkpoint()``/``restore()`` so
verdicts survive rollback recovery exactly like coverage does.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..engine import (MESSAGE_DELIVERED, PROPERTY_VIOLATION, TraceBus,
                      TraceEvent)
from ..errors import PropertyError, PropertyViolationError
from ..perf import PERF
from .spec import (
    AbsenceProperty,
    BoundedLivenessProperty,
    EventMatch,
    InteractionConformanceProperty,
    PrecedenceProperty,
    Property,
    PropertySuite,
    ResponseProperty,
    coerce_suite,
)

Violation = Dict[str, Any]

#: Accepted ``on_violation`` policies.
VIOLATION_POLICIES = ("record", "incident", "supervise")


class _Monitor:
    """Base monitor automaton.

    The checker drives three entry points, all returning freshly
    detected violations as dicts with ``t`` (detection time in
    simulated time) and ``reason``:

    * :meth:`advance` — simulated time reached ``t`` (called before
      feeding the event stamped ``t``); detects strict deadline expiry.
      The checker calls it only on ``timed`` monitors, and only once
      ``t`` is later than :attr:`due`.
    * :meth:`feed` — one subscribed event that :meth:`wants` (monitors
      re-check matching); any other event would leave the monitor as
      it is.
    * :meth:`finalize` — the run ended at ``t``; inclusive deadline
      expiry and end-of-trace obligations (exact conformance).
    """

    #: True for monitors whose :meth:`advance` does work (deadlines).
    timed = False
    #: :meth:`advance` at a time ``t`` detects nothing unless
    #: ``t > due``.
    due = math.inf
    #: the atoms :meth:`feed` checks
    matchers: Tuple[EventMatch, ...] = ()

    def wants(self, kind: str, part: str, signal: Any) -> bool:
        """Whether a record of this ``kind`` at ``part`` carrying this
        ``signal`` (``data.get("signal", "")``) can match an atom; the
        atom still checks the sender."""
        return any(match.kind == kind and match.part in (None, part)
                   and match.signal in (None, signal)
                   for match in self.matchers)

    def advance(self, t: float) -> List[Violation]:
        return []

    def feed(self, event: TraceEvent) -> List[Violation]:
        return []

    def finalize(self, t: float) -> List[Violation]:
        return []

    def stats(self) -> Dict[str, Any]:
        raise NotImplementedError

    def state(self) -> Dict[str, Any]:
        raise NotImplementedError

    def load(self, snap: Dict[str, Any]) -> None:
        raise NotImplementedError


class _ResponseMonitor(_Monitor):
    """FIFO obligation queue: each reaction answers the oldest trigger."""

    timed = True

    def __init__(self, prop: ResponseProperty):
        self.prop = prop
        self.matchers = (prop.trigger, prop.reaction)
        #: open obligations as (trigger_t, deadline) pairs, FIFO.
        self.pending: Deque[Tuple[float, float]] = deque()
        self.triggers = 0
        self.discharged = 0
        self.unmatched_reactions = 0

    @property
    def due(self) -> float:
        return self.pending[0][1] if self.pending else math.inf

    def _expire(self, t: float, inclusive: bool) -> List[Violation]:
        out: List[Violation] = []
        while self.pending:
            trigger_t, deadline = self.pending[0]
            if deadline < t or (inclusive and deadline == t):
                self.pending.popleft()
                out.append({
                    "t": t,
                    "reason": (f"no {self.prop.reaction.describe()} within "
                               f"{self.prop.within} of "
                               f"{self.prop.trigger.describe()} at "
                               f"t={trigger_t} (deadline {deadline})"),
                })
            else:
                break
        return out

    def advance(self, t: float) -> List[Violation]:
        return self._expire(t, inclusive=False)

    def feed(self, event: TraceEvent) -> List[Violation]:
        if self.prop.reaction.matches(event):
            if self.pending:
                self.pending.popleft()
                self.discharged += 1
            else:
                self.unmatched_reactions += 1
        if self.prop.trigger.matches(event):
            self.triggers += 1
            self.pending.append((event.t, event.t + self.prop.within))
        return []

    def finalize(self, t: float) -> List[Violation]:
        return self._expire(t, inclusive=True)

    def stats(self) -> Dict[str, Any]:
        return {"triggers": self.triggers, "discharged": self.discharged,
                "open": len(self.pending),
                "unmatched_reactions": self.unmatched_reactions}

    def state(self) -> Dict[str, Any]:
        return {"pending": [list(entry) for entry in self.pending],
                "triggers": self.triggers, "discharged": self.discharged,
                "unmatched_reactions": self.unmatched_reactions}

    def load(self, snap: Dict[str, Any]) -> None:
        self.pending = deque((entry[0], entry[1])
                             for entry in snap["pending"])
        self.triggers = snap["triggers"]
        self.discharged = snap["discharged"]
        self.unmatched_reactions = snap["unmatched_reactions"]


class _PrecedenceMonitor(_Monitor):
    """Armed by the first ``first``; every unarmed ``then`` violates."""

    def __init__(self, prop: PrecedenceProperty):
        self.prop = prop
        self.matchers = (prop.first, prop.then)
        self.armed = False
        self.firsts = 0
        self.thens = 0

    def feed(self, event: TraceEvent) -> List[Violation]:
        out: List[Violation] = []
        if self.prop.first.matches(event):
            self.armed = True
            self.firsts += 1
        if self.prop.then.matches(event):
            self.thens += 1
            if not self.armed:
                out.append({
                    "t": event.t,
                    "reason": (f"{self.prop.then.describe()} at "
                               f"t={event.t} before any "
                               f"{self.prop.first.describe()}"),
                })
        return out

    def stats(self) -> Dict[str, Any]:
        return {"armed": self.armed, "firsts": self.firsts,
                "thens": self.thens}

    def state(self) -> Dict[str, Any]:
        return {"armed": self.armed, "firsts": self.firsts,
                "thens": self.thens}

    def load(self, snap: Dict[str, Any]) -> None:
        self.armed = snap["armed"]
        self.firsts = snap["firsts"]
        self.thens = snap["thens"]


class _AbsenceMonitor(_Monitor):
    """Every (in-window) occurrence of the forbidden match violates."""

    def __init__(self, prop: AbsenceProperty):
        self.prop = prop
        self.matchers = (prop.never,)
        self.occurrences = 0

    def feed(self, event: TraceEvent) -> List[Violation]:
        if not self.prop.never.matches(event):
            return []
        window = self.prop.window
        if window is not None and not window[0] <= event.t <= window[1]:
            return []
        self.occurrences += 1
        scope = (f" in window [{window[0]}, {window[1]}]"
                 if window is not None else "")
        return [{"t": event.t,
                 "reason": (f"forbidden {self.prop.never.describe()} at "
                            f"t={event.t}{scope}")}]

    def stats(self) -> Dict[str, Any]:
        return {"occurrences": self.occurrences}

    def state(self) -> Dict[str, Any]:
        return {"occurrences": self.occurrences}

    def load(self, snap: Dict[str, Any]) -> None:
        self.occurrences = snap["occurrences"]


class _LivenessMonitor(_Monitor):
    """At least N matches by the (inclusive) deadline."""

    timed = True

    def __init__(self, prop: BoundedLivenessProperty):
        self.prop = prop
        self.matchers = (prop.match,)
        self.count = 0
        self.reported = False

    @property
    def due(self) -> float:
        if self.reported or self.count >= self.prop.at_least:
            return math.inf
        return self.prop.by

    def _shortfall(self, t: float) -> Violation:
        return {"t": t,
                "reason": (f"only {self.count}/{self.prop.at_least} "
                           f"{self.prop.match.describe()} by "
                           f"t={self.prop.by}")}

    def advance(self, t: float) -> List[Violation]:
        if (not self.reported and t > self.prop.by
                and self.count < self.prop.at_least):
            self.reported = True
            return [self._shortfall(t)]
        return []

    def feed(self, event: TraceEvent) -> List[Violation]:
        if self.prop.match.matches(event) and event.t <= self.prop.by:
            self.count += 1
        return []

    def finalize(self, t: float) -> List[Violation]:
        if (not self.reported and t >= self.prop.by
                and self.count < self.prop.at_least):
            self.reported = True
            return [self._shortfall(t)]
        return []

    def stats(self) -> Dict[str, Any]:
        return {"count": self.count, "required": self.prop.at_least,
                "deadline": self.prop.by}

    def state(self) -> Dict[str, Any]:
        return {"count": self.count, "reported": self.reported}

    def load(self, snap: Dict[str, Any]) -> None:
        self.count = snap["count"]
        self.reported = snap["reported"]


class _ConformanceMonitor(_Monitor):
    """Prefix-trie walk over the interaction's alphabet.

    The active node set starts at the root; each alphabet-labelled
    delivery advances it.  Emptying the set means the observed prefix
    left the trace language — one violation, then the monitor goes
    dead (everything after the divergence is already non-conformant).
    """

    def __init__(self, prop: InteractionConformanceProperty):
        self.prop = prop
        self.active: List[int] = [0]
        self.dead = False
        self.consumed = 0

    def wants(self, kind: str, part: str, signal: Any) -> bool:
        suffix = f"->{part}:{signal}"
        return kind == MESSAGE_DELIVERED and any(
            label.endswith(suffix) for label in self.prop.alphabet)

    def feed(self, event: TraceEvent) -> List[Violation]:
        if self.dead or event.kind != MESSAGE_DELIVERED:
            return []
        sender = event.data.get("sender", "env")
        if sender == "env" and not self.prop.include_env:
            return []
        label = f"{sender}->{event.part}:{event.data.get('signal', '')}"
        if label not in self.prop.alphabet:
            return []
        nodes = self.prop.nodes
        advanced = sorted({nodes[index]["edges"][label]
                           for index in self.active
                           if label in nodes[index]["edges"]})
        self.consumed += 1
        if not advanced:
            self.dead = True
            return [{"t": event.t,
                     "reason": (f"trace diverged from interaction "
                                f"{self.prop.name!r} at message "
                                f"{self.consumed} ({label})")}]
        self.active = advanced
        return []

    def finalize(self, t: float) -> List[Violation]:
        if self.dead or not self.prop.complete:
            return []
        nodes = self.prop.nodes
        if any(nodes[index]["end"] for index in self.active):
            return []
        return [{"t": t,
                 "reason": (f"run ended after {self.consumed} messages "
                            f"on an incomplete prefix of interaction "
                            f"{self.prop.name!r}")}]

    def stats(self) -> Dict[str, Any]:
        return {"consumed": self.consumed, "diverged": self.dead,
                "alphabet": len(self.prop.alphabet)}

    def state(self) -> Dict[str, Any]:
        return {"active": list(self.active), "dead": self.dead,
                "consumed": self.consumed}

    def load(self, snap: Dict[str, Any]) -> None:
        self.active = list(snap["active"])
        self.dead = snap["dead"]
        self.consumed = snap["consumed"]


_MONITOR_FOR = {
    ResponseProperty: _ResponseMonitor,
    PrecedenceProperty: _PrecedenceMonitor,
    AbsenceProperty: _AbsenceMonitor,
    BoundedLivenessProperty: _LivenessMonitor,
    InteractionConformanceProperty: _ConformanceMonitor,
}


def _build_monitor(prop: Property) -> _Monitor:
    builder = _MONITOR_FOR.get(type(prop))
    if builder is None:  # subclass lookup fallback
        for prop_type, monitor_type in _MONITOR_FOR.items():
            if isinstance(prop, prop_type):
                builder = monitor_type
                break
    if builder is None:
        raise PropertyError(
            f"no monitor for property type {type(prop).__name__}")
    return builder(prop)


class PropertyChecker:
    """Evaluates a :class:`PropertySuite` online against one TraceBus.

    Attach with a bus (and optionally the owning
    :class:`~repro.simulation.cosim.SystemSimulation` for incident /
    supervisor / resilience integration), let the run emit, then call
    :meth:`finalize` with the end-of-run simulated time to flush
    deadline and completeness obligations.  :meth:`report` returns the
    per-run :class:`~repro.properties.PropertyReport`.
    """

    def __init__(self, suite, bus: TraceBus, simulation=None,
                 on_violation: str = "incident"):
        if on_violation not in VIOLATION_POLICIES:
            raise PropertyError(
                f"on_violation must be one of {VIOLATION_POLICIES}, "
                f"got {on_violation!r}")
        self.suite: PropertySuite = coerce_suite(suite)
        self.bus = bus
        self.simulation = simulation
        self.on_violation = on_violation
        self._monitors: List[Tuple[Property, _Monitor]] = [
            (prop, _build_monitor(prop)) for prop in self.suite]
        self._timed = [(prop, monitor) for prop, monitor in self._monitors
                       if monitor.timed]
        #: (kind, part, signal) -> (the monitors that want such a
        #: record, in suite order; whether one of them is timed)
        self._index: Dict[Tuple[str, str, Any],
                          Tuple[List[Tuple[Property, _Monitor]], bool]] = {}
        self._gate()
        self._violations: Dict[str, List[Violation]] = {
            prop.name: [] for prop in self.suite}
        self._finalized_at: Optional[float] = None
        self.subscription = bus.subscribe(
            self._ingest, kinds=self.suite.event_kinds())

    # -- online evaluation -------------------------------------------------

    def _ingest(self, event: TraceEvent) -> None:
        PERF.incr("properties.events")
        if event.t > self._due:
            self._advance(event)
        key = (event.kind, event.part, event.data.get("signal", ""))
        entry = self._index.get(key)
        if entry is None:
            fed = [(prop, monitor) for prop, monitor in self._monitors
                   if monitor.wants(*key)]
            entry = self._index[key] = (
                fed, any(monitor.timed for _prop, monitor in fed))
        fed, timed = entry
        for prop, monitor in fed:
            for violation in monitor.feed(event):
                self._report_violation(prop, violation, witness=event)
        if timed:
            self._gate()

    def _advance(self, event: TraceEvent) -> None:
        """Advance, in suite order, the timed monitors that are due."""
        t = event.t
        for prop, monitor in self._timed:
            if t > monitor.due:
                for violation in monitor.advance(t):
                    self._report_violation(prop, violation, witness=event)
        self._gate()

    def _gate(self) -> None:
        """``_due``: the earliest ``due`` of the timed monitors."""
        self._due = min((monitor.due for _prop, monitor in self._timed),
                        default=math.inf)

    def finalize(self, now: float) -> None:
        """End-of-run sweep at simulated time ``now`` (idempotent).

        Flushes inclusive deadline expiry (response obligations whose
        deadline coincides with the end of the run, liveness
        shortfalls) and exact-conformance completeness checks.
        """
        if self._finalized_at is not None:
            return
        for prop, monitor in self._monitors:
            for violation in monitor.finalize(now):
                self._report_violation(prop, violation, witness=None)
        self._gate()
        self._finalized_at = now

    def _report_violation(self, prop: Property, violation: Violation,
                          witness: Optional[TraceEvent]) -> None:
        record: Violation = {
            "property": prop.name,
            "kind": prop.kind,
            "t": violation["t"],
            "at": witness.ordinal if witness is not None else None,
            "reason": violation["reason"],
        }
        self._violations[prop.name].append(record)
        PERF.incr("properties.violations")

        part = witness.part if witness is not None else ""
        # Nested emit: the violation lands immediately after its witness
        # in every subscriber's stream (ordinal = witness + 1); with no
        # subscriber for the kind, no payload is built.
        if PROPERTY_VIOLATION in self.bus.active_kinds:
            self.bus.emit(PROPERTY_VIOLATION, record["t"], part,
                          {"property": prop.name,
                           "property_kind": prop.kind,
                           "reason": record["reason"],
                           "sequence": len(self._violations[prop.name])})

        simulation = self.simulation
        if simulation is None:
            return
        simulation.resilience.bump("property_violations")
        simulation.resilience.bump(f"property_violated.{prop.name}")
        if self.on_violation == "record":
            return
        simulation._fire_incident(
            "property_violation", f"{prop.name}: {record['reason']}")
        if self.on_violation == "supervise" and part \
                and simulation.on_part_error != "raise":
            # Hand the witnessing part to the supervisor like a crash;
            # with policy "raise" we stay incident-only — raising out
            # of a trace callback would detach the checker instead of
            # stopping the run.
            simulation._part_failed(
                part,
                PropertyViolationError(
                    f"property {prop.name!r} violated: {record['reason']}",
                    property_name=prop.name, detail=record))

    # -- results -----------------------------------------------------------

    @property
    def total_violations(self) -> int:
        """Violations recorded so far, across all properties."""
        return sum(len(violations)
                   for violations in self._violations.values())

    def violations(self, name: Optional[str] = None) -> List[Violation]:
        """The recorded violations (one property's, or all, in order)."""
        if name is not None:
            if name not in self._violations:
                raise PropertyError(f"unknown property {name!r}")
            return list(self._violations[name])
        merged: List[Violation] = []
        for prop in self.suite:
            merged.extend(self._violations[prop.name])
        return merged

    def verdicts(self) -> Dict[str, str]:
        """``{property name: "pass" | "violated"}`` in suite order."""
        return {prop.name: ("violated" if self._violations[prop.name]
                            else "pass")
                for prop in self.suite}

    def report(self):
        """The per-run :class:`~repro.properties.PropertyReport`."""
        from .report import PropertyReport

        return PropertyReport.from_checker(self)

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-property monitor statistics (triggers, counts, ...)."""
        return {prop.name: monitor.stats()
                for prop, monitor in self._monitors}

    def detach(self) -> None:
        """Unsubscribe from the bus (idempotent)."""
        self.subscription.cancel()

    # -- checkpoint / restore ---------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot every monitor plus the recorded violations."""
        return {
            "monitors": {prop.name: monitor.state()
                         for prop, monitor in self._monitors},
            "violations": {name: [dict(v) for v in violations]
                           for name, violations in self._violations.items()},
            "finalized_at": self._finalized_at,
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        """Rewind monitors and violation lists to a snapshot."""
        for prop, monitor in self._monitors:
            monitor.load(snap["monitors"][prop.name])
        self._gate()
        self._violations = {
            name: [dict(v) for v in violations]
            for name, violations in snap["violations"].items()}
        self._finalized_at = snap["finalized_at"]

    def __repr__(self) -> str:
        return (f"<PropertyChecker suite={self.suite.name!r} "
                f"properties={len(self.suite)} "
                f"violations={self.total_violations}>")
