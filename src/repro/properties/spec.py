"""Temporal-property specifications over the typed trace stream.

The paper's claim is that UML 2.0 can serve as a *complete system
specification*; PR 2–6 made fault campaigns report survival, this
module makes them report **correctness**.  A :class:`Property` is a
declarative temporal assertion over :class:`~repro.engine.TraceEvent`
records — evaluated online by :class:`~repro.properties.PropertyChecker`
as a small monitor automaton over *simulated* time, so verdicts are
deterministic and byte-identical across the interpreted and compiled
engines.

The vocabulary follows the classic specification-pattern catalogue:

* :func:`response` — every ``trigger`` is answered by a ``reaction``
  within a simulated-time deadline;
* :func:`precedence` — ``then`` never happens before its enabling
  ``first``;
* :func:`absence` — a match never occurs (optionally restricted to a
  time window);
* :func:`bounded_liveness` — at least N matches by time T;
* :func:`interaction_conformance` — the observed message trace stays a
  prefix of (or, with ``complete=True``, is a member of) the trace
  language of an S4 sequence diagram, compiled via
  :mod:`repro.interactions`.

Atoms are :class:`EventMatch` predicates on (kind, signal, receiving
part, sender); suites round-trip through JSON (``props.json``) for the
``simulate --properties`` / ``campaign --properties`` CLI surface.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..engine import KINDS, MESSAGE_DELIVERED, PROPERTY_VIOLATION, TraceEvent
from ..errors import PropertyError

#: Shorthand accepted wherever an atom is expected: an EventMatch, a
#: signal name, or a mapping of EventMatch fields.
MatchLike = Union["EventMatch", str, Dict[str, Any]]

_KIND_SET = frozenset(KINDS)


class EventMatch:
    """A predicate over trace events: kind plus optional field filters.

    ``signal`` and ``sender`` match against the event payload,
    ``part`` against the event's (receiving) part.  The default kind is
    ``message_delivered`` — the one stream every engine emits
    identically regardless of engine tier, which is what keeps property
    verdicts byte-identical across interpreted and compiled runs.
    """

    __slots__ = ("kind", "signal", "part", "sender")

    def __init__(self, signal: Optional[str] = None,
                 part: Optional[str] = None,
                 sender: Optional[str] = None,
                 kind: str = MESSAGE_DELIVERED):
        if kind not in _KIND_SET:
            raise PropertyError(
                f"unknown trace kind {kind!r}; choose from {KINDS}")
        if kind == PROPERTY_VIOLATION:
            raise PropertyError(
                "properties cannot match property_violation events "
                "(the checker must not observe itself)")
        if signal is None and part is None and sender is None:
            raise PropertyError(
                f"event match on {kind!r} needs at least one of "
                "signal/part/sender")
        self.kind = kind
        self.signal = signal
        self.part = part
        self.sender = sender

    def matches(self, event: TraceEvent) -> bool:
        """True when the event satisfies every configured filter."""
        if event.kind != self.kind:
            return False
        if self.part is not None and event.part != self.part:
            return False
        data = event.data
        if self.signal is not None and data.get("signal") != self.signal:
            return False
        if self.sender is not None and data.get("sender") != self.sender:
            return False
        return True

    def describe(self) -> str:
        """Compact human-readable form for violation messages."""
        bits = []
        if self.signal is not None:
            bits.append(self.signal)
        if self.sender is not None:
            bits.append(f"from {self.sender}")
        if self.part is not None:
            bits.append(f"to {self.part}")
        body = " ".join(bits) if bits else "*"
        if self.kind == MESSAGE_DELIVERED:
            return body
        return f"{self.kind}({body})"

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        if self.kind != MESSAGE_DELIVERED:
            record["kind"] = self.kind
        for key in ("signal", "part", "sender"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EventMatch":
        if not isinstance(data, dict):
            raise PropertyError(f"event match must be a mapping: {data!r}")
        unknown = set(data) - {"kind", "signal", "part", "sender"}
        if unknown:
            raise PropertyError(
                f"unknown event-match fields {sorted(unknown)}")
        return cls(signal=data.get("signal"), part=data.get("part"),
                   sender=data.get("sender"),
                   kind=data.get("kind", MESSAGE_DELIVERED))

    def __repr__(self) -> str:
        return f"<EventMatch {self.describe()}>"


def _coerce_match(value: MatchLike, what: str) -> EventMatch:
    if isinstance(value, EventMatch):
        return value
    if isinstance(value, str):
        return EventMatch(signal=value)
    if isinstance(value, dict):
        return EventMatch.from_dict(value)
    raise PropertyError(
        f"{what} must be an EventMatch, a signal name or a mapping; "
        f"got {value!r}")


class Property:
    """Base class: a named temporal assertion with a serializable spec.

    Subclasses define :attr:`kind`, their parameters and
    :meth:`to_dict`; the checker builds the matching monitor automaton.
    """

    kind = ""

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise PropertyError(f"property needs a non-empty name: {name!r}")
        self.name = name

    def event_kinds(self) -> Tuple[str, ...]:
        """Trace kinds this property needs the checker to subscribe to."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Property":
        """Rebuild any property from its :meth:`to_dict` form."""
        if not isinstance(data, dict):
            raise PropertyError(f"property spec must be a mapping: {data!r}")
        kind = data.get("kind")
        builder = _FROM_DICT.get(kind)
        if builder is None:
            raise PropertyError(
                f"unknown property kind {kind!r}; choose from "
                f"{sorted(_FROM_DICT)}")
        return builder(data)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class ResponseProperty(Property):
    """Every ``trigger`` is answered by a ``reaction`` within ``within``.

    The deadline is inclusive: a reaction stamped exactly at
    ``trigger_t + within`` satisfies the obligation.  Pending triggers
    discharge FIFO (each reaction answers the oldest open trigger), and
    obligations still open when simulated time passes the deadline —
    detected on the next observed event, or at run finalization — are
    violations.
    """

    kind = "response"

    def __init__(self, name: str, trigger: MatchLike, reaction: MatchLike,
                 within: float):
        super().__init__(name)
        self.trigger = _coerce_match(trigger, "trigger")
        self.reaction = _coerce_match(reaction, "reaction")
        within = float(within)
        if within <= 0:
            raise PropertyError(
                f"response {name!r}: within must be > 0, got {within}")
        self.within = within

    def event_kinds(self) -> Tuple[str, ...]:
        return tuple({self.trigger.kind, self.reaction.kind})

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "trigger": self.trigger.to_dict(),
                "reaction": self.reaction.to_dict(),
                "within": self.within}


class PrecedenceProperty(Property):
    """``then`` must never occur before its enabling ``first``.

    The monitor is armed by the first occurrence of ``first``; any
    ``then`` observed while unarmed is a violation (each one is
    reported, the monitor stays alive).
    """

    kind = "precedence"

    def __init__(self, name: str, first: MatchLike, then: MatchLike):
        super().__init__(name)
        self.first = _coerce_match(first, "first")
        self.then = _coerce_match(then, "then")

    def event_kinds(self) -> Tuple[str, ...]:
        return tuple({self.first.kind, self.then.kind})

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "first": self.first.to_dict(),
                "then": self.then.to_dict()}


class AbsenceProperty(Property):
    """A ``never`` match must not occur (within an optional window).

    ``window=(t0, t1)`` restricts the prohibition to simulated times
    ``t0 <= t <= t1``; without a window it is global.
    """

    kind = "absence"

    def __init__(self, name: str, never: MatchLike,
                 window: Optional[Tuple[float, float]] = None):
        super().__init__(name)
        self.never = _coerce_match(never, "never")
        if window is not None:
            try:
                t0, t1 = float(window[0]), float(window[1])
            except (TypeError, ValueError, IndexError):
                raise PropertyError(
                    f"absence {name!r}: window must be (t0, t1), "
                    f"got {window!r}") from None
            if t1 < t0:
                raise PropertyError(
                    f"absence {name!r}: empty window ({t0}, {t1})")
            window = (t0, t1)
        self.window = window

    def event_kinds(self) -> Tuple[str, ...]:
        return (self.never.kind,)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"kind": self.kind, "name": self.name,
                                  "never": self.never.to_dict()}
        if self.window is not None:
            record["window"] = list(self.window)
        return record


class BoundedLivenessProperty(Property):
    """At least ``at_least`` matches must occur by simulated time ``by``.

    The deadline is inclusive; the shortfall is detected as soon as
    observed time passes ``by``, or at run finalization.
    """

    kind = "bounded_liveness"

    def __init__(self, name: str, match: MatchLike, at_least: int,
                 by: float):
        super().__init__(name)
        self.match = _coerce_match(match, "match")
        at_least = int(at_least)
        if at_least < 1:
            raise PropertyError(
                f"bounded_liveness {name!r}: at_least must be >= 1, "
                f"got {at_least}")
        by = float(by)
        if by < 0:
            raise PropertyError(
                f"bounded_liveness {name!r}: by must be >= 0, got {by}")
        self.at_least = at_least
        self.by = by

    def event_kinds(self) -> Tuple[str, ...]:
        return (self.match.kind,)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "match": self.match.to_dict(),
                "at_least": self.at_least, "by": self.by}


class InteractionConformanceProperty(Property):
    """The observed message trace stays within an interaction's language.

    The interaction's (bounded) trace set is compiled **once** into a
    prefix trie at construction; online, the monitor advances a set of
    trie nodes on each delivered message whose canonical label
    (``sender->receiver:signal``) is in the interaction's alphabet —
    messages outside the alphabet are ignored, so a conformance check
    composes with unrelated traffic.  An advance that empties the node
    set is a violation (the observed prefix left the language); with
    ``complete=True`` the run must additionally end on an accepting
    node (a full trace, not just a viable prefix).
    """

    kind = "interaction"

    def __init__(self, name: str, trace_set: Sequence[Sequence[str]],
                 complete: bool = False, include_env: bool = False,
                 messages: Optional[Sequence[Sequence[str]]] = None,
                 loop: Optional[Tuple[int, int]] = None):
        super().__init__(name)
        traces = list(map(tuple, trace_set))
        # enumerated and JSON traces hold str labels already, and reading
        # the label types costs a fraction of converting every label
        if set(map(type, chain.from_iterable(traces))) - {str}:
            traces = [tuple(map(str, trace)) for trace in traces]
        traces = sorted(set(traces))
        if not traces:
            raise PropertyError(
                f"interaction {name!r}: empty trace set")
        self.trace_set = tuple(traces)
        self.complete = bool(complete)
        self.include_env = bool(include_env)
        # Retained only so to_dict round-trips the compact authored form.
        self.messages = (tuple(tuple(m) for m in messages)
                         if messages is not None else None)
        self.loop = tuple(loop) if loop is not None else None
        self.nodes: List[Dict[str, Any]]
        self.alphabet: frozenset
        self._compile_trie()

    def _compile_trie(self) -> None:
        """One pass over the sorted traces.  A trace shares with the
        trie exactly its common prefix with the trace before it, so only
        the suffix past that prefix is new; nodes are numbered in the
        order that inserting each trace from the root would give."""
        nodes: List[Dict[str, Any]] = [{"edges": {}, "end": False}]
        path = [0]  # path[k]: the node of the previous trace's k-prefix
        previous: Tuple[str, ...] = ()
        for trace in self.trace_set:
            shared = len(previous)
            if trace[:shared] != previous:
                # sorted and distinct: the two differ before either ends
                shared = 0
                while previous[shared] == trace[shared]:
                    shared += 1
                del path[shared + 1:]
            node = path[shared]
            edges = nodes[node]["edges"]
            for label in trace[shared:]:
                node = len(nodes)
                edges[label] = node
                edges = {}
                nodes.append({"edges": edges, "end": False})
                path.append(node)
            nodes[node]["end"] = True
            previous = trace
        self.nodes = nodes
        self.alphabet = frozenset().union(*[node["edges"] for node in nodes])

    def event_kinds(self) -> Tuple[str, ...]:
        return (MESSAGE_DELIVERED,)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"kind": self.kind, "name": self.name}
        if self.messages is not None:
            record["messages"] = [list(m) for m in self.messages]
            if self.loop is not None:
                record["loop"] = list(self.loop)
        else:
            record["traces"] = [list(t) for t in self.trace_set]
        if self.complete:
            record["complete"] = True
        if self.include_env:
            record["include_env"] = True
        return record


def response(name: str, trigger: MatchLike, reaction: MatchLike,
             within: float) -> ResponseProperty:
    """``trigger`` ⇒ ``reaction`` within ``within`` simulated time units."""
    return ResponseProperty(name, trigger, reaction, within)


def precedence(name: str, first: MatchLike,
               then: MatchLike) -> PrecedenceProperty:
    """``then`` must be preceded by at least one ``first``."""
    return PrecedenceProperty(name, first, then)


def absence(name: str, never: MatchLike,
            window: Optional[Tuple[float, float]] = None) -> AbsenceProperty:
    """``never`` must not occur (optionally only inside ``window``)."""
    return AbsenceProperty(name, never, window)


def bounded_liveness(name: str, match: MatchLike, at_least: int,
                     by: float) -> BoundedLivenessProperty:
    """At least ``at_least`` occurrences of ``match`` by time ``by``."""
    return BoundedLivenessProperty(name, match, at_least, by)


def interaction_conformance(name: str, interaction=None,
                            messages: Optional[Sequence[Sequence[str]]] = None,
                            loop: Optional[Tuple[int, int]] = None,
                            complete: bool = False,
                            include_env: bool = False,
                            env: Optional[Dict[str, Any]] = None,
                            limit: int = 10_000,
                            ) -> InteractionConformanceProperty:
    """Conformance against an S4 sequence diagram.

    Pass either an :class:`~repro.interactions.Interaction` (its trace
    set is enumerated via :func:`repro.interactions.traces`, bounded by
    ``limit``) or the compact JSON-able form: ``messages`` as a list of
    ``(sender, receiver, signal)`` triples, optionally repeated under a
    ``loop=(min, max)`` fragment.  ``limit`` bounds the number of
    traces and the labels of a loop's longest trace: for the compact
    form exactly, for an ``Interaction`` as
    :func:`repro.interactions.traces` does (never below 1,000 labels).
    """
    from ..errors import InteractionError

    if (interaction is None) == (messages is None):
        raise PropertyError(
            f"interaction {name!r}: give exactly one of interaction= "
            "or messages=")
    if interaction is None:
        interaction = _interaction_from_spec(name, messages, loop, limit)
    from ..interactions import traces as enumerate_traces

    try:
        trace_set = enumerate_traces(interaction, env=env, limit=limit)
    except InteractionError as error:
        raise PropertyError(
            f"interaction {name!r}: cannot enumerate trace set: "
            f"{error}") from error
    return InteractionConformanceProperty(
        name, trace_set, complete=complete, include_env=include_env,
        messages=messages, loop=loop)


def _interaction_from_spec(name: str, messages: Sequence[Sequence[str]],
                           loop: Optional[Tuple[int, int]], limit: int):
    """Build an Interaction from (sender, receiver, signal) triples."""
    from ..interactions.model import (
        Interaction, Lifeline, Message, MessageSort)

    triples: List[Tuple[str, str, str]] = []
    for entry in messages:
        try:
            sender, receiver, signal = entry
        except (TypeError, ValueError):
            raise PropertyError(
                f"interaction {name!r}: each message must be "
                f"(sender, receiver, signal), got {entry!r}") from None
        triples.append((str(sender), str(receiver), str(signal)))
    if not triples:
        raise PropertyError(f"interaction {name!r}: no messages")

    interaction = Interaction(name)
    lifelines: Dict[str, Lifeline] = {}

    def lifeline(participant: str) -> Lifeline:
        if participant not in lifelines:
            lifelines[participant] = interaction.add_lifeline(participant)
        return lifelines[participant]

    if loop is None:
        for sender, receiver, signal in triples:
            interaction.message(signal, lifeline(sender), lifeline(receiver))
    else:
        try:
            loop_min, loop_max = int(loop[0]), int(loop[1])
        except (TypeError, ValueError, IndexError):
            raise PropertyError(
                f"interaction {name!r}: loop must be (min, max), "
                f"got {loop!r}") from None
        # one trace per repetition count, so the trace count never
        # refuses a long loop: its longest trace is bounded by ``limit``
        # itself, before anything is built
        labels = loop_max * len(triples)
        if labels > limit:
            raise PropertyError(
                f"interaction {name!r}: loop's longest trace, {labels} "
                f"labels, exceeded limit {limit}")
        from ..errors import InteractionError

        try:
            fragment = interaction.loop(loop_min, loop_max)
        except InteractionError as error:
            raise PropertyError(
                f"interaction {name!r}: {error}") from error
        operand = fragment.add_operand()
        for sender, receiver, signal in triples:
            operand.add(Message(signal, lifeline(sender), lifeline(receiver),
                                MessageSort.ASYNC_SIGNAL))
    return interaction


def _response_from_dict(data: Dict[str, Any]) -> ResponseProperty:
    _check_fields(data, "response", ("name", "trigger", "reaction", "within"))
    return ResponseProperty(data["name"], data["trigger"], data["reaction"],
                            _number(data, "response", "within"))


def _precedence_from_dict(data: Dict[str, Any]) -> PrecedenceProperty:
    _check_fields(data, "precedence", ("name", "first", "then"))
    return PrecedenceProperty(data["name"], data["first"], data["then"])


def _absence_from_dict(data: Dict[str, Any]) -> AbsenceProperty:
    _check_fields(data, "absence", ("name", "never"), ("window",))
    window = data.get("window")
    if window is not None:
        if (not isinstance(window, (list, tuple)) or len(window) != 2
                or not all(_is_number(bound) for bound in window)):
            raise _invalid("absence", data["name"], "window",
                           "[t0, t1] numbers", window)
        window = tuple(window)
    return AbsenceProperty(data["name"], data["never"], window)


def _liveness_from_dict(data: Dict[str, Any]) -> BoundedLivenessProperty:
    kind = "bounded_liveness"
    _check_fields(data, kind, ("name", "match", "at_least", "by"))
    at_least = data["at_least"]
    if not _is_integer(at_least):
        raise _invalid(kind, data["name"], "at_least", "an integer",
                       at_least)
    return BoundedLivenessProperty(data["name"], data["match"], at_least,
                                   _number(data, kind, "by"))


def _interaction_from_dict(data: Dict[str, Any]) -> InteractionConformanceProperty:
    _check_fields(data, "interaction", ("name",),
                  ("messages", "traces", "loop", "complete", "include_env"))
    name = data["name"]

    def invalid(field: str, expected: str, value: Any) -> PropertyError:
        return _invalid("interaction", name, field, expected, value)

    flags = {}
    for field in ("complete", "include_env"):
        flags[field] = data.get(field, False)
        if not isinstance(flags[field], bool):
            raise invalid(field, "true or false", flags[field])
    if "messages" in data:
        messages = data["messages"]
        if not isinstance(messages, (list, tuple)):
            raise invalid("messages", "a list", messages)
        for index, entry in enumerate(messages):
            if not _is_strings(entry) or len(entry) != 3:
                raise invalid(f"messages[{index}]",
                              "[sender, receiver, signal] strings", entry)
        loop = data.get("loop")
        if loop is not None:
            if (not isinstance(loop, (list, tuple)) or len(loop) != 2
                    or not all(_is_integer(bound) for bound in loop)):
                raise invalid("loop", "[min, max] integers", loop)
            loop = tuple(loop)
        return interaction_conformance(name, messages=messages, loop=loop,
                                       **flags)
    if "traces" in data:
        traces = data["traces"]
        if not isinstance(traces, (list, tuple)):
            raise invalid("traces", "a list of label lists", traces)
        for index, trace in enumerate(traces):
            if not _is_strings(trace):
                raise invalid(f"traces[{index}]", "a list of label strings",
                              trace)
        return InteractionConformanceProperty(name, traces, **flags)
    raise PropertyError(
        f"interaction {name!r}: needs either messages or traces")


def _is_strings(value: Any) -> bool:
    """Whether a JSON value is an array of strings."""
    return (isinstance(value, (list, tuple))
            and all(isinstance(item, str) for item in value))


def _is_number(value: Any) -> bool:
    """Whether a JSON value is a number (``true`` and ``false`` are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: Any) -> bool:
    """Whether a JSON value is an integer (``2.0`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(data: Dict[str, Any], kind: str, field: str) -> Any:
    """The number ``data[field]``, or a :class:`PropertyError`."""
    value = data[field]
    if not _is_number(value):
        raise _invalid(kind, data["name"], field, "a number", value)
    return value


def _invalid(kind: str, name: Any, field: str, expected: str,
             value: Any) -> PropertyError:
    return PropertyError(
        f"{kind} {name!r}: {field} must be {expected}, got {value!r}")


def _check_fields(data: Dict[str, Any], kind: str, required: Sequence[str],
                  optional: Sequence[str] = ()) -> None:
    """Refuse a spec that lacks a required field or holds a field its
    kind does not define (a misspelt optional one would be ignored)."""
    missing = [key for key in required if key not in data]
    if missing:
        raise PropertyError(
            f"{kind} property spec missing fields {missing}: {data!r}")
    unknown = sorted(set(data).difference(("kind",), required, optional),
                     key=str)
    if unknown:
        raise PropertyError(
            f"{kind} {data['name']!r}: unknown fields {unknown}")


_FROM_DICT = {
    "response": _response_from_dict,
    "precedence": _precedence_from_dict,
    "absence": _absence_from_dict,
    "bounded_liveness": _liveness_from_dict,
    "interaction": _interaction_from_dict,
}


class PropertySuite:
    """An ordered, named collection of properties (the checker's input).

    Property names must be unique — they key the per-property verdicts
    in reports and the campaign-level aggregation.  Suites round-trip
    through JSON; see :meth:`to_dict` for the ``props.json`` schema.
    """

    def __init__(self, properties: Iterable[Property], name: str = "suite"):
        self.name = str(name)
        self.properties: Tuple[Property, ...] = tuple(properties)
        if not self.properties:
            raise PropertyError("property suite is empty")
        seen = set()
        for prop in self.properties:
            if not isinstance(prop, Property):
                raise PropertyError(
                    f"suite {self.name!r}: {prop!r} is not a Property")
            if prop.name in seen:
                raise PropertyError(
                    f"suite {self.name!r}: duplicate property name "
                    f"{prop.name!r}")
            seen.add(prop.name)

    def __iter__(self):
        return iter(self.properties)

    def __len__(self) -> int:
        return len(self.properties)

    def event_kinds(self) -> Tuple[str, ...]:
        """Union of trace kinds the suite needs, in KINDS order."""
        needed = set()
        for prop in self.properties:
            needed.update(prop.event_kinds())
        return tuple(kind for kind in KINDS if kind in needed)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "version": 1,
                "properties": [prop.to_dict() for prop in self.properties]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PropertySuite":
        if not isinstance(data, dict):
            raise PropertyError(
                f"property suite must be a mapping: {data!r}")
        if isinstance(data.get("properties"), list):
            entries = data["properties"]
            name = data.get("name", "suite")
        else:
            raise PropertyError(
                "property suite needs a 'properties' list "
                f"(got keys {sorted(data)})")
        return cls([Property.from_dict(entry) for entry in entries],
                   name=name)

    @classmethod
    def from_json(cls, text: str) -> "PropertySuite":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise PropertyError(
                f"property suite is not valid JSON: {error}") from error
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "PropertySuite":
        """Read a suite from a ``props.json`` file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise PropertyError(
                f"cannot read property suite {path!r}: {error}") from error
        return cls.from_json(text)

    def __repr__(self) -> str:
        return (f"<PropertySuite {self.name!r} "
                f"properties={len(self.properties)}>")


def coerce_suite(value, name: str = "suite") -> PropertySuite:
    """Accept a PropertySuite, an iterable of properties, a suite dict,
    or a path to a ``props.json`` file."""
    if isinstance(value, PropertySuite):
        return value
    if isinstance(value, Property):
        return PropertySuite([value], name=name)
    if isinstance(value, dict):
        return PropertySuite.from_dict(value)
    if isinstance(value, (str, bytes)):
        return PropertySuite.load(value)
    if isinstance(value, (list, tuple)):
        if value and all(isinstance(item, Property) for item in value):
            return PropertySuite(value, name=name)
        return PropertySuite([Property.from_dict(item) for item in value],
                             name=name)
    raise PropertyError(
        f"cannot interpret {value!r} as a property suite")
