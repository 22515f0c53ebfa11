"""Declarative fault-campaign specifications.

A :class:`FaultCampaign` is a named, seedable list of
:class:`FaultSpec` entries.  Each spec addresses a *fault site* — the
connector hop a routed signal takes, matched by sender part, sender
port, receiving part, connector name and/or signal name — plus a fault
*window* in simulated time, and describes one deterministic mutation of
the traffic crossing that site:

``drop``
    the signal never arrives;
``duplicate``
    the signal arrives twice (original order preserved);
``corrupt``
    one integer argument is XORed with a mask (a flipped wire);
``delay``
    extra latency is added (optionally with seeded jitter);
``reorder``
    consecutive matched signals swap arrival order.

Campaigns serialize to/from JSON so they can live next to a model file
and be replayed bit-identically (``simulate --faults campaign.json``).
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import FaultError, is_json_integer, is_json_number

#: The supported fault kinds.
FAULT_KINDS = ("drop", "duplicate", "corrupt", "delay", "reorder")


class FaultSpec:
    """One fault site + kind + window.

    All site fields default to ``None`` meaning *match anything*; a spec
    with every field ``None`` matches every routed signal.  ``window``
    is a half-open ``[start, end)`` interval in simulated time.
    """

    __slots__ = ("kind", "part", "port", "peer", "connector", "signal",
                 "window", "probability", "max_count", "delay", "jitter",
                 "field", "xor", "name")

    def __init__(self, kind: str,
                 part: Optional[str] = None,
                 port: Optional[str] = None,
                 peer: Optional[str] = None,
                 connector: Optional[str] = None,
                 signal: Optional[str] = None,
                 window: Optional[Sequence[float]] = None,
                 probability: float = 1.0,
                 max_count: Optional[int] = None,
                 delay: float = 1.0,
                 jitter: float = 0.0,
                 field: Optional[str] = None,
                 xor: Optional[int] = None,
                 name: str = ""):
        if kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
        if window is not None:
            window = tuple(float(edge) for edge in window)
            if len(window) != 2 or not window[0] <= window[1]:
                raise FaultError(
                    f"fault window must be [start, end] with start <= end, "
                    f"got {window!r}")
        if not 0.0 <= probability <= 1.0:
            raise FaultError(
                f"fault probability must be in [0, 1], got {probability}")
        if max_count is not None and max_count <= 0:
            raise FaultError(f"max_count must be positive, got {max_count}")
        if not (0 <= delay < math.inf and 0 <= jitter < math.inf):
            raise FaultError(
                f"delay and jitter must be finite and non-negative, "
                f"got {delay!r} and {jitter!r}")
        if xor is not None and xor == 0:
            raise FaultError("a zero XOR mask corrupts nothing")
        self.kind = kind
        self.part = part
        self.port = port
        self.peer = peer
        self.connector = connector
        self.signal = signal
        self.window: Optional[Tuple[float, float]] = window
        self.probability = float(probability)
        self.max_count = max_count
        self.delay = float(delay)
        self.jitter = float(jitter)
        self.field = field
        self.xor = xor
        self.name = name or kind

    def matches(self, now: float, part: str, port: str, peer: str,
                connector: str, signal: str) -> bool:
        """True when this spec applies to a routed signal at ``now``."""
        return self.in_window(now) \
            and self.at_site(part, port, peer, connector, signal)

    def in_window(self, now: float) -> bool:
        """True when ``now`` lies in the window (always, without one)."""
        return self.window is None or self.window[0] <= now < self.window[1]

    def at_site(self, part: str, port: str, peer: str, connector: str,
                signal: str) -> bool:
        """True when the site fields admit a hop, whatever the time."""
        if self.part is not None and self.part != part:
            return False
        if self.port is not None and self.port != port:
            return False
        if self.peer is not None and self.peer != peer:
            return False
        if self.connector is not None and self.connector != connector:
            return False
        if self.signal is not None and self.signal != signal:
            return False
        return True

    def site(self) -> str:
        """A compact, stable label of the fault site for reports."""
        pieces = []
        for label, value in (("part", self.part), ("port", self.port),
                             ("peer", self.peer),
                             ("connector", self.connector),
                             ("signal", self.signal)):
            if value is not None:
                pieces.append(f"{label}={value}")
        return " ".join(pieces) if pieces else "*"

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready form (defaults omitted)."""
        data: Dict[str, Any] = {"kind": self.kind}
        for key in ("part", "port", "peer", "connector", "signal",
                    "max_count", "field", "xor"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.window is not None:
            data["window"] = list(self.window)
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.kind == "delay":
            data["delay"] = self.delay
            if self.jitter:
                data["jitter"] = self.jitter
        if self.name != self.kind:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        """Build a spec from a JSON object of known, well-typed keys."""
        if not isinstance(data, dict):
            raise FaultError(f"fault spec must be an object, got {data!r}")
        if "kind" not in data:
            raise FaultError(f"fault spec missing 'kind': {data!r}")
        unknown = sorted(set(data) - set(_SPEC_FIELDS), key=str)
        if unknown:
            raise FaultError(
                f"unknown fault spec key(s) {unknown} in {data!r}")
        for key, value in data.items():
            accepts, expected = _SPEC_FIELDS[key]
            if not accepts(value):
                raise FaultError(f"fault spec {key} must be {expected}, "
                                 f"got {value!r}")
        return cls(**data)

    def __repr__(self) -> str:
        return f"<FaultSpec {self.name!r} {self.kind} at {self.site()}>"


def _is_window(value: Any) -> bool:
    return value is None or (isinstance(value, (list, tuple))
                             and len(value) == 2
                             and all(map(is_json_number, value)))


#: Each fault-spec field's JSON type: a predicate on the decoded value
#: and the phrase an error names it by.  FaultSpec then checks ranges.
_SPEC_FIELDS: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    field: (accepts, expected) for accepts, expected, fields in (
        (lambda value: isinstance(value, str), "a string",
         ("kind", "name")),
        (lambda value: value is None or isinstance(value, str),
         "a string or null",
         ("part", "port", "peer", "connector", "signal", "field")),
        (is_json_number, "a number", ("probability", "delay", "jitter")),
        (lambda value: value is None or is_json_integer(value),
         "an integer or null", ("max_count", "xor")),
        (_is_window, "[start, end] numbers or null", ("window",)))
    for field in fields}


class FaultCampaign:
    """A named, seeded collection of fault specs."""

    __slots__ = ("name", "seed", "faults")

    def __init__(self, faults: Sequence[FaultSpec] = (),
                 name: str = "campaign", seed: int = 0):
        self.name = name
        self.seed = int(seed)
        self.faults: List[FaultSpec] = list(faults)
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise FaultError(
                    f"campaign entries must be FaultSpec, got {spec!r}")

    def add(self, spec: FaultSpec) -> "FaultCampaign":
        """Append a spec (chainable)."""
        if not isinstance(spec, FaultSpec):
            raise FaultError(f"expected a FaultSpec, got {spec!r}")
        self.faults.append(spec)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed,
                "faults": [spec.to_dict() for spec in self.faults]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultCampaign":
        if not isinstance(data, dict):
            raise FaultError(f"campaign must be an object, got {data!r}")
        unknown = sorted(set(data) - {"name", "seed", "faults"})
        if unknown:
            raise FaultError(f"unknown campaign key(s) {unknown}")
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, list):
            raise FaultError("campaign 'faults' must be a list")
        name, seed = data.get("name", "campaign"), data.get("seed", 0)
        if not isinstance(name, str):
            raise FaultError(f"campaign name must be a string, got {name!r}")
        if not is_json_integer(seed):
            raise FaultError(f"campaign seed must be an integer, got {seed!r}")
        return cls(faults=[FaultSpec.from_dict(entry)
                           for entry in raw_faults],
                   name=name, seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultCampaign":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"malformed campaign JSON: {exc}")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "FaultCampaign":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return (f"<FaultCampaign {self.name!r} seed={self.seed} "
                f"faults={len(self.faults)}>")
