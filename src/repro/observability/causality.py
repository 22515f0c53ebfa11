"""Causal span tracing over the TraceBus (PR 9).

The trace stream of PRs 3-8 answers *what* happened; this module
answers *why*.  Engines and the cosimulation harness thread a causal
register through the hot path (see docs/TRACING.md): every emitted
record may carry an optional ``cause`` payload field naming the ordinal
of the record that provoked it — message delivery -> event dispatch ->
transition fired -> effect send -> next delivery; timer fire ->
transition; fault injection -> corrupted delivery; supervisor decision
-> part restored.  The result is a forest of provenance trees over the
ordinary ordinal stream, in the span/causal-context spirit of
distributed tracing (Dapper / OpenTelemetry), reconstructed here by
:class:`CausalIndex`:

* :meth:`CausalIndex.why` walks a record back to its root cause —
  the full causal chain, three parts upstream if need be;
* :meth:`CausalIndex.slice` computes the backward and forward causal
  cones of one part (everything that influenced it, everything it
  influenced);
* :func:`span_lines` serializes the forest as a JSONL span format and
  :func:`perfetto_json` as Chrome/Perfetto ``trace_event`` JSON (one
  track per part, flow arrows for cross-part causality) — both pure
  functions of the event stream, hence byte-identical wherever the
  stream is (interpreted == compiled, plain or faulted, through
  supervised rollback).

Attaching a :class:`CausalIndex` turns the bus fully observed (every
kind) and flips :attr:`~repro.engine.TraceBus.causal` on; without one
the causal register costs the hot path a single attribute check per
emit site.  Like every PR 4 subscriber it checkpoints and restores, so
whole-simulation rollback rewinds the provenance forest in lockstep.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine import KINDS, TraceBus, TraceEvent
from ..errors import SimulationError

#: Payload keys tried (in order) for a human-readable span label.
#: Deliberately excludes the free-text ``reason``/``error`` keys: the
#: engines word action errors differently, and the lockstep contract
#: (and therefore the byte-identity of these exports) covers
#: everything *except* that free text — same rule the PR 5 recovery
#: lockstep tests pin.
_LABEL_KEYS = ("signal", "event", "state", "fault", "action")

#: Free-text payload keys excluded from exports (engine-worded).
_VOLATILE_KEYS = ("reason", "error")


def event_label(event: Any) -> str:
    """A compact ``kind:detail`` label for one trace event/record."""
    data = event.data if isinstance(event, TraceEvent) else event
    kind = event.kind if isinstance(event, TraceEvent) else \
        data.get("kind", "?")
    for key in _LABEL_KEYS:
        value = data.get(key)
        if value is not None:
            return f"{kind}:{value}"
    return kind


class CausalIndex:
    """Reconstructs provenance trees from a causally-stamped stream.

    Subscribes to *every* kind (provenance is only complete over the
    full stream) and sets ``bus.causal = True`` so emits start carrying
    the register.  Ingestion is a bare list append (the D18 bound:
    no dearer than the materialization floor); the parent/children/edge
    maps are folded lazily on first query.  ``keep_events=False`` keeps
    compact ``(ordinal, kind, part, cause)`` rows instead of the event
    objects — the low-memory mode campaign workers use for hot-edge
    statistics.
    """

    def __init__(self, bus: TraceBus, keep_events: bool = True):
        self.bus = bus
        self.keep_events = keep_events
        #: every received event, in emission order (``keep_events``)
        self.events: List[TraceEvent] = []
        #: compact (ordinal, kind, part, cause) rows (``keep_events``
        #: off: the events themselves are not retained)
        self._records: List[Tuple[int, str, str, Optional[int]]] = []
        #: how many stored rows are folded into the derived maps
        self._indexed = 0
        #: ordinal -> (kind, part) for every received record
        self._meta: Dict[int, Tuple[str, str]] = {}
        #: child ordinal -> cause ordinal
        self.parent: Dict[int, int] = {}
        #: cause ordinal -> child ordinals, in emission order
        self.children: Dict[int, List[int]] = {}
        #: "src_part->dst_part" -> count, for cross-part causal edges
        self.part_edges: Dict[str, int] = {}
        #: "src_kind->dst_kind" -> count, for every causal edge
        self.kind_edges: Dict[str, int] = {}
        self._was_causal = bus.causal
        bus.causal = True
        # Hot-path contract (the D18 acceptance bound): ingestion must
        # cost no more than the materialization floor any full-stream
        # subscriber already pays, so the callback is a bare append —
        # the provenance maps are folded lazily at query time, the way
        # a profiler defers symbolication.
        if keep_events:
            callback: Any = self.events.append
        else:
            def callback(event: TraceEvent,
                         _append=self._records.append) -> None:
                _append((event.ordinal, event.kind, event.part,
                         event.data.get("cause")))
        self.subscription = bus.subscribe(callback, kinds=KINDS)

    # -- ingestion ---------------------------------------------------------

    def _store(self) -> Any:
        return self.events if self.keep_events else self._records

    def _index(self) -> None:
        """Fold rows received since the last query into the maps.

        The stored stream is append-only between restores, so folding
        is incremental; every query calls this first.
        """
        store = self._store()
        count = len(store)
        if self._indexed == count:
            return
        meta = self._meta
        parent = self.parent
        children = self.children
        kind_edges = self.kind_edges
        part_edges = self.part_edges
        if self.keep_events:
            pending: Any = ((e.ordinal, e.kind, e.part,
                             e.data.get("cause"))
                            for e in store[self._indexed:])
        else:
            pending = store[self._indexed:]
        for ordinal, kind, part, cause in pending:
            meta[ordinal] = (kind, part)
            if cause is None:
                continue
            parent[ordinal] = cause
            children.setdefault(cause, []).append(ordinal)
            cause_meta = meta.get(cause)
            if cause_meta is None:
                continue  # cause predates this index (attached mid-run)
            edge = f"{cause_meta[0]}->{kind}"
            kind_edges[edge] = kind_edges.get(edge, 0) + 1
            if cause_meta[1] != part:
                edge = f"{cause_meta[1]}->{part}"
                part_edges[edge] = part_edges.get(edge, 0) + 1
        self._indexed = count

    def counts(self) -> Tuple[int, int]:
        """(records ingested, causal links) — folds pending rows."""
        self._index()
        return len(self._meta), len(self.parent)

    def close(self) -> None:
        """Detach from the bus and restore its causal flag."""
        self.subscription.cancel()
        self.bus.causal = self._was_causal

    # -- queries -----------------------------------------------------------

    def event(self, ordinal: int) -> TraceEvent:
        if not self.keep_events:
            raise SimulationError(
                "CausalIndex(keep_events=False) keeps edge statistics "
                "only; event lookup needs keep_events=True")
        index = self._find(ordinal)
        if index is None:
            raise SimulationError(
                f"no trace event with ordinal {ordinal} in this index")
        return self.events[index]

    def _find(self, ordinal: int) -> Optional[int]:
        """Index of an ordinal in :attr:`events` (binary search: the
        stream is ordinal-sorted but may start past 1 and the bus
        ordinal can rewind on restore, keeping the list monotonic)."""
        low, high = 0, len(self.events) - 1
        while low <= high:
            mid = (low + high) // 2
            found = self.events[mid].ordinal
            if found == ordinal:
                return mid
            if found < ordinal:
                low = mid + 1
            else:
                high = mid - 1
        return None

    def why(self, ordinal: int) -> List[TraceEvent]:
        """The full causal chain of one record, root first.

        Walks ``cause`` links up to the root (a record with no cause:
        an external stimulus, a timer expiry, a checkpoint) and returns
        the events along the way — ``why(x)[-1]`` is ``x`` itself.
        """
        self._index()
        chain: List[int] = []
        seen = set()
        cursor: Optional[int] = ordinal
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            chain.append(cursor)
            cursor = self.parent.get(cursor)
        chain.reverse()
        return [self.event(o) for o in chain]

    def roots(self) -> List[int]:
        """Ordinals of every causal root, ascending."""
        self._index()
        return sorted(o for o in self._meta if o not in self.parent)

    def descendants(self, ordinal: int) -> List[int]:
        """Every ordinal transitively caused by ``ordinal``, ascending."""
        self._index()
        found: List[int] = []
        stack = list(self.children.get(ordinal, ()))
        seen = set()
        while stack:
            cursor = stack.pop()
            if cursor in seen:
                continue
            seen.add(cursor)
            found.append(cursor)
            stack.extend(self.children.get(cursor, ()))
        return sorted(found)

    def slice(self, part: str) -> Dict[str, List[int]]:
        """The causal cones of one part.

        ``events`` — ordinals of the part's own records; ``backward`` —
        everything that (transitively) caused them, i.e. what influenced
        this part; ``forward`` — everything they caused, i.e. what this
        part influenced.  All three ascending.
        """
        self._index()
        own = sorted(o for o, (_kind, p) in self._meta.items()
                     if p == part)
        backward: set = set()
        for ordinal in own:
            cursor = self.parent.get(ordinal)
            while cursor is not None and cursor not in backward:
                backward.add(cursor)
                cursor = self.parent.get(cursor)
        forward: set = set()
        for ordinal in own:
            forward.update(self.descendants(ordinal))
        own_set = set(own)
        return {
            "events": own,
            "backward": sorted(backward - own_set),
            "forward": sorted(forward - own_set),
        }

    def edge_counts(self) -> Dict[str, Dict[str, int]]:
        """Causal hot-edge statistics (sorted-key plain data)."""
        self._index()
        return {
            "kinds": {edge: self.kind_edges[edge]
                      for edge in sorted(self.kind_edges)},
            "parts": {edge: self.part_edges[edge]
                      for edge in sorted(self.part_edges)},
        }

    # -- exports -----------------------------------------------------------

    def span_lines(self) -> List[str]:
        """The provenance forest as JSONL span records."""
        return span_lines(self.events)

    def to_span_jsonl(self) -> str:
        return "\n".join(self.span_lines()) + "\n"

    def to_perfetto(self) -> str:
        """The stream as Chrome/Perfetto ``trace_event`` JSON."""
        return perfetto_json(self.events)

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Capture the ingestion high-water mark (the forest is an
        append-only function of the stream, so a count suffices)."""
        store = self._store()
        last = store[-1] if store else None
        max_ordinal = 0
        if last is not None:
            max_ordinal = last.ordinal if self.keep_events else last[0]
        return {"count": len(store), "max_ordinal": max_ordinal}

    def restore(self, snap: Dict[str, Any]) -> None:
        """Drop everything ingested after a checkpoint.

        Truncates the stored stream and invalidates the derived maps;
        the next query refolds from the survivors (restores are rare,
        queries amortize)."""
        del self._store()[snap["count"]:]
        self._meta = {}
        self.parent = {}
        self.children = {}
        self.part_edges = {}
        self.kind_edges = {}
        self._indexed = 0

    def __repr__(self) -> str:
        records, edges = self.counts()
        return (f"<CausalIndex records={records} "
                f"edges={edges} roots={len(self.roots())}>")


# ---------------------------------------------------------------------------
# pure-function exporters (byte-identical wherever the stream is)
# ---------------------------------------------------------------------------


def _children_of(events: Sequence[TraceEvent]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for event in events:
        cause = event.data.get("cause")
        if cause is not None:
            children.setdefault(cause, []).append(event.ordinal)
    return children


def span_lines(events: Sequence[TraceEvent]) -> List[str]:
    """Serialize a causally-stamped stream as JSONL span records.

    One compact sorted-key JSON object per record: ``ordinal``, ``t``,
    ``kind``, ``part``, ``label``, ``cause`` (null at roots) and
    ``children`` (ordinals, emission order).  A pure function of the
    stream — the lockstep CI job byte-compares it across engines.
    """
    children = _children_of(events)
    lines: List[str] = []
    for event in events:
        record = {
            "cause": event.data.get("cause"),
            "children": children.get(event.ordinal, []),
            "kind": event.kind,
            "label": event_label(event),
            "ordinal": event.ordinal,
            "part": event.part,
            "t": event.t,
        }
        lines.append(json.dumps(record, sort_keys=True,
                                separators=(",", ":"), default=str))
    return lines


#: Perfetto timestamps are microseconds; one simulated time unit maps
#: to one millisecond so sub-unit latencies stay visible on the ruler.
PERFETTO_US_PER_UNIT = 1000.0


def perfetto_json(events: Sequence[TraceEvent],
                  process_name: str = "repro-sim") -> str:
    """Render a stream as Chrome/Perfetto ``trace_event`` JSON.

    One thread (track) per part — thread-name metadata first, then one
    instant event per record in ordinal order, then a flow-arrow pair
    (``s``/``f``) for every cross-part causal edge, anchored at the
    cause's track/time and the effect's track/time.  Deterministic:
    sorted parts get stable tids, keys are sorted, floats are emitted
    by ``json.dumps`` — so equal streams render byte-identically.
    """
    parts = sorted({event.part for event in events})
    tids = {part: index + 1 for index, part in enumerate(parts)}
    trace: List[Dict[str, Any]] = [{
        "args": {"name": process_name},
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
    }]
    for part in parts:
        trace.append({
            "args": {"name": part or "(harness)"},
            "name": "thread_name", "ph": "M", "pid": 1,
            "tid": tids[part],
        })
    by_ordinal = {event.ordinal: event for event in events}
    for event in events:
        ts = event.t * PERFETTO_US_PER_UNIT
        args = {key: event.data[key] for key in sorted(event.data)
                if key not in _VOLATILE_KEYS}
        args["ordinal"] = event.ordinal
        trace.append({
            "args": args, "cat": event.kind, "name": event_label(event),
            "ph": "i", "pid": 1, "s": "t", "tid": tids[event.part],
            "ts": ts,
        })
        cause = event.data.get("cause")
        parent = by_ordinal.get(cause) if cause is not None else None
        if parent is not None and parent.part != event.part:
            # flow arrow: cause's track -> this record's track
            trace.append({
                "cat": "causal", "id": event.ordinal, "name": "cause",
                "ph": "s", "pid": 1, "tid": tids[parent.part],
                "ts": parent.t * PERFETTO_US_PER_UNIT,
            })
            trace.append({
                "bp": "e", "cat": "causal", "id": event.ordinal,
                "name": "cause", "ph": "f", "pid": 1,
                "tid": tids[event.part], "ts": ts,
            })
    payload = {"displayTimeUnit": "ms", "traceEvents": trace}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


def spans_from_jsonl(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """Parse :func:`span_lines` output back into span dicts."""
    spans = []
    for line in lines:
        line = line.strip()
        if line:
            spans.append(json.loads(line))
    return spans
