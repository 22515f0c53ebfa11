"""Differential tests of the two observer indexes against the scans
they replace.

* :class:`~repro.properties.PropertyChecker` feeds a record only to the
  monitors its ``(kind, part, signal)`` index names and advances a
  timed monitor only once one of its deadlines can have passed.
  Hypothesis generates suites holding every property kind (atoms with
  and without ``part``, ``signal`` and ``sender``, on
  ``message_delivered`` and on engine kinds; interactions with ``env``
  senders, with and without ``include_env``) and streams of records at
  non-decreasing times.  Each stream runs through the checker and
  through :class:`ScanningChecker`, written here, which advances every
  timed monitor and feeds every monitor every record.  Reports,
  violation lists and the recorded stream, ``property_violation``
  ordinals included, must be equal, also after a ``checkpoint()`` in
  mid-stream, a ``restore()`` and a replay of the tail.
* :class:`~repro.faults.FaultInjector` walks only the specs whose site
  fields admit a hop.  Over generated campaigns (wildcard sites,
  windows, budgets, probabilities below 1) and hops, every hop must
  pick the spec that a first-match scan over the whole campaign picks,
  and leave the random generator in the same state.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.engine import (
    EVENT,
    MESSAGE_DELIVERED,
    TRANSITION,
    TraceBus,
    TraceRecorder,
)
from repro.faults import FaultCampaign, FaultSpec
from repro.faults.campaign import FAULT_KINDS
from repro.faults.injector import FaultInjector
from repro.properties import (
    EventMatch,
    PropertyChecker,
    PropertySuite,
    absence,
    bounded_liveness,
    interaction_conformance,
    precedence,
    response,
)

PARTS = ("p", "q")
SIGNALS = ("A", "B")
SENDERS = ("x", "y", "env")
RECORD_KINDS = (MESSAGE_DELIVERED, TRANSITION, EVENT)
PROPERTY_KINDS = ("response", "precedence", "absence", "bounded_liveness",
                  "interaction")
TIMES = (0.0, 1.0, 2.5, 4.0, 6.0)


class ScanningChecker(PropertyChecker):
    """The reference: every timed monitor advances, and every monitor is
    fed, on every record."""

    def _ingest(self, event):
        for prop, monitor in self._timed:
            for violation in monitor.advance(event.t):
                self._report_violation(prop, violation, witness=event)
        for prop, monitor in self._monitors:
            for violation in monitor.feed(event):
                self._report_violation(prop, violation, witness=event)


def optional(values):
    return st.sampled_from((None,) + values)


@st.composite
def atoms(draw):
    fields = draw(st.tuples(optional(SIGNALS), optional(PARTS),
                            optional(SENDERS)).filter(any))
    signal, part, sender = fields
    return EventMatch(signal=signal, part=part, sender=sender,
                      kind=draw(st.sampled_from(RECORD_KINDS)))


@st.composite
def suites(draw):
    """Every property kind at least once, plus up to three more."""
    kinds = draw(st.permutations(
        PROPERTY_KINDS + tuple(draw(st.lists(st.sampled_from(
            PROPERTY_KINDS), max_size=3)))))
    properties = []
    for index, kind in enumerate(kinds):
        name = f"{kind}-{index}"
        if kind == "response":
            prop = response(name, draw(atoms()), draw(atoms()),
                            within=draw(st.sampled_from((0.5, 1.0, 3.0))))
        elif kind == "precedence":
            prop = precedence(name, draw(atoms()), draw(atoms()))
        elif kind == "absence":
            window = draw(st.one_of(st.none(), st.tuples(
                st.sampled_from(TIMES), st.sampled_from(TIMES)).map(sorted)))
            prop = absence(name, draw(atoms()), window=window)
        elif kind == "bounded_liveness":
            prop = bounded_liveness(name, draw(atoms()),
                                    at_least=draw(st.integers(1, 3)),
                                    by=draw(st.sampled_from(TIMES)))
        else:
            messages = draw(st.lists(st.tuples(
                st.sampled_from(SENDERS), st.sampled_from(PARTS),
                st.sampled_from(SIGNALS)), min_size=1, max_size=3))
            loop = draw(st.one_of(st.none(), st.integers(0, 3).flatmap(
                lambda high: st.tuples(st.integers(0, high),
                                       st.just(high)))))
            prop = interaction_conformance(
                name, messages=messages, loop=loop,
                complete=draw(st.booleans()),
                include_env=draw(st.booleans()))
        properties.append(prop)
    return PropertySuite(properties, name="fuzz")


@st.composite
def streams(draw):
    """Records ``(t, kind, part, data)`` at non-decreasing times; an
    engine record may lack ``signal`` and carry a ``sender``."""
    records = []
    t = 0.0
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.sampled_from((0.0, 0.5, 1.0, 2.5)))
        kind = draw(st.sampled_from(RECORD_KINDS))
        data = {}
        if kind == MESSAGE_DELIVERED or draw(st.booleans()):
            data["signal"] = draw(st.sampled_from(SIGNALS))
        if kind == MESSAGE_DELIVERED or draw(st.booleans()):
            data["sender"] = draw(st.sampled_from(SENDERS))
        records.append((t, kind, draw(st.sampled_from(PARTS)), data))
    return records


def observe(checker_type, suite, records, cut):
    """Run ``records``, checkpointing before record ``cut``; then
    restore, replay the tail and finalize.  Returns what each pass
    reported and recorded."""
    bus = TraceBus()
    checker = checker_type(suite, bus, on_violation="record")
    recorder = TraceRecorder(bus)
    snap = None
    for index, (t, kind, part, data) in enumerate(records):
        if index == cut:
            snap = checker.checkpoint(), bus.checkpoint()
        bus.emit(kind, t, part, dict(data))
    if snap is None:
        snap = checker.checkpoint(), bus.checkpoint()
    first = (checker.report().to_json(), checker.violations(),
             recorder.to_jsonl())
    recorder.clear()
    checker.restore(snap[0])
    bus.restore(snap[1])
    for t, kind, part, data in records[cut:]:
        bus.emit(kind, t, part, dict(data))
    checker.finalize(records[-1][0] + 1.0 if records else 0.0)
    second = (checker.report().to_json(), checker.violations(),
              recorder.to_jsonl())
    return first, second


@settings(max_examples=150, deadline=None)
@given(suite=suites(), records=streams(), data=st.data())
def test_checker_index_agrees_with_the_scan(suite, records, data):
    cut = data.draw(st.integers(0, len(records)), label="cut")
    assert observe(PropertyChecker, suite, records, cut) \
        == observe(ScanningChecker, suite, records, cut)


SITES = {"part": ("a", "b"), "port": ("o", "i"), "peer": ("a", "b"),
         "connector": ("c", "d"), "signal": ("S", "T")}


@st.composite
def campaigns(draw):
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        site = {field: draw(optional(values))
                for field, values in SITES.items()}
        window = draw(st.one_of(st.none(), st.tuples(
            st.sampled_from(TIMES), st.sampled_from(TIMES)).map(sorted)))
        specs.append(FaultSpec(
            draw(st.sampled_from(FAULT_KINDS)), window=window,
            probability=draw(st.sampled_from((1.0, 0.75, 0.5, 0.1))),
            max_count=draw(st.one_of(st.none(), st.integers(1, 3))),
            **site))
    return FaultCampaign(specs, seed=draw(st.integers(0, 2**16)))


@st.composite
def hops(draw):
    out = []
    now = 0.0
    for _ in range(draw(st.integers(0, 40))):
        now += draw(st.sampled_from((0.0, 0.5, 1.0, 2.5)))
        out.append((now, tuple(draw(st.sampled_from(values))
                               for values in SITES.values())))
    return out


def first_match(campaign, fired, rng, now, site):
    """The scan: the first spec in campaign order whose budget, window
    and site admit the hop and whose dice roll passes."""
    for index, spec in enumerate(campaign.faults):
        if spec.max_count is not None and fired[index] >= spec.max_count:
            continue
        if spec.window is not None \
                and not spec.window[0] <= now < spec.window[1]:
            continue
        if any(getattr(spec, field) not in (None, value)
               for field, value in zip(SITES, site)):
            continue
        if spec.probability < 1.0 and rng.random() >= spec.probability:
            continue
        return index
    return -1


@settings(max_examples=150, deadline=None)
@given(campaign=campaigns(), route=hops())
def test_injector_index_agrees_with_the_scan(campaign, route):
    injector = FaultInjector(None, campaign)
    fired = [0] * len(campaign)
    rng = random.Random(campaign.seed)
    for now, site in route:
        spec, index = injector._match(now, *site)
        assert index == first_match(campaign, fired, rng, now, site)
        assert spec is (campaign.faults[index] if index >= 0 else None)
        assert injector.rng.getstate() == rng.getstate()
        if index >= 0:  # what route() does with the match
            injector._fired[index] += 1
            fired[index] += 1
