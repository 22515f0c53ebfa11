"""Property specifications (PR 7): atoms, the five pattern kinds,
suite validation, the props.json round-trip, and the prefix trie an
interaction-conformance property compiles its trace set into."""

import json
import re
import tracemalloc

import pytest

from repro.engine import (
    KINDS,
    MESSAGE_DELIVERED,
    MESSAGE_DROPPED,
    PROPERTY_VIOLATION,
    TraceEvent,
)
from repro.errors import PropertyError
from repro.properties import (
    EventMatch,
    Property,
    PropertySuite,
    absence,
    bounded_liveness,
    coerce_suite,
    interaction_conformance,
    precedence,
    response,
)


def delivered(t, part, signal, sender="peer", ordinal=1):
    return TraceEvent(ordinal, t, MESSAGE_DELIVERED, part,
                      {"signal": signal, "sender": sender})


class TestEventMatch:
    def test_every_filter_is_checked(self):
        match = EventMatch(signal="Read", part="ram", sender="cpu")
        assert match.matches(delivered(1.0, "ram", "Read", sender="cpu"))
        assert not match.matches(delivered(1.0, "ram", "Write", sender="cpu"))
        assert not match.matches(delivered(1.0, "cpu", "Read", sender="cpu"))
        assert not match.matches(delivered(1.0, "ram", "Read", sender="bus"))

    def test_kind_must_match(self):
        match = EventMatch(signal="Read", kind=MESSAGE_DROPPED)
        event = TraceEvent(1, 1.0, MESSAGE_DROPPED, "bus",
                           {"signal": "Read"})
        assert match.matches(event)
        assert not match.matches(delivered(1.0, "bus", "Read"))

    def test_unset_filters_are_wildcards(self):
        match = EventMatch(signal="Read")
        assert match.matches(delivered(1.0, "anything", "Read",
                                       sender="anyone"))

    def test_rejects_unknown_kind(self):
        with pytest.raises(PropertyError):
            EventMatch(signal="Read", kind="bogus")

    def test_rejects_observing_the_checker_itself(self):
        with pytest.raises(PropertyError):
            EventMatch(signal="x", kind=PROPERTY_VIOLATION)

    def test_rejects_matching_everything(self):
        with pytest.raises(PropertyError):
            EventMatch()

    def test_dict_round_trip_omits_default_kind(self):
        match = EventMatch(signal="Read", part="ram")
        assert match.to_dict() == {"signal": "Read", "part": "ram"}
        again = EventMatch.from_dict(match.to_dict())
        assert again.kind == MESSAGE_DELIVERED
        assert again.to_dict() == match.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(PropertyError):
            EventMatch.from_dict({"signal": "Read", "bogus": 1})

    def test_describe_is_compact(self):
        assert EventMatch(signal="Read", part="ram").describe() \
            == "Read to ram"
        assert "message_dropped" in EventMatch(
            signal="Read", kind=MESSAGE_DROPPED).describe()


class TestCoercion:
    def test_string_means_signal(self):
        prop = response("r", trigger="Read", reaction="ReadResp",
                        within=4.0)
        assert prop.trigger.signal == "Read"
        assert prop.trigger.part is None

    def test_mapping_and_match_accepted(self):
        prop = precedence("p", first={"signal": "Read", "part": "ram"},
                          then=EventMatch(signal="ReadResp"))
        assert prop.first.part == "ram"
        assert prop.then.signal == "ReadResp"

    def test_garbage_rejected(self):
        with pytest.raises(PropertyError):
            absence("a", never=42)


class TestPropertyValidation:
    def test_name_required(self):
        with pytest.raises(PropertyError):
            response("", trigger="A", reaction="B", within=1.0)

    def test_response_deadline_positive(self):
        with pytest.raises(PropertyError):
            response("r", trigger="A", reaction="B", within=0.0)

    def test_liveness_bounds(self):
        with pytest.raises(PropertyError):
            bounded_liveness("l", match="A", at_least=0, by=10.0)
        with pytest.raises(PropertyError):
            bounded_liveness("l", match="A", at_least=1, by=-1.0)

    def test_absence_window_ordered(self):
        with pytest.raises(PropertyError):
            absence("a", never="Nak", window=(10.0, 5.0))
        prop = absence("a", never="Nak", window=(5, 10))
        assert prop.window == (5.0, 10.0)

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(PropertyError):
            Property.from_dict({"kind": "eventually", "name": "x"})

    def test_from_dict_reports_missing_fields(self):
        with pytest.raises(PropertyError, match="within"):
            Property.from_dict({"kind": "response", "name": "r",
                                "trigger": {"signal": "A"},
                                "reaction": {"signal": "B"}})


def full_suite():
    return PropertySuite([
        response("read-answered", trigger={"signal": "Read", "part": "ram"},
                 reaction={"signal": "ReadResp", "part": "cpu"},
                 within=4.0),
        precedence("resp-after-read", first="Read", then="ReadResp"),
        absence("no-nak", never="Nak", window=(0, 100)),
        bounded_liveness("traffic", match="Read", at_least=3, by=30.0),
        interaction_conformance(
            "handshake",
            messages=[("cpu", "ram", "Read"), ("ram", "cpu", "ReadResp")],
            loop=(0, 3)),
    ], name="round-trip")


class TestSuiteRoundTrip:
    def test_json_round_trip_is_byte_stable(self):
        suite = full_suite()
        text = suite.to_json()
        again = PropertySuite.from_json(text)
        assert again.to_json() == text
        assert [prop.kind for prop in again] \
            == ["response", "precedence", "absence", "bounded_liveness",
                "interaction"]

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "props.json"
        path.write_text(full_suite().to_json())
        suite = PropertySuite.load(str(path))
        assert suite.name == "round-trip"
        assert len(suite) == 5

    def test_load_errors_are_typed(self, tmp_path):
        with pytest.raises(PropertyError):
            PropertySuite.load(str(tmp_path / "missing.json"))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(PropertyError):
            PropertySuite.load(str(broken))

    def test_suite_must_be_non_empty_with_unique_names(self):
        with pytest.raises(PropertyError):
            PropertySuite([])
        with pytest.raises(PropertyError):
            PropertySuite([absence("same", never="A"),
                           absence("same", never="B")])

    def test_event_kinds_in_vocabulary_order(self):
        suite = PropertySuite([
            absence("dropped", never={"signal": "Read",
                                      "kind": MESSAGE_DROPPED}),
            absence("delivered", never="Nak"),
        ])
        kinds = suite.event_kinds()
        assert set(kinds) == {MESSAGE_DELIVERED, MESSAGE_DROPPED}
        assert list(kinds) \
            == [kind for kind in KINDS if kind in kinds]

    def test_coerce_suite_variants(self, tmp_path):
        suite = full_suite()
        assert coerce_suite(suite) is suite
        single = coerce_suite(absence("a", never="Nak"))
        assert len(single) == 1
        from_dict = coerce_suite(suite.to_dict())
        assert from_dict.to_json() == suite.to_json()
        path = tmp_path / "props.json"
        path.write_text(suite.to_json())
        assert coerce_suite(str(path)).to_json() == suite.to_json()
        from_list = coerce_suite([prop.to_dict() for prop in suite])
        assert len(from_list) == 5
        with pytest.raises(PropertyError):
            coerce_suite(3.14)


class TestInteractionTrie:
    def test_loop_compiles_to_linear_trie(self):
        prop = interaction_conformance(
            "hs", messages=[("cpu", "ram", "Read"),
                            ("ram", "cpu", "ReadResp")],
            loop=(0, 3))
        # 3 iterations of 2 messages share every prefix: 7 nodes
        assert len(prop.nodes) == 7
        assert prop.alphabet == {"cpu->ram:Read", "ram->cpu:ReadResp"}
        # loop minimum 0: the root itself accepts, as does every
        # completed iteration boundary
        assert prop.nodes[0]["end"]
        assert sum(node["end"] for node in prop.nodes) == 4

    def test_trace_set_is_sorted_and_deduped(self):
        prop = interaction_conformance(
            "hs", messages=[("a", "b", "Go")], loop=(1, 2))
        assert prop.trace_set == (("a->b:Go",), ("a->b:Go", "a->b:Go"))

    def test_exactly_one_source(self):
        with pytest.raises(PropertyError):
            interaction_conformance("hs")
        from repro.interactions import Interaction

        interaction = Interaction("hs")
        with pytest.raises(PropertyError):
            interaction_conformance("hs", interaction=interaction,
                                    messages=[("a", "b", "Go")])

    def test_interaction_object_source(self):
        from repro.interactions import Interaction

        interaction = Interaction("hs")
        cpu = interaction.add_lifeline("cpu")
        ram = interaction.add_lifeline("ram")
        interaction.message("Read", cpu, ram)
        interaction.message("ReadResp", ram, cpu)
        prop = interaction_conformance("hs", interaction=interaction)
        assert prop.trace_set == (("cpu->ram:Read", "ram->cpu:ReadResp"),)

    def test_compact_form_round_trips_compactly(self):
        prop = interaction_conformance(
            "hs", messages=[("cpu", "ram", "Read")], loop=(0, 2),
            complete=True)
        record = prop.to_dict()
        assert record["messages"] == [["cpu", "ram", "Read"]]
        assert record["loop"] == [0, 2]
        assert "traces" not in record
        again = Property.from_dict(record)
        assert again.to_dict() == record
        assert again.complete

    def test_explicit_traces_round_trip(self):
        record = {"kind": "interaction", "name": "hs",
                  "traces": [["a->b:Go"], ["a->b:Go", "b->a:Ack"]]}
        prop = Property.from_dict(record)
        assert prop.to_dict() == record

    def test_empty_specs_rejected(self):
        with pytest.raises(PropertyError):
            interaction_conformance("hs", messages=[])
        with pytest.raises(PropertyError):
            Property.from_dict({"kind": "interaction", "name": "hs"})

    def test_suite_json_snapshot(self):
        # pin the props.json shape end to end (the CLI contract)
        suite = PropertySuite([absence("no-nak", never="Nak")], name="s")
        assert json.loads(suite.to_json()) == {
            "name": "s", "version": 1,
            "properties": [{"kind": "absence", "name": "no-nak",
                            "never": {"signal": "Nak"}}]}


HANDSHAKE = [["bus", "s0_ram", "Read"], ["bus", "m0_cpu", "ReadResp"]]


def interaction_record(**fields):
    return {"kind": "interaction", "name": "hs", **fields}


class TestInteractionJson:
    @pytest.mark.parametrize("fields, field", [
        ({"messages": HANDSHAKE, "loop": 5}, "loop"),
        ({"messages": 5}, "messages"),
        ({"traces": 5}, "traces"),
        ({"traces": [5]}, "traces[0]"),
        ({"traces": [None]}, "traces[0]"),
        ({"traces": [1, 2]}, "traces[0]"),
        ({"messages": HANDSHAKE, "complete": "no"}, "complete"),
        ({"traces": "ab"}, "traces"),
        ({"messages": HANDSHAKE, "loop": "12"}, "loop"),
        ({"messages": HANDSHAKE, "loop": [0, 1.5]}, "loop"),
        ({"messages": HANDSHAKE, "loop": [0, 1, 2]}, "loop"),
        ({"messages": HANDSHAKE, "include_env": 1}, "include_env"),
        ({"messages": ["bus"]}, "messages[0]"),
    ], ids=["loop-int", "messages-int", "traces-int", "trace-int",
            "trace-null", "traces-of-ints", "complete-string",
            "traces-string", "loop-string", "loop-float", "loop-triple",
            "include_env-int", "message-string"])
    def test_a_malformed_field_is_a_property_error(self, fields, field):
        with pytest.raises(PropertyError,
                           match=f"'hs': {re.escape(field)} must be"):
            Property.from_dict(interaction_record(**fields))

    def test_an_oversized_loop_is_refused_before_it_is_built(self):
        # enumerating first took about half an hour and hundreds of MB
        Property.from_dict(interaction_record(messages=HANDSHAKE,
                                              loop=[0, 1]))  # imports
        record = interaction_record(messages=HANDSHAKE, loop=[0, 100000])
        tracemalloc.start()
        try:
            with pytest.raises(PropertyError,
                               match="exceeded limit 10000$"):
                Property.from_dict(record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_one_long_trace_is_refused_before_it_is_built(self):
        # loop=[N, N] is a single trace, so the trace count never refused
        # it: N = 16,000 took 1.1 s and N = 32,000 5.6 s (quadratic)
        Property.from_dict(interaction_record(messages=HANDSHAKE,
                                              loop=[1, 1]))  # imports
        record = interaction_record(messages=HANDSHAKE,
                                    loop=[1000000, 1000000])
        tracemalloc.start()
        try:
            with pytest.raises(PropertyError,
                               match=r"^interaction 'hs': loop's longest "
                                     r"trace, 2000000 labels, exceeded "
                                     r"limit 10000$"):
                Property.from_dict(record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_limit_bounds_the_labels_of_the_longest_trace(self):
        at_limit = interaction_conformance("hs", messages=HANDSHAKE,
                                           loop=(0, 5), limit=10)
        assert max(map(len, at_limit.trace_set)) == 10
        with pytest.raises(PropertyError, match="11 labels"):
            interaction_conformance("hs", messages=HANDSHAKE[:1],
                                    loop=(11, 11), limit=10)


RECORDS = {
    "response": {"kind": "response", "name": "r", "trigger": "Read",
                 "reaction": "ReadResp", "within": 4.0},
    "precedence": {"kind": "precedence", "name": "p", "first": "Read",
                   "then": "ReadResp"},
    "absence": {"kind": "absence", "name": "a", "never": "Nak",
                "window": [0, 5]},
    "bounded_liveness": {"kind": "bounded_liveness", "name": "l",
                         "match": "Read", "at_least": 3, "by": 30.0},
    "interaction": interaction_record(messages=HANDSHAKE),
}


def record(kind, **fields):
    return {**RECORDS[kind], **fields}


class TestKindJson:
    """The other four kinds check their fields as the interaction does:
    every failure is a PropertyError naming the field."""

    @pytest.mark.parametrize("kind, fields, field", [
        ("response", {"within": "abc"}, "within"),
        ("response", {"within": None}, "within"),
        ("response", {"within": True}, "within"),
        ("bounded_liveness", {"at_least": "x"}, "at_least"),
        ("bounded_liveness", {"at_least": 2.7}, "at_least"),
        ("bounded_liveness", {"at_least": None}, "at_least"),
        ("bounded_liveness", {"by": "x"}, "by"),
        ("absence", {"window": 5}, "window"),
        ("absence", {"window": [0, "5"]}, "window"),
        ("absence", {"window": [0, 1, 2]}, "window"),
    ], ids=["within-string", "within-null", "within-bool", "at_least-string",
            "at_least-float", "at_least-null", "by-string", "window-int",
            "window-string-bound", "window-triple"])
    def test_a_malformed_field_is_a_property_error(self, kind, fields,
                                                   field):
        name = RECORDS[kind]["name"]
        with pytest.raises(PropertyError,
                           match=f"^{kind} '{name}': {field} must be"):
            Property.from_dict(record(kind, **fields))

    @pytest.mark.parametrize("kind, key", [
        ("response", "withn"),
        ("precedence", "window"),
        ("absence", "windwo"),
        ("bounded_liveness", "within"),
        ("interaction", "complet"),
    ])
    def test_an_unknown_field_is_a_property_error(self, kind, key):
        name = RECORDS[kind]["name"]
        with pytest.raises(PropertyError,
                           match=rf"^{kind} '{name}': unknown fields "
                                 rf"\['{key}'\]$"):
            Property.from_dict(record(kind, **{key: True}))

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_each_reference_record_builds_and_round_trips(self, kind):
        prop = Property.from_dict(RECORDS[kind])
        assert Property.from_dict(prop.to_dict()).to_dict() == prop.to_dict()

    def test_whole_numbers_and_a_null_window_are_accepted(self):
        prop = Property.from_dict(record("response", within=4))
        assert prop.within == 4.0
        assert Property.from_dict(record("absence", window=None)).window \
            is None
