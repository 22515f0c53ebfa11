"""The TraceBus (PR 3): typed events, subscriptions, ordinals,
checkpointing — and the byte-for-byte lockstep guarantee between the
interpreted and compiled engines."""

import io
import json

import pytest

from repro.engine import (
    ENGINE_KINDS,
    EVENT,
    FAULT,
    KINDS,
    MESSAGE_DELIVERED,
    MESSAGE_DROPPED,
    MESSAGE_ROUTED,
    PART_QUARANTINED,
    PART_RESTARTED,
    STATE_ENTER,
    STATE_EXIT,
    TOKEN,
    TRANSITION,
    JsonlTraceWriter,
    TraceBus,
    TraceEvent,
    TraceRecorder,
    attach_perf_counters,
)
from repro.errors import SimulationError
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.perf import PERF
from repro.simulation import SystemSimulation


class TestKindVocabulary:
    def test_literals_are_pinned(self):
        # the engine modules emit these kinds as literal strings (to
        # stay import-free of repro.engine); this pin stops the
        # constants and the literals from drifting apart
        assert EVENT == "event"
        assert TRANSITION == "transition"
        assert STATE_ENTER == "state_enter"
        assert STATE_EXIT == "state_exit"
        assert TOKEN == "token"
        assert MESSAGE_ROUTED == "message_routed"
        assert MESSAGE_DELIVERED == "message_delivered"
        assert MESSAGE_DROPPED == "message_dropped"
        assert FAULT == "fault"
        assert PART_QUARANTINED == "part_quarantined"
        assert PART_RESTARTED == "part_restarted"
        from repro.engine import (
            CHECKPOINT,
            PART_RESTORED,
            PROPERTY_VIOLATION,
            SUPERVISOR_DECISION,
        )

        assert PART_RESTORED == "part_restored"
        assert SUPERVISOR_DECISION == "supervisor_decision"
        assert CHECKPOINT == "checkpoint"
        assert PROPERTY_VIOLATION == "property_violation"

    def test_engine_kinds_subset(self):
        assert set(ENGINE_KINDS) < set(KINDS)
        assert len(set(KINDS)) == len(KINDS) == 15


class TestTraceEvent:
    def test_dict_and_json_are_stable(self):
        event = TraceEvent(3, 1.5, MESSAGE_DELIVERED, "cpu",
                           {"signal": "Read", "sender": "ram"})
        assert event.to_dict() == {
            "ordinal": 3, "t": 1.5, "kind": "message_delivered",
            "part": "cpu", "sender": "ram", "signal": "Read"}
        assert json.loads(event.to_json()) == event.to_dict()
        # payload keys serialize sorted, identity fields first
        assert event.to_json().index('"sender"') \
            < event.to_json().index('"signal"')

    def test_value_equality(self):
        one = TraceEvent(1, 0.0, EVENT, "p", {"event": "Go"})
        two = TraceEvent(1, 0.0, EVENT, "p", {"event": "Go"})
        assert one == two
        assert hash(one) == hash(two)
        assert one != TraceEvent(2, 0.0, EVENT, "p", {"event": "Go"})


class TestBusMechanics:
    def test_emit_without_subscribers_returns_none(self):
        bus = TraceBus()
        assert bus.emit(EVENT, 0.0, "p", {}) is None
        assert bus.events_emitted == 0

    def test_unknown_kind_rejected(self):
        bus = TraceBus()
        with pytest.raises(SimulationError):
            bus.subscribe(lambda event: None, kinds=("bogus",))

    def test_ordinals_are_gapless_over_emitted_events(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus, kinds=(EVENT,))
        bus.emit(EVENT, 0.0, "p", {"event": "A"})
        bus.emit(TOKEN, 0.0, "p", {"node": "n"})  # nobody listens
        bus.emit(EVENT, 1.0, "p", {"event": "B"})
        assert [event.ordinal for event in recorder.events] == [1, 2]
        assert bus.events_emitted == 2

    def test_kind_filtering(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus, kinds=(TRANSITION,))
        bus.emit(EVENT, 0.0, "p", {})
        bus.emit(TRANSITION, 0.0, "p", {"source": "A", "target": "B"})
        assert [event.kind for event in recorder.events] == [TRANSITION]

    def test_engine_active_tracks_subscriptions(self):
        bus = TraceBus()
        assert not bus.engine_active
        message_sub = bus.subscribe(lambda event: None,
                                    kinds=(MESSAGE_DELIVERED,))
        assert not bus.engine_active
        engine_sub = bus.subscribe(lambda event: None, kinds=(EVENT,))
        assert bus.engine_active
        engine_sub.cancel()
        assert not bus.engine_active
        message_sub.cancel()
        assert bus.subscriber_count == 0

    def test_wildcard_subscription_sees_everything(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        assert bus.engine_active
        for kind in KINDS:
            bus.emit(kind, 0.0, "p", {})
        assert [event.kind for event in recorder.events] == list(KINDS)

    def test_subscription_context_manager(self):
        bus = TraceBus()
        with bus.subscribe(lambda event: None, kinds=(EVENT,)):
            assert bus.subscriber_count == 1
        assert bus.subscriber_count == 0

    def test_checkpoint_restore_rewinds_ordinal(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus, kinds=(EVENT,))
        bus.emit(EVENT, 0.0, "p", {"event": "A"})
        snap = bus.checkpoint()
        bus.emit(EVENT, 1.0, "p", {"event": "B"})
        bus.restore(snap)
        replay = bus.emit(EVENT, 1.0, "p", {"event": "B"})
        assert replay.ordinal == recorder.events[1].ordinal == 2


class TestStockSubscribers:
    def test_jsonl_writer_streams_lines(self):
        bus = TraceBus()
        stream = io.StringIO()
        writer = JsonlTraceWriter(stream, bus=bus,
                                  kinds=(MESSAGE_DELIVERED,))
        bus.emit(MESSAGE_DELIVERED, 2.0, "ram",
                 {"signal": "Read", "sender": "cpu"})
        assert writer.lines_written == 1
        record = json.loads(stream.getvalue())
        assert record["part"] == "ram" and record["signal"] == "Read"

    def test_attach_perf_counters(self):
        PERF.reset()
        bus = TraceBus()
        attach_perf_counters(bus, prefix="tb", kinds=(EVENT, TRANSITION))
        bus.emit(EVENT, 0.0, "p", {})
        bus.emit(EVENT, 1.0, "p", {})
        bus.emit(TRANSITION, 1.0, "p", {})
        assert PERF.counter("tb.event") == 2
        assert PERF.counter("tb.transition") == 1
        PERF.reset()


def soc_top():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)])


def full_trace(engine, until=80.0):
    # subscribe before construction so start-time entries are captured
    bus = TraceBus()
    recorder = TraceRecorder(bus)
    with SystemSimulation(soc_top(), engine=engine, bus=bus) as sim:
        sim.run(until=until)
    return recorder


class TestLockstepStreams:
    def test_interpreted_vs_compiled_byte_identical(self):
        interpreted = full_trace("interpreted")
        compiled = full_trace("compiled")
        assert interpreted.events, "trace must not be empty"
        assert interpreted.to_jsonl() == compiled.to_jsonl()

    def test_same_mode_reruns_are_identical(self):
        assert full_trace("compiled").to_jsonl() \
            == full_trace("compiled").to_jsonl()

    def test_stream_carries_every_layer(self):
        recorder = full_trace("interpreted")
        kinds = {event.kind for event in recorder.events}
        assert {EVENT, TRANSITION, STATE_ENTER, MESSAGE_ROUTED,
                MESSAGE_DELIVERED} <= kinds

    def test_cosim_default_bus_skips_engine_kinds(self):
        # the default harness subscribers only want message kinds, so
        # the engines must not pay for (or emit) engine-level events
        with SystemSimulation(soc_top()) as sim:
            sim.run(until=40.0)
            assert not sim.bus.engine_active
            assert sim.message_log  # built-in subscriber still works
            # delivered + dropped are the only default emissions
            assert sim.stats()["trace_events"] \
                == len(sim.message_log) + sim.messages_dropped

    def test_bus_false_disables_observation(self):
        with SystemSimulation(soc_top(), bus=False) as sim:
            sim.run(until=40.0)
            assert sim.bus is None
            assert sim.message_log == []
            assert sim.messages_delivered > 0
            assert sim.stats()["trace_events"] == 0


class TestSubscriberIsolation:
    """PR 4 regression: a raising subscriber must not kill the run."""

    def test_raising_subscriber_is_detached_with_warning(self):
        PERF.reset()
        bus = TraceBus()
        good = []

        def bad(event):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        bus.subscribe(good.append)
        with pytest.warns(RuntimeWarning, match="boom"):
            bus.emit(EVENT, 1.0, "p", {"event": "E"})
        # the healthy subscriber saw the event; the bad one is gone
        assert len(good) == 1
        bus.emit(EVENT, 2.0, "p", {"event": "E"})
        assert len(good) == 2
        assert PERF.counter("trace.subscriber_errors") == 1
        PERF.reset()

    def test_kind_filtered_raising_subscriber_detached_everywhere(self):
        bus = TraceBus()

        def bad(event):
            raise ValueError("nope")

        bus.subscribe(bad, kinds=(EVENT, TRANSITION))
        with pytest.warns(RuntimeWarning):
            bus.emit(EVENT, 1.0, "p", {"event": "E"})
        # both kind subscriptions cancelled, not just the firing one
        import warnings

        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            bus.emit(TRANSITION, 2.0, "p",
                     {"source": "A", "target": "B", "event": "E"})
        assert not [w for w in captured
                    if issubclass(w.category, RuntimeWarning)]
        PERF.reset()

    def test_simulation_survives_poisoned_subscriber(self):
        bus = TraceBus()
        seen = [0]

        def poisoned(event):
            raise RuntimeError("subscriber bug")

        def healthy(event):
            seen[0] += 1

        bus.subscribe(poisoned)
        bus.subscribe(healthy)
        with pytest.warns(RuntimeWarning):
            with SystemSimulation(soc_top(), bus=bus) as sim:
                sim.run(until=40.0)
        assert sim.messages_delivered > 0
        assert seen[0] > 0
        PERF.reset()


class TestReentrantDetach:
    """PR 9 regression: a subscriber that cancels subscriptions (its
    own or a peer's) *during* an emit must not corrupt the delivery of
    the in-flight event — the emit iterates a snapshot, so the
    detachment takes effect from the next emit on."""

    def test_peer_detached_mid_emit_still_sees_inflight_event(self):
        bus = TraceBus()
        peer_seen = []
        subscriptions = {}

        def assassin(event):
            subscriptions["peer"].cancel()

        subscriptions["assassin"] = bus.subscribe(assassin,
                                                  kinds=(EVENT,))
        subscriptions["peer"] = bus.subscribe(peer_seen.append,
                                              kinds=(EVENT,))
        bus.emit(EVENT, 1.0, "p", {"event": "E"})
        # snapshot semantics: the peer was still in this emit's tuple
        assert len(peer_seen) == 1
        bus.emit(EVENT, 2.0, "p", {"event": "E"})
        assert len(peer_seen) == 1  # detached from the next emit on
        assert bus.subscriber_count == 1

    def test_self_detach_mid_emit(self):
        bus = TraceBus()
        seen = []
        box = {}

        def once(event):
            seen.append(event)
            box["sub"].cancel()

        box["sub"] = bus.subscribe(once, kinds=(EVENT,))
        survivor = TraceRecorder(bus, kinds=(EVENT,))
        bus.emit(EVENT, 1.0, "p", {"event": "E"})
        bus.emit(EVENT, 2.0, "p", {"event": "E"})
        assert len(seen) == 1
        assert len(survivor.events) == 2  # the peer was untouched
        assert bus.subscriber_count == 1

    def test_detach_plus_reentrant_emit(self):
        bus = TraceBus()
        peer_seen = []
        nested = []
        subscriptions = {}

        def reentrant(event):
            if event.data.get("event") == "Outer":
                subscriptions["peer"].cancel()
                inner = bus.emit(EVENT, event.t, "p",
                                 {"event": "Inner"})
                nested.append(inner)

        subscriptions["reentrant"] = bus.subscribe(reentrant,
                                                   kinds=(EVENT,))
        subscriptions["peer"] = bus.subscribe(peer_seen.append,
                                              kinds=(EVENT,))
        outer = bus.emit(EVENT, 1.0, "p", {"event": "Outer"})
        # the nested emit ran against the *rebuilt* table (no peer),
        # the outer delivery finished against its snapshot (peer seen)
        assert [event.data["event"] for event in peer_seen] == ["Outer"]
        assert nested[0].ordinal == outer.ordinal + 1
        assert bus.events_emitted == 2  # ordinals stayed gapless

    def test_cancel_is_idempotent_during_emit(self):
        bus = TraceBus()
        box = {}

        def twitchy(event):
            box["sub"].cancel()
            box["sub"].cancel()  # double-cancel must be harmless

        box["sub"] = bus.subscribe(twitchy, kinds=(EVENT,))
        bus.emit(EVENT, 1.0, "p", {"event": "E"})
        assert bus.subscriber_count == 0
