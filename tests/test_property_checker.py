"""The online PropertyChecker (PR 7): monitor-automaton semantics for
every property kind, nested ``property_violation`` emission, checkpoint
/restore transparency, the three escalation policies, and the CLI
exit-code vocabulary the verdicts map onto."""

import pytest

from repro.engine import (
    MESSAGE_DELIVERED,
    PROPERTY_VIOLATION,
    TraceBus,
    TraceRecorder,
)
from repro.errors import PropertyError
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.perf import PERF
from repro.properties import (
    PropertyChecker,
    PropertySuite,
    VIOLATION_POLICIES,
    absence,
    bounded_liveness,
    interaction_conformance,
    precedence,
    response,
)
from repro.simulation import SystemSimulation


def checker_for(prop_or_suite, bus=None, **kwargs):
    bus = bus if bus is not None else TraceBus()
    suite = prop_or_suite if isinstance(prop_or_suite, PropertySuite) \
        else PropertySuite([prop_or_suite])
    return PropertyChecker(suite, bus, **kwargs), bus


def deliver(bus, t, part, signal, sender="peer"):
    return bus.emit(MESSAGE_DELIVERED, t, part,
                    {"signal": signal, "sender": sender})


class TestResponseMonitor:
    def prop(self, within=4.0):
        return response("r", trigger={"signal": "Req", "part": "srv"},
                        reaction={"signal": "Ack", "part": "cli"},
                        within=within)

    def test_discharged_in_time_passes(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "srv", "Req")
        deliver(bus, 5.0, "cli", "Ack")  # exactly at the deadline
        checker.finalize(10.0)
        assert checker.verdicts() == {"r": "pass"}
        assert checker.stats()["r"]["discharged"] == 1

    def test_expiry_detected_by_later_event(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "srv", "Req")
        deliver(bus, 6.0, "srv", "Req")  # time passed 5.0: expiry
        violations = checker.violations("r")
        assert len(violations) == 1
        assert violations[0]["t"] == 6.0
        assert "deadline 5.0" in violations[0]["reason"]

    def test_open_obligation_expires_at_finalize(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "srv", "Req")
        assert checker.total_violations == 0
        checker.finalize(5.0)  # inclusive at the boundary
        assert checker.verdicts() == {"r": "violated"}
        # finalize records no witness event
        assert checker.violations("r")[0]["at"] is None

    def test_obligations_discharge_fifo(self):
        checker, bus = checker_for(self.prop(within=10.0))
        deliver(bus, 1.0, "srv", "Req")
        deliver(bus, 2.0, "srv", "Req")
        deliver(bus, 3.0, "cli", "Ack")  # answers the t=1.0 trigger
        checker.finalize(12.5)  # only the t=2.0 obligation expires
        violations = checker.violations("r")
        assert len(violations) == 1
        assert "t=2.0" in violations[0]["reason"]

    def test_unmatched_reactions_counted_not_violating(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "cli", "Ack")
        checker.finalize(10.0)
        assert checker.verdicts() == {"r": "pass"}
        assert checker.stats()["r"]["unmatched_reactions"] == 1


class TestPrecedenceMonitor:
    def prop(self):
        return precedence("p", first={"signal": "Init"},
                          then={"signal": "Data"})

    def test_then_before_first_violates(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "srv", "Data")
        deliver(bus, 2.0, "srv", "Init")
        deliver(bus, 3.0, "srv", "Data")
        assert len(checker.violations("p")) == 1
        assert checker.violations("p")[0]["t"] == 1.0

    def test_armed_forever_after_first(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "srv", "Init")
        deliver(bus, 2.0, "srv", "Data")
        checker.finalize(10.0)
        assert checker.verdicts() == {"p": "pass"}


class TestAbsenceMonitor:
    def test_every_occurrence_reported(self):
        checker, bus = checker_for(absence("a", never="Nak"))
        deliver(bus, 1.0, "srv", "Nak")
        deliver(bus, 2.0, "srv", "Nak")
        assert len(checker.violations("a")) == 2

    def test_window_is_inclusive(self):
        checker, bus = checker_for(
            absence("a", never="Nak", window=(2.0, 4.0)))
        deliver(bus, 1.9, "srv", "Nak")
        deliver(bus, 2.0, "srv", "Nak")
        deliver(bus, 4.0, "srv", "Nak")
        deliver(bus, 4.1, "srv", "Nak")
        assert [v["t"] for v in checker.violations("a")] == [2.0, 4.0]


class TestLivenessMonitor:
    def prop(self):
        return bounded_liveness("l", match={"signal": "Tick"},
                                at_least=2, by=10.0)

    def test_enough_matches_pass(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "srv", "Tick")
        deliver(bus, 10.0, "srv", "Tick")  # deadline inclusive
        checker.finalize(20.0)
        assert checker.verdicts() == {"l": "pass"}

    def test_late_matches_do_not_count(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "srv", "Tick")
        deliver(bus, 10.5, "srv", "Tick")
        assert len(checker.violations("l")) == 1
        checker.finalize(20.0)
        assert len(checker.violations("l")) == 1  # reported only once

    def test_shortfall_found_at_finalize(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "srv", "Tick")
        checker.finalize(10.0)
        assert checker.verdicts() == {"l": "violated"}
        assert "1/2" in checker.violations("l")[0]["reason"]


class TestConformanceMonitor:
    def prop(self, **kwargs):
        return interaction_conformance(
            "hs", messages=[("cpu", "ram", "Read"),
                            ("ram", "cpu", "ReadResp")],
            loop=(0, 4), **kwargs)

    def test_conforming_trace_passes(self):
        checker, bus = checker_for(self.prop(complete=True))
        deliver(bus, 1.0, "ram", "Read", sender="cpu")
        deliver(bus, 2.0, "cpu", "ReadResp", sender="ram")
        deliver(bus, 3.0, "ram", "Read", sender="cpu")
        deliver(bus, 4.0, "cpu", "ReadResp", sender="ram")
        checker.finalize(5.0)
        assert checker.verdicts() == {"hs": "pass"}
        assert checker.stats()["hs"]["consumed"] == 4

    def test_divergence_reported_once_then_dead(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "ram", "Read", sender="cpu")
        deliver(bus, 2.0, "ram", "Read", sender="cpu")  # expected ReadResp
        deliver(bus, 3.0, "ram", "Read", sender="cpu")
        violations = checker.violations("hs")
        assert len(violations) == 1
        assert "message 2" in violations[0]["reason"]
        assert checker.stats()["hs"]["diverged"]

    def test_out_of_alphabet_messages_ignored(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "ram", "Read", sender="cpu")
        deliver(bus, 1.5, "ram", "Write", sender="cpu")  # unrelated
        deliver(bus, 2.0, "cpu", "ReadResp", sender="ram")
        checker.finalize(5.0)
        assert checker.verdicts() == {"hs": "pass"}
        assert checker.stats()["hs"]["consumed"] == 2

    def test_env_messages_skipped_unless_included(self):
        checker, bus = checker_for(self.prop())
        bus.emit(MESSAGE_DELIVERED, 1.0, "ram", {"signal": "Read"})
        assert checker.stats()["hs"]["consumed"] == 0

    def test_incomplete_prefix_violates_with_complete(self):
        checker, bus = checker_for(self.prop(complete=True))
        deliver(bus, 1.0, "ram", "Read", sender="cpu")  # unanswered
        checker.finalize(5.0)
        assert checker.verdicts() == {"hs": "violated"}
        assert "incomplete prefix" in checker.violations("hs")[0]["reason"]

    def test_viable_prefix_passes_without_complete(self):
        checker, bus = checker_for(self.prop())
        deliver(bus, 1.0, "ram", "Read", sender="cpu")
        checker.finalize(5.0)
        assert checker.verdicts() == {"hs": "pass"}


class TestCheckerMechanics:
    def suite(self):
        return PropertySuite([
            absence("no-nak", never="Nak"),
            response("answered", trigger={"signal": "Req"},
                     reaction={"signal": "Ack"}, within=2.0),
        ], name="mech")

    def test_violation_events_nest_after_their_witness(self):
        bus = TraceBus()
        recorder = TraceRecorder(
            bus, kinds=(MESSAGE_DELIVERED, PROPERTY_VIOLATION))
        checker, _ = checker_for(self.suite(), bus=bus)
        witness = deliver(bus, 1.0, "srv", "Nak")
        emitted = [event for event in recorder.events
                   if event.kind == PROPERTY_VIOLATION]
        assert len(emitted) == 1
        assert emitted[0].ordinal == witness.ordinal + 1
        assert emitted[0].part == "srv"
        assert emitted[0].data["property"] == "no-nak"
        assert emitted[0].data["sequence"] == 1
        # the record stores the witness ordinal, not the emission's
        assert checker.violations("no-nak")[0]["at"] == witness.ordinal

    def test_unobserved_violation_kind_costs_no_ordinal(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus, kinds=(MESSAGE_DELIVERED,))
        checker_for(self.suite(), bus=bus)
        deliver(bus, 1.0, "srv", "Nak")
        deliver(bus, 2.0, "srv", "Ping")
        assert [event.ordinal for event in recorder.events] == [1, 2]

    def test_finalize_is_idempotent(self):
        checker, bus = checker_for(self.suite())
        deliver(bus, 1.0, "srv", "Req")
        checker.finalize(10.0)
        first = checker.report().to_json()
        checker.finalize(50.0)
        assert checker.report().to_json() == first

    def test_checkpoint_restore_round_trip(self):
        checker, bus = checker_for(self.suite())
        deliver(bus, 1.0, "srv", "Req")
        deliver(bus, 2.0, "srv", "Ack")
        snap = checker.checkpoint()
        bus_snap = bus.checkpoint()
        deliver(bus, 3.0, "srv", "Nak")
        deliver(bus, 4.0, "srv", "Req")
        assert checker.total_violations == 1
        checker.restore(snap)
        bus.restore(bus_snap)
        assert checker.total_violations == 0
        # replaying the same tail reproduces the same report bytes
        deliver(bus, 3.0, "srv", "Nak")
        deliver(bus, 4.0, "srv", "Req")
        checker.finalize(10.0)
        reference, reference_bus = checker_for(self.suite())
        deliver(reference_bus, 1.0, "srv", "Req")
        deliver(reference_bus, 2.0, "srv", "Ack")
        deliver(reference_bus, 3.0, "srv", "Nak")
        deliver(reference_bus, 4.0, "srv", "Req")
        reference.finalize(10.0)
        assert checker.report().to_json() == reference.report().to_json()

    def test_detach_stops_observation(self):
        checker, bus = checker_for(self.suite())
        deliver(bus, 1.0, "srv", "Nak")
        checker.detach()
        deliver(bus, 2.0, "srv", "Nak")
        assert checker.total_violations == 1

    def test_perf_counters(self):
        PERF.reset()
        checker, bus = checker_for(self.suite())
        deliver(bus, 1.0, "srv", "Nak")
        deliver(bus, 2.0, "srv", "Ping")
        assert PERF.counter("properties.events") == 2
        assert PERF.counter("properties.violations") == 1
        PERF.reset()

    def test_unknown_policy_rejected(self):
        with pytest.raises(PropertyError):
            checker_for(self.suite(), on_violation="panic")
        assert VIOLATION_POLICIES == ("record", "incident", "supervise")

    def test_unknown_property_name_rejected(self):
        checker, _ = checker_for(self.suite())
        with pytest.raises(PropertyError):
            checker.violations("bogus")


def soc_top():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)])


def nak_suite():
    # ReadResp always flows in a healthy run: a guaranteed violation
    return PropertySuite([absence("no-resp", never="ReadResp")],
                         name="policies")


class TestEscalationPolicies:
    def test_record_only_records(self):
        fired = []
        with SystemSimulation(soc_top(), properties=nak_suite(),
                              on_violation="record") as sim:
            sim.incident_hooks.append(
                lambda reason, detail: fired.append(reason))
            sim.run(until=20.0)
            report = sim.property_report()
        assert report.verdict == "violated"
        assert "property_violation" not in fired
        assert sim.resilience.counts["property_violations"] \
            == report.total_violations
        assert sim.resilience.counts["property_violated.no-resp"] \
            == report.total_violations

    def test_incident_fires_hooks(self):
        fired = []
        with SystemSimulation(soc_top(), properties=nak_suite()) as sim:
            sim.incident_hooks.append(
                lambda reason, detail: fired.append((reason, detail)))
            sim.run(until=20.0)
        assert fired
        assert all(reason == "property_violation" for reason, _ in fired)
        assert "no-resp" in fired[0][1]

    def test_supervise_escalates_the_witnessing_part(self):
        with SystemSimulation(soc_top(), properties=nak_suite(),
                              on_violation="supervise",
                              on_part_error="restart") as sim:
            sim.run(until=20.0)
        assert sim.resilience.part_failures
        assert any("no-resp" in failure["error"]
                   for failure in sim.resilience.part_failures)

    def test_supervise_with_raise_policy_stays_incident_only(self):
        # raising out of a bus callback would detach the checker; with
        # on_part_error="raise" the policy degrades to incident
        with SystemSimulation(soc_top(), properties=nak_suite(),
                              on_violation="supervise") as sim:
            sim.run(until=20.0)
            report = sim.property_report()
        assert report.verdict == "violated"
        assert not sim.resilience.part_failures


class TestExitCodeVocabulary:
    def test_exit_codes_are_disjoint_and_pinned(self):
        from repro.cli import (
            EXIT_ERROR,
            EXIT_INCIDENT,
            EXIT_OK,
            EXIT_PROPERTY_VIOLATED,
            EXIT_QUARANTINED,
        )

        codes = {EXIT_OK, EXIT_ERROR, EXIT_QUARANTINED, EXIT_INCIDENT,
                 EXIT_PROPERTY_VIOLATED}
        assert len(codes) == 5  # pairwise distinct
        assert EXIT_OK == 0
        assert EXIT_ERROR == 2
        assert EXIT_QUARANTINED == 3
        assert EXIT_INCIDENT == 4
        assert EXIT_PROPERTY_VIOLATED == 5
        assert 1 not in codes  # reserved for campaign infra failures
