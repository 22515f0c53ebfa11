"""Verification-grade observability (PR 4): functional coverage,
the deterministic profiler, metrics export, the flight recorder, and
the PERF histogram/percentile machinery they build on."""

import json

import pytest

import repro.metamodel as mm
from repro.activities import AcceptEventAction, Activity
from repro.engine import EVENT, STATE_ENTER, TOKEN, TRANSITION, TraceBus
from repro.errors import ReproError, SimulationError
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.observability import (
    BIN_KINDS,
    COMPLETION,
    CoverageCollector,
    CoverageModel,
    CoverageReport,
    FlightRecorder,
    ObservabilitySuite,
    SimProfiler,
    cross_key,
    to_json,
    to_prometheus,
    transition_key,
)
from repro.perf import PERF, PerfRegistry
from repro.simulation import SystemSimulation
from repro.statemachines import StateMachine, flatten


def toggle_machine():
    machine = StateMachine("Toggle")
    region = machine.region
    init = region.add_initial()
    off = region.add_state("Off")
    on = region.add_state("On")
    region.add_transition(init, off)
    region.add_transition(off, on, trigger="Go")
    region.add_transition(on, off, trigger="Stop")
    return machine


def toggle_component(name="Dut"):
    component = mm.Component(name)
    component.add_behavior(toggle_machine(), as_classifier_behavior=True)
    return component


def soc_top():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x800)
    ram = make_memory("Ram", size_bytes=0x800)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)])


class TestCoverageModel:
    def test_bins_from_state_machine(self):
        part = CoverageModel.from_machine("dut", toggle_machine())
        assert part.behavior == "statemachine"
        assert part.bins["state"] == ("Off", "On")
        assert part.bins["event"] == ("Go", "Stop")
        assert transition_key("Off", "Go", "On") in part.bins["transition"]
        assert transition_key("On", "Stop", "Off") in part.bins["transition"]
        # cross = full state x event product
        assert set(part.bins["cross"]) == {
            cross_key(state, event)
            for state in ("Off", "On") for event in ("Go", "Stop")}
        assert part.total_bins == 2 + 2 + 2 + 4

    def test_bins_from_flat_machine(self):
        flat = flatten(toggle_machine())
        part = CoverageModel.from_flat("dut", flat)
        assert part.behavior == "flat"
        assert set(part.bins["state"]) == set(flat.states)
        assert set(part.bins["event"]) == set(flat.alphabet)
        assert len(part.bins["transition"]) == len(flat.transitions)

    def test_bins_from_activity(self):
        activity = Activity("Act")
        start = activity.add_accept_event("wait", event="Kick")
        done = activity.add_action("work")
        activity.flow(start, done)
        part = CoverageModel.from_activity("dut", activity)
        assert part.behavior == "activity"
        assert "wait" in part.bins["state"]
        assert "work" in part.bins["state"]
        assert part.bins["event"] == ("Kick",)
        assert part.bins["transition"] == ()

    def test_for_component_walks_parts(self):
        model = CoverageModel.for_component(soc_top())
        assert set(model.parts) == {"bus", "m0_cpu", "s0_ram"}
        assert model.total_bins > 0

    def test_completion_events_are_normalized(self):
        machine = StateMachine("Chain")
        region = machine.region
        init = region.add_initial()
        a = region.add_state("A")
        b = region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(a, b)  # completion transition
        part = CoverageModel.from_machine("dut", machine)
        if COMPLETION in part.bins["event"]:
            assert transition_key("A", COMPLETION, "B") \
                in part.bins["transition"]
        # no bin may embed a per-process element id
        for kind in BIN_KINDS:
            for key in part.bins[kind]:
                assert "completion(" not in key


class TestCoverageCollector:
    def emit_toggle_run(self, collector_bus):
        collector_bus.emit(STATE_ENTER, 0.0, "dut", {"state": "Off"})
        collector_bus.emit(EVENT, 1.0, "dut", {"event": "Go"})
        collector_bus.emit(TRANSITION, 1.0, "dut",
                           {"source": "Off", "target": "On", "event": "Go"})
        collector_bus.emit("state_exit", 1.0, "dut", {"state": "Off"})
        collector_bus.emit(STATE_ENTER, 1.0, "dut", {"state": "On"})

    def test_hits_and_uncovered_enumeration(self):
        model = CoverageModel(
            [CoverageModel.from_machine("dut", toggle_machine())])
        bus = TraceBus()
        collector = CoverageCollector(model, bus=bus)
        self.emit_toggle_run(bus)
        report = collector.report()
        summary = report.part_summary("dut")
        assert summary["state"]["covered"] == 2
        assert summary["event"]["covered"] == 1
        assert summary["transition"]["covered"] == 1
        holes = report.uncovered("dut")
        assert holes["event"] == ["Stop"]
        assert transition_key("On", "Stop", "Off") in holes["transition"]
        # the cross bin hit while Off was active
        assert report.parts["dut"]["bins"]["cross"][
            cross_key("Off", "Go")] == 1
        assert cross_key("On", "Stop") in holes["cross"]

    def test_unplanned_hits_counted_not_binned(self):
        model = CoverageModel(
            [CoverageModel.from_machine("dut", toggle_machine())])
        bus = TraceBus()
        collector = CoverageCollector(model, bus=bus)
        bus.emit(EVENT, 0.0, "dut", {"event": "NeverDeclared"})
        bus.emit(EVENT, 0.0, "ghost_part", {"event": "Go"})  # ignored
        assert collector.unplanned == 1
        assert "NeverDeclared" not in \
            collector.report().parts["dut"]["bins"]["event"]

    def test_token_events_hit_activity_state_bins(self):
        activity = Activity("Act")
        activity.add_action("work")
        model = CoverageModel(
            [CoverageModel.from_activity("dut", activity)])
        bus = TraceBus()
        collector = CoverageCollector(model, bus=bus)
        bus.emit(TOKEN, 0.0, "dut", {"node": "work", "variant": "fire"})
        report = collector.report()
        assert report.parts["dut"]["bins"]["state"]["work"] == 1


class TestCoverageReport:
    def make_report(self):
        model = CoverageModel(
            [CoverageModel.from_machine("dut", toggle_machine())])
        bus = TraceBus()
        collector = CoverageCollector(model, bus=bus)
        bus.emit(STATE_ENTER, 0.0, "dut", {"state": "Off"})
        return collector.report()

    def test_serialization_round_trip_and_determinism(self):
        report = self.make_report()
        text = report.to_json(indent=2)
        rebuilt = CoverageReport.from_json(text)
        assert rebuilt.to_json(indent=2) == text
        assert report.to_json() == self.make_report().to_json()
        payload = json.loads(text)
        assert payload["version"] == 1
        assert 0.0 <= payload["total_percent"] <= 100.0
        assert "uncovered" in payload["parts"]["dut"]

    def test_merge_sums_counts_and_unions_bins(self):
        first = self.make_report()
        second = self.make_report()
        merged = first.merge(second)
        assert merged.parts["dut"]["bins"]["state"]["Off"] == 2
        assert merged.total_percent() == first.total_percent()
        assert CoverageReport.merged([first, second]).to_json() \
            == merged.to_json()

    def test_merged_requires_at_least_one(self):
        with pytest.raises(ReproError):
            CoverageReport.merged([])

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ReproError):
            CoverageReport.from_json("{not json")
        with pytest.raises(ReproError):
            CoverageReport.from_dict({"no": "parts"})


class TestSimProfiler:
    def test_time_attribution_is_exact(self):
        bus = TraceBus()
        profiler = SimProfiler(bus=bus)
        bus.emit(STATE_ENTER, 0.0, "dut", {"state": "Off"})
        bus.emit(EVENT, 3.0, "dut", {"event": "Go"})
        bus.emit("state_exit", 3.0, "dut", {"state": "Off"})
        bus.emit(STATE_ENTER, 3.0, "dut", {"state": "On"})
        profiler.finalize(10.0)
        assert profiler.residence[("dut", "Off")] == pytest.approx(3.0)
        assert profiler.residence[("dut", "On")] == pytest.approx(7.0)
        lines = profiler.collapsed_time()
        assert "dut;Off 3000" in lines
        assert "dut;On 7000" in lines

    def test_step_counts_label_event_and_fire_frames(self):
        bus = TraceBus()
        profiler = SimProfiler(bus=bus)
        bus.emit(STATE_ENTER, 0.0, "dut", {"state": "Off"})
        bus.emit(EVENT, 1.0, "dut", {"event": "Go"})
        bus.emit(TRANSITION, 1.0, "dut",
                 {"source": "Off", "target": "On", "event": "Go"})
        steps = profiler.collapsed_steps()
        assert "dut;Off;event:Go 1" in steps
        assert "dut;Off;fire:Off->On@Go 1" in steps

    def test_report_rollups(self):
        bus = TraceBus()
        profiler = SimProfiler(bus=bus)
        bus.emit(STATE_ENTER, 0.0, "dut", {"state": "Off"})
        profiler.finalize(5.0)
        report = profiler.report()
        assert report["parts"]["dut"]["time"] == pytest.approx(5.0)
        assert report["finalized_at"] == 5.0
        assert report["top_frames"][0]["frame"] == "dut;Off"


class TestFlightRecorder:
    def test_ring_is_bounded_oldest_dropped(self):
        bus = TraceBus()
        recorder = FlightRecorder(capacity=3, bus=bus)
        for index in range(5):
            bus.emit(EVENT, float(index), "p", {"event": f"E{index}"})
        assert len(recorder.events) == 3
        assert [event.data["event"] for event in recorder.events] \
            == ["E2", "E3", "E4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            FlightRecorder(capacity=0)

    def test_dump_has_header_then_events(self, tmp_path):
        bus = TraceBus()
        recorder = FlightRecorder(capacity=8, bus=bus)
        bus.emit(EVENT, 1.0, "p", {"event": "E"})
        path = tmp_path / "dump.jsonl"
        count = recorder.dump(str(path), reason="test", detail="unit")
        lines = path.read_text().strip().splitlines()
        assert count == len(lines) == 2
        header = json.loads(lines[0])
        assert header["kind"] == "postmortem"
        assert header["reason"] == "test"
        assert header["buffered"] == 1
        assert json.loads(lines[1])["kind"] == "event"

    def test_auto_dump_on_quarantine(self, tmp_path):
        top = mm.Component("T")
        bad = mm.Component("Bad")
        machine = StateMachine("BadSm")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S")
        region.add_transition(init, state)
        region.add_transition(state, state, trigger="Tick",
                              effect="x = 1 / 0;")
        bad.add_behavior(machine, as_classifier_behavior=True)
        top.add_part("bad", bad)
        dump = tmp_path / "post.jsonl"
        with SystemSimulation(top, on_part_error="quarantine",
                              flight_recorder=16,
                              flight_dump=str(dump)) as sim:
            sim.send("bad", "Tick", delay=1.0)
            sim.run(until=10.0)
        assert "bad" in sim.quarantined_parts
        assert dump.exists()
        header = json.loads(dump.read_text().splitlines()[0])
        assert header["reason"] == "part_quarantined"
        assert header["quarantined"] == ["bad"]
        assert "configurations" in header

    def test_auto_dump_on_simulation_error(self, tmp_path):
        top = mm.Component("T")
        bad = mm.Component("Bad")
        machine = StateMachine("BadSm")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S")
        region.add_transition(init, state)
        region.add_transition(state, state, trigger="Tick",
                              effect="x = 1 / 0;")
        bad.add_behavior(machine, as_classifier_behavior=True)
        top.add_part("bad", bad)
        dump = tmp_path / "post.jsonl"
        with pytest.raises(ReproError):
            with SystemSimulation(top, on_part_error="raise",
                                  flight_recorder=16,
                                  flight_dump=str(dump)) as sim:
                sim.send("bad", "Tick", delay=1.0)
                sim.run(until=10.0)
        assert dump.exists()
        header = json.loads(dump.read_text().splitlines()[0])
        assert header["reason"] == "simulation_error"
        assert "detail" in header

    def test_dump_records_injector_rng(self, tmp_path):
        campaign = FaultCampaign(
            [FaultSpec("drop", probability=0.5)], name="c", seed=9)
        with SystemSimulation(soc_top(), faults=campaign,
                              flight_recorder=32) as sim:
            sim.run(until=20.0)
            recorder = FlightRecorder(capacity=4)
            header = recorder.header(sim, reason="manual")
        assert header["injector_rng"] is not None
        json.dumps(header)  # must already be jsonable


class TestMetricsExport:
    def snapshot(self):
        registry = PerfRegistry()
        registry.incr("alpha.count", 3)
        registry.observe("beta.wall_s", 0.5)
        registry.observe("beta.wall_s", 1.5)
        registry.hist("gamma.hist", 0.002)
        registry.hist("gamma.hist", 0.004)
        return registry.snapshot()

    def test_prometheus_rendering(self):
        text = to_prometheus(self.snapshot())
        assert "# TYPE repro_alpha_count counter" in text
        assert "repro_alpha_count 3" in text
        assert "repro_beta_wall_s_sum 2" in text
        assert "repro_beta_wall_s_count 2" in text
        assert 'repro_gamma_hist_bucket{le="+Inf"} 2' in text
        assert "repro_gamma_hist_p50" in text
        assert text.endswith("\n")

    def test_prometheus_includes_coverage_gauges(self):
        model = CoverageModel(
            [CoverageModel.from_machine("dut", toggle_machine())])
        bus = TraceBus()
        collector = CoverageCollector(model, bus=bus)
        bus.emit(STATE_ENTER, 0.0, "dut", {"state": "Off"})
        text = to_prometheus(self.snapshot(), coverage=collector.report())
        assert 'repro_coverage_percent{part="dut",kind="state"} 50' in text
        assert "repro_coverage_total_percent" in text

    def test_json_rendering_sorted_and_embeds_coverage(self):
        snapshot = self.snapshot()
        text = to_json(snapshot, indent=None)
        payload = json.loads(text)
        assert payload["perf"]["counters"]["alpha.count"] == 3
        assert text == to_json(snapshot, indent=None)  # deterministic

    def test_equal_snapshots_export_identically(self):
        assert to_prometheus(self.snapshot()) \
            == to_prometheus(self.snapshot())


class TestPerfHistograms:
    def test_hist_counts_and_overflow(self):
        registry = PerfRegistry()
        registry.hist("h", 0.5, buckets=(1.0, 2.0))
        registry.hist("h", 1.5)
        registry.hist("h", 99.0)  # overflow slot
        stats = registry.hist_stats("h")
        assert stats["counts"] == [1, 1, 1]
        assert stats["count"] == 3
        assert stats["min"] == 0.5
        assert stats["max"] == 99.0

    def test_percentiles_deterministic_and_clamped(self):
        registry = PerfRegistry()
        for value in (0.5, 0.5, 1.5, 99.0):
            registry.hist("h", value, buckets=(1.0, 2.0))
        estimates = registry.percentiles("h")
        assert estimates["p50"] == 1.0  # bucket upper bound at rank
        assert estimates["p99"] == 99.0  # overflow answers with max
        assert registry.percentiles("h") == estimates
        assert registry.percentiles("unknown") is None

    def test_snapshot_key_sorted_and_carries_percentiles(self):
        registry = PerfRegistry()
        registry.incr("z.last")
        registry.incr("a.first")
        registry.hist("h", 0.1)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "histograms", "observations"]
        assert list(snapshot["counters"]) == ["a.first", "z.last"]
        assert {"p50", "p95", "p99"} <= set(snapshot["histograms"]["h"])

    def test_reset_clears_all_series(self):
        registry = PerfRegistry()
        registry.incr("c")
        registry.observe("o", 1.0)
        registry.hist("h", 1.0)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["observations"] == {}
        assert snapshot["histograms"] == {}

    def test_report_mentions_histograms(self):
        registry = PerfRegistry()
        registry.hist("h", 0.01)
        assert "histograms:" in registry.report()


class TestObservabilitySuite:
    def test_wires_all_consumers(self):
        with SystemSimulation(soc_top(), coverage=True, profile=True,
                              flight_recorder=32) as sim:
            sim.run(until=40.0)
            suite = sim.observability
            assert isinstance(suite, ObservabilitySuite)
            report = suite.coverage_report()
            assert report.total_percent() > 0
            assert suite.profile_lines("time")
            assert suite.profile_lines("steps")
            assert len(suite.recorder.events) == 32
            summary = suite.summary()
            assert summary["coverage_percent"] == report.total_percent()

    def test_disabled_by_default(self):
        with SystemSimulation(soc_top()) as sim:
            sim.run(until=5.0)
            assert sim.observability is None

    def test_unknown_profile_metric_rejected(self):
        with SystemSimulation(soc_top(), profile=True) as sim:
            sim.run(until=5.0)
            with pytest.raises(SimulationError):
                sim.observability.profile_lines("calories")

    def test_accessors_raise_when_not_enabled(self):
        with SystemSimulation(soc_top(), profile=True) as sim:
            with pytest.raises(SimulationError):
                sim.observability.coverage_report()


class TestIncidentHooks:
    def test_hook_errors_are_swallowed_and_counted(self):
        PERF.reset()
        top = mm.Component("T")
        bad = mm.Component("Bad")
        machine = StateMachine("BadSm")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S")
        region.add_transition(init, state)
        region.add_transition(state, state, trigger="Tick",
                              effect="x = 1 / 0;")
        bad.add_behavior(machine, as_classifier_behavior=True)
        top.add_part("bad", bad)
        fired = []

        def good_hook(reason, detail):
            fired.append((reason, detail))

        def bad_hook(reason, detail):
            raise RuntimeError("hook bug")

        with SystemSimulation(top, on_part_error="quarantine") as sim:
            sim.incident_hooks.append(bad_hook)
            sim.incident_hooks.append(good_hook)
            sim.send("bad", "Tick", delay=1.0)
            sim.run(until=10.0)
        assert fired and fired[0][0] == "part_quarantined"
        assert PERF.counter("cosim.incident_hook_errors") >= 1
        PERF.reset()
