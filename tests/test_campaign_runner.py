"""The crash-tolerant, resumable campaign runner (PR 5): serial ==
parallel == resumed byte-identity, SIGKILL'd-worker retry, journal
resume, order-independent report merging, and the CLI surface."""

import json
import os

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.cli import main
from repro.errors import FaultError
from repro.faults import (
    CampaignSpec,
    FaultCampaign,
    FaultSpec,
    ResilienceReport,
    read_journal,
    run_campaign,
    run_seed,
)
from repro.faults.runner import TEST_KILL_ENV
from repro.hw import make_memory, make_soc, make_traffic_generator


def soc_top():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)])


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    model = mm.Model("design")
    package = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=package)
    path = tmp_path_factory.mktemp("campaign") / "soc.xmi"
    xmi.write_file(str(path), model)
    return str(path)


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    campaign = FaultCampaign(
        [FaultSpec("drop", signal="Read", probability=0.3),
         FaultSpec("delay", delay=1.5, probability=0.4)],
        name="sweep", seed=0)
    path = tmp_path_factory.mktemp("campaign") / "campaign.json"
    path.write_text(campaign.to_json())
    return str(path)


def make_spec(model_file, campaign_file, seeds=(1, 2, 3, 4), **kwargs):
    options = dict(model=model_file, top="design::Soc",
                   campaign=campaign_file, until=40.0, name="sweep")
    options.update(kwargs)
    return CampaignSpec(seeds=list(seeds), **options)


class TestSpecValidation:
    def test_needs_exactly_one_model_source(self):
        with pytest.raises(FaultError):
            CampaignSpec(seeds=[1])
        with pytest.raises(FaultError):
            CampaignSpec(seeds=[1], model="m.xmi", top="T",
                         builder="mod:f")

    def test_model_needs_top(self):
        with pytest.raises(FaultError):
            CampaignSpec(seeds=[1], model="m.xmi")

    def test_builder_shape(self):
        with pytest.raises(FaultError):
            CampaignSpec(seeds=[1], builder="no_colon")

    def test_seeds_validated(self):
        with pytest.raises(FaultError):
            CampaignSpec(seeds=[], builder="m:f")
        with pytest.raises(FaultError):
            CampaignSpec(seeds=[1, 1], builder="m:f")

    def test_round_trip(self, model_file, campaign_file):
        spec = make_spec(model_file, campaign_file, coverage=True)
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() \
            == spec.to_dict()

    @pytest.mark.parametrize("engine", ("warp", "batched"))
    def test_engine_field_validated(self, engine):
        with pytest.raises(FaultError):
            CampaignSpec(seeds=[1], builder="m:f", engine=engine)

    def test_spec_round_trips_engine(self, model_file, campaign_file):
        spec = make_spec(model_file, campaign_file, engine="compiled")
        assert CampaignSpec.from_dict(spec.to_dict()).engine == "compiled"

    @pytest.mark.parametrize("data, field", [
        ({"seeds": [1], "builder": "m:f", "bogus": 1}, "bogus"),
        ({"builder": "m:f"}, "seeds"),
        ({"seeds": 5, "builder": "m:f"}, "seeds"),
        ({"seeds": ["x"], "builder": "m:f"}, "seeds"),
        ({"seeds": [1], "builder": "m:f", "until": "soon"}, "until"),
        ({"seeds": [1], "builder": "m:f", "engine": "batched"}, "engine"),
        ({"seeds": [1], "builder": "m:f", "engine": None}, "engine"),
        ({"seeds": [1], "builder": "m:f", "compiled": True}, "compiled"),
        ({"seeds": [1], "builder": "m:f", "on_part_error": "bogus"},
         "on_part_error"),
        ({"seeds": [1], "builder": "m:f", "checkpoint_interval": -1},
         "checkpoint_interval"),
        ({"seeds": [1], "builder": "m:f", "checkpoint_interval": "abc"},
         "checkpoint_interval"),
        ({"seeds": [1], "builder": "m:f", "quantum": 0}, "quantum"),
    ], ids=["unknown-key", "missing-seeds", "scalar-seeds",
            "non-integer-seed", "non-numeric-until", "batched-engine",
            "null-engine", "legacy-compiled-key", "unknown-part-policy",
            "negative-checkpoint-interval",
            "non-numeric-checkpoint-interval", "zero-quantum"])
    def test_malformed_dict_raises_fault_error(self, data, field):
        # specs arrive as plain data from the socket API and journals;
        # a value SystemSimulation would reject must fail here, before
        # any worker forks
        with pytest.raises(FaultError, match=field):
            CampaignSpec.from_dict(data)


class TestSerialSweep:
    def test_run_seed_is_deterministic(self, model_file, campaign_file):
        spec = make_spec(model_file, campaign_file)
        assert run_seed(spec, 3) == run_seed(spec, 3)

    def test_builder_source(self, campaign_file, monkeypatch):
        import sys
        import types

        module = types.ModuleType("_campaign_builder_fixture")
        module.soc_top = soc_top
        monkeypatch.setitem(sys.modules, "_campaign_builder_fixture",
                            module)
        spec = CampaignSpec(
            seeds=[1], builder="_campaign_builder_fixture:soc_top",
            campaign=campaign_file, until=40.0)
        result = run_campaign(spec, workers=0)
        assert result.completed_seeds == [1]
        assert result.mode == "serial"

    def test_journal_rows_and_result(self, model_file, campaign_file,
                                     tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        spec = make_spec(model_file, campaign_file, seeds=(1, 2))
        result = run_campaign(spec, journal=journal)
        assert result.ok and result.completed_seeds == [1, 2]
        header, completed, failures = read_journal(journal)
        assert header["spec"] == spec.to_dict()
        assert sorted(completed) == [1, 2]
        assert failures == []
        merged = result.resilience()
        assert merged.total_injections > 0


class TestParallelSweep:
    def test_parallel_equals_serial_bytes(self, model_file,
                                          campaign_file):
        spec = make_spec(model_file, campaign_file, coverage=True)
        serial = run_campaign(spec, workers=0)
        parallel = run_campaign(spec, workers=3, run_timeout=120.0)
        assert parallel.mode == "parallel"
        assert parallel.to_json() == serial.to_json()
        assert parallel.coverage().to_json() == \
            serial.coverage().to_json()

    def test_killed_worker_is_retried(self, model_file, campaign_file,
                                      tmp_path, monkeypatch):
        # seed 2's worker SIGKILLs itself on attempt 1; the retry
        # completes and the sweep still matches the serial reference
        monkeypatch.setenv(TEST_KILL_ENV, "2:1")
        journal = str(tmp_path / "killed.jsonl")
        spec = make_spec(model_file, campaign_file)
        result = run_campaign(spec, workers=3, journal=journal,
                              run_timeout=120.0)
        monkeypatch.delenv(TEST_KILL_ENV)
        assert result.ok and result.completed_seeds == [1, 2, 3, 4]
        _, _, failure_rows = read_journal(journal)
        assert [row["seed"] for row in failure_rows] == [2]
        assert "worker died" in failure_rows[0]["error"]
        reference = run_campaign(spec, workers=0)
        assert result.to_json() == reference.to_json()

    def test_permanent_crash_is_isolated(self, model_file,
                                         campaign_file, monkeypatch):
        # seed 3 dies on every attempt: it becomes a failure row while
        # the other seeds complete untouched
        monkeypatch.setenv(TEST_KILL_ENV, "3:99")
        spec = make_spec(model_file, campaign_file)
        result = run_campaign(spec, workers=3, run_timeout=120.0,
                              max_retries=1)
        assert result.failed_seeds == [3]
        assert result.completed_seeds == [1, 2, 4]
        assert result.failures[0]["attempts"] == 2
        assert not result.ok


def write_inputs(directory, period, fault, never):
    """A model, fault campaign and property suite under ``directory``."""
    from repro.properties import PropertySuite, absence

    directory.mkdir(exist_ok=True)
    model = mm.Model("design")
    package = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=period,
                                 address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=package)
    xmi.write_file(str(directory / "soc.xmi"), model)
    (directory / "campaign.json").write_text(
        FaultCampaign([fault], name="sweep", seed=0).to_json())
    (directory / "props.json").write_text(PropertySuite(
        [absence("never", never={"signal": never})]).to_json())
    return dict(model=str(directory / "soc.xmi"), top="design::Soc",
                campaign=str(directory / "campaign.json"),
                properties=str(directory / "props.json"), until=40.0)


class TestWarmMemo:
    def test_inputs_rewritten_in_place_are_reloaded(self, tmp_path):
        old = write_inputs(tmp_path / "inputs", 2.0,
                           FaultSpec("drop", signal="Read",
                                     probability=0.3), "Nak")
        spec = CampaignSpec(seeds=[1, 2], **old)
        first = run_campaign(spec)
        new = (3.0, FaultSpec("delay", delay=1.5, probability=0.5),
               "Read")
        write_inputs(tmp_path / "inputs", *new)  # same paths
        rewritten = run_campaign(spec)
        fresh = run_campaign(CampaignSpec(
            seeds=[1, 2], **write_inputs(tmp_path / "fresh", *new)))
        assert rewritten.to_json() == fresh.to_json()
        assert rewritten.to_json() != first.to_json()


class TestResume:
    def test_resume_runs_only_missing_seeds(self, model_file,
                                            campaign_file, tmp_path,
                                            monkeypatch):
        journal = str(tmp_path / "resume.jsonl")
        spec = make_spec(model_file, campaign_file)
        # first attempt: seed 3 is unrunnable (killed on every try)
        monkeypatch.setenv(TEST_KILL_ENV, "3:99")
        partial = run_campaign(spec, workers=3, journal=journal,
                               run_timeout=120.0, max_retries=0)
        monkeypatch.delenv(TEST_KILL_ENV)
        assert partial.completed_seeds == [1, 2, 4]
        # resume re-runs exactly the missing seed …
        resumed = run_campaign(spec, workers=3, journal=journal,
                               resume=True, run_timeout=120.0)
        assert resumed.resumed_seeds == [1, 2, 4]
        assert resumed.completed_seeds == [1, 2, 3, 4]
        # … and the journal gained exactly one new ok row
        _, completed, _ = read_journal(journal)
        assert sorted(completed) == [1, 2, 3, 4]
        # byte-identical to the uninterrupted serial reference
        reference = run_campaign(spec, workers=0)
        assert resumed.to_json() == reference.to_json()

    def test_torn_journal_tail_is_tolerated(self, model_file,
                                            campaign_file, tmp_path):
        journal = str(tmp_path / "torn.jsonl")
        spec = make_spec(model_file, campaign_file, seeds=(1, 2, 3))
        run_campaign(spec, journal=journal)
        lines = open(journal, encoding="utf-8").read().splitlines()
        # the writer died mid-append: seed 3's row is half a line
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
            handle.write(lines[-1][:20])
        resumed = run_campaign(spec, journal=journal, resume=True)
        assert resumed.resumed_seeds == [1, 2]
        assert resumed.to_json() == run_campaign(spec).to_json()
        # the torn half-line was cut before seed 3's row was appended,
        # so a second resume finds every seed
        again = run_campaign(spec, journal=journal, resume=True)
        assert again.resumed_seeds == [1, 2, 3]
        assert again.to_json() == resumed.to_json()

    def test_journal_without_a_complete_record_starts_fresh(
            self, model_file, campaign_file, tmp_path):
        journal = tmp_path / "torn-header.jsonl"
        journal.write_text('{"spec": {"se')
        spec = make_spec(model_file, campaign_file, seeds=(1,))
        run_campaign(spec, journal=str(journal), resume=True)
        header, completed, _ = read_journal(str(journal))
        assert header["spec"] == spec.to_dict() and sorted(completed) == [1]

    def test_resumes_a_journal_with_spaced_separators(
            self, model_file, campaign_file, tmp_path):
        """Journals once used json.dumps' default ", "/": " separators;
        they still resume."""
        journal = tmp_path / "spaced.jsonl"
        spec = make_spec(model_file, campaign_file, seeds=(1, 2))
        reference = run_campaign(spec, journal=str(journal))
        journal.write_text("".join(
            json.dumps(json.loads(line), sort_keys=True) + "\n"
            for line in journal.read_text().splitlines()))
        assert '"status": "ok"' in journal.read_text()
        resumed = run_campaign(spec, journal=str(journal), resume=True)
        assert resumed.resumed_seeds == [1, 2]
        assert resumed.to_json() == reference.to_json()

    def test_resume_rejects_foreign_journal(self, model_file,
                                            campaign_file, tmp_path):
        journal = str(tmp_path / "foreign.jsonl")
        run_campaign(make_spec(model_file, campaign_file, seeds=(1,)),
                     journal=journal)
        other = make_spec(model_file, campaign_file, seeds=(1,),
                          until=60.0)
        with pytest.raises(FaultError):
            run_campaign(other, journal=journal, resume=True)

    def test_resume_refuses_a_rewritten_input(self, campaign_file,
                                              tmp_path, capsys):
        def write_model(period):
            model = mm.Model("design")
            package = model.create_package("design")
            cpu = make_traffic_generator("Cpu", period=period,
                                         address_range=0x1000)
            ram = make_memory("Ram", size_bytes=0x800)
            make_soc("Soc", masters=[cpu],
                     slaves=[(ram, "bus", 0, 0x800)], package=package)
            xmi.write_file(str(path), model)

        path = tmp_path / "soc.xmi"
        journal = tmp_path / "rewritten.jsonl"
        write_model(2.0)
        spec = make_spec(str(path), campaign_file, seeds=(1, 2))
        run_campaign(spec, journal=str(journal))
        write_model(5.0)  # same path, other model: the spec still matches
        with pytest.raises(FaultError, match="input files"):
            run_campaign(spec, journal=str(journal), resume=True)
        assert main(["campaign", str(path), "--top", "design::Soc",
                     "--faults", campaign_file, "--seeds", "1,2",
                     "--until", "40", "--journal", str(journal),
                     "--resume"]) == 2
        assert "input files" in capsys.readouterr().err
        # a header written before inputs were recorded is refused too
        write_model(2.0)
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        del header["inputs"]
        journal.write_text("\n".join([json.dumps(header)] + lines[1:])
                           + "\n")
        with pytest.raises(FaultError, match="input files"):
            run_campaign(spec, journal=str(journal), resume=True)

    def test_bad_knobs_rejected(self, model_file, campaign_file):
        spec = make_spec(model_file, campaign_file)
        with pytest.raises(FaultError):
            run_campaign(spec, run_timeout=0.0)
        with pytest.raises(FaultError):
            run_campaign(spec, max_retries=-1)


class TestMergeGolden:
    def reports(self):
        one = ResilienceReport()
        one.record_injection(3.0, "drop", "drop", "signal=Read", "Read")
        one.record_part_failure(5.0, "cpu", "boom", "restore")
        one.record_restore("cpu")
        one.record_quarantine(9.0, "dma")
        two = ResilienceReport()
        two.record_injection(1.0, "delay", "delay", "*", "WriteAck")
        two.record_part_failure(2.0, "cpu", "boom", "restart")
        two.record_restart("cpu")
        two.record_quarantine(4.0, "dma")
        two.record_kernel_incident(8.0, "WatchdogTimeout", "hung")
        return one, two

    def test_merge_is_order_independent(self):
        one, two = self.reports()
        assert one.merge(two).to_json() == two.merge(one).to_json()

    def test_merge_golden_json(self):
        one, two = self.reports()
        golden = {
            "counts": {"delay": 1, "drop": 1, "kernel_incident": 1,
                       "part_restart": 1, "part_restore": 1},
            "injections": [
                {"t": 1.0, "spec": "delay", "kind": "delay",
                 "site": "*", "signal": "WriteAck"},
                {"t": 3.0, "spec": "drop", "kind": "drop",
                 "site": "signal=Read", "signal": "Read"},
            ],
            "part_failures": [
                {"t": 2.0, "part": "cpu", "error": "boom",
                 "action": "restart"},
                {"t": 5.0, "part": "cpu", "error": "boom",
                 "action": "restore"},
            ],
            "quarantined": {"dma": 4.0},
            "restarts": {"cpu": 1},
            "restores": {"cpu": 1},
            "kernel_incidents": [
                {"t": 8.0, "kind": "WatchdogTimeout", "detail": "hung"}],
        }
        expected = json.dumps(golden, indent=2, sort_keys=True)
        assert one.merge(two).to_json() == expected

    def test_merged_fold_matches_pairwise(self):
        one, two = self.reports()
        three = ResilienceReport()
        three.record_restart("cpu")
        permutations = (
            ResilienceReport.merged([one, two, three]),
            ResilienceReport.merged([three, one, two]),
            one.merge(two).merge(three),
        )
        fingerprints = {report.to_json() for report in permutations}
        assert len(fingerprints) == 1
        assert ResilienceReport.merged([]).to_json() \
            == ResilienceReport().to_json()

    def test_from_dict_round_trip(self):
        one, _ = self.reports()
        assert ResilienceReport.from_dict(one.to_dict()).to_json() \
            == one.to_json()


class TestCliCampaign:
    def test_cli_sweep_and_resume(self, model_file, campaign_file,
                                  tmp_path):
        journal = str(tmp_path / "cli.jsonl")
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        base = ["campaign", model_file, "--top", "design::Soc",
                "--faults", campaign_file, "--seeds", "1,2,3",
                "--until", "40", "--journal", journal]
        assert main(base + ["--parallel", "2", "--run-timeout", "120",
                            "--report", str(report_a)]) == 0
        assert main(base + ["--resume",
                            "--report", str(report_b)]) == 0
        assert report_a.read_text() == report_b.read_text()
        payload = json.loads(report_a.read_text())
        assert [row["seed"] for row in payload["completed"]] == [1, 2, 3]

    def test_cli_runs_counts_from_campaign_seed(self, model_file,
                                                campaign_file, tmp_path,
                                                capsys):
        report = tmp_path / "runs.json"
        assert main(["campaign", model_file, "--top", "design::Soc",
                     "--faults", campaign_file, "--runs", "2",
                     "--until", "20", "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert [row["seed"] for row in payload["completed"]] == [0, 1]
        assert "2/2 seed(s) completed" in capsys.readouterr().out

    def test_cli_permanent_failure_exits_nonzero(self, model_file,
                                                 campaign_file,
                                                 monkeypatch):
        monkeypatch.setenv(TEST_KILL_ENV, "1:99")
        code = main(["campaign", model_file, "--top", "design::Soc",
                     "--faults", campaign_file, "--seeds", "1,2",
                     "--until", "20", "--parallel", "2",
                     "--run-timeout", "120", "--retries", "0"])
        assert code == 1

    def test_cli_bad_seeds_errors(self, model_file, campaign_file):
        assert main(["campaign", model_file, "--top", "design::Soc",
                     "--faults", campaign_file,
                     "--seeds", "one,two"]) == 2

    def test_cli_resume_from_a_foreign_journal_errors(
            self, model_file, campaign_file, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"  # a daemon's job journal
        journal.write_text('{"job_id":"job-000001","kind":"submit",'
                           '"seq":1}\n')
        assert main(["campaign", model_file, "--top", "design::Soc",
                     "--faults", campaign_file, "--seeds", "1",
                     "--until", "20", "--journal", str(journal),
                     "--resume"]) == 2
        assert "error:" in capsys.readouterr().err
        assert len(journal.read_text().splitlines()) == 1


class TestBackoffDelay:
    """Satellite of PR 10: deterministic seeded jitter for retries."""

    def test_deterministic(self):
        from repro.faults import backoff_delay

        assert backoff_delay(0.5, 1, token=7) \
            == backoff_delay(0.5, 1, token=7)

    def test_window_is_exponential_with_bounded_jitter(self):
        from repro.faults import backoff_delay

        for attempt in (1, 2, 3, 4):
            window = 0.5 * (2 ** (attempt - 1))
            for token in range(20):
                delay = backoff_delay(0.5, attempt, token=token)
                assert 0.5 * window <= delay < 1.5 * window

    def test_tokens_desynchronize(self):
        from repro.faults import backoff_delay

        delays = {backoff_delay(0.5, 1, token=seed)
                  for seed in range(50)}
        # a thundering herd would collapse these to one value
        assert len(delays) == 50

    def test_attempts_desynchronize(self):
        from repro.faults import backoff_delay

        first = backoff_delay(0.5, 1, token=3)
        second = backoff_delay(0.5, 2, token=3)
        assert second != first * 2  # jitter differs per attempt

    def test_string_tokens_work(self):
        from repro.faults import backoff_delay

        assert backoff_delay(0.25, 1, token="job-000001") \
            == backoff_delay(0.25, 1, token="job-000001")
        assert backoff_delay(0.25, 1, token="job-000001") \
            != backoff_delay(0.25, 1, token="job-000002")


class TestTornRecordsCounter:
    """Satellite of PR 10: torn journal tails are counted, not silent."""

    def test_read_journal_counts_torn_tail(self, model_file,
                                           campaign_file, tmp_path):
        from repro.perf import PERF

        journal = str(tmp_path / "torn-counted.jsonl")
        spec = make_spec(model_file, campaign_file, seeds=(1, 2))
        run_campaign(spec, journal=journal)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"status": "ok", "seed":')
        before = PERF.counter("journal.torn_records")
        header, completed, _ = read_journal(journal)
        assert PERF.counter("journal.torn_records") == before + 1
        assert header is not None and sorted(completed) == [1, 2]

    def test_clean_journal_counts_nothing(self, model_file,
                                          campaign_file, tmp_path):
        from repro.perf import PERF

        journal = str(tmp_path / "clean-counted.jsonl")
        run_campaign(make_spec(model_file, campaign_file, seeds=(1,)),
                     journal=journal)
        before = PERF.counter("journal.torn_records")
        read_journal(journal)
        assert PERF.counter("journal.torn_records") == before
