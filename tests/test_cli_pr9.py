"""CLI surface of PR 9: ``simulate --trace -`` streaming,
``--spans``/``--perfetto`` exports, the ``trace-to-sequence``
``--part``/``--signal`` filters, and ``campaign --obs-report``
including the stored ``report`` artifact."""

import io
import json
import os

import pytest

import repro.metamodel as mm
import repro.store as store_mod
from repro import xmi
from repro.cli import main
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.store import STORE_ENV, ArtifactStore


@pytest.fixture(autouse=True)
def _isolated_store_state():
    """No test inherits (or leaks) an active store or $REPRO_STORE."""
    os.environ.pop(STORE_ENV, None)
    store_mod._ACTIVE = None
    yield
    os.environ.pop(STORE_ENV, None)
    store_mod._ACTIVE = False  # back to "unresolved" for other suites


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    model = mm.Model("obstest")
    pkg = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=256)
    mem = make_memory("Ram", size_bytes=256)
    make_soc("Top", masters=[cpu], slaves=[(mem, "bus", 0, 256)],
             package=pkg)
    path = tmp_path_factory.mktemp("pr9") / "model.xmi"
    xmi.write_file(str(path), model)
    return str(path)


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    campaign = FaultCampaign(
        [FaultSpec("drop", signal="Read", probability=0.3)],
        name="sweep", seed=0)
    path = tmp_path_factory.mktemp("pr9") / "campaign.json"
    path.write_text(campaign.to_json())
    return str(path)


class TestTraceStdout:
    def test_dash_streams_jsonl_to_stdout(self, model_file, capsys):
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "20", "--trace", "-"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines, "the trace must land on stdout"
        for line in lines:
            record = json.loads(line)  # every stdout line is a record
            assert "ordinal" in record and "kind" in record
        # the human-facing chatter moved to stderr, stdout stays pipable
        assert "simulated" in captured.err
        assert "trace:" in captured.err and "stdout" in captured.err

    def test_file_target_keeps_chatter_on_stdout(self, model_file,
                                                 tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "20", "--trace", str(out)]) == 0
        captured = capsys.readouterr()
        assert "simulated" in captured.out
        assert out.read_text().strip()


class TestSpanExports:
    def test_spans_and_perfetto_files(self, model_file, tmp_path,
                                      capsys):
        spans = tmp_path / "spans.jsonl"
        perfetto = tmp_path / "trace.perfetto.json"
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "40", "--spans", str(spans),
                     "--perfetto", str(perfetto)]) == 0
        output = capsys.readouterr().out
        assert "spans:" in output and "perfetto:" in output
        records = [json.loads(line)
                   for line in spans.read_text().splitlines()]
        assert records
        assert any(record["cause"] is not None for record in records)
        payload = json.loads(perfetto.read_text())
        assert payload["traceEvents"]

    def test_span_files_identical_between_engines(self, model_file,
                                                  tmp_path):
        outputs = {}
        for flag, name in ((None, "interp"),
                           ("--engine=compiled", "compiled")):
            out = tmp_path / f"{name}.jsonl"
            argv = ["simulate", model_file, "--top", "design::Top",
                    "--until", "40", "--spans", str(out)]
            if flag:
                argv.insert(1, flag)
            assert main(argv) == 0
            outputs[name] = out.read_bytes()
        assert outputs["interp"] == outputs["compiled"]


@pytest.fixture(scope="module")
def trace_file(model_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("pr9") / "trace.jsonl"
    assert main(["simulate", model_file, "--top", "design::Top",
                 "--until", "40", "--trace", str(path)]) == 0
    return str(path)


class TestTraceToSequenceFilters:
    def render(self, capsys, *argv):
        assert main(["trace-to-sequence", *argv]) == 0
        return capsys.readouterr().out

    def test_signal_filter(self, trace_file, capsys):
        full = self.render(capsys, trace_file)
        assert "Read" in full and "Write" in full
        filtered = self.render(capsys, trace_file, "--signal", "Write",
                               "--signal", "WriteAck")
        assert "Write" in filtered
        assert "Read ->" not in filtered and ": Read\n" not in filtered

    def test_part_filter(self, trace_file, capsys):
        filtered = self.render(capsys, trace_file, "--part", "m0_cpu")
        assert "m0_cpu" in filtered

    def test_no_match_is_a_tailored_error(self, trace_file, capsys):
        assert main(["trace-to-sequence", trace_file,
                     "--signal", "NoSuchSignal"]) == 2
        assert "matched the --part/--signal filters" \
            in capsys.readouterr().err

    def test_engine_degraded_records_are_skipped(self, trace_file,
                                                 tmp_path, capsys):
        # trace files written by older versions carry engine meta
        # records; the sequence renders from message deliveries only
        baseline = self.render(capsys, trace_file)
        noisy = tmp_path / "noisy.jsonl"
        meta = json.dumps({"ordinal": 0, "t": 0.0,
                           "kind": "engine_degraded", "part": "m0_cpu",
                           "requested": "batched", "used": "compiled"})
        noisy.write_text(meta + "\n" + open(trace_file).read())
        assert self.render(capsys, str(noisy)) == baseline

    def test_stdin_input(self, trace_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(open(trace_file).read()))
        assert "m0_cpu" in self.render(capsys, "-")

    def test_stdin_empty_error_names_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["trace-to-sequence", "-"]) == 2
        assert "stdin" in capsys.readouterr().err


class TestCampaignObsReport:
    def test_obs_report_json_and_html(self, model_file, campaign_file,
                                      tmp_path, capsys):
        report = tmp_path / "obs.json"
        html = tmp_path / "obs.html"
        assert main(["campaign", model_file, "--top", "design::Top",
                     "--faults", campaign_file, "--seeds", "1,2",
                     "--until", "30", "--obs-report", str(report),
                     "--obs-html", str(html)]) == 0
        assert "observability: 2 seed(s)" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["seeds"] == [1, 2]
        assert payload["hot_frames"]
        assert payload["causal_hot_edges"]["kinds"]
        assert payload["coverage"]["percent"] > 0
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_obs_report_is_stored_as_artifact(self, model_file,
                                              campaign_file, tmp_path,
                                              capsys):
        report = tmp_path / "obs.json"
        store_dir = tmp_path / "store"
        assert main(["campaign", model_file, "--top", "design::Top",
                     "--faults", campaign_file, "--seeds", "1,2",
                     "--until", "30", "--obs-report", str(report),
                     "--store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert "stored as report/" in output
        store = ArtifactStore(store_dir)
        entries = [entry for entry in store.ls("report")]
        assert len(entries) == 1
        stored = store.load("report", entries[0]["key"])
        assert stored == json.loads(report.read_text())

    def test_rerun_dedupes_to_the_same_artifact(self, model_file,
                                                campaign_file,
                                                tmp_path):
        report = tmp_path / "obs.json"
        store_dir = tmp_path / "store"
        argv = ["campaign", model_file, "--top", "design::Top",
                "--faults", campaign_file, "--seeds", "1,2",
                "--until", "30", "--obs-report", str(report),
                "--store", str(store_dir)]
        assert main(argv) == 0
        assert main(argv) == 0
        store = ArtifactStore(store_dir)
        assert len(store.ls("report")) == 1  # fingerprint-keyed
