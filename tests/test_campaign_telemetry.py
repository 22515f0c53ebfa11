"""Live campaign telemetry and the cross-seed observability report
(PR 9): parent-side aggregation, the feed from the worker pool's
heartbeats, the guarantee that telemetry never touches the trace bus
(so enabling it cannot change a report byte), obs-enabled journal
rows, and the merged :class:`ObservabilityReport` artifact.
"""

import io
import json

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.faults import CampaignSpec, FaultCampaign, FaultSpec, run_campaign
from repro.faults.runner import TEST_KILL_ENV
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.observability import (
    CampaignTelemetry,
    ObservabilityReport,
    campaign_fingerprint,
)
from repro.observability.report import (
    hot_edges,
    merge_edges,
    merge_frames,
    parse_collapsed,
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_telemetry(total=4, **kwargs):
    options = dict(stream=io.StringIO(), enabled=True, clock=FakeClock())
    options.update(kwargs)
    return CampaignTelemetry(total, name="demo", **options)


class TestAggregation:
    def test_seed_done_is_idempotent(self):
        telemetry = make_telemetry()
        telemetry.seed_started(1)
        telemetry.seed_done(1, 100)
        telemetry.seed_done(1, 100)  # a repeated report counts once
        assert telemetry.done == 1
        assert telemetry.events_done == 100

    def test_done_keeps_the_larger_event_count(self):
        telemetry = make_telemetry()
        telemetry.update({5: 900})  # last heartbeat sample
        telemetry.seed_done(5, 0)  # reap loop knows no count
        assert telemetry.events_done == 900

    def test_seed_failed_counts_once(self):
        telemetry = make_telemetry()
        telemetry.seed_started(2)
        telemetry.seed_failed(2)
        telemetry.seed_done(2, 50)  # late beat after terminal failure
        assert telemetry.done == 1
        assert telemetry.failed == 1
        assert telemetry.events_done == 0

    def test_rates_and_eta(self):
        clock = FakeClock()
        telemetry = make_telemetry(total=4, clock=clock)
        clock.advance(2.0)
        telemetry.seed_done(1, 1000)
        telemetry.seed_done(2, 1000)
        telemetry.update({3: 500})
        assert telemetry.events_total() == 2500
        assert telemetry.events_per_second() == pytest.approx(1250.0)
        # pace 1 s/seed, 2 remaining, one running seed counts half-done
        assert telemetry.eta() == pytest.approx(1.5)

    def test_eta_is_none_before_first_finish_and_after_last(self):
        telemetry = make_telemetry(total=1)
        assert telemetry.eta() is None
        telemetry.seed_done(1)
        assert telemetry.eta() is None


class TestRendering:
    def test_progress_line_shape(self):
        clock = FakeClock()
        telemetry = make_telemetry(total=20, clock=clock)
        clock.advance(1.0)
        telemetry.seed_done(1, 1000)
        telemetry.seed_failed(2)
        telemetry.seed_started(3)
        line = telemetry.progress_line()
        assert line.startswith("campaign demo: 2/20 done (1 failed)")
        assert "| 1 running" in line
        assert "ev/s" in line
        assert "ETA" in line

    def test_render_only_when_enabled(self):
        stream = io.StringIO()
        telemetry = make_telemetry(enabled=False, stream=stream)
        telemetry.seed_done(1)
        telemetry.render(force=True)
        assert stream.getvalue() == ""

    def test_finish_terminates_the_line(self):
        stream = io.StringIO()
        telemetry = make_telemetry(stream=stream)
        telemetry.seed_done(1)
        telemetry.finish()
        text = stream.getvalue()
        assert text.startswith("\r\x1b[2K")
        assert text.endswith("\n")

    def test_broken_stream_disables_rendering(self):
        class Broken:
            def write(self, _):
                raise OSError("gone")

            def flush(self):
                pass

        telemetry = make_telemetry(stream=Broken())
        telemetry.render(force=True)
        assert telemetry.enabled is False

    def test_snapshot_and_prometheus(self):
        clock = FakeClock()
        telemetry = make_telemetry(total=3, clock=clock)
        clock.advance(1.0)
        telemetry.seed_done(1, 300)
        snap = telemetry.snapshot()
        assert snap["done"] == 1
        assert snap["events"] == 300
        text = telemetry.prometheus()
        assert "# HELP repro_campaign_live_done" in text
        assert "# TYPE repro_campaign_live_done gauge" in text
        assert "repro_campaign_live_events 300" in text
        assert "repro_campaign_live_events_per_second 300" in text


# ---------------------------------------------------------------------------
# the runner integration and the merged report
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    model = mm.Model("design")
    package = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=package)
    root = tmp_path_factory.mktemp("telemetry")
    model_path = root / "soc.xmi"
    xmi.write_file(str(model_path), model)
    campaign = FaultCampaign(
        [FaultSpec("drop", signal="Read", probability=0.3),
         FaultSpec("delay", delay=1.5, probability=0.4)],
        name="sweep", seed=0)
    campaign_path = root / "campaign.json"
    campaign_path.write_text(campaign.to_json())
    return str(model_path), str(campaign_path)


def make_spec(spec_files, seeds=(1, 2, 3), **kwargs):
    model_file, campaign_file = spec_files
    options = dict(model=model_file, top="design::Soc",
                   campaign=campaign_file, until=40.0, name="sweep")
    options.update(kwargs)
    return CampaignSpec(seeds=list(seeds), **options)


class TestRunnerIntegration:
    def test_obs_rows_carry_profile_and_causal_edges(self, spec_files):
        result = run_campaign(make_spec(spec_files, obs=True))
        for row in result.rows:
            assert row["profile"], "obs rows must carry hot paths"
            assert row["causal_edges"]["kinds"]
            assert "coverage" in row

    def test_obs_rows_identical_serial_vs_parallel(self, spec_files):
        # the fork pool hands rows back through JSON result files
        spec = make_spec(spec_files, obs=True)
        serial = run_campaign(spec)
        parallel = run_campaign(spec, workers=2)
        assert parallel.mode == "parallel"
        key = lambda rows: sorted(rows, key=lambda r: r["seed"])
        assert key(serial.rows) == key(parallel.rows)

    def test_telemetry_does_not_change_the_report(self, spec_files):
        spec = make_spec(spec_files)
        plain = run_campaign(spec)
        telemetry = CampaignTelemetry(len(spec.seeds), name=spec.name,
                                      stream=io.StringIO(), enabled=True)
        observed = run_campaign(spec, progress=telemetry)
        assert plain.to_json() == observed.to_json()
        assert telemetry.done == len(spec.seeds)

    def test_parallel_campaign_feeds_telemetry(self, spec_files):
        spec = make_spec(spec_files, seeds=(1, 2, 3, 4))
        serial = CampaignTelemetry(len(spec.seeds), name=spec.name,
                                   stream=io.StringIO(), enabled=False)
        run_campaign(spec, progress=serial)
        telemetry = CampaignTelemetry(len(spec.seeds), name=spec.name,
                                      stream=io.StringIO(), enabled=False)
        result = run_campaign(spec, workers=2, progress=telemetry)
        assert len(result.rows) == 4
        assert telemetry.done == 4
        assert telemetry.failed == 0
        assert telemetry.running == {}
        # each worker's completion carries its seed's kernel events
        assert serial.events_done > 0
        assert telemetry.events_done == serial.events_done

    def test_killed_attempt_is_not_terminal(self, spec_files,
                                            monkeypatch):
        # the worker of seed 2 dies on its first attempt and the retry
        # succeeds: the failed attempt leaves the running set, and only
        # the runner's final verdict counts a seed as failed
        monkeypatch.setenv(TEST_KILL_ENV, "2:1")
        spec = make_spec(spec_files, seeds=(1, 2, 3, 4))
        telemetry = CampaignTelemetry(len(spec.seeds), name=spec.name,
                                      stream=io.StringIO(), enabled=False)
        result = run_campaign(spec, workers=2, progress=telemetry,
                              retry_backoff=0.01)
        assert result.ok
        assert telemetry.failed == 0
        assert telemetry.done == len(spec.seeds)
        assert telemetry.running == {}


class TestMergeFunctions:
    def test_parse_collapsed(self):
        frames = parse_collapsed(["a;b 2.5", "a;b 1.5", "c 1", "", "bad"])
        assert frames == {"a;b": 4.0, "c": 1.0}

    def test_merge_frames_ranks_and_truncates(self):
        merged = merge_frames([["a 1", "b 5"], ["a 2"]], top=2)
        assert merged == [{"stack": "b", "value": 5.0},
                          {"stack": "a", "value": 3.0}]

    def test_merge_frames_ties_break_lexically(self):
        merged = merge_frames([["b 1", "a 1"]])
        assert [frame["stack"] for frame in merged] == ["a", "b"]

    def test_merge_edges_sums_and_sorts(self):
        merged = merge_edges([
            {"kinds": {"x->y": 2}, "parts": {"p->q": 1}},
            {"kinds": {"x->y": 1, "a->b": 4}, "parts": {}},
        ])
        assert merged["kinds"] == {"a->b": 4, "x->y": 3}
        assert list(merged["kinds"]) == ["a->b", "x->y"]
        assert merged["parts"] == {"p->q": 1}

    def test_hot_edges_rank(self):
        ranked = hot_edges({"a->b": 1, "c->d": 9}, top=1)
        assert ranked == [{"edge": "c->d", "count": 9}]


class TestObservabilityReport:
    @pytest.fixture(scope="class")
    def result(self, spec_files):
        return run_campaign(make_spec(spec_files, obs=True))

    def test_from_result_structure(self, result):
        report = ObservabilityReport.from_result(result)
        data = report.to_dict()
        assert data["campaign"] == "sweep"
        assert data["seeds"] == [1, 2, 3]
        assert data["coverage"]["percent"] > 0
        assert data["hot_frames"]
        assert data["causal_hot_edges"]["kinds"]
        assert data["messages"]["delivered"] > 0

    def test_report_is_deterministic(self, result):
        first = ObservabilityReport.from_result(result).to_json()
        second = ObservabilityReport.from_result(result).to_json()
        assert first == second
        payload = json.loads(first)
        assert list(payload) == sorted(payload)

    def test_rows_without_obs_data_degrade_gracefully(self, spec_files):
        result = run_campaign(make_spec(spec_files))  # obs=False
        report = ObservabilityReport.from_result(result)
        assert report.hot_frames == []
        assert report.causal_edges == {"kinds": {}, "parts": {}}
        assert report.to_dict()["coverage"] is None

    def test_html_rendering(self, result):
        html = ObservabilityReport.from_result(result).to_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "Observability report" in html
        assert "Causal hot edges" in html
        assert "Hot paths" in html

    def test_fingerprint_stable_and_spec_sensitive(self, spec_files):
        spec = make_spec(spec_files, obs=True)
        same = make_spec(spec_files, obs=True)
        other = make_spec(spec_files, seeds=(1, 2), obs=True)
        assert campaign_fingerprint(spec) == campaign_fingerprint(same)
        assert campaign_fingerprint(spec) != campaign_fingerprint(other)
        assert len(campaign_fingerprint(spec)) == 32
