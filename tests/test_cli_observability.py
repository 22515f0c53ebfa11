"""CLI surface of the PR 4 observability layer: simulate --coverage /
--profile / --flight-recorder / --metrics, the stats subcommand, and
the trace-to-sequence empty/truncated-input errors (satellite)."""

import json

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.cli import main
from repro.hw import make_memory, make_soc, make_traffic_generator


@pytest.fixture
def model_file(tmp_path):
    model = mm.Model("obstest")
    pkg = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=256)
    mem = make_memory("Ram", size_bytes=256)
    make_soc("Top", masters=[cpu], slaves=[(mem, "bus", 0, 256)],
             package=pkg)
    path = tmp_path / "model.xmi"
    xmi.write_file(str(path), model)
    return str(path)


class TestSimulateObservability:
    def test_coverage_flag_writes_report(self, model_file, tmp_path,
                                         capsys):
        out = tmp_path / "cov.json"
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "40", "--coverage", str(out)]) == 0
        assert "coverage:" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        assert payload["total_percent"] > 0
        assert "uncovered" in payload["parts"]["m0_cpu"]

    def test_coverage_identical_between_engines(self, model_file,
                                                tmp_path):
        outputs = {}
        for flag, name in ((None, "interp.json"),
                           ("--engine=compiled", "compiled.json")):
            out = tmp_path / name
            argv = ["simulate", model_file, "--top", "design::Top",
                    "--until", "40", "--coverage", str(out)]
            if flag:
                argv.insert(1, flag)
            assert main(argv) == 0
            outputs[name] = out.read_bytes()
        assert outputs["interp.json"] == outputs["compiled.json"]

    def test_profile_flag_writes_collapsed_stacks(self, model_file,
                                                  tmp_path, capsys):
        out = tmp_path / "prof.folded"
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "40", "--profile", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines
        for line in lines:
            frames, _, value = line.rpartition(" ")
            assert frames and int(value) > 0

    def test_profile_steps_metric(self, model_file, tmp_path):
        out = tmp_path / "steps.folded"
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "40", "--profile", str(out),
                     "--profile-metric", "steps"]) == 0
        assert any("event:" in line or "fire:" in line
                   for line in out.read_text().splitlines())

    def test_flight_recorder_reports_ring(self, model_file, capsys,
                                          tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "40", "--flight-recorder", "32"]) == 0
        assert "flight recorder: 32/32" in capsys.readouterr().out

    def test_metrics_flag_writes_snapshot(self, model_file, tmp_path):
        out = tmp_path / "perf.json"
        cov = tmp_path / "cov.json"
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "40", "--coverage", str(cov),
                     "--metrics", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "counters" in payload["perf"]
        assert payload["coverage"]["total_percent"] > 0


class TestStats:
    def make_snapshot(self, model_file, tmp_path):
        out = tmp_path / "perf.json"
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "40", "--coverage",
                     str(tmp_path / "cov.json"),
                     "--metrics", str(out)]) == 0
        return str(out)

    def test_prom_format(self, model_file, tmp_path, capsys):
        snapshot = self.make_snapshot(model_file, tmp_path)
        capsys.readouterr()
        assert main(["stats", snapshot, "--format", "prom"]) == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_cosim_kernel_events counter" in output
        assert "repro_coverage_total_percent" in output

    def test_json_format(self, model_file, tmp_path, capsys):
        snapshot = self.make_snapshot(model_file, tmp_path)
        capsys.readouterr()
        assert main(["stats", snapshot, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "perf" in payload

    def test_external_coverage_file(self, model_file, tmp_path, capsys):
        snapshot = self.make_snapshot(model_file, tmp_path)
        capsys.readouterr()
        assert main(["stats", snapshot, "--format", "prom",
                     "--coverage", str(tmp_path / "cov.json")]) == 0
        assert 'kind="all"' in capsys.readouterr().out

    def test_live_registry_without_file(self, capsys):
        assert main(["stats", "--format", "prom"]) == 0
        capsys.readouterr()  # any content (possibly empty) is fine

    def test_invalid_snapshot_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_snapshot_is_clean_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestTraceToSequenceRobustness:
    def test_empty_file_is_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace-to-sequence", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no trace events" in err
        assert "Traceback" not in err

    def test_blank_lines_only_is_clean_error(self, tmp_path, capsys):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n  \n")
        assert main(["trace-to-sequence", str(blank)]) == 2
        assert "no trace events" in capsys.readouterr().err

    def test_truncated_line_is_clean_error(self, model_file, tmp_path,
                                           capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", model_file, "--top", "design::Top",
                     "--until", "20", "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        # chop the final record mid-JSON, as a crashed writer would
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        trace.write_text("\n".join(lines))
        capsys.readouterr()
        assert main(["trace-to-sequence", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "not a JSON trace record" in err
        assert f"{len(lines)}" in err  # the offending line number
        assert "Traceback" not in err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["trace-to-sequence",
                     str(tmp_path / "ghost.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
