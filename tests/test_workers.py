"""The persistent worker pool (``repro.workers``) under its two users:
the campaign runner keeps one pool per ``run_campaign`` call, and the
service daemon keeps one for its lifetime.  A pool forks only what it
needs, a dead or killed worker's slot refills, and no worker outlives
the pool."""

import io
import os
import socket
import stat

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.faults import (CampaignSpec, FaultCampaign, FaultSpec,
                          read_journal, run_campaign)
from repro.faults.runner import TEST_KILL_ENV
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.observability import CampaignTelemetry
from repro.service import SimulationService
from repro.workers import WorkerPool


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    model = mm.Model("design")
    package = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=package)
    root = tmp_path_factory.mktemp("workers")
    model_path = root / "soc.xmi"
    xmi.write_file(str(model_path), model)
    campaign = FaultCampaign(
        [FaultSpec("drop", signal="Read", probability=0.3),
         FaultSpec("delay", delay=1.5, probability=0.4)],
        name="sweep", seed=0)
    campaign_path = root / "campaign.json"
    campaign_path.write_text(campaign.to_json())
    return str(model_path), str(campaign_path)


def make_spec(spec_files, seeds=(1, 2, 3, 4), **kwargs):
    model_file, campaign_file = spec_files
    options = dict(model=model_file, top="design::Soc",
                   campaign=campaign_file, until=40.0, name="sweep")
    options.update(kwargs)
    return CampaignSpec(seeds=list(seeds), **options)


@pytest.fixture
def forked(monkeypatch):
    """Every worker process the pools of this test forked."""
    processes = []
    fork = WorkerPool._fork

    def spy(pool):
        worker = fork(pool)
        processes.append(worker.process)
        return worker

    monkeypatch.setattr(WorkerPool, "_fork", spy)
    return processes


def open_sockets():
    """Pool task: count this process's open socket descriptors."""
    count = 0
    for name in os.listdir("/dev/fd"):
        try:
            count += stat.S_ISSOCK(os.fstat(int(name)).st_mode)
        except OSError:
            pass
    return {"sockets": count}


class TestPoolWorker:
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                        reason="needs /dev/fd")
    def test_worker_holds_no_inherited_socket(self, tmp_path):
        with socket.socket(socket.AF_UNIX) as listener:
            listener.bind(str(tmp_path / "listener.sock"))
            listener.listen()
            with WorkerPool(1, open_sockets) as pool:
                pool.submit(str(tmp_path / "result.json"))
                [(_, payload)] = pool.wait(60)
        assert payload == {"sockets": 1}  # its own pipe end


def assert_all_reaped(processes):
    for process in processes:
        assert not process.is_alive()
        assert process.exitcode is not None


class TestCampaignPool:
    def test_workers_fork_once_and_serve_every_seed(self, spec_files,
                                                    forked):
        spec = make_spec(spec_files, seeds=range(1, 33))
        result = run_campaign(spec, workers=2)
        assert result.mode == "parallel"
        assert result.ok and result.completed_seeds == list(range(1, 33))
        assert len(forked) == 2
        assert_all_reaped(forked)
        # idle workers leave on EOF of their pipe, not by a kill
        assert [process.exitcode for process in forked] == [0, 0]

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_killed_worker_retries_on_a_fresh_worker(
            self, spec_files, forked, tmp_path, monkeypatch, engine):
        monkeypatch.setenv(TEST_KILL_ENV, "2:1")
        journal = str(tmp_path / "killed.jsonl")
        spec = make_spec(spec_files, engine=engine)
        result = run_campaign(spec, workers=2, journal=journal,
                              retry_backoff=0.01)
        monkeypatch.delenv(TEST_KILL_ENV)
        _, _, failure_rows = read_journal(journal)
        assert [row["seed"] for row in failure_rows] == [2]
        assert "worker died" in failure_rows[0]["error"]
        assert len(forked) == 3  # two slots, one refilled
        assert_all_reaped(forked)
        assert result.to_json() == run_campaign(spec).to_json()

    def test_run_timeout_kills_the_worker_and_refills_its_slot(
            self, spec_files, forked):
        # a horizon no seed reaches within the timeout
        spec = make_spec(spec_files, seeds=(1, 2, 3), until=1e7)
        result = run_campaign(spec, workers=2, run_timeout=0.3,
                              max_retries=0)
        assert result.failed_seeds == [1, 2, 3]
        assert all(row["error"].startswith("run timeout")
                   for row in result.failures)
        assert len(forked) == 3  # seed 3 ran on a refilled slot
        assert_all_reaped(forked)

    def test_an_exception_in_the_parent_reaps_every_worker(
            self, spec_files, forked):
        class Exploding(CampaignTelemetry):
            def seed_done(self, seed, events=0):
                raise RuntimeError("telemetry failed")

        spec = make_spec(spec_files)
        telemetry = Exploding(len(spec.seeds), stream=io.StringIO(),
                              enabled=False)
        with pytest.raises(RuntimeError, match="telemetry failed"):
            run_campaign(spec, workers=2, progress=telemetry)
        assert forked
        assert_all_reaped(forked)


class TestServicePool:
    def test_first_lease_forks_and_shutdown_reaps(self, spec_files,
                                                  forked, tmp_path):
        model_file, campaign_file = spec_files
        service = SimulationService(tmp_path / "state", workers=2,
                                    lease_duration=30.0)
        assert forked == []  # nothing forks before the first lease
        rows = [service.submit(dict(
            name=f"job{index}", model=model_file, top="design::Soc",
            campaign=campaign_file, until=10.0, seeds=[index]))
            for index in (1, 2, 3)]
        service.run_until_idle(timeout=120)
        assert [service.status(row["job_id"])["state"] for row in rows] \
            == ["done"] * 3
        assert len(forked) == 2  # the third job reused a warm worker
        assert all(process.is_alive() for process in forked)
        service.shutdown()
        assert_all_reaped(forked)
        assert all(process.exitcode == 0 for process in forked)
