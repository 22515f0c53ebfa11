"""The persistent worker pool (``repro.workers``) under its two users:
the campaign runner keeps one pool per ``run_campaign`` call, and the
service daemon keeps one for its lifetime.  A pool forks only what it
needs, a dead or killed worker's slot refills, no worker outlives the
pool, and a running worker's heartbeats reach its handle on the same
pipe as its results."""

import io
import os
import socket
import stat
import time

import pytest

import repro.metamodel as mm
from repro import workers, xmi
from repro.faults import (CampaignSpec, FaultCampaign, FaultSpec,
                          read_journal, run_campaign)
from repro.faults.runner import TEST_KILL_ENV
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.observability import CampaignTelemetry
from repro.service import SimulationService
from repro.workers import WorkerPool, report_progress


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


def growing_progress(seconds):
    """Pool task: report a sample that grows for ``seconds``."""
    count = [0]
    report_progress(lambda: count[0])
    stop = time.monotonic() + seconds
    while time.monotonic() < stop:
        count[0] += 1
        time.sleep(0.001)
    return {"count": count[0]}


def tagged(tag, seconds):
    """Pool task: report ``tag`` as its sample for ``seconds``."""
    report_progress(lambda: tag)
    time.sleep(seconds)
    return {"tag": tag}


class TestPoolWorker:
    def test_heartbeats_ride_the_worker_pipe(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers, "HEARTBEAT_INTERVAL", 0.05)
        with WorkerPool(1, growing_progress) as pool:
            worker = pool.submit(str(tmp_path / "result.json"), 0.5)
            submitted = worker.last_beat
            assert pool.wait(0.3) == []  # beats do not end the wait
            assert worker.started
            assert worker.progress > 0
            assert worker.last_beat > submitted
            [(finished, payload)] = pool.wait(60)
        assert finished is worker
        # the completion carries the final sample
        assert worker.progress == payload["count"]

    def test_no_beat_is_charged_to_the_next_task(self, tmp_path,
                                                 monkeypatch):
        # more workers than cores and a beat every millisecond: a beat
        # sent after a completion would show the finished task's tag on
        # the worker's next task
        monkeypatch.setattr(workers, "HEARTBEAT_INTERVAL", 0.001)
        tags = {}

        def reap(timeout):
            for worker, payload in pool.wait(timeout):
                assert payload == {"tag": tags.pop(worker)}
                assert worker.progress == payload["tag"]
            for worker, tag in tags.items():
                assert worker.progress in (0, tag)

        began = time.monotonic()
        with WorkerPool(4, tagged) as pool:
            for tag in range(1, 121):
                while not pool.free:
                    reap(60)
                worker = pool.submit(str(tmp_path / f"{tag}.json"), tag,
                                     0.003)
                tags[worker] = tag
                reap(0)
            while tags:
                reap(60)
        assert time.monotonic() - began < 60

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


def wait_until(condition, seconds=60.0):
    """Poll ``condition`` until it holds; give up after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)


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

    @staticmethod
    def run_killing_seed_2(spec_files, journal, monkeypatch, hook, engine):
        """Run seeds 1-4 on two workers; seed 2's first attempt SIGKILLs
        its worker.  ``hook(label, attempt)`` runs in the worker before
        the kill hook, so it fixes which order the parent sees things in
        (``_worker_main`` looks the kill hook up when it runs)."""
        kill = workers.maybe_test_kill

        def ordered_kill(variable, label, attempt):
            hook(label, attempt)
            kill(variable, label, attempt)

        monkeypatch.setattr(workers, "maybe_test_kill", ordered_kill)
        monkeypatch.setenv(TEST_KILL_ENV, "2:1")
        spec = make_spec(spec_files, engine=engine)
        result = run_campaign(spec, workers=2, journal=journal,
                              retry_backoff=0.01)
        monkeypatch.delenv(TEST_KILL_ENV)
        monkeypatch.setattr(workers, "maybe_test_kill", kill)
        _, _, failure_rows = read_journal(journal)
        assert [row["seed"] for row in failure_rows] == [2]
        assert "worker died" in failure_rows[0]["error"]
        assert result.to_json() == run_campaign(spec).to_json()

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_killed_worker_retries_on_a_fresh_worker(
            self, spec_files, forked, tmp_path, monkeypatch, engine):
        # every other seed's first attempt holds its worker until the
        # death is journaled, so the next seed finds no idle worker
        journal = str(tmp_path / "killed.jsonl")

        def hook(label, attempt):
            if label != "2" and attempt == 1:
                wait_until(lambda: read_journal(journal)[2])

        self.run_killing_seed_2(spec_files, journal, monkeypatch, hook,
                                engine)
        assert len(forked) == 3  # two slots, one refilled
        assert_all_reaped(forked)

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_a_death_seen_after_the_other_worker_drained_retries_on_it(
            self, spec_files, forked, tmp_path, monkeypatch, engine):
        # seed 2's worker dies only once seeds 1, 3 and 4 are journaled,
        # so the other worker is idle when the death is seen and takes
        # the retry: ``WorkerPool.submit`` prefers an idle worker
        journal = str(tmp_path / "killed.jsonl")

        def hook(label, attempt):
            if label == "2" and attempt == 1:
                wait_until(lambda: set(read_journal(journal)[1])
                           == {1, 3, 4})

        self.run_killing_seed_2(spec_files, journal, monkeypatch, hook,
                                engine)
        assert len(forked) == 2  # the dead slot was never refilled
        assert_all_reaped(forked)

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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_run_timeout_holds_for_a_single_seed(self, spec_files,
                                                 forked, workers):
        # one seed would run in-process, where no watchdog can kill it
        spec = make_spec(spec_files, seeds=(1,), until=1e7)
        result = run_campaign(spec, workers=workers, run_timeout=0.3,
                              max_retries=0)
        assert result.mode == "parallel"
        assert result.failed_seeds == [1]
        assert result.failures[0]["error"].startswith("run timeout")
        assert len(forked) == 1
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
