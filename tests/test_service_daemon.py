"""The simulation service daemon (PR 10): lease-based execution,
SIGKILL'd-worker retry with deterministic backoff, poison-job
quarantine, fingerprint dedupe with byte-identical cache hits,
admission control, cancellation, and graceful drain."""

import filecmp
import gc
import os
import signal
import time
import tracemalloc

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.errors import FaultError, ServiceError
from repro.faults import CampaignSpec, FaultCampaign, FaultSpec
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.perf import PERF
from repro.service import SimulationService
from repro.service.daemon import TEST_KILL_ENV
from repro.service.jobstore import job_fingerprint
from repro.store.artifacts import ArtifactStore


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    model = mm.Model("design")
    package = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=package)
    path = tmp_path_factory.mktemp("service") / "soc.xmi"
    xmi.write_file(str(path), model)
    return str(path)


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    campaign = FaultCampaign(
        [FaultSpec("drop", signal="Read", probability=0.3)],
        name="sweep", seed=0)
    path = tmp_path_factory.mktemp("service") / "campaign.json"
    path.write_text(campaign.to_json())
    return str(path)


def make_spec(model_file, campaign_file, name="job", seeds=(1,),
              **kwargs):
    spec = dict(name=name, model=model_file, top="design::Soc",
                campaign=campaign_file, until=10.0,
                seeds=list(seeds))
    spec.update(kwargs)
    return spec


def make_service(tmp_path, **kwargs):
    options = dict(workers=2, lease_duration=30.0, retry_backoff=0.01)
    options.update(kwargs)
    return SimulationService(tmp_path / "state", **options)


class TestExecution:
    def test_submit_run_result(self, tmp_path, model_file,
                               campaign_file):
        service = make_service(tmp_path)
        row = service.submit(make_spec(model_file, campaign_file,
                                       seeds=[1, 2]))
        assert row["state"] == "queued"
        service.run_until_idle(timeout=120)
        final = service.status(row["job_id"])
        assert final["state"] == "done"
        assert final["attempts"] == 1
        payload = service.result(row["job_id"])
        assert payload["ok"] is True
        assert len(payload["result"]["completed"]) == 2
        service.shutdown()

    def test_submit_validates_the_spec_first(self, tmp_path, model_file,
                                             campaign_file):
        service = make_service(tmp_path)
        invalid = [{"seeds": []},
                   make_spec(model_file, campaign_file,
                             on_part_error="bogus"),
                   make_spec(model_file, campaign_file,
                             checkpoint_interval="abc"),
                   make_spec(model_file, campaign_file, quantum=0)]
        for spec in invalid:
            with pytest.raises(FaultError):
                service.submit(spec)
        assert service.jobs == {}  # nothing was journaled
        assert list(service.jobstore.journal.records()) == []
        service.shutdown()

    def test_deterministic_job_error_fails_without_retry(
            self, tmp_path, model_file, campaign_file):
        service = make_service(tmp_path)
        spec = make_spec(model_file, campaign_file, name="doomed",
                         top="design::Nope")
        row = service.submit(spec)
        service.run_until_idle(timeout=60)
        final = service.status(row["job_id"])
        assert final["state"] == "failed"
        assert final["attempts"] == 1  # deterministic: not retried
        assert final["error"]
        with pytest.raises(ServiceError):
            service.result(row["job_id"])
        service.shutdown()

    def test_result_before_done_is_refused(self, tmp_path, model_file,
                                           campaign_file):
        service = make_service(tmp_path)
        row = service.submit(make_spec(model_file, campaign_file))
        with pytest.raises(ServiceError):
            service.result(row["job_id"])
        service.run_until_idle(timeout=60)
        service.shutdown()


class TestCrashRecoveryOfWorkers:
    def test_sigkilled_worker_is_retried_to_success(
            self, tmp_path, model_file, campaign_file, monkeypatch):
        retries = PERF.counter("service.retries")
        service = make_service(tmp_path)
        monkeypatch.setenv(TEST_KILL_ENV, "flaky:1")
        row = service.submit(make_spec(model_file, campaign_file,
                                       name="flaky", seeds=[3]))
        service.run_until_idle(timeout=120)
        final = service.status(row["job_id"])
        assert final["state"] == "done"
        assert final["attempts"] == 2  # killed once, then succeeded
        assert PERF.counter("service.retries") >= retries + 1
        service.shutdown()

    def test_poison_job_is_quarantined(self, tmp_path, model_file,
                                       campaign_file, monkeypatch):
        service = make_service(tmp_path, budget=2)
        monkeypatch.setenv(TEST_KILL_ENV, "poison:99")
        row = service.submit(make_spec(model_file, campaign_file,
                                       name="poison", seeds=[4]))
        service.run_until_idle(timeout=120)
        final = service.status(row["job_id"])
        assert final["state"] == "quarantined"
        assert final["attempts"] == 3  # budget 2 = 3 leases total
        assert "quarantined" in final["error"]
        service.shutdown()

    def test_expired_lease_requeues(self, tmp_path, model_file,
                                    campaign_file):
        # a stopped worker is alive but sends no heartbeat: only the
        # lease duration takes its job back
        service = make_service(tmp_path, workers=1, lease_duration=1.0)
        try:
            warm = service.submit(make_spec(model_file, campaign_file,
                                            name="warm", seeds=[5]))
            service.tick()  # forks the worker and grants it the lease
            stopped = service.leases[warm["job_id"]].process
            service.run_until_idle(timeout=120)
            os.kill(stopped.pid, signal.SIGSTOP)
            row = service.submit(make_spec(model_file, campaign_file,
                                           name="silent", seeds=[12]))
            expiries = PERF.counter("service.lease_expiries")
            service.tick()  # grants the lease to the stopped worker
            granted = time.monotonic()
            assert service.leases[row["job_id"]].process is stopped
            while PERF.counter("service.lease_expiries") == expiries:
                assert time.monotonic() - granted < 60
                service.tick()
                time.sleep(0.01)
            assert time.monotonic() - granted >= 1.0
            assert not stopped.is_alive()
            service.run_until_idle(timeout=120)
            final = service.status(row["job_id"])
            assert final["state"] == "done"
            assert final["attempts"] == 2  # a new worker ran the retry
        finally:
            service.shutdown()

    def test_watchdog_bounds_wall_clock(self, tmp_path, model_file,
                                        campaign_file):
        kills = PERF.counter("service.watchdog_kills")
        service = make_service(tmp_path, workers=1, budget=0,
                               job_timeout=0.0)
        # a horizon no worker reaches: only the watchdog ends the job
        row = service.submit(make_spec(model_file, campaign_file,
                                       name="hung", seeds=[6], until=1e7))
        service.run_until_idle(timeout=60)
        assert service.status(row["job_id"])["state"] == "quarantined"
        assert PERF.counter("service.watchdog_kills") >= kills + 1
        service.shutdown()


class TestDedupe:
    def test_cache_hit_is_byte_identical(self, tmp_path, model_file,
                                         campaign_file):
        hits = PERF.counter("service.cache_hits")
        store = ArtifactStore(tmp_path / "store")
        service = make_service(tmp_path, store=store)
        cold = service.submit(make_spec(model_file, campaign_file,
                                        name="cold", seeds=[7]))
        service.run_until_idle(timeout=120)
        warm = service.submit(make_spec(model_file, campaign_file,
                                        name="warm", seeds=[7]))
        service.run_until_idle(timeout=30)
        cold_row = service.status(cold["job_id"])
        warm_row = service.status(warm["job_id"])
        assert cold["fingerprint"] == warm["fingerprint"]
        assert cold_row["cached"] is False
        assert warm_row["cached"] is True
        assert warm_row["attempts"] == 0  # never simulated
        assert filecmp.cmp(
            service.jobstore.result_path(cold["job_id"]),
            service.jobstore.result_path(warm["job_id"]),
            shallow=False)
        assert PERF.counter("service.cache_hits") == hits + 1
        service.shutdown()

    def test_live_duplicate_coalesces(self, tmp_path, model_file,
                                      campaign_file):
        service = make_service(tmp_path)
        first = service.submit(make_spec(model_file, campaign_file,
                                         name="one", seeds=[8]))
        second = service.submit(make_spec(model_file, campaign_file,
                                          name="two", seeds=[8]))
        assert second["coalesced"] is True
        assert second["job_id"] == first["job_id"]
        assert len(service.jobs) == 1
        service.run_until_idle(timeout=120)
        service.shutdown()

    def test_equal_work_spelled_differently_coalesces(
            self, tmp_path, model_file, campaign_file):
        # the daemon fingerprints the normalized spec: defaults filled
        # in, numbers coerced
        service = make_service(tmp_path)
        spec = make_spec(model_file, campaign_file, seeds=[11])
        spellings = [spec,
                     dict(spec, until=10),
                     dict(spec, quantum=1.0, engine="compiled"),
                     CampaignSpec.from_dict(spec).to_dict()]
        rows = [service.submit(spelling) for spelling in spellings]
        assert [row["coalesced"] for row in rows] \
            == [False, True, True, True]
        assert {row["job_id"] for row in rows} == {rows[0]["job_id"]}
        assert len(service.jobs) == 1
        service.shutdown()

    def test_distinct_work_is_not_deduped(self, tmp_path, model_file,
                                          campaign_file):
        service = make_service(tmp_path)
        first = service.submit(make_spec(model_file, campaign_file,
                                         seeds=[9]))
        second = service.submit(make_spec(model_file, campaign_file,
                                          seeds=[10]))
        assert first["job_id"] != second["job_id"]
        assert first["fingerprint"] != second["fingerprint"]
        service.run_until_idle(timeout=120)
        service.shutdown()


class _Unreadable:
    """Stands in for a finished job's lifecycle: any read fails."""

    def __getattr__(self, name):
        raise AssertionError(f"a scan read a finished job's {name!r}")


class TestSchedulingCost:
    def test_scans_skip_finished_jobs(self, tmp_path, model_file,
                                      campaign_file):
        store = ArtifactStore(tmp_path / "store")
        service = make_service(tmp_path, store=store)
        spec = make_spec(model_file, campaign_file, seeds=[40])
        store.save("result",
                   job_fingerprint(CampaignSpec.from_dict(spec).to_dict()),
                   {"ok": True, "result": {}})
        for _ in range(1000):
            service.submit(spec)  # served from the store: done at once
        for seed in (41, 42):
            row = service.submit(make_spec(model_file, campaign_file,
                                           seeds=[seed]))
            service.ready_at[row["job_id"]] = time.monotonic() + 3600
        done = {job_id: job.lifecycle
                for job_id, job in service.jobs.items()
                if job.state == "done"}
        assert len(done) == 1000
        # what a full scan over every job says
        depth = sum(1 for job in service.jobs.values()
                    if not job.lifecycle.terminal)
        idle = not any(job.state == "queued"
                       for job in service.jobs.values())
        for job_id in done:
            service.jobs[job_id].lifecycle = _Unreadable()
        service.tick()
        assert service.leases == {}  # both queued jobs are backing off
        assert (service.queue_depth(), service.idle()) \
            == (depth, idle) == (2, False)
        for job_id, lifecycle in done.items():
            service.jobs[job_id].lifecycle = lifecycle
        service.shutdown()


class TestRetention:
    def test_a_finished_job_keeps_no_lifecycle_runtime(
            self, tmp_path, model_file, campaign_file):
        """A daemon keeps every job it served, so what a finished job
        holds is what the daemon grows by: about 1.2 KB per cache hit
        in this test, and 2.8 KB when the job keeps its lifecycle's
        compiled runtime."""
        store = ArtifactStore(tmp_path / "store")
        service = make_service(tmp_path, store=store)
        spec = make_spec(model_file, campaign_file, seeds=[43])
        store.save("result",
                   job_fingerprint(CampaignSpec.from_dict(spec).to_dict()),
                   {"ok": True, "result": {}})
        for _ in range(20):
            service.submit(spec)  # warm every cache first
        jobs = 200
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(jobs):
                assert service.submit(spec)["state"] == "done"
            gc.collect()
            retained = (tracemalloc.get_traced_memory()[0] - before) / jobs
        finally:
            tracemalloc.stop()
        service.shutdown()
        assert retained < 2000, f"{retained:.0f} bytes per finished job"


class TestAdmission:
    def test_reject_beyond_depth(self, tmp_path, model_file,
                                 campaign_file):
        rejected = PERF.counter("service.rejected")
        service = make_service(tmp_path, max_depth=1)
        service.submit(make_spec(model_file, campaign_file, seeds=[11]))
        with pytest.raises(ServiceError):
            service.submit(make_spec(model_file, campaign_file,
                                     seeds=[12]))
        assert PERF.counter("service.rejected") == rejected + 1
        service.run_until_idle(timeout=60)
        service.shutdown()

    def test_shed_cancels_the_oldest_queued(self, tmp_path, model_file,
                                            campaign_file):
        service = make_service(tmp_path, max_depth=1, admission="shed")
        first = service.submit(make_spec(model_file, campaign_file,
                                         seeds=[13]))
        second = service.submit(make_spec(model_file, campaign_file,
                                          seeds=[14]))
        assert service.status(first["job_id"])["state"] == "cancelled"
        service.run_until_idle(timeout=60)
        assert service.status(second["job_id"])["state"] == "done"
        service.shutdown()

    def test_draining_service_admits_nothing(self, tmp_path, model_file,
                                             campaign_file):
        service = make_service(tmp_path)
        service.drain()
        with pytest.raises(ServiceError):
            service.submit(make_spec(model_file, campaign_file,
                                     seeds=[15]))
        service.shutdown()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path, model_file,
                               campaign_file):
        service = make_service(tmp_path)
        row = service.submit(make_spec(model_file, campaign_file,
                                       seeds=[16]))
        cancelled = service.cancel(row["job_id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError):
            service.cancel(row["job_id"])  # already terminal
        service.shutdown()

    def test_cancel_leased_job_kills_the_worker(self, tmp_path,
                                                model_file,
                                                campaign_file):
        service = make_service(tmp_path, workers=1)
        row = service.submit(make_spec(model_file, campaign_file,
                                       seeds=[17]))
        service.tick()
        assert row["job_id"] in service.leases
        process = service.leases[row["job_id"]].process
        service.cancel(row["job_id"])
        assert row["job_id"] not in service.leases
        assert not process.is_alive()
        assert service.status(row["job_id"])["state"] == "cancelled"
        service.shutdown()

    def test_unknown_job(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(ServiceError):
            service.status("job-999999")
        with pytest.raises(ServiceError):
            service.cancel("job-999999")
        service.shutdown()

    def test_cancelled_fingerprint_can_resubmit(self, tmp_path,
                                                model_file,
                                                campaign_file):
        service = make_service(tmp_path)
        first = service.submit(make_spec(model_file, campaign_file,
                                         seeds=[18]))
        service.cancel(first["job_id"])
        second = service.submit(make_spec(model_file, campaign_file,
                                          seeds=[18]))
        assert second["coalesced"] is False
        assert second["job_id"] != first["job_id"]
        service.run_until_idle(timeout=120)
        assert service.status(second["job_id"])["state"] == "done"
        service.shutdown()


class TestDrainAndRestart:
    def test_drain_finishes_leased_keeps_queued(self, tmp_path,
                                                model_file,
                                                campaign_file):
        service = make_service(tmp_path, workers=1)
        running = service.submit(make_spec(model_file, campaign_file,
                                           seeds=[19]))
        queued = service.submit(make_spec(model_file, campaign_file,
                                          seeds=[20]))
        service.tick()  # leases the first job only (workers=1)
        service.shutdown()  # drain: finish the lease, keep the queue
        assert service.status(running["job_id"])["state"] == "done"
        assert service.status(queued["job_id"])["state"] == "queued"

        # next boot resumes exactly the unfinished job
        reborn = make_service(tmp_path, workers=1)
        assert reborn.status(running["job_id"])["state"] == "done"
        assert reborn.status(queued["job_id"])["state"] == "queued"
        reborn.run_until_idle(timeout=120)
        assert reborn.status(queued["job_id"])["state"] == "done"
        reborn.shutdown()

    def test_restart_replays_results_without_rerunning(
            self, tmp_path, model_file, campaign_file):
        service = make_service(tmp_path)
        row = service.submit(make_spec(model_file, campaign_file,
                                       seeds=[21]))
        service.run_until_idle(timeout=120)
        payload = service.result(row["job_id"])
        service.shutdown()
        reborn = make_service(tmp_path)
        assert reborn.status(row["job_id"])["state"] == "done"
        assert reborn.status(row["job_id"])["attempts"] == 1
        assert reborn.result(row["job_id"]) == payload
        reborn.shutdown()


    @pytest.mark.parametrize("restart", ["drain", "crash"])
    def test_every_status_row_survives_a_restart(
            self, tmp_path, model_file, campaign_file, monkeypatch,
            restart):
        options = dict(workers=1, budget=0, max_depth=2,
                       admission="shed",
                       store=ArtifactStore(tmp_path / "store"))
        monkeypatch.setenv(TEST_KILL_ENV, "poison:99")
        service = make_service(tmp_path, **options)
        done = make_spec(model_file, campaign_file, name="done",
                         seeds=[22])
        service.submit(done)
        service.run_until_idle(timeout=120)
        service.submit(done)  # served from the store at once
        for spec in (make_spec(model_file, campaign_file, name="doomed",
                               top="design::Nope"),
                     make_spec(model_file, campaign_file, name="poison",
                               seeds=[23])):
            service.submit(spec)
            service.run_until_idle(timeout=120)
        cancelled = service.submit(make_spec(model_file, campaign_file,
                                             seeds=[24]))
        service.cancel(cancelled["job_id"])
        for seed in (25, 26, 27):  # the third sheds the oldest queued
            service.submit(make_spec(model_file, campaign_file,
                                     seeds=[seed]))
        live = service.status()["jobs"]
        assert sorted((row["state"], row["cached"]) for row in live) == [
            ("cancelled", False), ("cancelled", False), ("done", False),
            ("done", True), ("failed", False), ("quarantined", False),
            ("queued", False), ("queued", False)]
        assert all(row["error"] for row in live
                   if row["state"] in ("cancelled", "failed",
                                       "quarantined"))
        if restart == "drain":
            service.shutdown()
        else:  # what a SIGKILL leaves: the journal, nothing written after
            service.pool.close()
            service.jobstore.close()
        reborn = make_service(tmp_path, **options)
        assert reborn.status()["jobs"] == live
        reborn.shutdown()

    def test_a_job_journals_one_record_per_transition(
            self, tmp_path, model_file, campaign_file):
        service = make_service(tmp_path,
                               store=ArtifactStore(tmp_path / "store"))
        spec = make_spec(model_file, campaign_file, seeds=[28])
        cold = service.submit(spec)
        service.run_until_idle(timeout=120)
        hit = service.submit(spec)
        service.shutdown()
        journaled = {}
        for _, record in service.jobstore.journal.records():
            journaled.setdefault(record["job_id"], []).append(
                record.get("event", record["kind"]))
        assert journaled == {
            cold["job_id"]: ["submit", "lease", "start", "complete",
                             "publish"],
            hit["job_id"]: ["submit", "hit"]}


class TestConfigValidation:
    @pytest.mark.parametrize("options", [
        {"workers": 0},
        {"lease_duration": 0.0},
        {"admission": "drop-newest"},
        {"max_depth": 0},
    ])
    def test_bad_options_are_refused(self, tmp_path, options):
        with pytest.raises(ServiceError):
            make_service(tmp_path, **options)
