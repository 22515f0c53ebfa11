"""D19 — simulation-as-a-service: orchestration overhead & recovery (PR 10).

Claim under test: wrapping ``run_campaign`` behind the durable service
daemon must cost little when nothing goes wrong, almost nothing when
the answer is already known, and a bounded amount when things crash.

Measured:

* **orchestration overhead** — the same campaign run directly
  (``run_campaign``, serial in-process) vs submitted to an in-process
  :class:`~repro.service.SimulationService` and driven to ``done``
  (journal writes + lifecycle machine + forked lease + result-file
  round-trip).  The absolute gap is the price of durability;
* **warm cache hit** — resubmitting the identical (model, campaign,
  seeds) fingerprint with a shared artifact store: served from disk,
  byte-identical, no lease taken;
* **crash retry** — a worker SIGKILLed on its first lease
  (``REPRO_SERVICE_TEST_KILL``): wall time vs the clean run bounds the
  cost of one lease expiry + deterministic-jitter backoff + re-run;
* **queue recovery** — boot-time journal replay for a queue of ``n``
  finished jobs.  The journal is the daemon's only job state and is
  never compacted, so boot replays every record of it.

Workloads are the shared SoC builder; service state directories live
under a temp dir that is removed afterwards.
"""

import os
import tempfile
import time

from repro.faults import CampaignSpec, FaultCampaign, FaultSpec, run_campaign
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.service import JobStore, SimulationService, job_fingerprint
from repro.service.daemon import TEST_KILL_ENV

#: Seeds per campaign job (QUICK overrides via SEEDS).
SEEDS = (0, 1, 2, 3)
#: Simulated time per seed (QUICK overrides via CAMPAIGN_TIME).
CAMPAIGN_TIME = 200.0
#: Queue sizes for the recovery-replay sweep (QUICK overrides via SIZES).
SIZES = (16, 64)
#: Trials per timed mode (best-of, like the other D-benchmarks).
REPEATS = 3

CAMPAIGN = FaultCampaign(
    [FaultSpec("drop", signal="Read", probability=0.3),
     FaultSpec("delay", delay=1.5, probability=0.4)],
    name="d19", seed=0)


def build_system():
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    return make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)])


def _spec_data(campaign_path, name="d19", seeds=None):
    return CampaignSpec(seeds=list(seeds or SEEDS),
                        builder="bench_d19_service:build_system",
                        campaign=campaign_path,
                        until=CAMPAIGN_TIME,
                        name=name).to_dict()


def _run_service_job(scratch, spec_data, tag, store=None, env_kill=None):
    """One submit -> done round trip on a fresh service; returns wall."""
    from repro.store import ArtifactStore

    state = os.path.join(scratch, f"state-{tag}")
    artifact_store = ArtifactStore(store) if store else None
    service = SimulationService(state, workers=1, lease_duration=120.0,
                                retry_backoff=0.01,
                                store=artifact_store)
    if env_kill:
        os.environ[TEST_KILL_ENV] = env_kill
    try:
        start = time.perf_counter()
        row = service.submit(spec_data)
        service.run_until_idle(timeout=600)
        wall = time.perf_counter() - start
    finally:
        if env_kill:
            del os.environ[TEST_KILL_ENV]
    final = service.status(row["job_id"])
    service.shutdown()
    return wall, final


def overhead_rows():
    rows = []
    with tempfile.TemporaryDirectory(prefix="d19-") as scratch:
        campaign_path = os.path.join(scratch, "campaign.json")
        with open(campaign_path, "w", encoding="utf-8") as handle:
            handle.write(CAMPAIGN.to_json())
        spec_data = _spec_data(campaign_path)

        direct_wall = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            direct = run_campaign(CampaignSpec.from_dict(spec_data),
                                  workers=0)
            wall = time.perf_counter() - start
            assert direct.ok
            direct_wall = wall if direct_wall is None \
                else min(direct_wall, wall)

        # best-of-N like the direct baseline; each trial gets a fresh
        # state dir (and no shared store — a store would turn trials
        # 2..N into cache hits and measure the warm path instead).
        cold_wall = cold_row = None
        for trial in range(REPEATS):
            wall, row = _run_service_job(
                scratch, spec_data, f"cold{trial}")
            if cold_wall is None or wall < cold_wall:
                cold_wall, cold_row = wall, row
        flaky_wall = flaky_row = None
        for trial in range(REPEATS):
            wall, row = _run_service_job(
                scratch, spec_data, f"flaky{trial}", env_kill="d19:1")
            if flaky_wall is None or wall < flaky_wall:
                flaky_wall, flaky_row = wall, row

        store_dir = os.path.join(scratch, "store")
        _run_service_job(scratch, spec_data, "prime", store=store_dir)
        warm_wall, warm_row = _run_service_job(
            scratch, spec_data, "warm", store=store_dir)

        rows.append({
            "level": "direct run_campaign (serial)",
            "seeds": len(spec_data["seeds"]),
            "wall_s": round(direct_wall, 3),
            "overhead_pct": 0.0,
        })
        rows.append({
            "level": "service cold (journal + lease + fork)",
            "seeds": len(spec_data["seeds"]),
            "wall_s": round(cold_wall, 3),
            "overhead_pct": round(
                100.0 * (cold_wall - direct_wall) / direct_wall, 1),
            "attempts": cold_row["attempts"],
        })
        rows.append({
            "level": "service warm (fingerprint cache hit)",
            "seeds": len(spec_data["seeds"]),
            "wall_s": round(warm_wall, 3),
            "speedup_vs_direct": round(direct_wall / warm_wall, 1),
            "cached": warm_row["cached"],
            "attempts": warm_row["attempts"],
        })
        rows.append({
            "level": "service crash retry (worker SIGKILL on lease 1)",
            "seeds": len(spec_data["seeds"]),
            "wall_s": round(flaky_wall, 3),
            "retry_cost_s": round(flaky_wall - cold_wall, 3),
            "attempts": flaky_row["attempts"],
        })
    return rows


def _synthesize_queue(root, jobs):
    """A journal describing ``jobs`` finished jobs (no simulation).

    Each job's history includes two expired leases before the one that
    completed — the retry churn real campaigns accumulate, and the
    journal growth every boot pays to replay.
    """
    store = JobStore(root)
    for index in range(jobs):
        job_id = f"job-{index:06d}"
        spec = {"name": job_id, "seeds": [index],
                "builder": "bench_d19_service:build_system",
                "until": CAMPAIGN_TIME}
        store.append({"kind": "submit", "job_id": job_id,
                      "fingerprint": job_fingerprint(spec),
                      "spec": spec, "budget": 3})
        for event in ("lease", "expire", "lease", "start", "expire",
                      "lease", "start", "complete"):
            store.append({"kind": "event", "job_id": job_id,
                          "event": event})
        store.write_result(job_id, {"ok": True, "result": {}})
        store.append({"kind": "event", "job_id": job_id,
                      "event": "publish"})
    store.close()
    return store


def recovery_rows():
    rows = []
    for jobs in SIZES:
        with tempfile.TemporaryDirectory(prefix="d19-") as scratch:
            root = os.path.join(scratch, "state")
            store = _synthesize_queue(root, jobs)
            records = sum(1 for _ in open(store.journal_path,
                                          encoding="utf-8"))

            journal_wall = None
            for _ in range(REPEATS):
                start = time.perf_counter()
                replayed = JobStore(root).replay()
                wall = time.perf_counter() - start
                journal_wall = wall if journal_wall is None \
                    else min(journal_wall, wall)
            assert len(replayed) == jobs
            assert all(job.state == "done" and job.attempts == 3
                       for job in replayed.values())

            rows.append({
                "level": f"boot replay, {jobs} finished jobs",
                "journal_records": records,
                "from_journal_ms": round(journal_wall * 1e3, 2),
            })
    return rows


def table():
    """Rows: direct-vs-service overhead, cache-hit speedup, crash-retry
    cost, and boot-time journal replay."""
    return overhead_rows() + recovery_rows()


class TestShape:
    def test_overhead_rows(self):
        rows = {row["level"]: row for row in overhead_rows()}
        warm = rows["service warm (fingerprint cache hit)"]
        assert warm["cached"] is True
        assert warm["attempts"] == 0
        flaky = rows["service crash retry (worker SIGKILL on lease 1)"]
        assert flaky["attempts"] == 2

    def test_recovery_rows(self):
        for row in recovery_rows():
            assert row["journal_records"] > 0
            assert row["from_journal_ms"] > 0


if __name__ == "__main__":
    for row in table():
        print(row)
