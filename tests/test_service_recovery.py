"""Daemon crash recovery (PR 10, the crash-matrix test): SIGKILL the
*daemon* mid-campaign, restart it on the same state directory, and
prove that journal replay resumes exactly the unfinished jobs and that
the final results are byte-identical (``cmp``-equal) to an
uninterrupted reference run."""

import contextlib
import filecmp
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.service import ServiceClient, SimulationService

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    base = tmp_path_factory.mktemp("recovery")
    model = mm.Model("design")
    package = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=package)
    model_path = base / "soc.xmi"
    xmi.write_file(str(model_path), model)
    campaign = FaultCampaign(
        [FaultSpec("drop", signal="Read", probability=0.3)],
        name="sweep", seed=0)
    campaign_path = base / "campaign.json"
    campaign_path.write_text(campaign.to_json())
    return str(model_path), str(campaign_path)


def job_specs(fixtures, count=3):
    model_path, campaign_path = fixtures
    return [dict(name=f"recovery-{index}", model=model_path,
                 top="design::Soc", campaign=campaign_path,
                 until=30.0, seeds=[100 + index, 200 + index])
            for index in range(count)]


def spawn_daemon(state_dir, socket_path, log_path):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC + os.pathsep \
        + environment.get("PYTHONPATH", "")
    log = open(log_path, "a", encoding="utf-8")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(state_dir),
         "--socket", str(socket_path), "--workers", "1",
         "--lease", "30", "--retry-backoff", "0.01"],
        stdout=log, stderr=subprocess.STDOUT, env=environment)
    client = ServiceClient(str(socket_path), timeout=30.0)
    deadline = time.monotonic() + 30.0
    while True:
        try:
            client.ping()
            return process, client
        except Exception:
            if process.poll() is not None:
                log.close()
                raise AssertionError(
                    f"daemon died on startup: "
                    f"{open(log_path).read()}")
            if time.monotonic() > deadline:
                process.kill()
                raise AssertionError("daemon never answered ping")
            time.sleep(0.05)


def wait_for_a_lease(client, timeout=60.0):
    """Block until some job holds a lease (leased/running/merging)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status()
        if any(row["state"] in ("leased", "running", "merging")
               for row in status["jobs"]):
            return status
        if all(row["state"] == "done" for row in status["jobs"]):
            raise AssertionError(
                "all jobs finished before the kill window")
        time.sleep(0.02)
    raise AssertionError("no job ever took a lease")


def test_daemon_sigkill_recovery_matches_uninterrupted_run(
        tmp_path, fixtures):
    specs = job_specs(fixtures)

    # --- reference: the same jobs, uninterrupted, in-process ----------
    reference = SimulationService(tmp_path / "reference", workers=1,
                                  lease_duration=60.0)
    reference_rows = [reference.submit(spec) for spec in specs]
    reference.run_until_idle(timeout=600)
    reference_files = {}
    for spec, row in zip(specs, reference_rows):
        assert reference.status(row["job_id"])["state"] == "done"
        reference_files[row["fingerprint"]] = \
            reference.jobstore.result_path(row["job_id"])
    reference.shutdown()

    # --- interrupted: a real daemon, SIGKILLed mid-campaign -----------
    state_dir = tmp_path / "state"
    socket_path = tmp_path / "svc.sock"
    log_path = tmp_path / "serve.log"
    process, client = spawn_daemon(state_dir, socket_path, log_path)
    victim_rows = [client.submit(spec) for spec in specs]
    assert len({row["job_id"] for row in victim_rows}) == len(specs)
    wait_for_a_lease(client)
    os.kill(process.pid, signal.SIGKILL)  # no drain, no snapshot
    process.wait(timeout=30)

    before_restart = {}
    for line in open(state_dir / "journal.jsonl", encoding="utf-8"):
        record = json.loads(line)
        if record["kind"] == "submit":
            before_restart[record["job_id"]] = "queued"
        elif record["kind"] == "event":
            before_restart[record["job_id"]] = record["event"]
    # the journal saw every accepted job, none were lost by the kill
    assert set(before_restart) == {row["job_id"]
                                   for row in victim_rows}

    # --- restart on the same state dir: replay resumes the queue ------
    process, client = spawn_daemon(state_dir, socket_path, log_path)
    try:
        for row in victim_rows:
            final = client.wait(row["job_id"], timeout=600)
            assert final["state"] == "done", final
    finally:
        client.drain()
        process.wait(timeout=60)
    assert process.returncode == 0  # graceful drain exits 0

    # --- the crash changed nothing observable -------------------------
    for row in victim_rows:
        result_file = state_dir / "results" / f"{row['job_id']}.json"
        assert filecmp.cmp(result_file,
                           reference_files[row["fingerprint"]],
                           shallow=False), \
            f"{row['job_id']} diverged from the uninterrupted run"

    # finished jobs were not re-run after the restart: at most the one
    # holding the lease at kill time needed a second attempt
    lease_events = sum(
        1 for line in open(state_dir / "journal.jsonl",
                           encoding="utf-8")
        if json.loads(line).get("event") == "lease")
    assert lease_events <= len(specs) + 1


def child_pids(pid):
    """Live children of ``pid``, from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = process_stat(int(entry))
            if stat is not None and int(stat[1]) == pid:
                children.append(int(entry))
    return children


def process_stat(pid):
    """``/proc/<pid>/stat`` fields after the command name (state first,
    then the parent pid), or None for a process that is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_pool_workers_die_with_their_daemon(tmp_path, fixtures):
    """An idle pool worker exits with its SIGKILLed daemon and keeps
    none of its sockets: the next daemon on the same socket path
    answers at once instead of a dead listener swallowing the ping."""
    state_dir = tmp_path / "state"
    socket_path = tmp_path / "svc.sock"
    log_path = tmp_path / "serve.log"
    process, client = spawn_daemon(state_dir, socket_path, log_path)
    row = client.submit(job_specs(fixtures, count=1)[0])
    assert client.wait(row["job_id"], timeout=300)["state"] == "done"
    workers = child_pids(process.pid)
    assert workers, "the daemon keeps its idle pool worker"
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=30)

    deadline = time.monotonic() + 5.0
    while True:
        stats = [process_stat(pid) for pid in workers]
        if all(stat is None or stat[0] == "Z" for stat in stats):
            break
        if time.monotonic() > deadline:
            for pid in workers:  # leave no orphan behind the failure
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            raise AssertionError("a pool worker outlived its daemon by 5 s")
        time.sleep(0.05)

    began = time.monotonic()
    process, client = spawn_daemon(state_dir, socket_path, log_path)
    try:
        assert time.monotonic() - began < 2.0
    finally:
        client.drain()
        process.wait(timeout=60)


def test_recovery_is_idempotent_without_a_crash(tmp_path, fixtures):
    """Booting twice on an already-clean state dir changes nothing."""
    spec = job_specs(fixtures, count=1)[0]
    service = SimulationService(tmp_path / "state", workers=1)
    row = service.submit(spec)
    service.run_until_idle(timeout=300)
    payload = service.result(row["job_id"])
    service.shutdown()
    for _ in range(2):
        reborn = SimulationService(tmp_path / "state", workers=1)
        assert reborn.last_recovery == {"requeued": 0,
                                        "republished": 0,
                                        "quarantined": 0}
        assert reborn.result(row["job_id"]) == payload
        reborn.shutdown()
