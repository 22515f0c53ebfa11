"""The JSONL-over-Unix-socket service API (PR 10): request dispatch,
error envelopes, the blocking client, a live socket round-trip
through a real daemon, and the event-driven loop: the ``wait`` op and
what wakes a pass."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.errors import ServiceError
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.perf import PERF
from repro.service import (ServiceClient, ServiceServer, SimulationService,
                           TERMINAL_STATES)
from repro.workers import HEARTBEAT_INTERVAL


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    model = mm.Model("design")
    package = model.create_package("design")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=package)
    path = tmp_path_factory.mktemp("api") / "soc.xmi"
    xmi.write_file(str(path), model)
    return str(path)


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    campaign = FaultCampaign(
        [FaultSpec("drop", signal="Read", probability=0.3)],
        name="sweep", seed=0)
    path = tmp_path_factory.mktemp("api") / "campaign.json"
    path.write_text(campaign.to_json())
    return str(path)


def make_spec(model_file, campaign_file, name="job", seeds=(1,)):
    return dict(name=name, model=model_file, top="design::Soc",
                campaign=campaign_file, until=10.0, seeds=list(seeds))


@pytest.fixture
def server(tmp_path):
    service = SimulationService(tmp_path / "state", workers=1,
                                lease_duration=30.0)
    server = ServiceServer(service, str(tmp_path / "svc.sock"))
    yield server
    service.jobstore.close()


class TestDispatch:
    def test_ping(self, server):
        assert server.handle({"op": "ping"}) \
            == {"ok": True, "pong": True, "draining": False}

    def test_unknown_op_is_an_error_envelope(self, server):
        response = server.handle_line(b'{"op": "frobnicate"}')
        assert response["ok"] is False
        assert "frobnicate" in response["error"]

    def test_not_json_is_an_error_envelope(self, server):
        response = server.handle_line(b"GET / HTTP/1.1")
        assert response["ok"] is False
        assert "JSON" in response["error"]

    def test_non_object_request(self, server):
        response = server.handle_line(b"[1, 2]")
        assert response["ok"] is False

    def test_submit_needs_a_spec(self, server):
        response = server.handle_line(b'{"op": "submit"}')
        assert response["ok"] is False
        assert "spec" in response["error"]

    def test_malformed_spec_is_a_typed_envelope(self, server):
        before = PERF.counter("service.internal_errors")
        response = server.handle_line(json.dumps(
            {"op": "submit",
             "spec": {"seeds": [1], "builder": "m:f",
                      "engine": "batched"}}).encode("utf-8"))
        assert response["ok"] is False
        assert response["error"].startswith("FaultError: ")
        assert "engine" in response["error"]
        assert PERF.counter("service.internal_errors") == before

    @pytest.mark.parametrize("field, value", [
        ("max_restarts", float("inf")), ("quantum", float("nan"))])
    def test_a_non_finite_spec_number_is_a_typed_envelope(
            self, server, field, value):
        # Python's json reads Infinity and NaN; neither may reach a
        # worker or escape as an internal error
        before = PERF.counter("service.internal_errors")
        response = server.handle_line(json.dumps(
            {"op": "submit",
             "spec": {"seeds": [1], "builder": "m:f",
                      field: value}}).encode("utf-8"))
        assert response["ok"] is False
        assert response["error"].startswith("FaultError: ")
        assert field in response["error"]
        assert PERF.counter("service.internal_errors") == before

    def test_refusals_are_envelopes_not_crashes(self, server):
        response = server.handle_line(
            b'{"op": "result", "job_id": "job-999999"}')
        assert response["ok"] is False
        assert "job-999999" in response["error"]

    def test_submit_and_status(self, server, model_file, campaign_file):
        spec = make_spec(model_file, campaign_file)
        response = server.handle({"op": "submit", "spec": spec})
        assert response["ok"] is True
        job_id = response["job"]["job_id"]
        row = server.handle({"op": "status", "job_id": job_id})["job"]
        assert row["state"] == "queued"
        overview = server.handle({"op": "status"})["status"]
        assert overview["queue_depth"] == 1
        cancelled = server.handle({"op": "cancel",
                                   "job_id": job_id})["job"]
        assert cancelled["state"] == "cancelled"

    def test_stats_and_metrics(self, server):
        stats = server.handle({"op": "stats"})["stats"]
        assert stats["service"]["workers"] == 1
        assert "perf" in stats
        text = server.handle({"op": "metrics"})["text"]
        assert text.startswith("# ")  # Prometheus exposition format

    def test_drain_op_stops_admission(self, server, model_file,
                                      campaign_file):
        assert server.handle({"op": "drain"})["draining"] is True
        response = server.handle_line(json.dumps(
            {"op": "submit",
             "spec": make_spec(model_file, campaign_file)}
        ).encode("utf-8"))
        assert response["ok"] is False
        assert "draining" in response["error"]


class TestSocketRoundTrip:
    def test_live_daemon_over_the_socket(self, tmp_path, model_file,
                                         campaign_file):
        service = SimulationService(tmp_path / "state", workers=1,
                                    lease_duration=30.0)
        socket_path = str(tmp_path / "svc.sock")
        server = ServiceServer(service, socket_path)
        server.bind()
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll": 0.02}, daemon=True)
        thread.start()
        try:
            client = ServiceClient(socket_path, timeout=60.0)
            assert client.ping() is True
            row = client.submit(make_spec(model_file, campaign_file,
                                          seeds=[31]))
            final = client.wait(row["job_id"], timeout=120)
            assert final["state"] == "done"
            payload = client.result(row["job_id"])
            assert payload["ok"] is True
            assert len(client.status()["jobs"]) == 1
            assert "repro_service_published" in client.metrics()
            with pytest.raises(ServiceError):
                client.result("job-424242")
        finally:
            client.drain()
            thread.join(timeout=30)
        assert not thread.is_alive()
        # the daemon unlinked its socket on the way out
        import os
        assert not os.path.exists(socket_path)

    def test_client_reports_unreachable_daemon(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nobody.sock"),
                               timeout=1.0)
        with pytest.raises(ServiceError):
            client.ping()


#: The select cap the live daemons below run with (``serve_forever``'s
#: ``poll``).
CAP = 0.05


class LiveDaemon:
    """A real daemon serving its socket from a thread, counting passes."""

    def __init__(self, tmp_path, **options):
        settings = dict(workers=1, lease_duration=30.0)
        settings.update(options)
        self.service = SimulationService(tmp_path / "state", **settings)
        self.socket_path = str(tmp_path / "svc.sock")
        self.server = ServiceServer(self.service, self.socket_path)
        self.server.bind()
        self.passes = 0
        self.on_pass = None
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll": CAP, "on_tick": self._tick}, daemon=True)
        self.thread.start()
        self.client = ServiceClient(self.socket_path, timeout=60.0)

    def _tick(self):
        self.passes += 1
        if self.on_pass is not None:
            self.on_pass()

    def raw(self, request):
        """A connected socket that has sent ``request``."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(60.0)
        sock.connect(self.socket_path)
        sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
        return sock

    def running(self, spec):
        """Submit ``spec`` and return its job id once its worker runs."""
        job_id = self.client.submit(spec)["job_id"]
        deadline = time.monotonic() + 60
        while self.client.status(job_id)["state"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        return job_id

    def stop(self):
        # a drain runs leased jobs out: cancel what a test left running
        for row in self.client.status()["jobs"]:
            if row["state"] not in TERMINAL_STATES:
                self.client.cancel(row["job_id"])
        self.server.request_stop()
        self.thread.join(timeout=60)
        assert not self.thread.is_alive()


def read_line(sock):
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


@pytest.fixture
def live(tmp_path):
    daemon = LiveDaemon(tmp_path)
    yield daemon
    daemon.stop()


def long_spec(model_file, campaign_file, seed=71):
    """A job that runs far longer than any test waits for it (tens of
    seconds; :meth:`LiveDaemon.stop` cancels it)."""
    return dict(make_spec(model_file, campaign_file, seeds=[seed]),
                until=1e6)


class TestWait:
    def test_a_cold_job_answers_done_with_its_status_row(
            self, live, model_file, campaign_file):
        job_id = live.client.submit(
            make_spec(model_file, campaign_file, seeds=[61]))["job_id"]
        row = live.client.wait(job_id, timeout=120)
        assert row["state"] == "done" and row["cached"] is False
        assert row == live.client.status(job_id)

    def test_a_finished_or_cached_job_answers_at_once(
            self, tmp_path, model_file, campaign_file):
        from repro.store import ArtifactStore

        daemon = LiveDaemon(tmp_path,
                            store=ArtifactStore(tmp_path / "store"))
        try:
            spec = make_spec(model_file, campaign_file, seeds=[62])
            cold = daemon.client.submit(spec)["job_id"]
            daemon.client.wait(cold, timeout=120)
            cached = daemon.client.submit(spec)["job_id"]
            for job_id, was_cached in ((cold, False), (cached, True)):
                # a zero timeout still gets the final row, not a timeout
                row = daemon.client.wait(job_id, timeout=0)
                assert (row["state"], row["cached"]) == ("done",
                                                         was_cached)
                assert daemon.server.handle(
                    {"op": "wait", "job_id": job_id}) \
                    == {"ok": True, "job": row}
        finally:
            daemon.stop()

    def test_a_timeout_answers_with_the_current_row(
            self, live, model_file, campaign_file):
        job_id = live.running(long_spec(model_file, campaign_file))
        began = time.monotonic()
        row = live.client.request("wait", job_id=job_id,
                                  timeout=0.2)["job"]
        assert time.monotonic() - began >= 0.2
        assert row["state"] == "running"
        with pytest.raises(ServiceError,
                           match=f"timed out after 0.2s waiting for "
                                 f"{job_id} \\(state 'running'\\)"):
            live.client.wait(job_id, timeout=0.2)
        # the daemon keeps serving
        assert live.client.ping() is True
        assert live.client.cancel(job_id)["state"] == "cancelled"
        assert live.client.wait(job_id, timeout=5)["state"] == "cancelled"

    def test_a_waiter_that_disconnects_is_dropped(
            self, live, model_file, campaign_file):
        errors = PERF.counter("service.internal_errors")
        job_id = live.running(long_spec(model_file, campaign_file, 72))
        waiter = live.raw({"op": "wait", "job_id": job_id})
        time.sleep(5 * CAP)  # parked by now
        waiter.close()
        time.sleep(5 * CAP)
        live.client.cancel(job_id)
        assert live.client.wait(job_id, timeout=5)["state"] == "cancelled"
        assert PERF.counter("service.internal_errors") == errors

    def test_an_unknown_job_is_an_error_envelope(self, live):
        sock = live.raw({"op": "wait", "job_id": "job-424242"})
        with sock:
            response = json.loads(read_line(sock))
        assert response["ok"] is False
        assert "job-424242" in response["error"]
        with pytest.raises(ServiceError, match="job-424242"):
            live.client.wait("job-424242", timeout=1)

    @pytest.mark.parametrize("timeout", [-1, "soon", True])
    def test_a_bad_timeout_is_an_error_envelope(self, live, timeout):
        with pytest.raises(ServiceError, match="'timeout' must be"):
            live.client.request("wait", job_id="job-000001",
                                timeout=timeout)

    def test_requests_behind_a_parked_wait_are_answered_in_order(
            self, live, model_file, campaign_file):
        job_id = live.running(long_spec(model_file, campaign_file, 73))
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(60.0)
        with sock:
            sock.connect(live.socket_path)
            sock.sendall(b'{"op": "wait", "job_id": "%s", "timeout": 0.2}\n'
                         b'{"op": "ping"}\n' % job_id.encode())
            data = b""
            while data.count(b"\n") < 2:
                data += sock.recv(65536)
        first, second = (json.loads(line) for line in data.splitlines())
        assert first["job"]["state"] == "running"
        assert second["pong"] is True
        live.client.cancel(job_id)


    def test_a_drain_answers_the_waits_it_leaves(
            self, tmp_path, model_file, campaign_file):
        daemon = LiveDaemon(tmp_path)
        try:
            running = daemon.running(long_spec(model_file, campaign_file,
                                               76))
            queued = daemon.client.submit(
                make_spec(model_file, campaign_file, seeds=[77]))["job_id"]
            waiter = daemon.raw({"op": "wait", "job_id": queued})
            time.sleep(5 * CAP)  # parked by now
            daemon.client.drain()  # the queued job stays queued
            daemon.client.cancel(running)  # the last lease goes
            with waiter:
                response = json.loads(read_line(waiter))
            assert response == {"ok": False,
                                "error": f"service stopped before job "
                                         f"{queued} finished"}
            daemon.thread.join(timeout=60)
            assert not daemon.thread.is_alive()
        finally:
            if daemon.thread.is_alive():
                daemon.stop()


class TestEventLoop:
    def test_a_stopped_workers_lease_expires_without_client_traffic(
            self, tmp_path, model_file, campaign_file):
        lease = 0.5
        daemon = LiveDaemon(tmp_path, lease_duration=lease,
                            retry_backoff=30.0)
        try:
            job_id = daemon.running(long_spec(model_file, campaign_file,
                                              74))
            expired = []
            before = PERF.counter("service.lease_expiries")
            daemon.on_pass = lambda: expired or (
                PERF.counter("service.lease_expiries") > before
                and expired.append(time.monotonic()))
            pid = daemon.service.leases[job_id].process.pid
            os.kill(pid, signal.SIGSTOP)
            stopped = time.monotonic()
            time.sleep(lease + 4 * CAP)  # no request meanwhile
            assert expired, "the lease of a stopped worker never expired"
            assert expired[0] - stopped <= lease + CAP + 0.1
            daemon.on_pass = None
            assert daemon.client.status(job_id)["state"] == "queued"
            daemon.client.cancel(job_id)
        finally:
            daemon.stop()

    def test_a_parked_wait_costs_a_bounded_number_of_passes(
            self, live, model_file, campaign_file):
        job_id = live.running(long_spec(model_file, campaign_file, 75))
        passes, began = live.passes, time.monotonic()
        row = live.client.request("wait", job_id=job_id,
                                  timeout=1.0)["job"]
        elapsed = time.monotonic() - began
        assert row["state"] == "running"
        # each pass wakes on the cap, a heartbeat or a request (about
        # 25 in a second); a connection watched for writing spins
        # through thousands
        bound = 2 * (elapsed / CAP + elapsed / HEARTBEAT_INTERVAL) + 10
        assert live.passes - passes <= bound
        live.client.cancel(job_id)

    def test_sigterm_drains_an_idle_daemon_promptly(self, tmp_path):
        socket_path = tmp_path / "svc.sock"
        source = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [source] + [entry for entry in
                        os.environ.get("PYTHONPATH", "").split(os.pathsep)
                        if entry]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(tmp_path / "state"),
             "--socket", str(socket_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            client = ServiceClient(str(socket_path), timeout=5.0)
            deadline = time.monotonic() + 60
            while True:
                try:
                    assert client.ping() is True
                    break
                except ServiceError:
                    assert time.monotonic() < deadline, "never served"
                    time.sleep(0.02)
            began = time.monotonic()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=10) == 0
            assert time.monotonic() - began < 2.0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert not socket_path.exists()
