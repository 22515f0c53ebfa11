"""The JSONL-over-Unix-socket service API (PR 10): request dispatch,
error envelopes, the blocking client, and a live socket round-trip
through a real daemon."""

import json
import threading

import pytest

import repro.metamodel as mm
from repro import xmi
from repro.errors import ServiceError
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import make_memory, make_soc, make_traffic_generator
from repro.perf import PERF
from repro.service import ServiceClient, ServiceServer, SimulationService


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
