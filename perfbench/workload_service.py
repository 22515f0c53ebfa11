"""``service``: ``submit --wait`` against a ``repro serve`` daemon.

The daemon (default two workers, ``--store``) is a fork of this process
running ``repro.cli.main(["serve", ...])``, started before any model is
touched.  One closed-loop client alternates two kinds of job:

* cold op: a short faulted campaign with fresh seeds, so a fresh
  fingerprint: journal, lifecycle, worker fork and publish;
* warm op: a resubmission of an already finished fingerprint, which the
  daemon serves from its artifact store.

Each latency runs client-side from submit to done to result fetched.
The client polls status every few milliseconds, so latencies are not
quantized by the CLI's 0.1 s poll.  A job keeps client, daemon and
worker busy on both cores, so each is paired with a two-core probe.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import sys
import time

import harness
import layers
import models

SEEDS_PER_JOB = 2
#: Simulated time per seed of a cold job.
UNTIL = 100.0
#: Client status poll interval (seconds).
POLL = 0.004
#: Daemon starts timed for ``setup_s`` (the last one keeps serving).
SETUP_REPEATS = 7
#: Cold jobs re-run in-process to check their payload (untraced runs).
CHECKED_JOBS = 3


def start_daemon(state: str, store: str, socket_path: str):
    """Fork a daemon; returns (pid, seconds from fork to first ping)."""
    import repro.cli
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    sys.stdout.flush()
    sys.stderr.flush()
    began = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            sys.stdout = open(os.devnull, "w")
            code = repro.cli.main(["serve", state, "--socket", socket_path,
                                   "--store", store])
        finally:
            os._exit(code)
    client = ServiceClient(socket_path, timeout=30.0)
    give_up = began + 60.0
    while True:
        try:
            client.ping()
            return pid, time.perf_counter() - began
        except ServiceError:
            if time.perf_counter() > give_up:
                stop_daemon(pid)
                raise
            time.sleep(0.0002)


def stop_daemon(pid: int) -> None:
    """Graceful drain (SIGTERM) and wait for the daemon to exit."""
    try:
        os.kill(pid, signal.SIGTERM)
    except ProcessLookupError:
        pass
    os.waitpid(pid, 0)


def digest(payload) -> str:
    from repro.service.jobstore import canonical_json

    return hashlib.blake2b(canonical_json(payload).encode("utf-8"),
                           digest_size=16).hexdigest()


def daemon_counters(client) -> dict:
    perf = client.stats()["perf"]
    counters = dict(perf["counters"])
    latency = perf["histograms"].get("service.submit_to_result_s", {})
    counters["latency.sum"] = latency.get("sum", 0.0)
    counters["latency.count"] = latency.get("count", 0)
    return counters


def run(ctx: harness.Context) -> harness.Outcome:
    out = harness.Outcome()
    meter = harness.Meter()
    store = ctx.path("store")
    for attempt in range(SETUP_REPEATS):
        state = ctx.path(f"state{attempt}")
        os.makedirs(state)
        before = meter.probe(cores=2)
        pid, elapsed = start_daemon(state, store,
                                    os.path.join(state, "s.sock"))
        meter.add("setup", elapsed, (before + meter.probe(cores=2)) / 2)
        if attempt < SETUP_REPEATS - 1:
            stop_daemon(pid)
    try:
        return serve(ctx, out, meter, pid, state)
    finally:
        stop_daemon(pid)


def serve(ctx, out, meter, pid, state) -> harness.Outcome:
    from repro.faults import CampaignSpec, run_campaign
    from repro.service import ServiceClient

    client = ServiceClient(os.path.join(state, "s.sock"), timeout=60.0)
    model, faults = ctx.path("soc.xmi"), ctx.path("faults.json")
    models.write_soc(model, ctx.seed, address_range=0x1000)
    models.write_service_faults(faults, ctx.seed)
    base = models.seed_block(ctx.seed, "service", 1)[0]
    rng = random.Random(ctx.seed)

    def job_spec(index: int) -> dict:
        first = base + index * SEEDS_PER_JOB
        return CampaignSpec(seeds=range(first, first + SEEDS_PER_JOB),
                            model=model, top="Soc", campaign=faults,
                            until=UNTIL, name="svc").to_dict()

    def submit_and_wait(spec: dict):
        job = client.submit(spec)
        row = client.wait(job["job_id"], timeout=120.0, poll=POLL)
        payload = client.result(job["job_id"]) \
            if row["state"] == "done" else None
        return row, payload

    tracer = layers.Tracer()
    specs, digests = [], []
    before = daemon_counters(client)
    deadline = ctx.deadline()
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        traced = ctx.trace and index % 2 == 1
        if traced:
            tracer.wrap_method(ServiceClient, "submit", "api.submit", "api",
                               span=True)
            tracer.wrap_method(ServiceClient, "status", "api.status", "api",
                               span=True)
            tracer.wrap_method(ServiceClient, "result", "api.result", "api",
                               span=True)
        spec = job_spec(index)
        out.attempted += 1
        if traced:
            row, payload = meter.time("traced_cold", lambda: tracer.run_root(
                "cold", f"job:{index}", lambda: submit_and_wait(spec)),
                cores=2)
        else:
            row, payload = meter.time("cold", lambda: submit_and_wait(spec),
                                      cores=2)
        if out.check(row["state"] == "done" and not row.get("cached"),
                     f"cold job {row['job_id']}: {row['state']} "
                     f"cached={row.get('cached')}"):
            specs.append(spec)
            digests.append(digest(payload))

        earlier = rng.randrange(len(specs)) if specs else None
        if earlier is not None:
            out.attempted += 1
            again = specs[earlier]
            if traced:
                row, payload = meter.time("traced_warm", lambda: (
                    tracer.run_root("hit", f"job:{earlier}",
                                    lambda: submit_and_wait(again))),
                    cores=2)
            else:
                row, payload = meter.time(
                    "warm", lambda: submit_and_wait(again), cores=2)
            out.check(row["state"] == "done" and row.get("cached") is True
                      and payload is not None
                      and digest(payload) == digests[earlier],
                      f"resubmission of job {earlier} not served from "
                      f"the store byte-identically")
        tracer.restore()
        if traced or (not ctx.trace and index < CHECKED_JOBS):
            # the same campaign in-process: the payload reference and the
            # baseline of service.orchestration_s
            result = meter.time("direct", lambda: run_campaign(
                CampaignSpec.from_dict(spec), workers=0))
            out.check(specs[-1] is spec and digest(
                {"ok": True, "result": result.to_dict()}) == digests[-1],
                f"cold job {index} payload differs from an in-process run")
        index += 1

    after = daemon_counters(client)
    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in after}
    jobs = max(1, delta.get("service.submitted", 0))
    out.check(delta.get("service.retries", 0) == 0
              and delta.get("service.lease_expiries", 0) == 0,
              f"daemon retried: {delta.get('service.retries', 0)} retries, "
              f"{delta.get('service.lease_expiries', 0)} lease expiries")
    out.metric("setup_s", meter.median("setup"), "s")
    out.metric("peak_rss_mb", harness.pid_peak_rss_mb(pid), "MB")
    out.detail.update({
        "setup": meter.summary("setup"),
        "jobs": index,
        "daemon_counters": {name: value for name, value in delta.items()
                            if name.startswith(("service.", "store."))},
    })
    if not ctx.trace:
        out.metric("cold_s", meter.median("cold"), "s")
        out.metric("warm_s", meter.median("warm"), "s")
        out.detail["cold"] = meter.summary("cold")
        out.detail["warm"] = meter.summary("warm")
        return out
    journal = os.path.join(state, "journal.jsonl")
    with open(journal, "rb") as handle:
        records = handle.read().count(b"\n")
    hits, misses = delta.get("store.hit", 0), delta.get("store.miss", 0)
    tracer.scale = meter.scale()
    for op in ("submit", "status", "result"):
        out.metric(f"api.{op}_s", tracer.total_s(f"api.{op}")
                   / max(1, tracer.count(f"api.{op}")), "s")
    out.metric("daemon.submit_to_result_s", delta["latency.sum"]
               / max(1, delta["latency.count"]) * meter.scale(), "s")
    out.metric("service.orchestration_s",
               meter.median("cold") - meter.median("direct"), "s")
    out.metric("service.cache_hit_ratio",
               delta.get("service.cache_hits", 0) / jobs, "ratio")
    out.metric("service.retries", delta.get("service.retries", 0) / jobs,
               "count")
    out.metric("service.lease_expiries",
               delta.get("service.lease_expiries", 0) / jobs, "count")
    out.metric("jobstore.records_per_job", records / jobs, "count")
    out.metric("jobstore.bytes_per_job", os.path.getsize(journal) / jobs,
               "B")
    out.metric("store.hits", hits / jobs, "count")
    out.metric("store.misses", misses / jobs, "count")
    out.metric("store.writes", delta.get("store.write", 0) / jobs, "count")
    out.metric("store.hit_ratio", hits / max(1, hits + misses), "ratio")
    out.metric("trace_overhead",
               meter.median("traced_warm") / meter.median("warm"), "ratio")
    out.detail["trace_overhead_cold"] = (meter.median("traced_cold")
                                         / meter.median("cold"))
    out.detail["layer_shares"] = tracer.breakdown()
    out.spans = tracer.spans[-4000:]
    return out
