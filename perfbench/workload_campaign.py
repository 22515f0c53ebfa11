"""``campaign``: a 32-seed verification campaign, as ``campaign`` runs it.

The D8 SoC from XMI with D11's five-fault mix, D16's five-property
reference suite (``on_violation="record"``) and coverage, on the
default interpreted engine.  Each round runs the campaign through
``run_campaign(workers=2, journal=...)`` and then a quarter of its
seeds, in turn, one by one in-process with ``run_seed``; their rows, and
from the fourth round the merged report of the latest in-process rows,
must match the pool's byte for byte.

* cold op: one seed through the 2-worker fork pool (wall / seeds);
* warm op: one seed in-process on the already parsed model.
"""

from __future__ import annotations

import json
import os
import time

import harness
import layers
import models

SEEDS = 32
WORKERS = 2
#: Simulated time per seed (D11's horizon).
UNTIL = 400.0
#: Rounds over which the in-process pass covers every seed once.
PASSES = 4
#: Forked set-up repetitions.
SETUP_REPEATS = 7


def prepare(directory: str, seed: int):
    """Campaign inputs on disk, parsed the way the runner parses them,
    and one warm-up seed so lazy imports are not charged to a seed."""
    from repro.faults import CampaignSpec
    from repro.faults.runner import run_seed

    os.makedirs(directory, exist_ok=True)
    model = os.path.join(directory, "soc.xmi")
    faults = os.path.join(directory, "faults.json")
    suite = os.path.join(directory, "properties.json")
    models.write_soc(model, seed, address_range=0x1000)
    models.write_fault_mix(faults, seed)
    models.write_reference_suite(suite)
    seeds = models.seed_block(seed, "campaign", SEEDS + 1)
    spec = CampaignSpec(seeds=seeds[1:], model=model, top="Soc",
                        campaign=faults, until=UNTIL, coverage=True,
                        properties=suite, on_violation="record",
                        name="bench")
    spec.build_top()
    spec.load_properties()
    live = []
    run_seed(spec, seeds[0], observer=live.append)
    return spec, live[0]


def canonical(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def journal_failures(path: str) -> int:
    """Failed attempts (retries) recorded in a campaign journal."""
    with open(path, "r", encoding="utf-8") as handle:
        return sum(1 for line in handle
                   if json.loads(line).get("status") == "failed")


def run(ctx: harness.Context) -> harness.Outcome:
    from repro.faults import runner
    from repro.faults.runner import CampaignResult, run_campaign

    out = harness.Outcome()
    meter = harness.Meter()
    for k in range(SETUP_REPEATS):
        harness.time_in_fork(meter, "setup", lambda k=k: prepare(
            ctx.path(f"setup{k}"), ctx.seed))
    spec, live = prepare(ctx.path("inputs"), ctx.seed)

    tracer = layers.Tracer()
    retries = 0
    traced = {"events": 0, "messages": 0, "violations": 0, "injected": 0}
    report = None          # the pool's merged report, equal every round
    serial = {}            # seed -> latest in-process row
    deadline = ctx.deadline()
    rounds = 0
    while rounds < PASSES or time.perf_counter() < deadline:
        rounds += 1
        journal = ctx.path(f"journal{rounds}.jsonl")
        out.attempted += len(spec.seeds)
        pooled = meter.time("pool", lambda: run_campaign(
            spec, workers=WORKERS, journal=journal), bracket=True,
            cores=WORKERS)
        if rounds == 1:
            # later pool workers would also carry what this process
            # accumulated over the run, which a CLI campaign does not
            peak_rss_mb = harness.children_peak_rss_mb()
        retries += journal_failures(journal)
        os.unlink(journal)
        out.check(pooled.ok and pooled.completed_seeds == spec.seeds,
                  f"pool lost seeds: {pooled.failures}")
        for row in pooled.rows:
            out.check("sim_error" not in row,
                      f"seed {row['seed']}: {row.get('sim_error')}")
        if report is None:
            report = pooled.to_json()
        out.check(pooled.to_json() == report,
                  f"round {rounds}: pool report differs from round 1")
        pool_rows = {row["seed"]: canonical(row) for row in pooled.rows}

        # a quarter of the seeds in-process per round, in turn, so the
        # pool is timed more often; PASSES rounds cover every seed
        for index, seed in enumerate(spec.seeds[rounds % PASSES::PASSES]):
            out.attempted += 1
            if ctx.trace and index % 2 == 0:
                sims = []
                layers.wrap_simulation(tracer, live)
                tracer.wrap_function(runner.run_seed, "runner.run_seed",
                                     "runner", span=True)
                row = meter.time("traced_warm", lambda: tracer.run_root(
                    "seed", f"seed:{seed}", lambda: runner.run_seed(
                        spec, seed, observer=sims.append)))
                tracer.restore()
                traced["events"] += sims[0].simulator.events_processed
                traced["messages"] += row["messages_delivered"]
                traced["violations"] += \
                    row["properties"].get("total_violations", 0)
                traced["injected"] += len(row["resilience"]["injections"])
            else:
                row = meter.time("warm",
                                 lambda: runner.run_seed(spec, seed))
            out.check(canonical(row) == pool_rows.get(seed),
                      f"seed {seed}: in-process row differs from the pool's")
            serial[seed] = row
        if len(serial) == len(spec.seeds):
            out.check(CampaignResult(spec.name, list(serial.values()))
                      .to_json() == report,
                      f"round {rounds}: in-process report differs from "
                      f"the pool's")

    seeds = len(spec.seeds)
    pool_wall = meter.median("pool")
    seed_s = meter.median("warm")
    out.metric("setup_s", meter.median("setup"), "s")
    out.metric("peak_rss_mb", peak_rss_mb, "MB")
    out.metric("cold_s", pool_wall / seeds, "s")
    out.metric("warm_s", seed_s, "s")
    out.detail.update({
        name: meter.summary(name) for name in ("setup", "pool", "warm")})
    out.detail.update({
        "seeds_per_s": seeds / pool_wall,
        "seeds_per_raw_s": seeds / harness.median(meter.raw["pool"]),
        "serial_seeds_per_s": 1.0 / seed_s,
        "rounds": rounds,
        "retries": retries,
    })
    out.check(retries == 0, f"{retries} seed attempt(s) retried")
    if ctx.trace:
        per = float(max(1, len(meter.raw["traced_warm"])))
        tracer.scale = meter.scale()
        layers.simulation_metrics(out, tracer, per)
        layers.construction_metrics(out, tracer, per)
        out.metric("kernel.events", traced["events"] / per, "count")
        out.metric("cosim.messages", traced["messages"] / per, "count")
        out.metric("properties.violations", traced["violations"] / per,
                   "count")
        out.metric("faults.injected", traced["injected"] / per, "count")
        out.metric("runner.seed_s", seed_s, "s")
        busy = seed_s * seeds
        out.metric("runner.pool_efficiency", busy / (pool_wall * WORKERS),
                   "ratio")
        out.metric("runner.overhead_per_seed_s",
                   (pool_wall * WORKERS - busy) / seeds, "s")
        out.metric("runner.retries", retries / rounds, "count")
        out.metric("trace_overhead",
                   meter.median("traced_warm") / seed_s, "ratio")
        out.detail["layer_shares"] = tracer.breakdown()
        out.spans = tracer.spans[-4000:]
    return out
