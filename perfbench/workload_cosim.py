"""``cosim``: D8's SoC on the compiled engine, the way ``simulate`` runs it.

One traffic generator, a bus and a 0x800-byte RAM, written to XMI and
parsed back.  No faults and no observers beyond the built-in delivery
log.  Each simulation runs a fixed horizon in equal simulated-time
segments; between segments the run also starts a fresh simulation from
the XMI file (parse plus compiled construction) and closes it again.

* cold op: start a simulation from its XMI file;
* warm op: advance the running simulation by one segment.
"""

from __future__ import annotations

import time

import harness
import layers
import models

#: Simulated time per segment (about 3000 kernel events).
SEGMENT = 1000.0
#: Segments per simulation: the horizon is fixed in simulated time, so
#: the delivery log, and with it the peak RSS, is the same on any host.
SEGMENTS = 40
#: Simulated time of the interpreted lockstep prefix check.
PREFIX = 400.0
#: Forked set-up repetitions (each a first, cold compiled construction).
SETUP_REPEATS = 7


def start(path: str, engine: str = "compiled"):
    """What ``simulate`` does before its first event."""
    import repro.metamodel as mm
    from repro import xmi
    from repro.simulation import SystemSimulation

    document = xmi.read_file(path)
    top = document.model.resolve("Soc", mm.Component)
    return SystemSimulation(top, quantum=1.0, default_latency=1.0,
                            engine=engine)


def run(ctx: harness.Context) -> harness.Outcome:
    out = harness.Outcome()
    meter = harness.Meter()
    path = ctx.path("soc.xmi")
    models.write_soc(path, ctx.seed)
    for _ in range(SETUP_REPEATS):
        harness.time_in_fork(meter, "setup", lambda: start(path).close())

    seg_tracer, start_tracer = layers.Tracer(), layers.Tracer()
    reference = None          # per-segment (events, messages) of sim 1
    events = messages = 0
    simulation = start(path)
    deadline = ctx.deadline()
    runs = 0
    while True:
        runs += 1
        counts = []
        for index in range(1, SEGMENTS + 1):
            traced = ctx.trace and index % 2 == 0
            # cold op: a fresh simulation from the XMI file
            out.attempted += 1
            if traced:
                layers.wrap_simulation(start_tracer, simulation)
                layers.wrap_xmi(start_tracer)
                probe = meter.time("traced_cold", lambda: (
                    start_tracer.run_root("start", f"start:{runs}.{index}",
                                          lambda: start(path))))
                start_tracer.restore()
            else:
                probe = meter.time("cold", lambda: start(path))
            out.check(all(label == "compiled"
                          for label in probe.compile_report.values()),
                      f"start fell back: {probe.compile_report}")
            probe.close()
            # warm op: one more segment of the long simulation
            out.attempted += 1
            kernel = simulation.simulator
            events_before = kernel.events_processed
            messages_before = simulation.messages_delivered
            until = index * SEGMENT
            if traced:
                layers.wrap_simulation(seg_tracer, simulation)
                meter.time("traced_warm", lambda: seg_tracer.run_root(
                    "segment", f"sim:{runs}",
                    lambda: simulation.run(until=until)))
                seg_tracer.restore()
                events += kernel.events_processed - events_before
                messages += simulation.messages_delivered - messages_before
            else:
                meter.time("warm", lambda: simulation.run(until=until))
            counts.append((kernel.events_processed - events_before,
                           simulation.messages_delivered - messages_before))
        if reference is None:
            reference = counts
            out.check(all(label == "compiled" for label
                          in simulation.compile_report.values()),
                      f"parts not compiled: {simulation.compile_report}")
        out.check(counts == reference,
                  f"simulation {runs} diverged from simulation 1")
        simulation.close()
        if time.perf_counter() >= deadline:
            break
        out.attempted += 1
        simulation = meter.time("cold", lambda: start(path))

    check_lockstep(out, path)
    events_per_segment = sum(e for e, _ in reference) / len(reference)
    out.metric("setup_s", meter.median("setup"), "s")
    out.metric("peak_rss_mb", harness.self_peak_rss_mb(), "MB")
    out.metric("cold_s", meter.median("cold"), "s")
    out.metric("warm_s", meter.median("warm"), "s")
    out.detail.update({
        name: meter.summary(name) for name in ("setup", "cold", "warm")})
    out.detail.update({
        "sim_events_per_s": events_per_segment / meter.median("warm"),
        "sim_events_per_raw_s": events_per_segment
        / harness.median(meter.raw["warm"]),
        "events_per_segment": events_per_segment,
        "simulations": runs,
    })
    if ctx.trace:
        segments = len(meter.raw["traced_warm"])
        seg_tracer.scale = start_tracer.scale = meter.scale()
        layer_metrics(out, seg_tracer, start_tracer, segments, events,
                      messages)
        out.metric("trace_overhead", meter.median("traced_warm")
                   / meter.median("warm"), "ratio")
        out.detail["trace_overhead_cold"] = (meter.median("traced_cold")
                                             / meter.median("cold"))
        out.detail["layer_shares"] = {"segment": seg_tracer.breakdown(),
                                      "start": start_tracer.breakdown()}
        out.spans = seg_tracer.spans[-2000:] + start_tracer.spans[-2000:]
    return out


def check_lockstep(out: harness.Outcome, path: str) -> None:
    """Kernel events, messages and the delivery log of the compiled
    run match the interpreted engine over a prefix of the same seed."""
    out.attempted += 1
    compiled, interpreted = start(path), start(path, "interpreted")
    try:
        compiled.run(until=PREFIX)
        interpreted.run(until=PREFIX)
        out.check(
            compiled.simulator.events_processed
            == interpreted.simulator.events_processed
            and compiled.messages_delivered
            == interpreted.messages_delivered
            and compiled.message_log == interpreted.message_log
            and compiled.messages_delivered > 0,
            "compiled and interpreted runs differ over the prefix")
    finally:
        compiled.close()
        interpreted.close()


def layer_metrics(out, seg, first, segments, events, messages) -> None:
    """Per-segment layer figures (kernel, engines, trace bus) from the
    segment tracer ``seg`` and per-start figures (construction, compile,
    XMI read) from the start tracer ``first``."""
    per = float(max(1, segments))
    starts = float(max(1, first.roots.get("start", [0])[0]))
    out.metric("kernel.events", events / per, "count")
    out.metric("cosim.messages", messages / per, "count")
    layers.simulation_metrics(out, seg, per)
    layers.construction_metrics(out, first, starts)
    out.metric("xmi.read_s", first.total_s("xmi.read_file") / starts, "s")
