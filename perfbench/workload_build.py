"""``build``: the MDA loop through the CLI, in-process.

``transform --store`` then ``generate --backend all`` via
``repro.cli.main`` on ``synthetic_soc_pim(16, seed)``.  Each round edits
one component (chosen by the seed) to a new register reset value and
builds the edited model twice:

* cold op: into an empty store;
* warm op: into the warm store primed during set-up (the rebuild after
  a one-component edit).

In-process caches a fresh CLI process would not have (the transform
LRU, the active store) are reset before every build.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import shutil
import time

import harness
import layers

COMPONENTS = 16
#: Forked warm-store primings timed for ``setup_s``.
SETUP_REPEATS = 7


def reset_process_state() -> None:
    """Forget what an earlier in-process build left behind."""
    import repro.mda.engine as mda_engine
    from repro.store import STORE_ENV, set_active_store

    cache = getattr(mda_engine, "DEFAULT_TRANSFORM_CACHE", None)
    if cache is not None:
        cache.clear()
    set_active_store(None)
    os.environ.pop(STORE_ENV, None)
    gc.collect()


def build(meter: harness.Meter, name: str, source: str, store: str,
          output: str, tracer: layers.Tracer = None, group: str = ""):
    """One timed build, a root span of ``tracer`` when given; returns
    (exit codes, stdout, build graph)."""
    import repro.cli
    from repro.store import get_active_store

    reset_process_state()
    text = io.StringIO()

    def transform_and_generate():
        with contextlib.redirect_stdout(text):
            return (repro.cli.main(["transform", source, "--store", store,
                                    "-o", output + ".psm.xmi"]),
                    repro.cli.main(["generate", output + ".psm.xmi",
                                    "--backend", "all", "-o", output]))
    work = transform_and_generate if tracer is None else (
        lambda: tracer.run_root(name, group, transform_and_generate))
    codes = meter.time(name, work, bracket=True)
    return codes, text.getvalue(), get_active_store().graph


def files_of(directory: str) -> dict:
    found = {}
    for folder, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = handle.read()
    return found


def store_keys(directory: str) -> set:
    from repro.store import ArtifactStore

    return {(entry["kind"], entry["key"])
            for entry in ArtifactStore(directory).ls()}


def run(ctx: harness.Context) -> harness.Outcome:
    from repro import xmi
    from workloads import synthetic_soc_pim

    out = harness.Outcome()
    model, profile = synthetic_soc_pim(COMPONENTS, seed=ctx.seed)
    edited = random.Random(ctx.seed).randrange(COMPONENTS)
    component = next(element for element in model.all_owned()
                     if getattr(element, "name", "") == f"Block{edited}")
    register = next(attribute for attribute in component.attributes
                    if attribute.name == "reg0")
    original = ctx.path("pim.xmi")
    xmi.write_file(original, model, profiles=[profile])

    meter = harness.Meter()
    for k in range(SETUP_REPEATS):
        harness.time_in_fork(meter, "setup", lambda k=k: build(
            harness.Meter(), "prime", original, ctx.path(f"prime{k}"),
            ctx.path(f"prime{k}.out")))
    warm_store = ctx.path("warm")
    codes, _, _ = build(meter, "prime", original, warm_store,
                        ctx.path("orig"))
    out.check(codes == (0, 0), f"priming build exited {codes}")
    reference = files_of(ctx.path("orig"))
    stem = f"block{edited}"

    tracer = layers.Tracer()
    counters = dict.fromkeys(STORE_COUNTERS, 0)
    built_transform = reused_transform = 0
    deadline = ctx.deadline()
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        traced = ctx.trace and rounds % 2 == 0
        register.set_default(1000 + rounds)
        source = ctx.path(f"pim{rounds}.xmi")
        xmi.write_file(source, model, profiles=[profile])
        empty, fresh, rebuilt = (ctx.path(f"store{rounds}"),
                                 ctx.path(f"cold{rounds}"),
                                 ctx.path(f"rebuild{rounds}"))
        if traced:
            before = store_counters()
            install(tracer)
        for label, store, output in (("cold", empty, fresh),
                                     ("warm", warm_store, rebuilt)):
            out.attempted += 2
            if label == "warm":
                warm_before = store_keys(warm_store)
            if traced:
                codes, text, graph = build(meter, "traced_" + label, source,
                                           store, output, tracer,
                                           f"build:{rounds}")
            else:
                codes, text, graph = build(meter, label, source, store,
                                           output)
            for code in codes:
                out.check(code == 0, f"{label} build {rounds} exited {codes}")
            out.check(text.rstrip().endswith(" 0 invalid"),
                      f"{label} build {rounds}: invalid units")
        if traced:
            tracer.restore()
            for name, value in store_counters().items():
                counters[name] += value - before[name]
        built = {(node.kind, node.key) for node in graph.nodes
                 if node.status == "built"}
        reused = {(node.kind, node.key) for node in graph.nodes
                  if node.status == "reused"}
        wanted = store_keys(empty)
        out.check(built == wanted - warm_before
                  and reused == wanted & warm_before,
                  f"rebuild {rounds}: built {sorted(built)}, reused "
                  f"{sorted(reused)}; the edit needs {sorted(wanted)} "
                  f"of which the store held {sorted(wanted & warm_before)}")
        built_transform += sum(1 for kind, _ in built if kind == "transform")
        reused_transform += sum(1 for kind, _ in reused
                                if kind == "transform")
        check_outputs(out, rounds, files_of(fresh), files_of(rebuilt),
                      reference, stem)
        for path in (empty, fresh, rebuilt):
            shutil.rmtree(path)

    out.metric("setup_s", meter.median("setup"), "s")
    out.metric("peak_rss_mb", harness.self_peak_rss_mb(), "MB")
    out.metric("cold_s", meter.median("cold"), "s")
    out.metric("warm_s", meter.median("warm"), "s")
    out.detail.update({
        name: meter.summary(name) for name in ("setup", "cold", "warm")})
    out.detail.update({
        "edited_component": f"Block{edited}",
        "rounds": rounds,
    })
    if ctx.trace:
        tracer.scale = meter.scale()
        layer_metrics(out, tracer, counters, built_transform / rounds,
                      reused_transform / rounds)
        out.metric("trace_overhead", meter.median("traced_cold")
                   / meter.median("cold"), "ratio")
        out.detail["layer_shares"] = tracer.breakdown()
        out.spans = tracer.spans[-4000:]
    return out


def check_outputs(out, rounds, fresh, rebuilt, reference, stem) -> None:
    """The rebuild equals a cold build of the same model; unedited
    components' files equal the original build; the edit shows."""
    out.check(rebuilt == fresh,
              f"rebuild {rounds} differs from a cold build of the same model")
    touched = [name for name in fresh if fresh[name] != reference.get(name)]
    mine = [name for name in touched
            if os.path.basename(name).split(".")[0] == stem]
    others = [name for name in touched
              if os.path.basename(name).split(".")[0].startswith("block")
              and name not in mine]
    out.check(set(fresh) == set(reference) and mine and not others,
              f"build {rounds}: edit touched {sorted(touched)}")


def install(tracer: layers.Tracer) -> None:
    import repro.cli
    import repro.codegen
    from repro.mda import hardware_transformation
    from repro.store import ArtifactStore

    tracer.wrap_function(repro.cli.main, "cli.main", "cli", span=True)
    layers.wrap_xmi(tracer)
    tracer.wrap_method(type(hardware_transformation()), "transform_cached",
                       "mda.transform_cached", "mda", span=True)
    tracer.wrap_function(repro.codegen.generate_all_parallel,
                         "codegen.generate_all_parallel", "codegen",
                         span=True)
    tracer.wrap_method(ArtifactStore, "load", "store.load", "store",
                       span=True)
    tracer.wrap_method(ArtifactStore, "save", "store.save", "store",
                       span=True)


STORE_COUNTERS = ("store.hit", "store.miss", "store.write")


def store_counters() -> dict:
    """The program's own store counters (``repro.perf``)."""
    from repro.perf import PERF

    counters = PERF.snapshot()["counters"]
    return {name: counters.get(name, 0) for name in STORE_COUNTERS}


def mean_s(tracer: layers.Tracer, *names: str) -> float:
    calls = sum(tracer.count(name) for name in names)
    return sum(tracer.total_s(name) for name in names) / max(1, calls)


def layer_metrics(out, tracer, counters, built_transform,
                  reused_transform) -> None:
    builds = float(max(1, sum(tracer.roots.get(name, [0])[0]
                              for name in ("traced_cold", "traced_warm"))))
    hits, misses = counters["store.hit"], counters["store.miss"]
    out.metric("store.hits", hits / builds, "count")
    out.metric("store.misses", misses / builds, "count")
    out.metric("store.writes", counters["store.write"] / builds, "count")
    out.metric("store.hit_ratio", hits / max(1, hits + misses), "ratio")
    out.metric("store.load_s", mean_s(tracer, "store.load"), "s")
    out.metric("store.save_s", mean_s(tracer, "store.save"), "s")
    out.metric("store.built.transform", built_transform, "count")
    out.metric("store.reused.transform", reused_transform, "count")
    out.metric("xmi.read_s", mean_s(tracer, "xmi.read_file",
                                    "xmi.read_model"), "s")
    out.metric("xmi.write_s", mean_s(tracer, "xmi.write_file",
                                     "xmi.write_model"), "s")
    out.metric("mda.transform_s", mean_s(tracer, "mda.transform_cached"),
               "s")
    out.metric("codegen.generate_s",
               mean_s(tracer, "codegen.generate_all_parallel"), "s")
