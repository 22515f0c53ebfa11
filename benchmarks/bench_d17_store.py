"""D17 — artifact-store warm starts & incremental recompilation (PR 8).

Claim: a disk-backed, content-addressed artifact store turns the
per-process cold costs of the pipeline — ASL transpilation + dispatch
-table compilation per machine, PIM→PSM rule sweeps, per-unit codegen —
into one-time costs.  A "worker" (simulated here by reparsing the model
from XMI, so every Python object is fresh, exactly as in a forked or
respawned process) that opens a warm store replays stored outcomes
instead of rebuilding, and after an edit rebuilds *only the dependents
of the edited elements*, counted exactly by the store's build graph.

Three tables:

* **worker start** — wall time to compile every machine of an
  ``n``-machine model: ``no store`` (the in-memory-only baseline),
  ``cold store`` (build + persist), ``warm store`` (a fresh "worker"
  serving every compile from disk).  ``built``/``reused`` come from
  ``store.graph`` and prove what actually happened.
* **edit size** — re-compile cost after editing ``k`` of ``n``
  machines: the build graph must show exactly ``k`` rebuilds, and wall
  time should scale with ``k``, not ``n``.
* **stages** — cold vs warm for the other store-backed stages over a
  fixed workload: the PIM→PSM transform artifact (whole-model keyed —
  see docs/STORE.md for why) and per-unit codegen artifacts.

Timing uses best-of-``REPEATS`` per mode with the store directory
recreated per cold trial; stores live under a temp directory that is
removed afterwards.
"""

import shutil
import tempfile
import time
from pathlib import Path

import repro
import repro.metamodel as mm
from repro.codegen import generate_units
from repro.hw import make_memory, make_traffic_generator
from repro.mda import hardware_transformation
from repro.metamodel import Model
from repro.profiles import create_soc_profile
from repro.profiles.core import apply_stereotype
from repro.statemachines import StateMachine, compile_machine_cached
from repro.store import ArtifactStore, using_store
from repro.xmi import read_model, write_model

#: Machine counts for the worker-start sweep (QUICK overrides via SIZES).
SIZES = (4, 16)
#: States per generated machine (transpile work per compile).
STATES = 6
REPEATS = 3
#: Fractions of the model edited in the edit-size sweep.
EDIT_FRACTIONS = (0.0, 0.25, 1.0)


def _machine(name, states=STATES):
    machine = StateMachine(name)
    region = machine.region
    previous = region.add_state(f"{name}_S0")
    region.add_transition(region.add_initial(), previous)
    for index in range(1, states):
        nxt = region.add_state(f"{name}_S{index}")
        region.add_transition(previous, nxt, trigger="step",
                              guard=f"count < {index * 10}",
                              effect="count = count + 1;")
        previous = nxt
    return machine


def build_model(machines):
    repro.reset_ids()
    model = Model("design")
    for index in range(machines):
        component = model.add(mm.Component(f"Ip{index}"))
        component.add_behavior(_machine(f"fsm{index}"),
                               as_classifier_behavior=True)
    return model


def _machines_of(root):
    return sorted(root.descendants_of_type(StateMachine),
                  key=lambda machine: machine.name)


def _fresh_worker(model):
    """Fresh Python objects for the same content — a reparsed model."""
    return read_model(write_model(model)).model


def _compile_all(root, store):
    start = time.perf_counter()
    with using_store(store):
        for machine in _machines_of(root):
            compile_machine_cached(machine)
    return (time.perf_counter() - start) * 1e3


def worker_start_rows():
    rows = []
    scratch = Path(tempfile.mkdtemp(prefix="d17-start-"))
    try:
        for size in SIZES:
            model = build_model(size)
            xmi_text = write_model(model)
            best = {}
            counts = {}
            for trial in range(REPEATS):
                for mode in ("no store", "cold store", "warm store"):
                    root = read_model(xmi_text).model
                    if mode == "no store":
                        store = None
                    else:
                        directory = scratch / f"{size}-{trial}"
                        if mode == "cold store" and directory.exists():
                            shutil.rmtree(directory)
                        store = ArtifactStore(directory)
                    wall = _compile_all(root, store)
                    best[mode] = min(best.get(mode, wall), wall)
                    if store is not None:
                        counts[mode] = (store.graph.built("compile"),
                                        store.graph.reused("compile"))
            for mode in ("no store", "cold store", "warm store"):
                built, reused = counts.get(mode, (size, 0)) \
                    if mode != "no store" else ("-", "-")
                rows.append({
                    "experiment": "worker start",
                    "machines": size,
                    "mode": mode,
                    "wall_ms": round(best[mode], 2),
                    "built": built,
                    "reused": reused,
                })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return rows


def edit_size_rows():
    rows = []
    size = max(SIZES)
    scratch = Path(tempfile.mkdtemp(prefix="d17-edit-"))
    try:
        model = build_model(size)
        with using_store(ArtifactStore(scratch / "store")):
            for machine in _machines_of(model):
                compile_machine_cached(machine)
        for fraction in EDIT_FRACTIONS:
            edited = int(round(size * fraction))
            worker = _fresh_worker(model)
            for machine in _machines_of(worker)[:edited]:
                # content-unique per fraction so one sweep's rebuilt
                # artifacts can never serve the next sweep's edits
                machine.region.add_state(f"Edited_{fraction}")
            store = ArtifactStore(scratch / "store")
            wall = _compile_all(worker, store)
            rows.append({
                "experiment": "edit size",
                "machines": size,
                "edited": edited,
                "wall_ms": round(wall, 2),
                "rebuilt": store.graph.built("compile"),
                "reused": store.graph.reused("compile"),
            })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return rows


def _stage_model(classes=6):
    repro.reset_ids()
    profile = create_soc_profile()
    model = Model("pim")
    for index in range(classes):
        cls = model.add(mm.UmlClass(f"Ip{index}"))
        cls.add_attribute("reg", default=index)
        apply_stereotype(cls, profile.stereotype("IpCore"), vendor="d17")
    return model, profile


def _codegen_model(components=4):
    repro.reset_ids()
    model = Model("design")
    package = model.create_package("design")
    for index in range(components):
        package.add(make_traffic_generator(f"Cpu{index}", period=2.0,
                                           address_range=0x1000))
    package.add(make_memory("Ram", size_bytes=0x800))
    return model


def stage_rows():
    rows = []
    scratch = Path(tempfile.mkdtemp(prefix="d17-stages-"))
    try:
        pim, profile = _stage_model()
        transformation = hardware_transformation()
        for mode in ("cold", "warm"):
            store = ArtifactStore(scratch / "transform")
            start = time.perf_counter()
            with using_store(store):
                transformation.transform_cached(pim, [profile])
            rows.append({
                "experiment": "stages",
                "stage": "transform",
                "mode": mode,
                "wall_ms": round((time.perf_counter() - start) * 1e3, 2),
                "built": store.graph.built("transform"),
                "reused": store.graph.reused("transform"),
            })
        design = _codegen_model()
        xmi_text = write_model(design)
        for mode in ("cold", "warm"):
            store = ArtifactStore(scratch / "codegen")
            root = read_model(xmi_text).model
            start = time.perf_counter()
            with using_store(store):
                generate_units(root)
            rows.append({
                "experiment": "stages",
                "stage": "codegen units",
                "mode": mode,
                "wall_ms": round((time.perf_counter() - start) * 1e3, 2),
                "built": store.graph.built("codegen"),
                "reused": store.graph.reused("codegen"),
            })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return rows


def table():
    return worker_start_rows() + edit_size_rows() + stage_rows()


if __name__ == "__main__":
    for row in table():
        print(row)
