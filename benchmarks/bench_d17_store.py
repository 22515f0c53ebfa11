"""D17 — artifact-store warm starts & incremental regeneration (PR 8).

Claim: a disk-backed, content-addressed artifact store turns the
per-process cold costs of the pipeline — PIM→PSM rule sweeps and
per-unit codegen — into one-time costs.  A "worker" (simulated here
by reparsing the model from XMI, so every Python object is fresh,
exactly as in a forked or respawned process) that opens a warm store
serves stored artifacts instead of rebuilding, and after an edit
rebuilds *only the dependents of the edited elements*, counted exactly
by the store's build graph.

Two tables:

* **edit size** — per-unit codegen after editing ``k`` of ``n``
  components on a warm store: the build graph must show exactly
  ``k × len(BACKENDS)`` rebuilt units (the table raises otherwise),
  and wall time should scale with ``k``, not ``n``.
* **stages** — cold vs warm for the store-backed stages over a fixed
  workload: the PIM→PSM transform artifact (whole-model keyed — see
  docs/STORE.md for why) and per-unit codegen artifacts.

Compiled state machines are not stored, so no table times a compile
stage.  Stores live under a temp directory that is removed afterwards.
"""

import shutil
import tempfile
import time
from pathlib import Path

import repro
import repro.metamodel as mm
from repro.codegen import BACKENDS, generate_units
from repro.codegen.base import hardware_components
from repro.hw import make_memory, make_traffic_generator
from repro.mda import hardware_transformation
from repro.metamodel import Model
from repro.profiles import create_soc_profile
from repro.profiles.core import apply_stereotype
from repro.store import ArtifactStore, using_store
from repro.xmi import read_model, write_model

#: Component counts for the edit-size sweep (QUICK overrides).
SIZES = (4, 16)
#: Fractions of the model edited in the edit-size sweep.
EDIT_FRACTIONS = (0.0, 0.25, 1.0)


def _fresh_worker(model):
    """Fresh Python objects for the same content — a reparsed model."""
    return read_model(write_model(model)).model


def edit_size_rows():
    rows = []
    scratch = Path(tempfile.mkdtemp(prefix="d17-edit-"))
    try:
        for size in SIZES:
            model = _codegen_model(size)
            directory = scratch / f"store-{size}"
            with using_store(ArtifactStore(directory)):
                generate_units(model)
            for fraction in EDIT_FRACTIONS:
                edited = int(round(size * fraction))
                worker = _fresh_worker(model)
                for component in hardware_components(worker)[:edited]:
                    # content-unique per fraction so one sweep's rebuilt
                    # artifacts can never serve the next sweep's edits
                    component.classifier_behavior.region.add_state(
                        f"Edited_{fraction}")
                store = ArtifactStore(directory)
                start = time.perf_counter()
                with using_store(store):
                    generate_units(worker)
                wall = (time.perf_counter() - start) * 1e3
                rebuilt = store.graph.built("codegen")
                reused = store.graph.reused("codegen")
                if (rebuilt, reused) != (edited * len(BACKENDS),
                                         (size - edited) * len(BACKENDS)):
                    raise RuntimeError(
                        f"D17 edit size: {edited} of {size} components "
                        f"edited, but {rebuilt} units rebuilt and "
                        f"{reused} reused")
                rows.append({
                    "experiment": "edit size",
                    "components": size,
                    "edited": edited,
                    "wall_ms": round(wall, 2),
                    "rebuilt": rebuilt,
                    "reused": reused,
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


def _codegen_model(components=5):
    """``components - 1`` traffic generators and one memory."""
    repro.reset_ids()
    model = Model("design")
    package = model.create_package("design")
    for index in range(components - 1):
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
    return edit_size_rows() + stage_rows()


if __name__ == "__main__":
    for row in table():
        print(row)
