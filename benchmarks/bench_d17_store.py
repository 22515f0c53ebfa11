"""D17 — artifact-store warm starts (PR 8).

Claim: a disk-backed, content-addressed artifact store turns the
per-process cold cost of the PIM→PSM transform into a one-time cost.
A "worker" that opens a warm store serves the stored PSM instead of
running the rule sweep again, counted exactly by the store's build
graph.

One table, **stages**: cold vs warm for the store-backed stage over a
fixed workload, the PIM→PSM transform artifact (whole-model keyed —
see docs/STORE.md for why).

Generated code and compiled state machines are not stored, so no row
times a codegen or compile stage: the per-unit codegen artifacts and
their edit-size sweep were retired because no command used them and,
served to ``repro generate``, they made cold builds slower.  The store
lives under a temp directory that is removed afterwards.
"""

import shutil
import tempfile
import time
from pathlib import Path

import repro
import repro.metamodel as mm
from repro.mda import hardware_transformation
from repro.metamodel import Model
from repro.profiles import create_soc_profile
from repro.profiles.core import apply_stereotype
from repro.store import ArtifactStore, using_store


def _stage_model(classes=6):
    repro.reset_ids()
    profile = create_soc_profile()
    model = Model("pim")
    for index in range(classes):
        cls = model.add(mm.UmlClass(f"Ip{index}"))
        cls.add_attribute("reg", default=index)
        apply_stereotype(cls, profile.stereotype("IpCore"), vendor="d17")
    return model, profile


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
            wall = time.perf_counter() - start
            rows.append({"experiment": "stages", "stage": "transform",
                         "mode": mode, "wall_ms": round(wall * 1e3, 2),
                         **store.graph.counts()["transform"]})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return rows


def table():
    return stage_rows()


class TestShape:
    def test_a_warm_store_serves_the_transform(self):
        cold, warm = stage_rows()
        assert (cold["mode"], cold["built"], cold["reused"]) \
            == ("cold", 1, 0)
        assert (warm["mode"], warm["built"], warm["reused"]) \
            == ("warm", 0, 1)


if __name__ == "__main__":
    for row in table():
        print(row)
