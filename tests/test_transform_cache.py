"""Store-backed MDA transforms: content keying, reuse and invalidation,
counted as build-graph nodes."""

import pytest

import repro.metamodel as mm
import repro.store as store_mod
from repro.mda import hardware_transformation, software_transformation
from repro.metamodel import Model
from repro.profiles import create_soc_profile
from repro.profiles.core import apply_stereotype
from repro.store import ArtifactStore
from repro.xmi import write_model


@pytest.fixture
def store(tmp_path, monkeypatch):
    active = ArtifactStore(tmp_path)
    monkeypatch.setattr(store_mod, "_ACTIVE", active)
    return active


def small_pim(name="pim", classes=3):
    profile = create_soc_profile()
    model = Model(name)
    for index in range(classes):
        cls = model.add(mm.UmlClass(f"Ip{index}"))
        cls.add_attribute("reg", default=index)
        apply_stereotype(cls, profile.stereotype("IpCore"), vendor="t")
    return model, profile


def transform_counts(store):
    return store.graph.counts()["transform"]


class TestStoreBackedTransform:
    def test_repeat_transform_is_a_hit(self, store):
        pim, profile = small_pim()
        transformation = hardware_transformation()
        first = transformation.transform_cached(pim, [profile])
        second = transformation.transform_cached(pim, [profile])
        assert transform_counts(store) == {"built": 1, "reused": 1}
        assert write_model(second.psm, second.psm_profiles) \
            == write_model(first.psm, first.psm_profiles)

    def test_mutation_invalidates(self, store):
        pim, profile = small_pim()
        transformation = hardware_transformation()
        transformation.transform_cached(pim, [profile])
        pim.add(mm.UmlClass("Extra"))
        second = transformation.transform_cached(pim, [profile])
        assert transform_counts(store) == {"built": 2, "reused": 0}
        assert "Extra" in {getattr(element, "name", None)
                           for element in second.psm.all_owned()}

    def test_content_equal_touch_still_hits(self, store):
        """A write that leaves content unchanged re-fingerprints to the
        same key — the stored artifact is reused."""
        pim, profile = small_pim()
        transformation = hardware_transformation()
        transformation.transform_cached(pim, [profile])
        pim.name = pim.name + ""  # generation bump, same content
        transformation.transform_cached(pim, [profile])
        assert transform_counts(store) == {"built": 1, "reused": 1}

    def test_different_transformations_do_not_collide(self, store):
        pim, profile = small_pim()
        hw = hardware_transformation().transform_cached(pim, [profile])
        sw = software_transformation().transform_cached(pim, [profile])
        assert transform_counts(store) == {"built": 2, "reused": 0}
        assert hw.platform.name != sw.platform.name
        assert hw.psm.summary() != sw.psm.summary()

    def test_result_matches_uncached_transform(self, store):
        pim, profile = small_pim()
        transformation = hardware_transformation()
        transformation.transform_cached(pim, [profile])
        cached = transformation.transform_cached(pim, [profile])
        assert transform_counts(store)["reused"] == 1
        plain = transformation.transform(pim, profiles=[profile])
        assert cached.psm.summary() == plain.psm.summary()
        assert cached.applications == plain.applications
        assert cached.completeness() == plain.completeness()

    def test_without_a_store_it_is_plain_transform(self, monkeypatch):
        monkeypatch.setattr(store_mod, "_ACTIVE", None)
        pim, profile = small_pim()
        transformation = hardware_transformation()
        result = transformation.transform_cached(pim, [profile])
        plain = transformation.transform(pim, profiles=[profile])
        assert result.psm.summary() == plain.psm.summary()
        assert result.applications == plain.applications
