"""Warm rebuilds (PR 8): the transform stage as a build-graph node.
A cold run builds the whole-model transform artifact; a warm process
(simulated by reparsing the model and opening a fresh store handle on
the same directory) reuses it byte-identically, and an edit that
changes what the transform reads rebuilds it — asserted through
``store.graph.counts()``.  Generated code is not stored, and neither
are compiled state machines; their one cache, the in-process memo, is
tested in ``test_compiled_cosim.py``."""

import os

import pytest

import repro.metamodel as mm
import repro.store as store_mod
from repro.mda import hardware_transformation
from repro.metamodel import Model
from repro.profiles import create_soc_profile
from repro.profiles.core import apply_stereotype
from repro.store import ArtifactStore, using_store
from repro.xmi import read_model, write_model


@pytest.fixture(autouse=True)
def _isolated_store_state():
    os.environ.pop("REPRO_STORE", None)
    store_mod._ACTIVE = None
    yield
    os.environ.pop("REPRO_STORE", None)
    store_mod._ACTIVE = False


def small_pim(name="pim", classes=3):
    profile = create_soc_profile()
    model = Model(name)
    for index in range(classes):
        cls = model.add(mm.UmlClass(f"Ip{index}"))
        cls.add_attribute("reg", default=index)
        apply_stereotype(cls, profile.stereotype("IpCore"), vendor="t")
    return model, profile


class TestTransformArtifacts:
    def test_warm_transform_is_byte_identical(self, tmp_path):
        pim, profile = small_pim()
        transformation = hardware_transformation()

        cold = ArtifactStore(tmp_path)
        with using_store(cold):
            first = transformation.transform_cached(pim, [profile])
        assert cold.graph.counts()["transform"] \
            == {"built": 1, "reused": 0}

        # a fresh store handle on the same directory serves the artifact
        warm = ArtifactStore(tmp_path)
        with using_store(warm):
            second = transformation.transform_cached(pim, [profile])
        assert warm.graph.counts()["transform"] \
            == {"built": 0, "reused": 1}
        assert write_model(second.psm, second.psm_profiles) \
            == write_model(first.psm, first.psm_profiles)
        assert second.trace == first.trace
        assert second.applications == first.applications
        assert second.completeness() == first.completeness()

    def test_transform_inputs_are_model_and_profile_fingerprints(
            self, tmp_path):
        pim, profile = small_pim()
        transformation = hardware_transformation()
        store = ArtifactStore(tmp_path)
        with using_store(store):
            transformation.transform_cached(pim, [profile])
        key = transformation.cache_key(pim, [profile])
        node = store.graph.nodes[-1]
        assert node.kind == "transform"
        assert set(node.inputs) == {key[3], *key[4]}


class TestStoreKeysCoverWhatBuildersRead:
    """A warm store must serve what a storeless build produces: every
    input a builder reads is part of its artifact's key."""

    @staticmethod
    def register_pim(address):
        profile = create_soc_profile()
        model = Model("pim")
        design = model.create_package("design")
        block = design.add(mm.Component("Block0"))
        register = block.add_attribute("reg0", mm.INTEGER, default=0)
        apply_stereotype(register, profile.stereotype("Register"),
                         address=address, width=32)
        return model, profile, register

    @staticmethod
    def transform_and_generate(text):
        """One 'process': read the PIM, transform (through the active
        store, if any) and generate VHDL."""
        from repro.codegen import generate_all

        document = read_model(text)
        result = hardware_transformation().transform_cached(
            document.model, document.profiles)
        return generate_all(result.psm, ("vhdl",))["vhdl"]

    def test_a_tagged_value_edit_reaches_the_transform_key(self, tmp_path):
        from repro.metamodel.model import model_fingerprint
        from repro.profiles import application_of

        model, profile, register = self.register_pim(0x10)
        with using_store(ArtifactStore(tmp_path)):
            cold = self.transform_and_generate(
                write_model(model, [profile]))
        assert "0x0010" in cold["block0.vhd"]

        before = model_fingerprint(model)
        application_of(register, "Register").set_value("address", 0x20)
        assert model_fingerprint(model) != before
        edited = write_model(model, [profile])
        warm_store = ArtifactStore(tmp_path)
        with using_store(warm_store):
            warm = self.transform_and_generate(edited)
        assert warm_store.graph.counts()["transform"] \
            == {"built": 1, "reused": 0}
        storeless = self.transform_and_generate(edited)
        assert "0x0020" in storeless["block0.vhd"]
        assert warm == storeless
