"""Incremental rebuilds (PR 8): pipeline stages as build-graph nodes.
Cold runs build the whole-model transform and per-unit codegen
artifacts; warm processes (simulated by reparsing the model and
opening a fresh store handle on the same directory) reuse them
byte-identically; editing exactly one component regenerates only its
units — asserted through ``store.graph.counts()``.  Compiled state
machines are not stored; their one cache, the in-process memo, is
tested in ``test_compiled_cosim.py``."""

import os

import pytest

import repro.metamodel as mm
import repro.store as store_mod
from repro.codegen import generate_units
from repro.hw import make_memory, make_traffic_generator
from repro.mda import hardware_transformation
from repro.metamodel import Model
from repro.profiles import create_soc_profile
from repro.profiles.core import apply_stereotype
from repro.statemachines import StateMachine
from repro.store import BUILT, ArtifactStore, using_store
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


def two_component_model():
    model = Model("design")
    package = model.create_package("design")
    package.add(make_traffic_generator("Cpu", period=2.0,
                                       address_range=0x100))
    package.add(make_memory("Ram", size_bytes=0x80))
    return model


class TestCodegenUnits:
    BACKENDS = ("vhdl", "python")

    def test_warm_units_are_byte_identical(self, tmp_path):
        model = two_component_model()
        cold = ArtifactStore(tmp_path)
        with using_store(cold):
            first = generate_units(model, backends=self.BACKENDS)
        assert cold.graph.counts()["codegen"] \
            == {"built": 4, "reused": 0}  # 2 backends x 2 components

        warm_doc = read_model(write_model(model))
        warm = ArtifactStore(tmp_path)
        with using_store(warm):
            second = generate_units(warm_doc.model,
                                    backends=self.BACKENDS)
        assert warm.graph.counts()["codegen"] \
            == {"built": 0, "reused": 4}
        assert second == first

    def test_edit_one_component_regenerates_only_its_units(self,
                                                           tmp_path):
        model = two_component_model()
        with using_store(ArtifactStore(tmp_path)):
            generate_units(model, backends=self.BACKENDS)

        cpu = next(component for component
                   in model.descendants_of_type(mm.Component)
                   if component.name == "Cpu")
        cpu.add_attribute("dbg", mm.INTEGER, default=1)
        after = ArtifactStore(tmp_path)
        with using_store(after):
            generate_units(model, backends=self.BACKENDS)
        assert after.graph.counts()["codegen"] \
            == {"built": 2, "reused": 2}  # Cpu per backend; Ram warm
        rebuilt = sorted(node.label for node in after.graph.nodes
                         if node.status == BUILT)
        assert all(label.endswith("Cpu") for label in rebuilt)

    def test_a_unit_stored_before_the_output_format_is_built_again(
            self, tmp_path):
        from repro.metamodel.model import element_fingerprint

        model = two_component_model()
        old = ArtifactStore(tmp_path)
        for component in model.descendants_of_type(mm.Component):
            inputs = tuple(element_fingerprint(classifier) for classifier
                           in (component,) + component.all_generals())
            # the key layout before OUTPUT_FORMAT joined it
            key = old.make_key("codegen", "python",
                               component.qualified_name, *inputs)
            old.save("codegen", key, {"generated.py": "# stale\n"},
                     inputs=inputs)
        store = ArtifactStore(tmp_path)
        with using_store(store):
            units = generate_units(model, backends=("python",))
        assert store.graph.counts()["codegen"] \
            == {"built": 2, "reused": 0}
        assert all(files["generated.py"] != "# stale\n"
                   for files in units["python"].values())

    def test_without_a_store_units_still_generate(self):
        model = two_component_model()
        units = generate_units(model, backends=("python",))
        assert set(units) == {"python"}
        assert all(files for files in units["python"].values())


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

    @staticmethod
    def inheriting_model():
        model = Model("m")
        package = model.create_package("p")
        base = package.add(mm.Component("Base"))
        limit = base.add_attribute("limit", mm.INTEGER, default=5)
        block = package.add(mm.Component("Block"))
        block.add_generalization(base)
        block.add_attribute("count", mm.INTEGER, default=0)
        machine = StateMachine("BlockBehavior")
        region = machine.region
        idle = region.add_state("Idle")
        region.add_transition(region.add_initial(), idle)
        region.add_transition(idle, idle, trigger="tick",
                              guard="count < limit",
                              effect="count = count + 1;")
        block.add_behavior(machine, as_classifier_behavior=True)
        return model, package, limit

    BACKENDS = ("verilog", "python")

    def warm_and_storeless(self, model, tmp_path):
        warm_store = ArtifactStore(tmp_path)
        with using_store(warm_store):
            warm = generate_units(model, backends=self.BACKENDS)
        return warm, generate_units(model, backends=self.BACKENDS)

    def test_an_inherited_attribute_edit_rebuilds_the_heir(self, tmp_path):
        model, _package, limit = self.inheriting_model()
        with using_store(ArtifactStore(tmp_path)):
            generate_units(model, backends=self.BACKENDS)

        limit.set_default(9)
        warm, storeless = self.warm_and_storeless(model, tmp_path)
        assert "limit <= 9;" in storeless["verilog"]["m::p::Block"][
            "block.v"]
        assert "self.limit = 9" in storeless["python"]["m::p::Block"][
            "generated.py"]
        assert warm == storeless

    def test_a_package_rename_rebuilds_the_units_it_names(self, tmp_path):
        model, package, _limit = self.inheriting_model()
        with using_store(ArtifactStore(tmp_path)):
            generate_units(model, backends=self.BACKENDS)

        package.name = "q"
        warm, storeless = self.warm_and_storeless(model, tmp_path)
        assert "from component m::q::Block" in storeless["verilog"][
            "m::q::Block"]["block.v"]
        assert warm == storeless
