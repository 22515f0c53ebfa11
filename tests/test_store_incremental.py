"""Incremental recompilation (PR 8): pipeline stages as build-graph
nodes.  Cold runs build per-machine compile, per-machine flatten,
whole-model transform and per-unit codegen artifacts; warm processes
(simulated by reparsing the model and opening a fresh store handle on
the same directory) reuse them byte-identically; editing exactly one
machine or component rebuilds only its dependents — asserted through
``store.graph.counts()``."""

import os

import pytest

import repro.metamodel as mm
import repro.store as store_mod
from repro.codegen import generate_units
from repro.hw import make_memory, make_traffic_generator
from repro.mda import hardware_transformation
from repro.metamodel import Model, element_fingerprint
from repro.perf import PERF
from repro.profiles import create_soc_profile
from repro.profiles.core import apply_stereotype
from repro.statemachines import (
    StateMachine,
    compile_machine_cached,
    flatten_cached,
)
from repro.store import BUILT, ArtifactStore, using_store
from repro.xmi import read_model, write_model


@pytest.fixture(autouse=True)
def _isolated_store_state():
    os.environ.pop("REPRO_STORE", None)
    store_mod._ACTIVE = None
    yield
    os.environ.pop("REPRO_STORE", None)
    store_mod._ACTIVE = False


def chain_machine(name, states=2):
    """A linear machine with ASL guards/effects (so compiles transpile)."""
    machine = StateMachine(name)
    region = machine.region
    previous = region.add_state(f"{name}_S0")
    region.add_transition(region.add_initial(), previous)
    for index in range(1, states):
        nxt = region.add_state(f"{name}_S{index}")
        region.add_transition(previous, nxt, trigger="step",
                              guard="count < 10",
                              effect="count = count + 1;")
        previous = nxt
    return machine


def three_machine_model():
    model = Model("design")
    for name, states in (("Cpu", 2), ("Ram", 3), ("Dma", 4)):
        component = model.add(mm.Component(name))
        component.add_behavior(chain_machine(f"{name.lower()}_fsm",
                                             states),
                               as_classifier_behavior=True)
    return model


def machines_of(root):
    return sorted(root.descendants_of_type(StateMachine),
                  key=lambda machine: machine.name)


class TestIncrementalCompile:
    def test_edit_one_machine_rebuilds_only_it(self, tmp_path):
        model = three_machine_model()
        cold = ArtifactStore(tmp_path)
        with using_store(cold):
            for machine in machines_of(model):
                compile_machine_cached(machine)
        assert cold.graph.counts()["compile"] \
            == {"built": 3, "reused": 0}

        # a "new process": fresh objects (XMI reparse) + fresh handle
        warm_doc = read_model(write_model(model))
        warm = ArtifactStore(tmp_path)
        store_hits = PERF.counter("sm.compile_store_hits")
        with using_store(warm):
            for machine in machines_of(warm_doc.model):
                compile_machine_cached(machine)
        assert warm.graph.counts()["compile"] \
            == {"built": 0, "reused": 3}
        assert PERF.counter("sm.compile_store_hits") == store_hits + 3

        # edit exactly one machine; only it rebuilds
        target = next(machine for machine in machines_of(warm_doc.model)
                      if machine.name == "ram_fsm")
        target.region.add_state("Extra")
        after = ArtifactStore(tmp_path)
        with using_store(after):
            for machine in machines_of(warm_doc.model):
                compile_machine_cached(machine)
        assert after.graph.counts()["compile"] \
            == {"built": 1, "reused": 2}
        rebuilt = [node for node in after.graph.nodes
                   if node.status == BUILT]
        assert [node.label for node in rebuilt] == ["ram_fsm"]

    def test_dependents_of_names_the_rebuilt_machine(self, tmp_path):
        model = three_machine_model()
        store = ArtifactStore(tmp_path)
        target = machines_of(model)[0]
        with using_store(store):
            for machine in machines_of(model):
                compile_machine_cached(machine)
        fingerprint = element_fingerprint(target)
        dependents = store.graph.dependents_of(fingerprint)
        assert len(dependents) == 1
        assert dependents[0].label == target.name


class TestFlattenArtifacts:
    def test_warm_flatten_round_trips(self, tmp_path):
        model = Model("m")
        component = model.add(mm.Component("Cpu"))
        component.add_behavior(chain_machine("fsm", states=3),
                               as_classifier_behavior=True)
        machine = machines_of(model)[0]

        cold = ArtifactStore(tmp_path)
        with using_store(cold):
            flat_cold = flatten_cached(machine, context={"count": 0})
        assert cold.graph.counts()["flatten"] \
            == {"built": 1, "reused": 0}

        warm_doc = read_model(write_model(model))
        warm = ArtifactStore(tmp_path)
        with using_store(warm):
            flat_warm = flatten_cached(machines_of(warm_doc.model)[0],
                                       context={"count": 0})
        assert warm.graph.counts()["flatten"] \
            == {"built": 0, "reused": 1}
        assert flat_warm.initial == flat_cold.initial
        assert flat_warm.transitions == flat_cold.transitions
        assert flat_warm.state_labels == flat_cold.state_labels
        assert flat_warm.alphabet == flat_cold.alphabet

    def test_alphabet_and_context_key_the_artifact(self, tmp_path):
        model = Model("m")
        component = model.add(mm.Component("Cpu"))
        component.add_behavior(chain_machine("fsm", states=2),
                               as_classifier_behavior=True)
        machine = machines_of(model)[0]
        store = ArtifactStore(tmp_path)
        with using_store(store):
            flatten_cached(machine, context={"count": 0})
            flatten_cached(machine, context={"count": 5})
            flatten_cached(machine, alphabet=("step", "extra"),
                           context={"count": 0})
        assert len(store.ls("flatten")) == 3
        assert store.graph.built("flatten") == 3


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

    def test_without_a_store_units_still_generate(self):
        model = two_component_model()
        units = generate_units(model, backends=("python",))
        assert set(units) == {"python"}
        assert all(files for files in units["python"].values())
