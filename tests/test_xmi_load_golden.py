"""Golden record of what the XMI reader builds.

Four fixtures go through ``write_model`` and ``read_model``: the nine
``repro.hw`` cores with the SoC profile applied, the 16-component
synthetic SoC PIM (``synthetic_soc_pim(16, seed=1)``) with its profile,
the PSM the hardware transformation maps that PIM to, and
``test_xmi``'s round-trip model, which touches every serializable
element family.  For each loaded document the checked-in record
``tests/golden/xmi_load.json`` holds the ``model_fingerprint`` of every
top-level element and the number of elements per metaclass.  Writing a
loaded document must give back the text it was read from, and one
attribute edit after a load must change both the fingerprint and the
compile outcome.  A deliberate change to what a load builds must
regenerate the record::

    PYTHONPATH=src python tests/test_xmi_load_golden.py --regenerate
"""

import collections
import importlib.util
import json
import pathlib

import pytest

import repro.metamodel as mm
from repro import statemachines as st
from repro import xmi
from repro.hw import (
    make_arbiter,
    make_dma,
    make_fifo,
    make_interrupt_controller,
    make_memory,
    make_retry_master,
    make_timer,
    make_traffic_generator,
    make_uart_tx,
)
from repro.mda import hardware_transformation
from repro.metamodel.model import model_fingerprint
from repro.profiles.soc import create_soc_profile
from repro.statemachines.compiled import (
    compile_fallback_reason,
    compile_machine_cached,
)

HERE = pathlib.Path(__file__).parent
RECORD = HERE / "golden" / "xmi_load.json"

CORES = (make_arbiter, make_dma, make_fifo, make_interrupt_controller,
         make_memory, make_retry_master, make_timer, make_traffic_generator,
         make_uart_tx)


def _workloads():
    path = HERE.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_xmi_load_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ip_cores():
    profile = create_soc_profile()
    model = mm.Model("ip_cores")
    for factory in CORES:
        model.add(factory(profile=profile))
    return xmi.write_model(model, [profile])


def pim():
    model, profile = _workloads().synthetic_soc_pim(16, seed=1)
    return xmi.write_model(model, [profile])


def psm():
    model, profile = _workloads().synthetic_soc_pim(16, seed=1)
    result = hardware_transformation().transform(model, profiles=[profile])
    return xmi.write_model(result.psm, [profile])


def round_trip():
    from tests.test_xmi import build_full_model

    model, profile = build_full_model()
    return xmi.write_model(model, [profile])


FIXTURES = {"ip_cores": ip_cores, "pim": pim, "psm": psm,
            "round_trip": round_trip}


def top_level(document):
    return [document.model, *document.profiles]


def record_of(document):
    counts = collections.Counter(
        type(element).__name__
        for top in top_level(document)
        for element in (top, *top.all_owned()))
    return {
        "fingerprints": {f"{type(top).__name__} {top.name}":
                         model_fingerprint(top)
                         for top in top_level(document)},
        "counts": dict(sorted(counts.items())),
    }


def records():
    return {name: record_of(xmi.read_model(make()))
            for name, make in FIXTURES.items()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("name", sorted(FIXTURES))
class TestXmiLoadGolden:
    def test_a_load_builds_the_recorded_model(self, name, expected):
        document = xmi.read_model(FIXTURES[name]())
        assert record_of(document) == expected[name]

    def test_every_element_is_owned_by_a_top_level_element(self, name):
        document = xmi.read_model(FIXTURES[name]())
        reached = [element for top in top_level(document)
                   for element in (top, *top.all_owned())]
        assert len(reached) == len(document.elements_by_id)
        assert {id(element) for element in reached} == \
            {id(element) for element in document.elements_by_id.values()}

    def test_a_loaded_document_writes_back_the_same_text(self, name):
        text = FIXTURES[name]()
        document = xmi.read_model(text)
        assert xmi.write_model(document.model, document.profiles) == text

    def test_an_edit_after_a_load_changes_fingerprint_and_compile_outcome(
            self, name):
        document = xmi.read_model(FIXTURES[name]())
        model = document.model
        machine = model.descendants_of_type(st.StateMachine)[0]
        before = model_fingerprint(model)
        reason = compile_fallback_reason(machine)
        if reason is None:
            assert compile_machine_cached(machine) is \
                compile_machine_cached(machine)
        deferring = [state for state in machine.all_states()
                     if state.deferrable]
        if deferring:
            deferring[0].deferrable = []
        else:
            machine.all_states()[0].deferrable = ["edited"]
        assert compile_fallback_reason(machine) != reason
        assert model_fingerprint(model) != before


def test_the_record_covers_every_fixture(expected):
    assert sorted(expected) == sorted(FIXTURES)
    for name, record in expected.items():
        assert record["counts"], name
        assert len(record["fingerprints"]) == 2, name


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        sys.path.insert(0, str(HERE.parent))
        RECORD.write_text(json.dumps(records(), indent=1) + "\n")
        print(f"regenerated {RECORD}")
