"""Fault-campaign JSON: every field has a JSON type, and a value of any
other type is a :class:`~repro.errors.FaultError` naming the field.

The named cases are shrunk single-field mutations that a reader
without type checks lets out untyped (``TypeError``, ``ValueError``,
``OverflowError``) or accepts although they can never mean anything (a
part named by a number).  The Hypothesis test sets one field of a
valid two-fault campaign to an arbitrary JSON value and lets only
``FaultError`` out; what it accepts must round-trip.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

import repro.metamodel as mm
from repro import xmi
from repro.cli import main
from repro.errors import FaultError
from repro.faults import FaultCampaign
from repro.faults.campaign import FAULT_KINDS
from repro.hw import make_memory, make_soc, make_traffic_generator

#: A valid campaign whose two specs between them set every spec field.
VALID = {
    "name": "sweep",
    "seed": 3,
    "faults": [
        {"kind": "corrupt", "part": "m0_cpu", "port": "bus",
         "peer": "bus", "connector": "c0", "signal": "Read",
         "window": [0.0, 50.0], "probability": 0.5, "max_count": 4,
         "field": "addr", "xor": 16, "name": "bad-address"},
        {"kind": "delay", "signal": "ReadResp", "delay": 2.0,
         "jitter": 1.0},
    ],
}

SPEC_FIELDS = ("kind", "part", "port", "peer", "connector", "signal",
               "window", "probability", "max_count", "delay", "jitter",
               "field", "xor", "name")


def mutated(path, value):
    """VALID as JSON text with the field at ``path`` set to ``value``."""
    data = copy.deepcopy(VALID)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(data)


@pytest.mark.parametrize("path, value, field", [
    (("faults", 0, "window"), 5, "window"),
    (("faults", 0, "probability"), "0.5", "probability"),
    (("faults", 0, "max_count"), "3", "max_count"),
    (("faults", 1, "delay"), None, "delay"),
    (("seed",), "x", "seed"),
    (("seed",), float("inf"), "seed"),
    (("name",), 5, "name"),
    (("faults", 0, "part"), 7, "part"),
], ids=["scalar-window", "string-probability", "string-max-count",
        "null-delay", "string-seed", "infinite-seed", "numeric-name",
        "numeric-part"])
def test_a_field_of_the_wrong_json_type_is_a_fault_error(path, value,
                                                          field):
    with pytest.raises(FaultError, match=field):
        FaultCampaign.from_json(mutated(path, value))


@pytest.mark.parametrize("path, value", [
    (("faults", 1, "delay"), float("nan")),
    (("faults", 1, "delay"), float("inf")),
    (("faults", 1, "jitter"), float("nan")),
    (("faults", 0, "window"), [float("nan"), 5.0]),
    (("faults", 0, "window"), [0, 10 ** 400]),
], ids=["nan-delay", "infinite-delay", "nan-jitter", "nan-window",
        "window-beyond-float"])
def test_a_number_no_schedule_can_use_is_a_fault_error(path, value):
    with pytest.raises(FaultError):
        FaultCampaign.from_json(mutated(path, value))


def test_an_open_ended_window_is_a_window():
    text = mutated(("faults", 0, "window"), [10, float("inf")])
    campaign = FaultCampaign.from_json(text)
    assert campaign.faults[0].window == (10.0, float("inf"))
    assert campaign.faults[0].in_window(1e9)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(FAULT_KINDS),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=6)

field_paths = (st.sampled_from(("name", "seed", "faults", "bogus"))
               .map(lambda key: (key,))
               | st.tuples(st.just("faults"), st.integers(0, 1),
                           st.sampled_from(SPEC_FIELDS + ("bogus",))))


@settings(max_examples=300, deadline=None)
@given(path=field_paths, value=json_values)
def test_one_mutated_field_lets_only_a_fault_error_out(path, value):
    try:
        campaign = FaultCampaign.from_json(mutated(path, value))
    except FaultError:
        return
    again = FaultCampaign.from_json(campaign.to_json())
    assert again.to_dict() == campaign.to_dict()


class TestCli:
    @pytest.fixture
    def model_file(self, tmp_path):
        model = mm.Model("m")
        cpu = make_traffic_generator("Cpu", period=2.0,
                                     address_range=0x400)
        ram = make_memory("Ram", size_bytes=0x400)
        make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x400)],
                 package=model)
        path = tmp_path / "soc.xmi"
        xmi.write_file(str(path), model)
        return str(path)

    def test_a_malformed_campaign_exits_2_without_a_traceback(
            self, model_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"faults": [{"kind": "drop", "window": 5}]}))
        assert main(["campaign", model_file, "--top", "m::Soc",
                     "--faults", str(bad), "--seeds", "1"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert "window" in error
        assert "Traceback" not in error
