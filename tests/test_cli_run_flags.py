"""The run flags ``simulate``, ``campaign`` and ``submit`` share: the
policy choices are the library's tuples, and ``--engine`` is the only
engine selector."""

import pytest

from repro import cli
from repro.faults import PART_ERROR_POLICIES
from repro.properties import VIOLATION_POLICIES


def test_policy_choices_are_the_library_tuples():
    # cli.py keeps literal copies so importing it loads no simulator
    assert cli.PART_ERROR_POLICIES == PART_ERROR_POLICIES
    assert cli.VIOLATION_POLICIES == VIOLATION_POLICIES


@pytest.mark.parametrize("command", ("simulate", "campaign", "submit"))
def test_engine_is_the_only_engine_selector(command):
    parser = cli.build_parser()
    argv = [command, "model.xmi", "--top", "design::Top"]
    assert parser.parse_args(argv).engine == "compiled"
    # argparse accepts any unique prefix of an option, so rejecting
    # this prefix shows the removed engine flag is gone
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv + ["--compile"])
    assert exit_info.value.code == 2
