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


@pytest.mark.parametrize("command", ("simulate", "campaign", "submit"))
@pytest.mark.parametrize("flag", ("--until", "--quantum"))
@pytest.mark.parametrize("value", ("nan", "inf", "soon"))
def test_simulated_times_are_finite_numbers(command, flag, value, capsys):
    # float() reads "nan" and "inf"; a run to t = inf never ends, and
    # one to t = nan delivers nothing
    parser = cli.build_parser()
    argv = [command, "model.xmi", "--top", "design::Top"]
    assert parser.parse_args(argv + [flag, "2.5"]).until in (2.5, 100.0)
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv + [flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be a finite number" \
        in capsys.readouterr().err
