"""The one ASL parse cache, shared by every caller.

``asl.parse`` and ``asl.parse_expression`` memoize their trees per
source text, so the interpreter, the model compiler, the code
generators and the validators parse a text once per process.  Every
miss counts ``asl.parses`` in ``repro.perf.PERF``; the tests read that
counter's deltas.
"""

import uuid

import pytest

import repro.metamodel as mm
from repro import asl
from repro.asl import parser
from repro.codegen import generate_all
from repro.errors import AslSyntaxError
from repro.mda import hardware_transformation
from repro.perf import PERF
from repro.profiles import apply_stereotype, create_soc_profile
from repro.statemachines import StateMachine

GUARD = "reg0 < 1000"
EFFECT = 'reg0 = reg0 + 1; send Ack(v=reg0) to "p0";'
RESET = "reg1 = 0;"
BODY = "reg0 = reg0 + request; return reg0;"


def parses():
    return PERF.counter("asl.parses")


def sixteen_component_psm():
    """A 16-component hardware PSM whose components share their ASL
    texts, shaped like the synthetic SoC of the build benchmark."""
    profile = create_soc_profile()
    pim = mm.Model("soc16")
    design = pim.create_package("design")
    for index in range(16):
        component = design.add(mm.Component(f"Block{index}"))
        apply_stereotype(component, profile.stereotype("HwModule"))
        component.add_attribute("reg0", mm.INTEGER, default=index)
        component.add_attribute("reg1", mm.INTEGER, default=0)
        component.add_port("p0", direction=mm.PortDirection.OUT)
        operation = component.add_operation("service", mm.INTEGER)
        operation.add_parameter("request", mm.INTEGER)
        operation.set_body(BODY)
        machine = StateMachine(f"Fsm{index}")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle")
        busy = region.add_state("Busy")
        region.add_transition(init, idle)
        region.add_transition(idle, busy, trigger="start", guard=GUARD,
                              effect=EFFECT)
        region.add_transition(busy, idle, trigger="reset", effect=RESET)
        component.add_behavior(machine, as_classifier_behavior=True)
    return hardware_transformation().transform(
        pim, profiles=[profile]).psm


class TestOneCacheForEveryCaller:
    def test_a_generate_parses_each_distinct_text_once(self):
        psm = sixteen_component_psm()
        asl.clear_caches()
        before = parses()
        first = generate_all(psm)
        counted = parses() - before
        cached = set(parser._program_cache) | set(parser._expression_cache)
        # every parse left a distinct cached text: none ran twice, and
        # none failed (a failure is parsed again on every call)
        assert counted == len(parser._program_cache) \
            + len(parser._expression_cache)
        assert {GUARD, EFFECT, RESET, BODY} <= cached
        assert counted < 10  # 16 components x 4 backends share them

        before = parses()
        assert generate_all(psm) == first
        assert parses() - before == 0

    def test_the_interpreter_shares_the_codegen_trees(self):
        source = f"x_{uuid.uuid4().hex} = 1;"
        tree = asl.parse(source)
        before = parses()
        environment = asl.execute(source, {})
        assert parses() - before == 0
        assert asl.parse(source) is tree
        assert list(environment.values()) == [1]

    def test_clear_caches_empties_the_shared_cache(self):
        source = f"v_{uuid.uuid4().hex} + 1"
        asl.parse_expression(source)
        asl.clear_caches()
        before = parses()
        assert asl.evaluate(source, {source.split()[0]: 1}) == 2
        assert parses() - before == 1

    def test_statements_and_expressions_are_cached_apart(self):
        source = f"n_{uuid.uuid4().hex}"
        before = parses()
        assert isinstance(asl.parse_expression(source), asl.Name)
        with pytest.raises(AslSyntaxError):
            asl.parse(source)  # a bare name is no statement
        assert parses() - before == 2


class TestFailuresAreNotCached:
    def test_a_syntax_error_raises_the_same_error_on_each_call(self):
        source = f"x_{uuid.uuid4().hex} = ;"
        before = parses()
        errors = []
        for _ in range(3):
            with pytest.raises(AslSyntaxError) as caught:
                asl.parse(source)
            errors.append(caught.value)
        assert len({str(error) for error in errors}) == 1
        assert len({(error.line, error.column) for error in errors}) == 1
        assert len({id(error) for error in errors}) == 3
        assert parses() - before == 3
        assert source not in parser._program_cache

    def test_an_expression_error_is_not_cached_either(self):
        source = f"(a_{uuid.uuid4().hex} +"
        before = parses()
        messages = set()
        for _ in range(2):
            with pytest.raises(AslSyntaxError) as caught:
                asl.evaluate(source, {})
            messages.add(str(caught.value))
        assert len(messages) == 1
        assert parses() - before == 2


class TestSharedTreesKeepStateApart:
    def test_two_interpreters_on_one_cached_program(self):
        source = f"total = total + step; t_{uuid.uuid4().hex} = total;"
        first = asl.Interpreter({"total": 0, "step": 1})
        second = asl.Interpreter({"total": 100, "step": 10})
        before = parses()
        for _ in range(3):
            first.execute(source)
            second.execute(source)
        assert parses() - before == 1
        assert first.environment["total"] == 3
        assert second.environment["total"] == 130
        assert asl.parse(source) is asl.parse(source)
