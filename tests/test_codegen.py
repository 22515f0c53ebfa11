"""Tests for the code generators: all four backends + transpilers."""

import pytest

import repro.metamodel as mm
from repro import asl
from repro.codegen import (
    analyze_machine,
    check_python,
    check_systemc,
    check_verilog,
    check_vhdl,
    collect_assigned_names,
    collect_sends,
    generate_all,
    python_gen,
    sanitize,
    systemc,
    to_c_expression,
    to_python_statements,
    to_vhdl_expression,
    verilog,
    vhdl,
)
from repro.codegen.transpile import Untranslatable
from repro.errors import CodegenError
from repro.statemachines import (
    StateMachine,
    StateMachineRuntime,
    TransitionKind,
)


def build_counter_class():
    cls = mm.UmlClass("Counter", is_active=True)
    cls.add_attribute("count", mm.INTEGER, default=0)
    cls.add_attribute("timeouts", mm.INTEGER, default=0)
    machine = StateMachine("ctr")
    region = machine.region
    init = region.add_initial()
    idle = region.add_state("Idle")
    run = region.add_state("Run")
    region.add_transition(init, idle)
    region.add_transition(idle, run, trigger="go", guard="count < 3",
                          effect='count = count + 1; '
                                 'send Started(n=count) to "out";')
    region.add_transition(run, idle, trigger="done")
    region.add_transition(run, idle, after=5.0,
                          effect="timeouts = timeouts + 1;")
    cls.add_behavior(machine, as_classifier_behavior=True)
    return cls


class TestHelpers:
    def test_sanitize_keywords(self):
        assert sanitize("process", "vhdl") == "process_x"
        assert sanitize("class", "python") == "class_x"
        assert sanitize("my-sig 2", "verilog") == "my_sig_2"
        assert sanitize("9lives") == "_9lives"

    def test_collect_sends(self):
        sends = collect_sends(
            'if (x) { send A(v=1) to "p"; } send B();')
        assert sends == [("A", ("v",), "p"), ("B", (), None)]
        assert collect_sends(None) == []
        assert collect_sends("not valid asl (((") == []

    def test_collect_assigned_names(self):
        names = collect_assigned_names(
            "x = 1; if (y) { z = 2; } while (a) { b = 3; }")
        assert names == {"x", "z", "b"}

    def test_analyze_machine_view(self):
        cls = build_counter_class()
        machine = cls.classifier_behavior
        view = analyze_machine(machine, cls)
        assert set(view.states) == {"Idle", "Run"}
        assert view.initial == "Idle"
        assert view.triggers == ["done", "go"]
        assert ("out", "Started") in view.outputs
        assert ("count", 0) in view.registers
        timed = [t for t in view.transitions if t.after_cycles]
        assert timed and timed[0].after_cycles == 5


class TestExpressionTranspilers:
    def test_c_expression(self):
        assert to_c_expression("a + b * 2") == "(a + (b * 2))"
        assert to_c_expression("not (x and y)") == "(! (x && y))"
        assert to_c_expression("a != b or c <= 1") == \
            "((a != b) || (c <= 1))"

    def test_vhdl_expression(self):
        assert to_vhdl_expression("a == b") == "(a = b)"
        assert to_vhdl_expression("a != b") == "(a /= b)"
        assert to_vhdl_expression("x % 4") == "(x mod 4)"
        assert to_vhdl_expression("not done") == "(not done)"

    def test_event_fields_renamed(self):
        assert to_c_expression("event.value > 1") == "(ev_value > 1)"

    def test_untranslatable_raises(self):
        with pytest.raises(Untranslatable):
            to_c_expression("len(q) > 0")
        with pytest.raises(Untranslatable):
            to_vhdl_expression('"text"')
        with pytest.raises(Untranslatable):
            to_c_expression("x in list")

    def test_python_statements_complete(self):
        lines = to_python_statements(
            "x = x + 1; if (x > 2) { send Hit(v=x) to \"p\"; }",
            self_names={"x"})
        code = "\n".join(lines)
        assert "self.x = (self.x + 1)" in code
        assert "self._send('Hit', 'p', v=self.x)" in code

    def test_python_integer_division_semantics(self):
        lines = to_python_statements("y = a / b;", self_names=set())
        assert "_asl_div" in lines[0]


class TestBackends:
    @pytest.fixture
    def files(self):
        cls = build_counter_class()
        model = mm.Model("m")
        pkg = model.create_package("p")
        comp = pkg.add(mm.Component("Wrap"))
        # move the machine onto a component for the HDL backends
        counter = pkg.add(build_counter_class())
        return generate_all(model)

    def test_vhdl_structure(self):
        cls = build_counter_class()
        text = vhdl.generate_component(cls)
        assert check_vhdl(text) == []
        assert "entity Counter is" in text
        assert "ev_go : in std_logic" in text
        # port 'out' collides with the VHDL keyword and is sanitized
        assert "out_x_started : out std_logic" in text
        assert "signal count : integer := 0;" in text
        assert "timer >= 5" in text
        assert "(count < 3)" in text

    def test_verilog_structure(self):
        cls = build_counter_class()
        text = verilog.generate_component(cls)
        assert check_verilog(text) == []
        assert "module counter (" in text
        assert "input wire ev_go" in text
        assert "output reg out_started" in text
        assert "timer >= 32'd5" in text

    def test_systemc_structure(self):
        cls = build_counter_class()
        text = systemc.generate_component(cls)
        assert check_systemc(text) == []
        assert "SC_MODULE(Counter)" in text
        assert "sc_in<bool> ev_go;" in text
        assert "void Counter::step()" in text

    def test_untranslatable_guard_becomes_comment(self):
        cls = mm.UmlClass("Q", is_active=True)
        machine = StateMachine("q")
        region = machine.region
        init = region.add_initial()
        a, b = region.add_state("A"), region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(a, b, trigger="go", guard="len(q) > 0")
        cls.add_behavior(machine, as_classifier_behavior=True)
        for backend, checker in ((vhdl, check_vhdl),
                                 (verilog, check_verilog),
                                 (systemc, check_systemc)):
            text = backend.generate_component(cls)
            assert checker(text) == [], backend.__name__
            assert "len(q) > 0" in text  # preserved as comment

    def test_structural_component_generates(self):
        comp = mm.Component("Glue")
        comp.add_port("a", direction=mm.PortDirection.IN)
        text = vhdl.generate_component(comp)
        assert check_vhdl(text) == []
        assert "structural component" in text

    def test_register_map_comment(self):
        from repro.profiles import apply_stereotype, create_soc_profile

        prof = create_soc_profile()
        cls = build_counter_class()
        apply_stereotype(cls.member("count"), prof.stereotype("Register"),
                         address=0, width=32)
        text = vhdl.generate_component(cls)
        assert "register map" in text
        assert "0x0000" in text

    def test_generate_all_backends(self):
        model = mm.Model("m")
        pkg = model.create_package("p")
        pkg.add(build_counter_class())
        wrap = pkg.add(mm.Component("Shell"))
        out = generate_all(model)
        assert set(out) == {"vhdl", "verilog", "systemc", "python"}
        assert "shell.vhd" in out["vhdl"]
        assert check_python(out["python"]["generated.py"]) == []

    def test_empty_scope_rejected(self):
        with pytest.raises(CodegenError):
            vhdl.generate(mm.Model("empty"))


class TestGuardOnlyEventFields:
    """An ``event.<field>`` read only in a guard is an HDL input too."""

    @staticmethod
    def level_probe():
        comp = mm.Component("Probe")
        comp.add_attribute("n", mm.INTEGER, default=0)
        machine = StateMachine("probe")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle")
        region.add_transition(init, idle)
        region.add_transition(idle, idle, trigger="go",
                              guard="event.level > 3", effect="n = n + 1;")
        comp.add_behavior(machine, as_classifier_behavior=True)
        return comp

    @pytest.mark.parametrize("backend,declaration,use", [
        (vhdl, "ev_level : in integer", "(ev_level > 3)"),
        (verilog, "input wire signed [31:0] ev_level", "(ev_level > 3)"),
        (systemc, "sc_in<int> ev_level;", "ev_level.read() > 3"),
    ], ids=["vhdl", "verilog", "systemc"])
    def test_the_backend_declares_the_field(self, backend, declaration,
                                            use):
        text = backend.generate_component(self.level_probe())
        assert use in text
        assert declaration in text

    def test_both_testbenches_drive_the_field(self):
        from repro.codegen.testbench import (
            generate_verilog_testbench,
            generate_vhdl_testbench,
        )

        comp = self.level_probe()
        assert "signal ev_level : integer := 0;" \
            in generate_vhdl_testbench(comp)
        assert "ev_level" in generate_verilog_testbench(comp)


class TestGeneratedPythonEquivalence:
    """The generated Python must behave exactly like the interpreter."""

    def test_event_sequence_equivalence(self):
        cls = build_counter_class()
        classes = python_gen.compile_module(cls)
        generated = classes["Counter"]()
        machine = cls.classifier_behavior
        runtime = StateMachineRuntime(
            machine, context={"count": 0, "timeouts": 0}).start()
        for event in ["go", "done", "go", "go", "done", "go", "noise"]:
            generated.dispatch(event)
            runtime.send(event)
            assert (generated.state,) == runtime.active_leaf_names()
            assert generated.count == runtime.context["count"]

    def test_timeout_equivalence(self):
        cls = build_counter_class()
        classes = python_gen.compile_module(cls)
        generated = classes["Counter"]()
        machine = cls.classifier_behavior
        runtime = StateMachineRuntime(
            machine, context={"count": 0, "timeouts": 0}).start()
        generated.dispatch("go")
        runtime.send("go")
        generated.advance(5)
        runtime.advance_time(5.0)
        assert (generated.state,) == runtime.active_leaf_names()
        assert generated.timeouts == runtime.context["timeouts"] == 1

    def test_sends_captured_in_outbox(self):
        cls = build_counter_class()
        classes = python_gen.compile_module(cls)
        collected = []
        generated = classes["Counter"](
            on_send=lambda s, t, a: collected.append((s, t, a)))
        generated.dispatch("go")
        assert collected == [("Started", "out", {"n": 1})]
        assert generated.outbox == [("Started", "out", {"n": 1})]

    def test_operations_with_bodies_generated(self):
        cls = mm.UmlClass("Alu")
        cls.add_attribute("acc", mm.INTEGER, default=0)
        add = cls.add_operation("add", mm.INTEGER)
        add.add_parameter("value", mm.INTEGER)
        add.set_body("acc = acc + value; return acc;")
        classes = python_gen.compile_module(cls)
        alu = classes["Alu"]()
        assert alu.add(5) == 5
        assert alu.add(3) == 8

    def test_guard_uses_event_payload(self):
        cls = mm.UmlClass("Th", is_active=True)
        machine = StateMachine("th")
        region = machine.region
        init = region.add_initial()
        a, b = region.add_state("A"), region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(a, b, trigger="data",
                              guard="event.v > 10",
                              effect="last = event.v;")
        cls.add_behavior(machine, as_classifier_behavior=True)
        classes = python_gen.compile_module(cls)
        instance = classes["Th"]()
        instance.dispatch("data", v=3)
        assert instance.state == "A"
        instance.dispatch("data", v=30)
        assert instance.state == "B"
        assert instance.last == 30

    def test_hierarchical_machine_rejected(self):
        cls = mm.UmlClass("H", is_active=True)
        machine = StateMachine("h")
        region = machine.region
        init = region.add_initial()
        comp = region.add_state("Comp")
        comp.add_region()
        region.add_transition(init, comp)
        cls.add_behavior(machine, as_classifier_behavior=True)
        with pytest.raises(CodegenError):
            python_gen.generate_class(cls)


class TestValidators:
    def test_vhdl_validator_catches_imbalance(self):
        broken = "library ieee;\nentity X is\nbegin\n"
        assert check_vhdl(broken)

    def test_verilog_validator_catches_imbalance(self):
        assert check_verilog("module x (input a);\nbegin\n")

    def test_systemc_validator_catches_braces(self):
        assert check_systemc("#include <systemc.h>\nSC_MODULE(X) {")

    def test_python_validator(self):
        assert check_python("def f():\n    return 1\n") == []
        assert check_python("def broken(:\n") != []
