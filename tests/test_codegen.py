"""Tests for the code generators: all four backends + transpilers."""

import pytest

import repro.metamodel as mm
from repro import asl
from repro.codegen import (
    Untranslatable,
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
from repro.errors import CodegenError
from repro.statemachines import (
    CompiledRuntime,
    PseudostateKind,
    StateMachine,
    StateMachineRuntime,
    TransitionKind,
    compile_fallback_reason,
    compile_machine_cached,
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


def flat_class(build, **attributes):
    """An active class ``Flat`` with integer ``attributes`` (name=default)
    whose one-region machine ``build(region)`` fills."""
    cls = mm.UmlClass("Flat", is_active=True)
    for name, default in attributes.items():
        cls.add_attribute(name, mm.INTEGER, default=default)
    machine = StateMachine("flat")
    build(machine.region)
    cls.add_behavior(machine, as_classifier_behavior=True)
    return cls


def one_state(region, **initial):
    s = region.add_state("S")
    region.add_transition(region.add_initial(), s, **initial)
    return s


def two_states(region):
    a, b = region.add_state("A"), region.add_state("B")
    region.add_transition(region.add_initial(), a)
    return a, b


def two_internal_rows(region):
    s = one_state(region)
    for effect in ("x = 1;", "y = 1;"):
        region.add_transition(s, s, trigger="Go", effect=effect,
                              kind=TransitionKind.INTERNAL)


def internal_effect_falsifies_a_later_guard(region):
    a, b = two_states(region)
    region.add_transition(a, a, trigger="Go", effect="x = 1;",
                          kind=TransitionKind.INTERNAL)
    region.add_transition(a, b, trigger="Go", guard="x == 0")


def initial_effect(region):
    one_state(region, effect="x = 7;")


def internal_after_3(region):
    s = one_state(region)
    region.add_transition(s, s, after=3, effect="x = x + 1;",
                          kind=TransitionKind.INTERNAL)


def after_2_6(region):
    a, b = two_states(region)
    region.add_transition(a, b, after=2.6, effect="x = x + 1;")


def composite_state(region):
    outer = one_state(region)
    inner = outer.add_region("r")
    inner.add_transition(inner.add_initial(), inner.add_state("Inner"))


def deferral(region):
    a, b = two_states(region)
    a.defer("Later")
    region.add_transition(a, b, trigger="Go")


def completion_transition(region):
    a, b = two_states(region)
    region.add_transition(a, b)


def choice(region):
    a, b = two_states(region)
    route = region.add_pseudostate(PseudostateKind.CHOICE, "route")
    region.add_transition(a, route, trigger="Go")
    region.add_transition(route, b, guard="x > 0")
    region.add_transition(route, a, guard="else")


def callable_guard(region):
    a, b = two_states(region)
    region.add_transition(a, b, trigger="Go",
                          guard=lambda context, event: True)


def dict_method(region):
    s = one_state(region)
    region.add_transition(s, s, trigger="Go", effect='x = d.get("k");',
                          kind=TransitionKind.INTERNAL)


def while_loop(region):
    s = one_state(region)
    region.add_transition(s, s, trigger="Go",
                          effect="while (x < 3) { x = x + 1; }",
                          kind=TransitionKind.INTERNAL)


def no_initial(region):
    region.add_state("S")


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

    def test_a_literal_that_does_not_parse_becomes_comment(self):
        from repro.codegen.testbench import (
            generate_verilog_testbench,
            generate_vhdl_testbench,
        )

        # "10²" does not lex: "²" is no ASCII digit
        comp = mm.Component("Square")
        comp.add_attribute("n", mm.INTEGER, default=0)
        machine = StateMachine("square")
        region = machine.region
        init = region.add_initial()
        a, b = region.add_state("A"), region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(a, b, trigger="go",
                              guard="event.level < 10²",
                              effect="n = 10²;")
        comp.add_behavior(machine, as_classifier_behavior=True)
        for backend, checker in ((vhdl, check_vhdl),
                                 (verilog, check_verilog),
                                 (systemc, check_systemc)):
            text = backend.generate_component(comp)
            assert checker(text) == [], backend.__name__
            assert "[event.level < 10²]" in text
            assert "effect (behavioural): n = 10²;" in text
            assert "ev_level" not in text
        assert check_vhdl(generate_vhdl_testbench(comp)) == []
        assert check_verilog(generate_verilog_testbench(comp)) == []

    def test_a_port_name_of_two_kinds_is_refused(self):
        from repro.codegen.testbench import (
            generate_verilog_testbench,
            generate_vhdl_testbench,
        )

        # the data bus of port p and the strobe of `send Data() to "p"`
        comp = mm.Component("Clash")
        comp.add_port("p", direction=mm.PortDirection.IN)
        machine = StateMachine("clash")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle")
        region.add_transition(init, idle)
        region.add_transition(idle, idle, trigger="go",
                              effect='send Data() to "p";')
        comp.add_behavior(machine, as_classifier_behavior=True)
        for generate in (vhdl.generate_component,
                         verilog.generate_component,
                         systemc.generate_component,
                         generate_vhdl_testbench,
                         generate_verilog_testbench):
            with pytest.raises(CodegenError, match="^component 'Clash': "
                               "RTL port 'p_data' would be both in and "
                               "strobe$"):
                generate(comp)

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
    def level_probe(field="level"):
        comp = mm.Component("Probe")
        comp.add_attribute("n", mm.INTEGER, default=0)
        machine = StateMachine("probe")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle")
        region.add_transition(init, idle)
        region.add_transition(idle, idle, trigger="go",
                              guard=f"event.{field} > 3",
                              effect="n = n + 1;")
        comp.add_behavior(machine, as_classifier_behavior=True)
        return comp

    def test_a_field_named_like_a_keyword_is_declared_as_read(self):
        text = vhdl.generate_component(self.level_probe("next"))
        assert "ev_next : in integer" in text
        assert "(ev_next > 3)" in text
        assert check_vhdl(text) == []

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

    def test_systemc_reads_ports_not_registers(self):
        # a register whose name starts like an event port is no port
        comp = mm.Component("Counter")
        comp.add_attribute("ev_count", mm.INTEGER, default=0)
        machine = StateMachine("counter")
        region = machine.region
        idle = region.add_state("Idle")
        region.add_transition(region.add_initial(), idle)
        region.add_transition(idle, idle, trigger="tick",
                              guard="ev_count < 3",
                              effect="ev_count = ev_count + 1;")
        comp.add_behavior(machine, as_classifier_behavior=True)
        text = systemc.generate_component(comp)
        assert "int ev_count;" in text
        assert "if (ev_tick.read() && (ev_count < 3)) {" in text
        assert "ev_count = (ev_count + 1);" in text
        assert "ev_count.read()" not in text
        assert check_systemc(text) == []

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

    def test_an_operation_that_does_not_parse_skips_only_its_class(self):
        package = mm.Model("m")
        alu = package.add(mm.UmlClass("Alu"))
        alu.add_attribute("x", mm.INTEGER, default=0)
        alu.add_operation("clear").set_body("x = ;")
        ok = package.add(mm.UmlClass("Ok"))
        ok.add_attribute("acc", mm.INTEGER, default=0)
        ok.add_operation("bump").set_body("acc = acc + 1; return acc;")
        with pytest.raises(CodegenError,
                           match="^operation 'clear' does not parse: "):
            python_gen.generate_class(alu)
        source = python_gen.generate_module(package)
        assert "\n# skipped Alu: operation 'clear' does not parse: " \
            in source
        namespace = {}
        exec(compile(source, "<generated>", "exec"), namespace)
        assert "Alu" not in namespace
        assert namespace["Ok"]().bump() == 1

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

    @pytest.mark.parametrize("build, script, state, expected", [
        (two_internal_rows, ["Go"], "S", {"x": 1, "y": 1}),
        (internal_effect_falsifies_a_later_guard, ["Go"], "B", {"x": 1}),
        (initial_effect, [], "S", {"x": 7}),
        (internal_after_3, [10], "S", {"x": 1}),
        (after_2_6, [2.6], "B", {"x": 1}),
    ], ids=["two-internal-rows", "effect-falsifies-later-guard",
            "initial-effect", "internal-after-3-fires-once",
            "after-2.6-is-not-rounded"])
    def test_the_generated_class_follows_the_interpreter(
            self, build, script, state, expected):
        cls = flat_class(build, x=0, y=0)
        generated = python_gen.compile_module(cls)["Flat"]()
        runtime = StateMachineRuntime(cls.classifier_behavior,
                                      context={"x": 0, "y": 0}).start()
        for step in script:
            if isinstance(step, str):
                generated.dispatch(step)
                runtime.send(step)
            else:
                generated.advance(step)
                runtime.advance_time(step)
        assert runtime.active_leaf_names() == (state,)
        assert generated.state == state
        for name, value in expected.items():
            assert runtime.context[name] == value
            assert getattr(generated, name) == value

    @pytest.mark.parametrize("build", [
        composite_state, deferral, completion_transition, choice,
        callable_guard, dict_method, while_loop, no_initial,
    ], ids=lambda build: build.__name__)
    def test_a_machine_the_compiler_refuses_is_skipped_with_its_reason(
            self, build):
        cls = flat_class(build, x=0)
        reason = compile_fallback_reason(cls.classifier_behavior)
        assert reason is not None
        with pytest.raises(CodegenError) as refusal:
            python_gen.generate_class(cls)
        assert reason in str(refusal.value)
        assert f"# skipped Flat: {reason}\n" \
            in python_gen.generate_module(cls)

    def test_a_model_name_that_clashes_with_a_member_skips_the_class(self):
        def internal_go(region):
            s = one_state(region)
            region.add_transition(s, s, trigger="Go",
                                  effect="outbox = 1; x = state;",
                                  kind=TransitionKind.INTERNAL)

        cls = flat_class(internal_go, state=5)
        # the interpreter keeps the model's state: x = 5, outbox = 1
        runtime = StateMachineRuntime(cls.classifier_behavior,
                                      context={"state": 5}).start()
        runtime.send("Go")
        assert runtime.context == {"state": 5, "outbox": 1, "x": 5}
        with pytest.raises(CodegenError, match="^attribute 'state' clashes"):
            python_gen.generate_class(cls)
        assert "# skipped Flat: attribute 'state' clashes with a member " \
            "of the generated class\n" in python_gen.generate_module(cls)

    @pytest.mark.parametrize("member", [
        "state", "outbox", "on_send", "now", "dispatch", "call", "advance",
        "_send", "_timeout", "_timers", "_timer_seq", "_enter_S"])
    def test_an_attribute_named_like_a_member_is_refused(self, member):
        cls = flat_class(one_state, **{member: 0})
        with pytest.raises(CodegenError,
                           match=f"^attribute '{member}' clashes"):
            python_gen.generate_class(cls)

    def test_an_operation_or_variable_named_like_a_member_is_refused(self):
        def bumps_on_send(region):
            s = one_state(region)
            region.add_transition(s, s, trigger="Go", effect="on_send = 1;",
                                  kind=TransitionKind.INTERNAL)

        with pytest.raises(CodegenError, match="^variable 'on_send' "):
            python_gen.generate_class(flat_class(bumps_on_send))
        cls = flat_class(one_state)
        cls.add_operation("advance").set_body("return 1;")
        with pytest.raises(CodegenError, match="^operation 'advance' "):
            python_gen.generate_class(cls)
        plain = mm.UmlClass("Plain")
        plain.add_attribute("outbox", mm.INTEGER, default=0)
        with pytest.raises(CodegenError, match="^attribute 'outbox' "):
            python_gen.generate_class(plain)

    def test_a_name_python_normalizes_skips_the_class(self):
        # Python reads the identifier ``ﬁ`` as ``fi``: the generated
        # class merged two variables that both engines keep apart
        def ligature(region):
            s = one_state(region)
            region.add_transition(s, s, trigger="Go",
                                  effect="ﬁ = 1; fi = 2; s = ﬁ + 10;",
                                  kind=TransitionKind.INTERNAL)

        cls = flat_class(ligature)
        machine = cls.classifier_behavior
        assert compile_fallback_reason(machine) is None
        for runtime in (StateMachineRuntime(machine),
                        CompiledRuntime(compile_machine_cached(machine))):
            runtime.start().send("Go")
            assert runtime.context == {"ﬁ": 1, "fi": 2, "s": 11}
        reason = "variable 'ﬁ' is not in NFKC form: Python reads it as 'fi'"
        with pytest.raises(CodegenError, match=f"^{reason}$"):
            python_gen.generate_class(cls)
        assert f"# skipped Flat: {reason}\n" \
            in python_gen.generate_module(cls)
        attribute = mm.UmlClass("Attribute")
        attribute.add_attribute("x²", mm.INTEGER, default=0)
        with pytest.raises(CodegenError, match="^attribute 'x²' is not in "):
            python_gen.generate_class(attribute)
        operation = mm.UmlClass("Operation")
        operation.add_operation("ﬁll").set_body("return 1;")
        with pytest.raises(CodegenError, match="^operation 'ﬁll' is not in "):
            python_gen.generate_class(operation)

    def test_reading_now_reads_the_clock(self):
        def stamps(region):
            a, b = two_states(region)
            region.add_transition(a, b, after=2, effect="x = now;")

        cls = flat_class(stamps, x=0)
        generated = python_gen.compile_module(cls)["Flat"]()
        generated.advance(3)
        assert (generated.state, generated.x) == ("B", 2)

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
    @pytest.fixture(scope="class")
    def block0(self):
        from repro.codegen.base import hardware_components
        from tests.test_codegen_golden import build_psm

        return next(component for component in
                    hardware_components(build_psm())
                    if component.name == "Block0")

    @pytest.mark.parametrize("backend, check, declaration", [
        (vhdl, check_vhdl, "    ev_start : in std_logic;\n"),
        (verilog, check_verilog, "    input wire ev_start,\n"),
        (systemc, check_systemc, "    sc_in<bool> ev_start;\n"),
    ], ids=["vhdl", "verilog", "systemc"])
    def test_a_strobe_used_but_not_declared_is_flagged(
            self, block0, backend, check, declaration):
        text = backend.generate_component(block0)
        assert check(text) == []
        assert text.count(declaration) == 1
        assert check(text.replace(declaration, "")) \
            == ["undeclared ev_start"]

    def test_a_state_constant_missing_from_the_enum_is_flagged(self,
                                                               block0):
        text = vhdl.generate_component(block0)
        enum = "type state_t is (S_IDLE, S_BUSY, S_DONE);"
        assert enum in text
        assert check_vhdl(text.replace(enum, enum.replace("S_IDLE, ", ""))) \
            == ["undeclared s_idle"]

    @pytest.mark.parametrize("scope", ["ip_cores", "build_seed_1",
                                       "build_seed_5"])
    def test_every_generated_file_and_bench_is_clean(self, scope):
        from repro.codegen import VALIDATORS
        from tests.test_codegen_golden import build_psm, generated_files

        package = None if scope == "ip_cores" else build_psm(int(scope[-1]))
        files = generated_files(package)
        assert len(files) == (46 if package is None else 81)
        assert {name: VALIDATORS[name.split("/")[0]](text)
                for name, text in files.items()} \
            == dict.fromkeys(files, [])

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
