"""SystemC code generation from PSM components.

Transaction-level flavor: each component becomes an ``SC_MODULE`` whose
classifier state machine runs in an ``SC_METHOD`` sensitive to the
clock — states as an ``enum class``, triggers as ``sc_in<bool>``
strobes, sends as ``sc_out<bool>`` pulses, integer context variables as
member registers, and ``after(n)`` transitions as cycle counters.  ASL
guards/effects in the synthesizable subset translate to C++; the rest
is preserved in comments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .. import asl
from ..asl.transpile import (
    simple_int_assignments,
    to_c_expression,
)
from ..metamodel.classifiers import UmlClass
from ..metamodel.components import Port, PortDirection
from ..metamodel.element import Element
from ..profiles.core import applications_of
from ..statemachines.kernel import StateMachine
from .base import (
    CodeWriter,
    MachineView,
    analyze_machine,
    collect_sends,
    per_component,
    sanitize,
)
from .vhdl import _collect_event_fields


def _c_name(name: str) -> str:
    return sanitize(name, "systemc")


def generate_component(component: UmlClass) -> str:
    """Generate one SystemC module (header-style, self-contained)."""
    machines = component.owned_of_type(StateMachine)
    machine = component.classifier_behavior \
        if isinstance(component.classifier_behavior, StateMachine) \
        else (machines[0] if machines else None)
    view = analyze_machine(machine, component) if machine else None
    module = _c_name(component.name or "Top")

    writer = CodeWriter()
    writer.lines(
        f"// generated by repro.codegen.systemc from component "
        f"{component.qualified_name or component.name}",
        "#include <systemc.h>",
        "")
    for attribute in component.attributes:
        for application in applications_of(attribute):
            if application.stereotype.name == "Register":
                writer.line(
                    f"//   reg map {application.value('address'):#06x} "
                    f"{attribute.name} ({application.value('access')})")
    for comment in component.comments:
        writer.line(f"// {comment.body}")

    writer.line(f"SC_MODULE({module}) {{")
    writer.indent()
    writer.line("sc_in<bool> clk;")
    writer.line("sc_in<bool> rst_n;")
    declared: Set[str] = {"clk", "rst_n"}
    for port in component.attributes:
        if not isinstance(port, Port):
            continue
        name = _c_name(port.name)
        if name in declared:
            continue
        declared.add(name)
        template = {PortDirection.IN: "sc_in", PortDirection.OUT: "sc_out",
                    PortDirection.INOUT: "sc_inout"}[port.direction]
        writer.line(f"{template}<sc_uint<32> > {name}_data;")
    if view is not None:
        for trigger in view.triggers:
            name = f"ev_{_c_name(trigger).lower()}"
            if name not in declared:
                declared.add(name)
                writer.line(f"sc_in<bool> {name};")
        for field in sorted(_collect_event_fields(view)):
            name = f"ev_{_c_name(field)}"
            if name not in declared:
                declared.add(name)
                writer.line(f"sc_in<int> {name};")
        for port_name, signal in view.outputs:
            name = f"{_c_name(port_name)}_{_c_name(signal)}".lower()
            if name not in declared:
                declared.add(name)
                writer.line(f"sc_out<bool> {name};")
    writer.line("")

    if view is not None and view.states:
        states = ", ".join(f"S_{_c_name(s).upper()}" for s in view.states)
        writer.line(f"enum state_t {{ {states} }};")
        writer.line("state_t state;")
        if any(t.after_cycles for t in view.transitions):
            writer.line("unsigned timer;")
        for register, _reset in view.registers:
            writer.line(f"int {_c_name(register)};")
        writer.line("")
        writer.line("void step();")
        writer.line("")
        writer.line(f"SC_CTOR({module}) {{")
        writer.indent()
        writer.line("SC_METHOD(step);")
        writer.line("sensitive << clk.pos();")
        writer.line(f"state = S_{_c_name(view.initial).upper()};")
        if any(t.after_cycles for t in view.transitions):
            writer.line("timer = 0;")
        for register, reset in view.registers:
            writer.line(f"{_c_name(register)} = {reset};")
        writer.dedent()
        writer.line("}")
    else:
        writer.line("// structural component: no classifier behavior")
        writer.line(f"SC_CTOR({module}) {{}}")
    writer.dedent()
    writer.line("};")
    writer.line("")

    if view is not None and view.states:
        for note in view.notes:
            writer.line(f"// note: {note}")
        writer.line(f"void {module}::step() {{")
        writer.indent()
        writer.line("if (!rst_n.read()) {")
        writer.indent()
        writer.line(f"state = S_{_c_name(view.initial).upper()};")
        if any(t.after_cycles for t in view.transitions):
            writer.line("timer = 0;")
        for register, reset in view.registers:
            writer.line(f"{_c_name(register)} = {reset};")
        for port_name, signal in view.outputs:
            strobe = f"{_c_name(port_name)}_{_c_name(signal)}".lower()
            writer.line(f"{strobe}.write(false);")
        writer.line("return;")
        writer.dedent()
        writer.line("}")
        for port_name, signal in view.outputs:
            strobe = f"{_c_name(port_name)}_{_c_name(signal)}".lower()
            writer.line(f"{strobe}.write(false);")
        if any(t.after_cycles for t in view.transitions):
            writer.line("timer++;")
        writer.line("switch (state) {")
        for state in view.states:
            writer.line(f"case S_{_c_name(state).upper()}: {{")
            writer.indent()
            for transition in view.transitions:
                if transition.source != state:
                    continue
                _emit_transition(writer, transition, view)
            writer.line("break;")
            writer.dedent()
            writer.line("}")
        writer.line("}")
        writer.dedent()
        writer.line("}")
    return writer.text()


def _emit_transition(writer: CodeWriter, transition, view: MachineView
                     ) -> None:
    conditions: List[str] = []
    if transition.trigger:
        conditions.append(
            f"ev_{_c_name(transition.trigger).lower()}.read()")
    if transition.after_cycles:
        conditions.append(f"timer >= {transition.after_cycles}u")
    guard_comment: Optional[str] = None
    if transition.guard:
        try:
            conditions.append(
                to_c_expression(transition.guard,
                                rename=lambda n: _rename_read(n, view)))
        except Exception:  # noqa: BLE001
            guard_comment = transition.guard
    condition = " && ".join(conditions) if conditions else "true"
    if guard_comment is not None:
        writer.line(f"// guard (not translatable): [{guard_comment}]")
    writer.line(f"if ({condition}) {{")
    writer.indent()
    _emit_effect(writer, transition.effect, view)
    if not transition.is_internal:
        writer.line(f"state = S_{_c_name(transition.target).upper()};")
        if any(t.after_cycles for t in view.transitions):
            writer.line("timer = 0;")
    writer.dedent()
    writer.line("}")


def _rename_read(name: str, view: MachineView) -> str:
    if name.startswith("ev_"):
        return f"{name}.read()"
    return _c_name(name)


def _emit_effect(writer: CodeWriter, effect: Optional[str],
                 view: MachineView) -> None:
    if not effect:
        return
    assignments = simple_int_assignments(effect)
    if assignments is None:
        writer.line(f"// effect (behavioural): {' '.join(effect.split())}")
    else:
        for name, value_expr in assignments:
            try:
                rendered = to_c_expression(
                    asl.unparse_expression(value_expr),
                    rename=lambda n: _rename_read(n, view))
                writer.line(f"{_c_name(name)} = {rendered};")
            except Exception:  # noqa: BLE001
                writer.line(f"// {name} = "
                            f"{asl.unparse_expression(value_expr)};")
    for signal, _args, port in collect_sends(effect):
        strobe = f"{_c_name(port or 'self')}_{_c_name(signal)}".lower()
        writer.line(f"{strobe}.write(true);")


def generate(scope: Element) -> Dict[str, str]:
    """Generate SystemC for every component under ``scope``: {file name:
    text}."""
    return per_component(
        scope, "SystemC", generate_component,
        lambda component: f"{_c_name(component.name).lower()}.h")
