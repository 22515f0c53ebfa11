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

from functools import partial
from typing import Dict

from ..asl.transpile import to_c_expression
from ..metamodel.classifiers import UmlClass
from ..metamodel.element import Element
from ..profiles.core import applications_of
from .base import (
    CodeWriter,
    RtlSyntax,
    component_view,
    emit_rows,
    per_component,
    rtl_ports,
    sanitize,
    state_constant,
)


def _c_name(name: str) -> str:
    return sanitize(name, "systemc")


def _read_name(ports: Dict[str, str], name: str) -> str:
    """A name inside a translated expression: a port of ``ports`` is
    read, a register is not."""
    name = _c_name(name)
    return f"{name}.read()" if name in ports else name


#: Declaration of each kind of port :func:`rtl_ports` lists.
_PORT = {
    "control": "sc_in<bool> {};",
    "in": "sc_in<sc_uint<32> > {};",
    "out": "sc_out<sc_uint<32> > {};",
    "inout": "sc_inout<sc_uint<32> > {};",
    "trigger": "sc_in<bool> {};",
    "field": "sc_in<int> {};",
    "strobe": "sc_out<bool> {};",
}

#: ``translate`` reads ports, so each component fills it with its own.
_SYNTAX = RtlSyntax(
    language="systemc",
    translate=to_c_expression,
    row_open="if ({}) {{", row_close="}", conjunction=" && ",
    always="true", strobe_test="{}.read()", timer_test="timer >= {}u",
    untranslated_guard="// guard (not translatable): [{}]",
    behavioural="// effect (behavioural): {}", assign="{} = {};",
    untranslated_assign="// {} = {};", pulse="{}.write(true);",
    timer_reset="timer = 0;")


def generate_component(component: UmlClass) -> str:
    """Generate one SystemC module (header-style, self-contained)."""
    view = component_view(component)
    module = _c_name(component.name or "Top")
    ports = rtl_ports(component, view, "systemc")
    syntax = _SYNTAX._replace(translate=partial(
        to_c_expression, rename=partial(_read_name, ports)))
    strobes = [name for name, kind in ports.items() if kind == "strobe"]

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
    for name, kind in ports.items():
        writer.line(_PORT[kind].format(name))
    writer.line("")

    if view is not None and view.states:
        initial = state_constant(view.initial, "systemc")
        states = ", ".join(state_constant(s, "systemc") for s in view.states)
        writer.line(f"enum state_t {{ {states} }};")
        writer.line("state_t state;")
        if view.has_timer:
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
        writer.line(f"state = {initial};")
        if view.has_timer:
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
        writer.line(f"state = {initial};")
        if view.has_timer:
            writer.line("timer = 0;")
        for register, reset in view.registers:
            writer.line(f"{_c_name(register)} = {reset};")
        for strobe in strobes:
            writer.line(f"{strobe}.write(false);")
        writer.line("return;")
        writer.dedent()
        writer.line("}")
        for strobe in strobes:
            writer.line(f"{strobe}.write(false);")
        if view.has_timer:
            writer.line("timer++;")
        writer.line("switch (state) {")
        for state in view.states:
            writer.line(f"case {state_constant(state, 'systemc')}: {{")
            writer.indent()
            emit_rows(writer, view, state, syntax)
            writer.line("break;")
            writer.dedent()
            writer.line("}")
        writer.line("}")
        writer.dedent()
        writer.line("}")
    return writer.text()


def generate(scope: Element) -> Dict[str, str]:
    """Generate SystemC for every component under ``scope``: {file name:
    text}."""
    return per_component(
        scope, "SystemC", generate_component,
        lambda component: f"{_c_name(component.name).lower()}.h")
