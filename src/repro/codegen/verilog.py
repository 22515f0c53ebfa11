"""Verilog code generation from PSM components.

The RTL lowering the VHDL and SystemC backends share (see
:mod:`repro.codegen.base`), rendered as Verilog-2001: one ``module``
per component, ``localparam`` state encoding, a single
``always @(posedge clk or negedge rst_n)`` FSM process, event strobes,
output pulses and integer registers.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from ..asl.transpile import to_verilog_expression
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


def _v_name(name: str) -> str:
    return sanitize(name, "verilog")


#: Declaration of each kind of port :func:`rtl_ports` lists.
_PORT = {
    "control": "input wire {}",
    "in": "input wire [31:0] {}",
    "out": "output wire [31:0] {}",
    "inout": "inout wire [31:0] {}",
    "trigger": "input wire {}",
    "field": "input wire signed [31:0] {}",
    "strobe": "output reg {}",
}

_SYNTAX = RtlSyntax(
    language="verilog",
    translate=partial(to_verilog_expression, rename=_v_name),
    row_open="if ({}) begin", row_close="end", conjunction=" && ",
    always="1'b1", strobe_test="{}", timer_test="timer >= 32'd{}",
    untranslated_guard="// guard (not synthesizable here): [{}]",
    behavioural="// effect (behavioural): {}", assign="{} <= {};",
    untranslated_assign="// {} <= {};", pulse="{} <= 1'b1;",
    timer_reset="timer <= 32'd0;")


def generate_component(component: UmlClass) -> str:
    """Generate one Verilog module for a component/class."""
    view = component_view(component)
    module = _v_name(component.name or "top").lower()
    ports = rtl_ports(component, view, "verilog")
    strobes = [name for name, kind in ports.items() if kind == "strobe"]

    writer = CodeWriter()
    writer.line(f"// generated by repro.codegen.verilog from component "
                f"{component.qualified_name or component.name}")
    for attribute in component.attributes:
        for application in applications_of(attribute):
            if application.stereotype.name == "Register":
                writer.line(
                    f"//   reg map {application.value('address'):#06x} "
                    f"{attribute.name} ({application.value('access')}, "
                    f"width {application.value('width')})")
    for comment in component.comments:
        writer.line(f"// {comment.body}")

    writer.line(f"module {module} (")
    writer.indent()
    writer.block(",\n".join(_PORT[kind].format(name)
                             for name, kind in ports.items()))
    writer.dedent()
    writer.line(");")
    writer.line("")
    writer.indent()

    if view is None or not view.states:
        writer.line("// structural component: no classifier behavior")
    else:
        for note in view.notes:
            writer.line(f"// note: {note}")
        initial = state_constant(view.initial, "verilog")
        width = max((len(view.states) - 1).bit_length(), 1)
        for index, state in enumerate(view.states):
            writer.line(f"localparam {state_constant(state, 'verilog')} = "
                        f"{width}'d{index};")
        writer.line(f"reg [{width - 1}:0] state;")
        if view.has_timer:
            writer.line("reg [31:0] timer;")
        for register, _reset in view.registers:
            writer.line(f"reg signed [31:0] {_v_name(register)};")
        writer.line("")
        writer.line("always @(posedge clk or negedge rst_n) begin")
        writer.indent()
        writer.line("if (!rst_n) begin")
        writer.indent()
        writer.line(f"state <= {initial};")
        if view.has_timer:
            writer.line("timer <= 32'd0;")
        for register, reset in view.registers:
            writer.line(f"{_v_name(register)} <= {reset};")
        for strobe in strobes:
            writer.line(f"{strobe} <= 1'b0;")
        writer.dedent()
        writer.line("end else begin")
        writer.indent()
        for strobe in strobes:
            writer.line(f"{strobe} <= 1'b0;")
        if view.has_timer:
            writer.line("timer <= timer + 32'd1;")
        writer.line("case (state)")
        writer.indent()
        for state in view.states:
            writer.line(f"{state_constant(state, 'verilog')}: begin")
            writer.indent()
            emit_rows(writer, view, state, _SYNTAX)
            writer.dedent()
            writer.line("end")
        writer.line(f"default: state <= {initial};")
        writer.dedent()
        writer.line("endcase")
        writer.dedent()
        writer.line("end")
        writer.dedent()
        writer.line("end")

    writer.dedent()
    writer.line("")
    writer.line("endmodule")
    return writer.text()


def generate(scope: Element) -> Dict[str, str]:
    """Generate Verilog for every component under ``scope``: {file name:
    text}."""
    return per_component(
        scope, "Verilog", generate_component,
        lambda component: f"{_v_name(component.name).lower()}.v")
