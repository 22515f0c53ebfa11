"""Verilog code generation from PSM components.

The same synthesizable view as the VHDL backend (see
:mod:`repro.codegen.vhdl`), rendered as Verilog-2001: one ``module``
per component, ``localparam`` state encoding, a single
``always @(posedge clk or negedge rst_n)`` FSM process, event strobes,
output pulses and integer registers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .. import asl
from ..asl.transpile import (
    simple_int_assignments,
    to_verilog_expression,
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


def _v_name(name: str) -> str:
    return sanitize(name, "verilog")


def _state_const(name: str) -> str:
    return f"S_{_v_name(name).upper()}"


def generate_component(component: UmlClass) -> str:
    """Generate one Verilog module for a component/class."""
    machines = component.owned_of_type(StateMachine)
    machine = component.classifier_behavior \
        if isinstance(component.classifier_behavior, StateMachine) \
        else (machines[0] if machines else None)
    view = analyze_machine(machine, component) if machine else None
    module = _v_name(component.name or "top").lower()

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

    ports: List[str] = ["input wire clk", "input wire rst_n"]
    declared: Set[str] = {"clk", "rst_n"}
    for port in component.attributes:
        if not isinstance(port, Port):
            continue
        name = _v_name(port.name)
        if name in declared:
            continue
        declared.add(name)
        direction = {PortDirection.IN: "input wire",
                     PortDirection.OUT: "output wire",
                     PortDirection.INOUT: "inout wire"}[port.direction]
        ports.append(f"{direction} [31:0] {name}_data")
    if view is not None:
        for trigger in view.triggers:
            name = f"ev_{_v_name(trigger).lower()}"
            if name not in declared:
                declared.add(name)
                ports.append(f"input wire {name}")
        for field in sorted(_collect_event_fields(view)):
            name = f"ev_{_v_name(field)}"
            if name not in declared:
                declared.add(name)
                ports.append(f"input wire signed [31:0] {name}")
        for port_name, signal in view.outputs:
            name = f"{_v_name(port_name)}_{_v_name(signal)}".lower()
            if name not in declared:
                declared.add(name)
                ports.append(f"output reg {name}")

    writer.line(f"module {module} (")
    writer.indent()
    for index, port_line in enumerate(ports):
        separator = "," if index < len(ports) - 1 else ""
        writer.line(port_line + separator)
    writer.dedent()
    writer.line(");")
    writer.line("")
    writer.indent()

    if view is None or not view.states:
        writer.line("// structural component: no classifier behavior")
    else:
        for note in view.notes:
            writer.line(f"// note: {note}")
        width = max((len(view.states) - 1).bit_length(), 1)
        for index, state in enumerate(view.states):
            writer.line(f"localparam {_state_const(state)} = "
                        f"{width}'d{index};")
        writer.line(f"reg [{width - 1}:0] state;")
        has_timer = any(t.after_cycles for t in view.transitions)
        if has_timer:
            writer.line("reg [31:0] timer;")
        for register, _reset in view.registers:
            writer.line(f"reg signed [31:0] {_v_name(register)};")
        writer.line("")
        writer.line("always @(posedge clk or negedge rst_n) begin")
        writer.indent()
        writer.line("if (!rst_n) begin")
        writer.indent()
        writer.line(f"state <= {_state_const(view.initial)};")
        if has_timer:
            writer.line("timer <= 32'd0;")
        for register, reset in view.registers:
            writer.line(f"{_v_name(register)} <= {reset};")
        for port_name, signal in view.outputs:
            writer.line(
                f"{_v_name(port_name)}_{_v_name(signal)}".lower()
                + " <= 1'b0;")
        writer.dedent()
        writer.line("end else begin")
        writer.indent()
        for port_name, signal in view.outputs:
            writer.line(
                f"{_v_name(port_name)}_{_v_name(signal)}".lower()
                + " <= 1'b0;")
        if has_timer:
            writer.line("timer <= timer + 32'd1;")
        writer.line("case (state)")
        writer.indent()
        for state in view.states:
            writer.line(f"{_state_const(state)}: begin")
            writer.indent()
            for transition in view.transitions:
                if transition.source != state:
                    continue
                _emit_transition(writer, transition, view, has_timer)
            writer.dedent()
            writer.line("end")
        writer.line("default: state <= "
                    f"{_state_const(view.initial)};")
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


def _emit_transition(writer: CodeWriter, transition, view: MachineView,
                     has_timer: bool) -> None:
    conditions: List[str] = []
    if transition.trigger:
        conditions.append(f"ev_{_v_name(transition.trigger).lower()}")
    if transition.after_cycles:
        conditions.append(f"timer >= 32'd{transition.after_cycles}")
    guard_comment: Optional[str] = None
    if transition.guard:
        try:
            conditions.append(
                to_verilog_expression(transition.guard,
                                      rename=lambda n: _v_name(n)))
        except Exception:  # noqa: BLE001 — any parse/translate failure
            guard_comment = transition.guard
    condition = " && ".join(conditions) if conditions else "1'b1"
    if guard_comment is not None:
        writer.line(f"// guard (not synthesizable here): [{guard_comment}]")
    writer.line(f"if ({condition}) begin")
    writer.indent()
    _emit_effect(writer, transition.effect)
    if not transition.is_internal:
        writer.line(f"state <= {_state_const(transition.target)};")
        if has_timer:
            writer.line("timer <= 32'd0;")
    writer.dedent()
    writer.line("end")


def _emit_effect(writer: CodeWriter, effect: Optional[str]) -> None:
    if not effect:
        return
    assignments = simple_int_assignments(effect)
    if assignments is None:
        writer.line(f"// effect (behavioural): {' '.join(effect.split())}")
    else:
        for name, value_expr in assignments:
            try:
                rendered = to_verilog_expression(
                    asl.unparse_expression(value_expr),
                    rename=lambda n: _v_name(n))
                writer.line(f"{_v_name(name)} <= {rendered};")
            except Exception:  # noqa: BLE001
                writer.line(f"// {name} <= "
                            f"{asl.unparse_expression(value_expr)};")
    for signal, _args, port in collect_sends(effect):
        strobe = f"{_v_name(port or 'self')}_{_v_name(signal)}".lower()
        writer.line(f"{strobe} <= 1'b1;")


def generate(scope: Element) -> Dict[str, str]:
    """Generate Verilog for every component under ``scope``: {file name:
    text}."""
    return per_component(
        scope, "Verilog", generate_component,
        lambda component: f"{_v_name(component.name).lower()}.v")
