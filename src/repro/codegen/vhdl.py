"""VHDL code generation from PSM components.

Answers the paper's open question for VHDL: every component becomes an
``entity`` + two-process-style ``architecture``; the classifier state
machine becomes a synchronous FSM:

* triggers → input strobes ``ev_<event>`` (+ shared integer payload
  inputs ``ev_<field>`` for ``event.<field>`` reads);
* ``send S(...) to "p"`` effects → output strobes ``p_s``;
* integer context variables → registers with reset values;
* ``after(n)`` transitions → a cycle counter compared against ``n``;
* guards/effects in the synthesizable ASL subset are translated;
  anything else is preserved as a comment (never broken code).

The SoC profile's ``Register`` tagged values are emitted as an address
map comment block, giving the firmware view next to the RTL.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .. import asl
from ..asl.transpile import (
    Untranslatable,
    simple_int_assignments,
    to_vhdl_expression,
)
from ..metamodel.classifiers import UmlClass
from ..metamodel.components import Port, PortDirection
from ..metamodel.element import Element
from ..profiles.core import applications_of
from ..statemachines.kernel import StateMachine
from .base import (CodeWriter, MachineView, analyze_machine, per_component,
                   sanitize)


def _vhdl_name(name: str) -> str:
    return sanitize(name, "vhdl")


def _state_const(name: str) -> str:
    return f"S_{_vhdl_name(name).upper()}"


def _collect_event_fields(view: MachineView) -> Set[str]:
    """Every ``event.<field>`` a guard (an expression) or an effect (a
    statement list) reads."""
    fields: Set[str] = set()
    for transition in view.transitions:
        for source, parse in ((transition.guard, asl.parse_expression),
                              (transition.effect, asl.parse)):
            if not source:
                continue
            try:
                tree = parse(source)
            except Exception:
                continue
            fields |= {node.name for node in asl.walk(tree)
                       if isinstance(node, asl.Attribute)
                       and node.target == asl.Name("event")}
    return fields


def _register_map_comment(component: UmlClass, writer: CodeWriter) -> None:
    rows: List[str] = []
    for attribute in component.attributes:
        for application in applications_of(attribute):
            if application.stereotype.name != "Register":
                continue
            rows.append(
                f"--   {application.value('address'):#06x}  "
                f"{attribute.name:<16} {application.value('access'):<4} "
                f"width={application.value('width')} "
                f"reset={application.value('reset_value')}")
    if rows:
        writer.line("-- register map")
        for row in rows:
            writer.line(row)


def generate_component(component: UmlClass) -> str:
    """Generate one VHDL design unit for a component/class."""
    machines = component.owned_of_type(StateMachine)
    machine = component.classifier_behavior \
        if isinstance(component.classifier_behavior, StateMachine) \
        else (machines[0] if machines else None)
    view = analyze_machine(machine, component) if machine else None
    entity = _vhdl_name(component.name or "top")

    writer = CodeWriter(indent_unit="  ")
    writer.lines(
        f"-- generated by repro.codegen.vhdl from component "
        f"{component.qualified_name or component.name}",
        "library ieee;",
        "use ieee.std_logic_1164.all;",
        "use ieee.numeric_std.all;",
        "")
    _register_map_comment(component, writer)
    for comment in component.comments:
        writer.line(f"-- {comment.body}")

    # ---- entity ----------------------------------------------------------
    ports: List[str] = ["clk : in std_logic", "rst_n : in std_logic"]
    declared: Set[str] = {"clk", "rst_n"}
    model_ports = [p for p in component.attributes if isinstance(p, Port)]
    for port in model_ports:
        name = _vhdl_name(port.name)
        if name in declared:
            continue
        declared.add(name)
        direction = {PortDirection.IN: "in", PortDirection.OUT: "out",
                     PortDirection.INOUT: "inout"}[port.direction]
        ports.append(f"{name}_data : {direction} std_logic_vector(31 downto 0)")
    if view is not None:
        for trigger in view.triggers:
            name = f"ev_{_vhdl_name(trigger).lower()}"
            if name not in declared:
                declared.add(name)
                ports.append(f"{name} : in std_logic")
        for field in sorted(_collect_event_fields(view)):
            name = f"ev_{_vhdl_name(field)}"
            if name not in declared:
                declared.add(name)
                ports.append(f"{name} : in integer")
        for port_name, signal in view.outputs:
            name = f"{_vhdl_name(port_name)}_{_vhdl_name(signal)}".lower()
            if name not in declared:
                declared.add(name)
                ports.append(f"{name} : out std_logic")

    writer.line(f"entity {entity} is")
    writer.indent().line("port (")
    writer.indent()
    for index, port_line in enumerate(ports):
        separator = ";" if index < len(ports) - 1 else ""
        writer.line(port_line + separator)
    writer.dedent().line(");").dedent()
    writer.line(f"end entity {entity};")
    writer.line("")

    # ---- architecture ------------------------------------------------------
    writer.line(f"architecture rtl of {entity} is")
    writer.indent()
    if view is not None and view.states:
        constants = ", ".join(_state_const(s) for s in view.states)
        writer.line(f"type state_t is ({constants});")
        writer.line(f"signal state : state_t := {_state_const(view.initial)};")
        if any(t.after_cycles for t in view.transitions):
            writer.line("signal timer : natural := 0;")
        for register, reset in view.registers:
            writer.line(f"signal {_vhdl_name(register)} : integer := {reset};")
    writer.dedent()
    writer.line("begin")
    writer.indent()

    if view is None or not view.states:
        writer.line("-- structural component: no classifier behavior")
    else:
        for note in view.notes:
            writer.line(f"-- note: {note}")
        writer.line("fsm : process (clk, rst_n)")
        writer.line("begin")
        writer.indent()
        writer.line("if rst_n = '0' then")
        writer.indent()
        writer.line(f"state <= {_state_const(view.initial)};")
        if any(t.after_cycles for t in view.transitions):
            writer.line("timer <= 0;")
        for register, reset in view.registers:
            writer.line(f"{_vhdl_name(register)} <= {reset};")
        for port_name, signal in view.outputs:
            writer.line(
                f"{_vhdl_name(port_name)}_{_vhdl_name(signal)}".lower()
                + " <= '0';")
        writer.dedent()
        writer.line("elsif rising_edge(clk) then")
        writer.indent()
        for port_name, signal in view.outputs:
            writer.line(
                f"{_vhdl_name(port_name)}_{_vhdl_name(signal)}".lower()
                + " <= '0';")
        if any(t.after_cycles for t in view.transitions):
            writer.line("timer <= timer + 1;")
        writer.line("case state is")
        writer.indent()
        for state in view.states:
            writer.line(f"when {_state_const(state)} =>")
            writer.indent()
            emitted = False
            for transition in view.transitions:
                if transition.source != state:
                    continue
                emitted = True
                _emit_transition(writer, transition, view)
            if not emitted:
                writer.line("null;")
            writer.dedent()
        writer.dedent()
        writer.line("end case;")
        writer.dedent()
        writer.line("end if;")
        writer.dedent()
        writer.line("end process fsm;")

    writer.dedent()
    writer.line(f"end architecture rtl;")
    return writer.text()


def _emit_transition(writer: CodeWriter, transition, view: MachineView
                     ) -> None:
    conditions: List[str] = []
    if transition.trigger:
        conditions.append(f"ev_{_vhdl_name(transition.trigger).lower()} = '1'")
    if transition.after_cycles:
        conditions.append(f"timer >= {transition.after_cycles}")
    guard_comment: Optional[str] = None
    if transition.guard:
        try:
            conditions.append(
                to_vhdl_expression(transition.guard,
                                   rename=lambda n: _vhdl_name(n)))
        except (Untranslatable, Exception) as error:  # noqa: BLE001
            guard_comment = transition.guard

    condition = " and ".join(conditions) if conditions else "true"
    if guard_comment is not None:
        writer.line(f"-- guard (not synthesizable here): [{guard_comment}]")
    writer.line(f"if {condition} then")
    writer.indent()
    _emit_effect(writer, transition.effect)
    if not transition.is_internal:
        writer.line(f"state <= {_state_const(transition.target)};")
        if any(t.after_cycles for t in view.transitions):
            writer.line("timer <= 0;")
    writer.dedent()
    writer.line("end if;")


def _emit_effect(writer: CodeWriter, effect: Optional[str]) -> None:
    if not effect:
        return
    from .base import collect_sends

    assignments = simple_int_assignments(effect)
    if assignments is None:
        writer.line(f"-- effect (behavioural): "
                    f"{' '.join(effect.split())}")
    else:
        for name, value_expr in assignments:
            try:
                rendered = to_vhdl_expression(
                    asl.unparse_expression(value_expr),
                    rename=lambda n: _vhdl_name(n))
                writer.line(f"{_vhdl_name(name)} <= {rendered};")
            except (Untranslatable, Exception):  # noqa: BLE001
                writer.line(f"-- {name} := "
                            f"{asl.unparse_expression(value_expr)};")
    for signal, _args, port in collect_sends(effect):
        strobe = f"{_vhdl_name(port or 'self')}_{_vhdl_name(signal)}".lower()
        writer.line(f"{strobe} <= '1';")


def generate(scope: Element) -> Dict[str, str]:
    """Generate VHDL for every component under ``scope``: {file name:
    text}."""
    return per_component(
        scope, "VHDL", generate_component,
        lambda component: f"{_vhdl_name(component.name).lower()}.vhd")
