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

from functools import partial
from typing import Dict, List

from ..asl.transpile import to_vhdl_expression
from ..metamodel.classifiers import UmlClass
from ..metamodel.element import Element
from ..profiles.core import applications_of
from .base import (CodeWriter, RtlSyntax, component_view, emit_rows,
                   per_component, rtl_ports, sanitize, state_constant)


def _vhdl_name(name: str) -> str:
    return sanitize(name, "vhdl")


#: Declaration of each kind of port :func:`rtl_ports` lists.
_PORT = {
    "control": "{} : in std_logic",
    "in": "{} : in std_logic_vector(31 downto 0)",
    "out": "{} : out std_logic_vector(31 downto 0)",
    "inout": "{} : inout std_logic_vector(31 downto 0)",
    "trigger": "{} : in std_logic",
    "field": "{} : in integer",
    "strobe": "{} : out std_logic",
}

_SYNTAX = RtlSyntax(
    language="vhdl",
    translate=partial(to_vhdl_expression, rename=_vhdl_name),
    row_open="if {} then", row_close="end if;", conjunction=" and ",
    always="true", strobe_test="{} = '1'", timer_test="timer >= {}",
    untranslated_guard="-- guard (not synthesizable here): [{}]",
    behavioural="-- effect (behavioural): {}", assign="{} <= {};",
    untranslated_assign="-- {} := {};", pulse="{} <= '1';",
    timer_reset="timer <= 0;")


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
    view = component_view(component)
    entity = _vhdl_name(component.name or "top")
    ports = rtl_ports(component, view, "vhdl")
    strobes = [name for name, kind in ports.items() if kind == "strobe"]

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
    writer.line(f"entity {entity} is")
    writer.indent().line("port (")
    writer.indent()
    writer.block(";\n".join(_PORT[kind].format(name)
                             for name, kind in ports.items()))
    writer.dedent().line(");").dedent()
    writer.line(f"end entity {entity};")
    writer.line("")

    # ---- architecture ------------------------------------------------------
    writer.line(f"architecture rtl of {entity} is")
    writer.indent()
    if view is not None and view.states:
        initial = state_constant(view.initial, "vhdl")
        constants = ", ".join(state_constant(s, "vhdl") for s in view.states)
        writer.line(f"type state_t is ({constants});")
        writer.line(f"signal state : state_t := {initial};")
        if view.has_timer:
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
        writer.line(f"state <= {initial};")
        if view.has_timer:
            writer.line("timer <= 0;")
        for register, reset in view.registers:
            writer.line(f"{_vhdl_name(register)} <= {reset};")
        for strobe in strobes:
            writer.line(f"{strobe} <= '0';")
        writer.dedent()
        writer.line("elsif rising_edge(clk) then")
        writer.indent()
        for strobe in strobes:
            writer.line(f"{strobe} <= '0';")
        if view.has_timer:
            writer.line("timer <= timer + 1;")
        writer.line("case state is")
        writer.indent()
        for state in view.states:
            writer.line(f"when {state_constant(state, 'vhdl')} =>")
            writer.indent()
            if not emit_rows(writer, view, state, _SYNTAX):
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


def generate(scope: Element) -> Dict[str, str]:
    """Generate VHDL for every component under ``scope``: {file name:
    text}."""
    return per_component(
        scope, "VHDL", generate_component,
        lambda component: f"{_vhdl_name(component.name).lower()}.vhd")
