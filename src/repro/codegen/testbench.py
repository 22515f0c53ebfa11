"""HDL testbench generation.

A generated module is only useful with a way to drive it: this module
emits self-contained VHDL and Verilog testbench skeletons for any
component the HDL backends handle — clock/reset generation, one signal
bound to every port the design declares (the port list of
:func:`~repro.codegen.base.rtl_ports`, data inputs held at zero), one
strobe pulse per declared trigger, and a bounded simulation window.
The stimulus order replays the component state machine's trigger
alphabet, so the generated bench exercises every input at least once.
"""

from __future__ import annotations

from ..metamodel.classifiers import UmlClass
from .base import CodeWriter, component_view, rtl_ports, sanitize

#: Bench signal of each kind of design port.
_VHDL_SIGNAL = {
    "control": "signal {} : std_logic := '0';",
    "in": "signal {} : std_logic_vector(31 downto 0) := (others => '0');",
    "out": "signal {} : std_logic_vector(31 downto 0);",
    "inout": "signal {} : std_logic_vector(31 downto 0) := (others => '0');",
    "trigger": "signal {} : std_logic := '0';",
    "field": "signal {} : integer := 0;",
    "strobe": "signal {} : std_logic;",
}

#: Bench net of each kind of design port.
_VERILOG_NET = {
    "control": "reg {} = 1'b0;",
    "in": "wire [31:0] {} = 32'd0;",
    "out": "wire [31:0] {};",
    "inout": "wire [31:0] {} = 32'd0;",
    "trigger": "reg {} = 1'b0;",
    "field": "reg signed [31:0] {} = 32'd0;",
    "strobe": "wire {};",
}


def generate_vhdl_testbench(component: UmlClass,
                            cycles_per_event: int = 4,
                            clock_period_ns: int = 10) -> str:
    """A VHDL testbench instantiating the generated entity."""
    entity = sanitize(component.name or "top", "vhdl")
    ports = rtl_ports(component, component_view(component), "vhdl")

    writer = CodeWriter(indent_unit="  ")
    writer.lines(
        f"-- generated testbench for {entity}",
        "library ieee;",
        "use ieee.std_logic_1164.all;",
        "",
        f"entity {entity}_tb is",
        f"end entity {entity}_tb;",
        "",
        f"architecture sim of {entity}_tb is",
    )
    writer.indent()
    for name, kind in ports.items():
        writer.line(_VHDL_SIGNAL[kind].format(name))
    writer.line("signal done : boolean := false;")
    writer.dedent()
    writer.line("begin")
    writer.indent()
    writer.line(f"clk <= not clk after {clock_period_ns / 2:.0f} ns "
                "when not done else '0';")
    writer.line("")
    writer.line(f"dut : entity work.{entity}")
    writer.indent()
    writer.line("port map (")
    writer.indent()
    writer.block(",\n".join(f"{name} => {name}" for name in ports))
    writer.dedent()
    writer.line(");")
    writer.dedent()
    writer.line("")
    writer.line("stimulus : process")
    writer.line("begin")
    writer.indent()
    writer.line(f"wait for {2 * clock_period_ns} ns;")
    writer.line("rst_n <= '1';")
    for name, kind in ports.items():
        if kind != "trigger":
            continue
        writer.line(f"wait for {cycles_per_event * clock_period_ns} ns;")
        writer.line(f"{name} <= '1';")
        writer.line(f"wait for {clock_period_ns} ns;")
        writer.line(f"{name} <= '0';")
    writer.line(f"wait for {4 * cycles_per_event * clock_period_ns} ns;")
    writer.line("done <= true;")
    writer.line("wait;")
    writer.dedent()
    writer.line("end process stimulus;")
    writer.dedent()
    writer.line("end architecture sim;")
    return writer.text()


def generate_verilog_testbench(component: UmlClass,
                               cycles_per_event: int = 4,
                               clock_period: int = 10) -> str:
    """A Verilog testbench instantiating the generated module."""
    module = sanitize(component.name or "top", "verilog").lower()
    ports = rtl_ports(component, component_view(component), "verilog")

    writer = CodeWriter()
    writer.lines(
        f"// generated testbench for {module}",
        "`timescale 1ns/1ps",
        f"module {module}_tb ();",
    )
    writer.indent()
    for name, kind in ports.items():
        writer.line(_VERILOG_NET[kind].format(name))
    writer.line("")
    writer.line(f"always #{clock_period // 2} clk = ~clk;")
    writer.line("")
    connections = ", ".join(f".{name}({name})" for name in ports)
    writer.line(f"{module} dut ({connections});")
    writer.line("")
    writer.line("initial begin")
    writer.indent()
    writer.line(f"#{2 * clock_period} rst_n = 1'b1;")
    for name, kind in ports.items():
        if kind != "trigger":
            continue
        writer.line(f"#{cycles_per_event * clock_period} {name} = 1'b1;")
        writer.line(f"#{clock_period} {name} = 1'b0;")
    writer.line(f"#{4 * cycles_per_event * clock_period} $finish;")
    writer.dedent()
    writer.line("end")
    writer.dedent()
    writer.line("endmodule")
    return writer.text()
