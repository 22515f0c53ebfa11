"""Tests for submachine inlining, testbench generation and the PIC core."""

import re

import pytest

import repro.metamodel as mm
from repro.codegen import check_verilog, check_vhdl, verilog, vhdl
from repro.codegen.base import hardware_components
from repro.codegen.testbench import (
    generate_verilog_testbench,
    generate_vhdl_testbench,
)
from repro.errors import StateMachineError
from repro.profiles.soc import create_soc_profile
from repro.hw import (
    make_arbiter,
    make_dma,
    make_fifo,
    make_interrupt_controller,
    make_memory,
    make_retry_master,
    make_timer,
    make_traffic_generator,
    make_uart_tx,
)
from repro.statemachines import (
    PseudostateKind,
    StateMachine,
    StateMachineRuntime,
    clone_machine,
    connection_point,
    inline_submachine,
)
from tests.test_codegen_golden import build_psm


def build_handshake_library():
    """A reusable handshake behavior with a named exit point."""
    machine = StateMachine("Handshake")
    region = machine.region
    init = region.add_initial()
    wait = region.add_state("WaitReq")
    acking = region.add_state("Acking", entry="acks = acks + 1;")
    region.add_transition(init, wait)
    region.add_transition(wait, acking, trigger="req")
    done = region.add_pseudostate(PseudostateKind.EXIT_POINT, "done")
    region.add_transition(acking, done, trigger="fin")
    return machine


class TestCloneMachine:
    def test_clone_is_independent(self):
        original = build_handshake_library()
        clone = clone_machine(original)
        assert clone is not original
        assert {s.name for s in clone.all_states()} == \
            {s.name for s in original.all_states()}
        original_ids = {v.xmi_id for v in original.all_vertices()}
        clone_ids = {v.xmi_id for v in clone.all_vertices()}
        assert not original_ids & clone_ids

    def test_clone_of_owned_machine(self):
        owner = mm.UmlClass("Owner")
        machine = build_handshake_library()
        owner.add_behavior(machine)
        clone = clone_machine(machine)
        assert machine.owner is owner  # original untouched
        assert clone.owner is None

    def test_clone_executes_independently(self):
        original = build_handshake_library()
        clone = clone_machine(original)
        runtime = StateMachineRuntime(clone, context={"acks": 0}).start()
        runtime.send("req")
        assert runtime.in_state("Acking")
        assert runtime.context["acks"] == 1


class TestInlineSubmachine:
    def _host(self):
        library = build_handshake_library()
        host = StateMachine("Host")
        region = host.region
        init = region.add_initial()
        idle = region.add_state("Idle")
        engaged = region.add_state("Engaged")
        after = region.add_state("After")
        region.add_transition(init, idle)
        region.add_transition(idle, engaged, trigger="start")
        inline_submachine(engaged, library)
        exit_point = connection_point(engaged, "done")
        region.add_transition(exit_point, after)
        return host

    def test_inlined_behavior_runs(self):
        runtime = StateMachineRuntime(self._host(),
                                      context={"acks": 0}).start()
        runtime.send("start")
        assert runtime.active_leaf_names() == ("WaitReq",)
        runtime.send("req")
        assert runtime.context["acks"] == 1
        runtime.send("fin")
        assert runtime.active_leaf_names() == ("After",)

    def test_two_inlines_are_disjoint(self):
        library = build_handshake_library()
        hosts = []
        for index in range(2):
            host = StateMachine(f"H{index}")
            region = host.region
            init = region.add_initial()
            state = region.add_state("S")
            region.add_transition(init, state)
            inline_submachine(state, library)
            hosts.append(host)
        ids = [({v.xmi_id for v in h.all_vertices()}) for h in hosts]
        assert not ids[0] & ids[1]

    def test_multi_region_submachine_rejected(self):
        library = StateMachine("multi")
        library.add_region("a")
        library.add_region("b")
        host_state = StateMachine("h").region.add_state("S")
        with pytest.raises(StateMachineError):
            inline_submachine(host_state, library)

    def test_missing_connection_point(self):
        host = self._host()
        engaged = host.find_state("Engaged")
        with pytest.raises(StateMachineError):
            connection_point(engaged, "ghost")


class TestTestbenches:
    def test_vhdl_testbench_valid_and_complete(self):
        timer = make_timer()
        bench = generate_vhdl_testbench(timer)
        assert check_vhdl(bench) == []
        assert "entity Timer_tb is" in bench
        assert "ev_start" in bench and "ev_stop" in bench
        assert "dut : entity work.Timer" in bench

    def test_verilog_testbench_valid_and_complete(self):
        timer = make_timer()
        bench = generate_verilog_testbench(timer)
        assert check_verilog(bench) == []
        assert "module timer_tb ()" in bench
        assert "$finish" in bench
        assert "timer dut (" in bench

    def test_structural_component_bench(self):
        shell = mm.Component("Shell")
        bench = generate_vhdl_testbench(shell)
        assert check_vhdl(bench) == []

    @pytest.mark.parametrize("factory", [
        make_arbiter, make_dma, make_fifo, make_interrupt_controller,
        make_memory, make_retry_master, make_timer, make_traffic_generator,
        make_uart_tx, build_psm], ids=lambda factory: factory.__name__)
    def test_each_bench_binds_every_port_of_its_design(self, factory):
        # build_psm: the 16 blocks the MDA build benchmark generates
        scope = build_psm() if factory is build_psm \
            else factory(profile=create_soc_profile())
        components = hardware_components(scope)
        assert len(components) == (16 if factory is build_psm else 1)
        for component in components:
            entity = vhdl.generate_component(component)
            header = entity[entity.index(" port ("):
                            entity.index("end entity")]
            ports = re.findall(r"^ +(\w+) :", header, re.M)
            bench = generate_vhdl_testbench(component)
            assert ports and ports == [
                name for name, actual in re.findall(r"^ +(\w+) => (\w+)",
                                                    bench, re.M)
                if name == actual]
            module = verilog.generate_component(component)
            header = module[module.index("\nmodule "):module.index(");")]
            ports = re.findall(r"(\w+),?\n", header)
            bench = generate_verilog_testbench(component)
            assert ports and ports == [
                name for name, actual
                in re.findall(r"\.(\w+)\((\w+)\)", bench)
                if name == actual]

    def test_data_inputs_are_held_at_zero(self):
        bench = generate_vhdl_testbench(make_dma())
        assert "signal ctrl_data : std_logic_vector(31 downto 0) " \
            ":= (others => '0');" in bench
        assert "signal irq_data : std_logic_vector(31 downto 0);" in bench
        bench = generate_verilog_testbench(make_dma())
        assert "wire [31:0] mem_data = 32'd0;" in bench
        assert "wire [31:0] irq_data;" in bench


class TestInterruptController:
    @pytest.fixture
    def runtime(self):
        sink = []
        pic = make_interrupt_controller(lines=4)
        runtime = StateMachineRuntime(pic.classifier_behavior,
                                      context={"dispatched": 0},
                                      signal_sink=sink.append).start()
        runtime.sink = sink  # test convenience
        return runtime

    def test_single_irq_dispatched(self, runtime):
        runtime.send("Irq", line=1)
        assert runtime.sink[-1].signal == "Interrupt"
        assert runtime.sink[-1].arguments == {"line": 1}

    def test_priority_order_lowest_line_first(self, runtime):
        runtime.send("Irq", line=2)
        runtime.send("Irq", line=0)
        runtime.send("Irq", line=3)
        assert runtime.sink[-1].arguments == {"line": 2}  # first wins
        runtime.send("Ack", line=2)
        assert runtime.sink[-1].arguments == {"line": 0}
        runtime.send("Ack", line=0)
        assert runtime.sink[-1].arguments == {"line": 3}

    def test_handshake_blocks_until_ack(self, runtime):
        runtime.send("Irq", line=1)
        runtime.send("Irq", line=2)
        interrupts = [s for s in runtime.sink
                      if s.signal == "Interrupt"]
        assert len(interrupts) == 1

    def test_mask_gates_dispatch(self, runtime):
        runtime.send("Mask", line=1)
        runtime.send("Irq", line=1)
        assert not [s for s in runtime.sink if s.signal == "Interrupt"]
        runtime.send("Unmask", line=1)
        assert runtime.sink[-1].arguments == {"line": 1}

    def test_out_of_range_line_ignored(self, runtime):
        runtime.send("Irq", line=99)
        assert not runtime.sink

    def test_duplicate_irq_collapsed(self, runtime):
        runtime.send("Irq", line=1)
        runtime.send("Irq", line=1)  # already inflight: ignored
        runtime.send("Ack", line=1)
        interrupts = [s for s in runtime.sink
                      if s.signal == "Interrupt"]
        assert len(interrupts) == 1

    def test_in_library(self):
        from repro.hw import ip_library

        library = ip_library()
        assert library.find_member("Pic") is not None
