"""Semantics tests for the run-to-completion state machine runtime."""

import pytest

from repro.engine import TraceBus, TraceRecorder
from repro.errors import StateMachineError
from repro.statemachines import (
    EventOccurrence,
    PseudostateKind,
    StateMachine,
    StateMachineRuntime,
    TransitionKind,
)


def build_toggle():
    machine = StateMachine("toggle")
    region = machine.region
    init = region.add_initial()
    off = region.add_state("Off")
    on = region.add_state("On")
    region.add_transition(init, off)
    region.add_transition(off, on, trigger="power")
    region.add_transition(on, off, trigger="power")
    return machine


class TestBasics:
    def test_start_enters_default(self, toggle_machine):
        runtime = StateMachineRuntime(toggle_machine).start()
        assert runtime.active_leaf_names() == ("Off",)

    def test_dispatch_fires_transition(self, toggle_machine):
        runtime = StateMachineRuntime(toggle_machine).start()
        runtime.send("power")
        assert runtime.in_state("On")
        runtime.send("power")
        assert runtime.in_state("Off")

    def test_unmatched_event_discarded(self, toggle_machine):
        runtime = StateMachineRuntime(toggle_machine).start()
        runtime.send("noise")
        assert runtime.in_state("Off")

    def test_double_start_rejected(self, toggle_machine):
        runtime = StateMachineRuntime(toggle_machine).start()
        with pytest.raises(StateMachineError):
            runtime.start()

    def test_dispatch_before_start_rejected(self, toggle_machine):
        runtime = StateMachineRuntime(toggle_machine)
        with pytest.raises(StateMachineError):
            runtime.send("power")


class TestActionsAndGuards:
    def _machine(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle", entry="entries = entries + 1;",
                                exit="exits = exits + 1;")
        busy = region.add_state("Busy")
        region.add_transition(init, idle)
        region.add_transition(idle, busy, trigger="req",
                              guard="credit > 0",
                              effect="credit = credit - 1;")
        region.add_transition(busy, idle, trigger="ack")
        return machine

    def test_guard_blocks_when_false(self):
        runtime = StateMachineRuntime(
            self._machine(), context={"credit": 0, "entries": 0,
                                      "exits": 0}).start()
        runtime.send("req")
        assert runtime.in_state("Idle")

    def test_effect_and_entry_exit_order(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        runtime = StateMachineRuntime(
            self._machine(), context={"credit": 2, "entries": 0,
                                      "exits": 0})
        runtime.trace_bus = bus
        runtime.trace_part = "m"
        runtime.start()
        runtime.send("req")
        assert runtime.context["credit"] == 1
        assert runtime.context["exits"] == 1
        kinds = [event.kind for event in recorder.events]
        exit_index = kinds.index("state_exit")
        fire_index = kinds.index("transition")
        assert fire_index < exit_index  # fire emitted, then exit runs

    def test_callable_guard_and_effect(self, toggle_machine):
        hits = []
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        a = region.add_state("A")
        b = region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(
            a, b, trigger="go",
            guard=lambda ctx, ev: ctx["enabled"],
            effect=lambda ctx, ev: hits.append(ev.name))
        runtime = StateMachineRuntime(machine,
                                      context={"enabled": True}).start()
        runtime.send("go")
        assert hits == ["go"]

    def test_event_parameters_visible(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        a, b = region.add_state("A"), region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(a, b, trigger="data",
                              guard="event.value > 10",
                              effect="seen = event.value;")
        runtime = StateMachineRuntime(machine).start()
        runtime.send("data", value=3)
        assert runtime.in_state("A")
        runtime.send("data", value=30)
        assert runtime.in_state("B")
        assert runtime.context["seen"] == 30

    def test_internal_transition_runs_no_entry_exit(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S", entry="entries = entries + 1;")
        region.add_transition(init, state)
        region.add_transition(state, state, trigger="tick",
                              effect="count = count + 1;",
                              kind=TransitionKind.INTERNAL)
        runtime = StateMachineRuntime(
            machine, context={"entries": 0, "count": 0}).start()
        runtime.send("tick").send("tick")
        assert runtime.context == {"entries": 1, "count": 2}

    def test_external_self_transition_reenters(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S", entry="entries = entries + 1;")
        region.add_transition(init, state)
        region.add_transition(state, state, trigger="tick")
        runtime = StateMachineRuntime(machine,
                                      context={"entries": 0}).start()
        runtime.send("tick")
        assert runtime.context["entries"] == 2


class TestHierarchy:
    def _composite(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        off = region.add_state("Off")
        on = region.add_state("On")
        region.add_transition(init, off)
        region.add_transition(off, on, trigger="power")
        region.add_transition(on, off, trigger="power")
        inner = on.add_region("inner")
        i2 = inner.add_initial()
        red = inner.add_state("Red")
        green = inner.add_state("Green")
        inner.add_transition(i2, red)
        inner.add_transition(red, green, trigger="tick")
        inner.add_transition(green, red, trigger="tick")
        return machine

    def test_composite_default_entry(self):
        runtime = StateMachineRuntime(self._composite()).start()
        runtime.send("power")
        assert runtime.active_leaf_names() == ("Red",)
        assert runtime.in_state("On")

    def test_exit_composite_exits_children(self):
        runtime = StateMachineRuntime(self._composite()).start()
        runtime.send("power")
        runtime.send("tick")
        runtime.send("power")
        assert runtime.active_leaf_names() == ("Off",)
        assert not runtime.in_state("Green")

    def test_inner_priority_over_outer(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        outer = region.add_state("Outer")
        other = region.add_state("Other")
        region.add_transition(init, outer)
        region.add_transition(outer, other, trigger="e")
        inner_region = outer.add_region()
        i2 = inner_region.add_initial()
        inner = inner_region.add_state("Inner")
        sibling = inner_region.add_state("Sibling")
        inner_region.add_transition(i2, inner)
        inner_region.add_transition(inner, sibling, trigger="e")
        runtime = StateMachineRuntime(machine).start()
        runtime.send("e")
        # the inner transition wins; the outer one is conflicting
        assert runtime.in_state("Sibling")
        assert runtime.in_state("Outer")

    def test_transition_targeting_deep_state(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        start = region.add_state("Start")
        composite = region.add_state("Comp")
        inner_region = composite.add_region()
        i2 = inner_region.add_initial()
        a = inner_region.add_state("A")
        b = inner_region.add_state("B")
        inner_region.add_transition(i2, a)
        region.add_transition(init, start)
        region.add_transition(start, b, trigger="jump")
        runtime = StateMachineRuntime(machine).start()
        runtime.send("jump")
        assert runtime.active_leaf_names() == ("B",)
        assert runtime.in_state("Comp")


class TestHistory:
    def _history_machine(self, deep=False):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        off = region.add_state("Off")
        on = region.add_state("On")
        region.add_transition(init, off)
        inner = on.add_region("inner")
        kind = PseudostateKind.DEEP_HISTORY if deep \
            else PseudostateKind.SHALLOW_HISTORY
        history = inner.add_pseudostate(kind, "hist")
        i2 = inner.add_initial()
        a = inner.add_state("A")
        b = inner.add_state("B")
        inner.add_transition(i2, a)
        inner.add_transition(a, b, trigger="step")
        region.add_transition(off, history, trigger="power")
        region.add_transition(on, off, trigger="power")
        return machine

    def test_shallow_history_restores(self):
        runtime = StateMachineRuntime(self._history_machine()).start()
        runtime.send("power")  # On/A
        runtime.send("step")   # On/B
        runtime.send("power")  # Off
        runtime.send("power")  # history -> B
        assert runtime.active_leaf_names() == ("B",)

    def test_history_defaults_when_no_memory(self):
        runtime = StateMachineRuntime(self._history_machine()).start()
        runtime.send("power")
        assert runtime.active_leaf_names() == ("A",)

    def test_deep_history_restores_nested_leaf(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        off = region.add_state("Off")
        on = region.add_state("On")
        region.add_transition(init, off)
        inner = on.add_region("inner")
        deep = inner.add_pseudostate(PseudostateKind.DEEP_HISTORY, "dh")
        i2 = inner.add_initial()
        mid = inner.add_state("Mid")
        inner.add_transition(i2, mid)
        mid_region = mid.add_region()
        i3 = mid_region.add_initial()
        x = mid_region.add_state("X")
        y = mid_region.add_state("Y")
        mid_region.add_transition(i3, x)
        mid_region.add_transition(x, y, trigger="step")
        region.add_transition(off, deep, trigger="power")
        region.add_transition(on, off, trigger="power")
        runtime = StateMachineRuntime(machine).start()
        runtime.send("power")
        runtime.send("step")
        runtime.send("power")
        runtime.send("power")
        assert runtime.active_leaf_names() == ("Y",)


class TestOrthogonalAndForkJoin:
    def _fork_join(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        start = region.add_state("Start")
        done = region.add_state("Done")
        par = region.add_state("Par")
        fork = region.add_pseudostate(PseudostateKind.FORK, "fork")
        join = region.add_pseudostate(PseudostateKind.JOIN, "join")
        region.add_transition(init, start)
        region.add_transition(start, fork, trigger="go")
        ra, rb = par.add_region("ra"), par.add_region("rb")
        a1, a2 = ra.add_state("A1"), ra.add_state("A2")
        b1, b2 = rb.add_state("B1"), rb.add_state("B2")
        ia, ib = ra.add_initial(), rb.add_initial()
        ra.add_transition(ia, a1)
        rb.add_transition(ib, b1)
        ra.add_transition(a1, a2, trigger="a")
        rb.add_transition(b1, b2, trigger="b")
        region.add_transition(fork, a1)
        region.add_transition(fork, b1)
        region.add_transition(a2, join)
        region.add_transition(b2, join)
        region.add_transition(join, done, trigger="finish")
        return machine

    def test_fork_enters_both_regions(self):
        runtime = StateMachineRuntime(self._fork_join()).start()
        runtime.send("go")
        assert runtime.active_leaf_names() == ("A1", "B1")

    def test_orthogonal_regions_independent(self):
        runtime = StateMachineRuntime(self._fork_join()).start()
        runtime.send("go")
        runtime.send("a")
        assert runtime.active_leaf_names() == ("A2", "B1")

    def test_join_waits_for_all_regions(self):
        runtime = StateMachineRuntime(self._fork_join()).start()
        runtime.send("go")
        runtime.send("a")
        runtime.send("finish")  # join not ready: B still in B1
        assert runtime.in_state("A2")
        runtime.send("b")
        runtime.send("finish")
        assert runtime.active_leaf_names() == ("Done",)

    def test_same_event_fires_in_both_regions(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        par = region.add_state("Par")
        region.add_transition(init, par)
        for label in ("x", "y"):
            sub = par.add_region(label)
            i = sub.add_initial()
            one = sub.add_state(f"{label}1")
            two = sub.add_state(f"{label}2")
            sub.add_transition(i, one)
            sub.add_transition(one, two, trigger="shared")
        runtime = StateMachineRuntime(machine).start()
        runtime.send("shared")
        assert runtime.active_leaf_names() == ("x2", "y2")


class TestChoiceJunctionTerminate:
    def test_choice_selects_dynamic_branch(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle")
        low = region.add_state("Low")
        high = region.add_state("High")
        choice = region.add_pseudostate(PseudostateKind.CHOICE, "c")
        region.add_transition(init, idle)
        region.add_transition(idle, choice, trigger="sample",
                              effect="v = event.value;")
        region.add_transition(choice, high, guard="v > 10")
        region.add_transition(choice, low, guard="else")
        runtime = StateMachineRuntime(machine, context={"v": 0}).start()
        runtime.send("sample", value=42)
        assert runtime.in_state("High")  # effect ran before choice eval

    def test_choice_without_enabled_branch_raises(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle")
        target = region.add_state("T")
        choice = region.add_pseudostate(PseudostateKind.CHOICE, "c")
        region.add_transition(init, idle)
        region.add_transition(idle, choice, trigger="go")
        region.add_transition(choice, target, guard="false")
        runtime = StateMachineRuntime(machine).start()
        with pytest.raises(StateMachineError):
            runtime.send("go")

    def test_terminate_stops_processing(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S")
        terminate = region.add_pseudostate(PseudostateKind.TERMINATE, "X")
        region.add_transition(init, state)
        region.add_transition(state, terminate, trigger="kill")
        runtime = StateMachineRuntime(machine).start()
        runtime.send("kill")
        assert runtime.is_terminated
        runtime.send("kill")  # ignored after termination
        assert runtime.is_terminated


class TestCompletionAndFinal:
    def test_completion_chain_at_start(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        s1 = region.add_state("S1")
        s2 = region.add_state("S2")
        region.add_transition(init, s1)
        region.add_transition(s1, s2)
        runtime = StateMachineRuntime(machine).start()
        assert runtime.active_leaf_names() == ("S2",)

    def test_completion_with_guard(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        s1 = region.add_state("S1")
        s2 = region.add_state("S2")
        region.add_transition(init, s1)
        region.add_transition(s1, s2, guard="ready")
        runtime = StateMachineRuntime(machine,
                                      context={"ready": False}).start()
        assert runtime.active_leaf_names() == ("S1",)

    def test_machine_completion(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        s = region.add_state("S")
        final = region.add_final()
        region.add_transition(init, s)
        region.add_transition(s, final, trigger="end")
        runtime = StateMachineRuntime(machine).start()
        assert not runtime.is_complete
        runtime.send("end")
        assert runtime.is_complete

    def test_composite_completion_fires_completion_transition(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        comp = region.add_state("Comp")
        after = region.add_state("After")
        region.add_transition(init, comp)
        region.add_transition(comp, after)  # completion transition
        inner = comp.add_region()
        i2 = inner.add_initial()
        work = inner.add_state("Work")
        fin = inner.add_final()
        inner.add_transition(i2, work)
        inner.add_transition(work, fin, trigger="done")
        runtime = StateMachineRuntime(machine).start()
        assert runtime.in_state("Comp")
        runtime.send("done")
        assert runtime.active_leaf_names() == ("After",)


class TestTimeAndChangeEvents:
    def test_time_event_fires_at_deadline(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        wait = region.add_state("Wait")
        out = region.add_state("Timeout")
        region.add_transition(init, wait)
        region.add_transition(wait, out, after=10.0)
        runtime = StateMachineRuntime(machine).start()
        runtime.advance_time(9.99)
        assert runtime.in_state("Wait")
        runtime.advance_time(0.01)
        assert runtime.in_state("Timeout")

    def test_timer_cancelled_on_exit(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        wait = region.add_state("Wait")
        out = region.add_state("Timeout")
        safe = region.add_state("Safe")
        region.add_transition(init, wait)
        region.add_transition(wait, out, after=10.0)
        region.add_transition(wait, safe, trigger="escape")
        runtime = StateMachineRuntime(machine).start()
        runtime.send("escape")
        runtime.advance_time(20.0)
        assert runtime.in_state("Safe")

    def test_periodic_self_timer(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        tick = region.add_state("Tick")
        region.add_transition(init, tick)
        region.add_transition(tick, tick, after=5.0,
                              effect="n = n + 1;")
        runtime = StateMachineRuntime(machine, context={"n": 0}).start()
        runtime.advance_time(26.0)
        assert runtime.context["n"] == 5

    def test_negative_time_rejected(self, toggle_machine):
        runtime = StateMachineRuntime(toggle_machine).start()
        with pytest.raises(StateMachineError):
            runtime.advance_time(-1)

    def test_change_event_rising_edge(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle")
        alerted = region.add_state("Alerted")
        region.add_transition(init, idle)
        region.add_transition(idle, alerted, when="level > 100")
        runtime = StateMachineRuntime(machine,
                                      context={"level": 0}).start()
        runtime.send("noise")
        assert runtime.in_state("Idle")
        runtime.context["level"] = 200
        runtime.send("noise")  # any RTC step re-evaluates conditions
        assert runtime.in_state("Alerted")


class TestDeferral:
    def test_deferred_event_recalled(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        busy = region.add_state("Busy")
        idle = region.add_state("Idle")
        got = region.add_state("Got")
        busy.defer("req")
        region.add_transition(init, busy)
        region.add_transition(busy, idle, trigger="done")
        region.add_transition(idle, got, trigger="req")
        runtime = StateMachineRuntime(machine).start()
        runtime.send("req")
        assert runtime.in_state("Busy")
        runtime.send("done")
        assert runtime.in_state("Got")

    def test_deferred_order_preserved(self):
        machine = StateMachine("m")
        region = machine.region
        init = region.add_initial()
        busy = region.add_state("Busy")
        idle = region.add_state("Idle")
        busy.defer("req")
        region.add_transition(init, busy)
        region.add_transition(busy, idle, trigger="done")
        region.add_transition(idle, idle, trigger="req",
                              effect="order = order + [event.seq];",
                              kind=TransitionKind.INTERNAL)
        runtime = StateMachineRuntime(machine,
                                      context={"order": []}).start()
        runtime.dispatch(EventOccurrence.signal("req", seq=1))
        runtime.dispatch(EventOccurrence.signal("req", seq=2))
        runtime.send("done")
        assert runtime.context["order"] == [1, 2]
