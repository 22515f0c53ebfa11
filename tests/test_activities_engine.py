"""Tests for the token-game execution engine."""

import pytest

from repro.activities import Activity, TokenEngine, explore
from repro.errors import ActivityError, AslRuntimeError


def linear_activity():
    activity = Activity("linear")
    init = activity.add_initial()
    first = activity.add_action("first", "x = 1;")
    second = activity.add_action("second", "x = x + 1;")
    final = activity.add_final()
    activity.chain(init, first, second, final)
    return activity


class TestBasicExecution:
    def test_linear_run(self):
        engine = TokenEngine(linear_activity())
        engine.run()
        assert engine.finished
        assert engine.env["x"] == 2
        assert engine.fired_nodes == ["initial", "first", "second", "final"]

    def test_run_is_deterministic(self):
        order_a = TokenEngine(linear_activity())
        order_a.run()
        order_b = TokenEngine(linear_activity())
        order_b.run()
        assert order_a.fired_nodes == order_b.fired_nodes

    def test_quiescence_without_final(self):
        activity = Activity("open")
        init = activity.add_initial()
        action = activity.add_action("only")
        activity.chain(init, action)
        buffer = activity.add_buffer("buf")
        activity.flow(action, buffer)
        engine = TokenEngine(activity)
        engine.run()
        assert not engine.finished
        assert engine.tokens_in(buffer) == 1
        assert engine.is_quiescent

    def test_step_returns_none_when_stuck(self):
        engine = TokenEngine(linear_activity())
        engine.run()
        assert engine.step() is None

    def test_max_steps_guard(self):
        activity = Activity("loop")
        init = activity.add_initial()
        merge = activity.add_merge()
        a = activity.add_action("a")
        b = activity.add_action("b")
        activity.chain(init, merge, a, b)
        activity.flow(b, merge)
        engine = TokenEngine(activity)
        with pytest.raises(ActivityError):
            engine.run(max_steps=50)

    def test_action_implicitly_joins_inputs(self):
        activity = Activity("ij")
        init = activity.add_initial()
        a = activity.add_action("a")
        b = activity.add_action("b")
        activity.chain(init, a, b)
        activity.flow(b, a)  # a now needs tokens on BOTH inputs
        engine = TokenEngine(activity)
        engine.run()
        assert not engine.finished
        assert engine.fired_nodes == ["initial"]  # a never enabled


class TestDataFlow:
    def test_object_tokens_carry_values(self):
        activity = Activity("data")
        init = activity.add_initial()
        produce = activity.add_action("produce", "out = 21;")
        out_pin = produce.add_output_pin("out")
        consume = activity.add_action("consume", "result = val * 2;")
        in_pin = consume.add_input_pin("val")
        final = activity.add_final()
        activity.chain(init, produce)
        activity.flow(produce, consume)
        activity.object_flow(out_pin, in_pin)
        activity.flow(consume, final)
        engine = TokenEngine(activity)
        engine.run()
        assert engine.env["result"] == 42

    def test_default_behavior_passes_through(self):
        activity = Activity("pass")
        init = activity.add_initial()
        produce = activity.add_action("produce", "out = 9;")
        out_pin = produce.add_output_pin("out")
        relay = activity.add_action("relay")  # no behavior
        relay_in = relay.add_input_pin("v")
        relay_out = relay.add_output_pin("w")
        collect = activity.add_action("collect", "got = v2;")
        in2 = collect.add_input_pin("v2")
        final = activity.add_final()
        activity.chain(init, produce)
        activity.object_flow(out_pin, relay_in)
        activity.object_flow(relay_out, in2)
        activity.flow(produce, relay)
        activity.flow(relay, collect)
        activity.flow(collect, final)
        engine = TokenEngine(activity)
        engine.run()
        assert engine.env["got"] == 9

    def test_parameter_nodes(self):
        activity = Activity("params")
        source = activity.add_parameter_node("inputs", is_input=True)
        double = activity.add_action("double", "y = x * 2;")
        in_pin = double.add_input_pin("x")
        out_pin = double.add_output_pin("y")
        sink = activity.add_parameter_node("outputs", is_input=False)
        activity.object_flow(source, in_pin)
        activity.object_flow(out_pin, sink)
        engine = TokenEngine(activity, inputs={"inputs": [3, 5]})
        engine.run()
        assert engine.outputs["outputs"] == [6, 10]


class TestControlNodes:
    def _branching(self, guard_env):
        activity = Activity("branch")
        init = activity.add_initial()
        decision = activity.add_decision()
        hot = activity.add_action("hot")
        cold = activity.add_action("cold")
        merge = activity.add_merge()
        final = activity.add_final()
        activity.chain(init, decision)
        activity.flow(decision, hot, guard="temp > 50")
        activity.flow(decision, cold, guard="else")
        activity.flow(hot, merge)
        activity.flow(cold, merge)
        activity.flow(merge, final)
        engine = TokenEngine(activity, env=guard_env)
        engine.run()
        return engine

    def test_decision_routes_by_guard(self):
        assert "hot" in self._branching({"temp": 80}).fired_nodes
        assert "cold" in self._branching({"temp": 20}).fired_nodes

    def test_decision_callable_guard(self):
        activity = Activity("cg")
        init = activity.add_initial()
        decision = activity.add_decision()
        yes = activity.add_action("yes")
        no = activity.add_action("no")
        final = activity.add_final()
        activity.chain(init, decision)
        activity.flow(decision, yes, guard=lambda env, token: env["f"])
        activity.flow(decision, no, guard="else")
        activity.flow(yes, final)
        activity.flow(no, final)
        engine = TokenEngine(activity, env={"f": True})
        engine.run()
        assert "yes" in engine.fired_nodes

    @pytest.mark.parametrize("guard, behavior", [
        ("pop(l) > 0", "x = 1;"),
        ("true", "x = pop(l);"),
    ], ids=["guard", "action"])
    def test_a_python_error_in_asl_is_an_asl_runtime_error(
            self, guard, behavior):
        activity = Activity("pops")
        decision = activity.add_decision()
        work = activity.add_action("work", behavior)
        final = activity.add_final()
        activity.chain(activity.add_initial(), decision)
        activity.flow(decision, work, guard=guard)
        activity.flow(decision, final, guard="else")
        activity.flow(work, final)
        failing = guard if "pop" in guard else behavior
        with pytest.raises(AslRuntimeError) as raised:
            TokenEngine(activity, env={"l": []}).run()
        assert str(raised.value) == \
            f"action failed: pop from empty list (in {failing!r})"
        assert isinstance(raised.value.__cause__, IndexError)

    def test_fork_join_synchronize(self):
        activity = Activity("fj")
        init = activity.add_initial()
        fork = activity.add_fork()
        left = activity.add_action("left", "l = 1;")
        right = activity.add_action("right", "r = 2;")
        join = activity.add_join()
        final = activity.add_final()
        activity.chain(init, fork)
        activity.flow(fork, left)
        activity.flow(fork, right)
        activity.flow(left, join)
        activity.flow(right, join)
        activity.flow(join, final)
        engine = TokenEngine(activity)
        engine.run()
        assert engine.finished
        assert engine.env == {"l": 1, "r": 2}
        assert engine.fired_nodes.index("join") > \
            engine.fired_nodes.index("left")
        assert engine.fired_nodes.index("join") > \
            engine.fired_nodes.index("right")

    def test_flow_final_sinks_one_branch(self):
        activity = Activity("ff")
        init = activity.add_initial()
        fork = activity.add_fork()
        work = activity.add_action("work")
        extra = activity.add_action("extra")
        flow_final = activity.add_flow_final()
        final = activity.add_final()
        activity.chain(init, fork)
        activity.flow(fork, work)
        activity.flow(fork, extra)
        activity.flow(extra, flow_final)
        activity.flow(work, final)
        engine = TokenEngine(activity)
        engine.run()
        assert engine.finished

    def test_activity_final_clears_all_tokens(self):
        activity = Activity("af")
        init = activity.add_initial()
        fork = activity.add_fork()
        fast = activity.add_action("fast")
        slow_a = activity.add_action("slow_a")
        slow_b = activity.add_action("slow_b")
        final = activity.add_final()
        activity.chain(init, fork)
        activity.flow(fork, fast)
        activity.flow(fork, slow_a)
        activity.flow(slow_a, slow_b)
        activity.flow(fast, final)
        activity.flow(slow_b, final)
        engine = TokenEngine(activity)
        # deterministic scheduler fires in insertion order; run to end
        engine.run()
        assert engine.finished
        assert engine.marking_counts() == ()

    def test_buffer_capacity_respected(self):
        activity = Activity("cap")
        init = activity.add_initial()
        feed = activity.add_action("feed")
        buffer = activity.add_buffer("buf", upper_bound=1)
        activity.chain(init, feed)
        activity.flow(feed, buffer)
        engine = TokenEngine(activity)
        engine.run()
        assert engine.tokens_in(buffer) == 1


class TestEvents:
    def test_accept_event_blocks_until_delivery(self):
        activity = Activity("ev")
        init = activity.add_initial()
        accept = activity.add_accept_event("irq")
        handle = activity.add_action("handle", "count = count + 1;")
        final = activity.add_final()
        activity.chain(init, accept, handle, final)
        engine = TokenEngine(activity, env={"count": 0})
        engine.run()
        assert not engine.finished
        engine.deliver("irq")
        engine.run()
        assert engine.finished
        assert engine.env["count"] == 1

    def test_send_signal_action_routes_to_sink(self):
        received = []
        activity = Activity("send")
        init = activity.add_initial()
        send = activity.add_send_signal("notify", signal="Done")
        final = activity.add_final()
        activity.chain(init, send, final)
        engine = TokenEngine(activity, signal_sink=received.append)
        engine.run()
        assert received[0].signal == "Done"


class TestExplore:
    def test_explore_contains_run_trace(self):
        activity = linear_activity()
        reachable = explore(activity)
        engine = TokenEngine(activity)
        seen = {engine.marking_counts()}
        while engine.step() is not None:
            seen.add(engine.marking_counts())
        assert seen <= reachable

    def test_explore_bounded(self):
        activity = Activity("gen")
        init = activity.add_initial()
        a = activity.add_action("a")
        b = activity.add_action("b")
        activity.chain(init, a, b)
        activity.flow(b, a)  # infinite loop but finite markings
        reachable = explore(activity, max_markings=100)
        assert len(reachable) <= 100
