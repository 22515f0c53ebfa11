"""Lockstep equivalence: compiled dispatch tables vs the interpreter.

The compiled fast path (``repro.statemachines.compiled.compile_machine``
+ ``CompiledRuntime``, and ``SystemSimulation(engine="compiled")``)
promises *bit-identical* behaviour to ``StateMachineRuntime``: same
states, same contexts (including ASL temporary leakage), same emitted
signals in the same order, same simulated clocks.  These tests drive
both engines in lockstep over crafted semantic corner cases,
randomized machines and whole randomized or replicated SoC
assemblies.
"""

import gc
import random
import tracemalloc
import uuid
import warnings
import weakref

import pytest

from repro import asl, xmi
from repro.cli import main
from repro.engine import ENGINE_MODES, TraceBus, TraceRecorder
from repro.errors import AslRuntimeError, StateMachineError
from repro.faults import FaultCampaign, FaultSpec
from repro.hw import (
    AddressMap,
    Region,
    make_arbiter,
    make_bus,
    make_dma,
    make_fifo,
    make_interrupt_controller,
    make_memory,
    make_retry_master,
    make_soc,
    make_timer,
    make_traffic_generator,
    make_uart_tx,
)
from repro.metamodel import Model
from repro.metamodel.components import Component, PortDirection
from repro.perf import PERF
from repro.simulation import SystemSimulation
from repro.statemachines import (
    CompiledRuntime,
    StateMachine,
    StateMachineRuntime,
    TransitionKind,
    compile_fallback_reason,
    compile_machine,
    compile_machine_cached,
)
from repro.store import ArtifactStore, using_store


def lockstep(machine, script, context=None):
    """Run both engines over the same script; assert equality throughout.

    ``script`` is a list of ("send", name, kwargs) / ("advance", dt)
    steps.  Returns the (identical) signal logs.
    """
    logs = ([], [])
    runtimes = []
    for log in logs:
        sink = (lambda entries: lambda s: entries.append(
            (s.signal, s.target, tuple(sorted(s.arguments.items())))))(log)
        runtimes.append((StateMachineRuntime if len(runtimes) == 0
                         else None, sink))
    interp = StateMachineRuntime(machine, context=dict(context or {}),
                                 signal_sink=runtimes[0][1]).start()
    compiled = CompiledRuntime(compile_machine(machine),
                               context=dict(context or {}),
                               signal_sink=runtimes[1][1])
    compiled.start()
    for step in script:
        if step[0] == "send":
            _, name, kwargs = step
            interp.send(name, **kwargs)
            compiled.send(name, **kwargs)
        else:
            _, delta = step
            interp.advance_time(delta)
            compiled.advance_time(delta)
        assert interp.active_leaf_names() == compiled.active_leaf_names()
        assert interp.context == compiled.context
        assert interp.time == compiled.time
        assert logs[0] == logs[1]
    return logs[0]


class TestRtcSemantics:
    """Crafted machines hitting run-to-completion corner cases."""

    def test_guards_evaluated_upfront(self):
        """The first effect must not disable an already-enabled guard."""
        machine = StateMachine("Upfront")
        region = machine.region
        init = region.add_initial()
        s = region.add_state("S")
        region.add_transition(init, s)
        region.add_transition(s, s, trigger="Go", guard="x == 0",
                              effect="x = 1;", kind=TransitionKind.INTERNAL)
        region.add_transition(s, s, trigger="Go", guard="x == 0",
                              effect="y = 5;", kind=TransitionKind.INTERNAL)
        lockstep(machine, [("send", "Go", {})], context={"x": 0})

    def test_external_fire_stops_later_candidates(self):
        machine = StateMachine("Stops")
        region = machine.region
        init = region.add_initial()
        s = region.add_state("S")
        region.add_transition(init, s)
        region.add_transition(s, s, trigger="Go", effect="a = 1;")
        region.add_transition(s, s, trigger="Go", effect="b = 1;",
                              kind=TransitionKind.INTERNAL)
        log = lockstep(machine, [("send", "Go", {})])
        assert log == []

    def test_timer_ordering_and_reset_on_exit(self):
        machine = StateMachine("Timers")
        region = machine.region
        init = region.add_initial()
        a = region.add_state("A")
        b = region.add_state("B")
        region.add_transition(init, a)
        region.add_transition(a, b, after=3.0, effect="path = 1;")
        region.add_transition(a, a, after=5.0, effect="path = 2;")
        region.add_transition(b, a, after=2.0, effect="cycles = cycles + 1;")
        lockstep(machine, [("advance", 1.0)] * 20, context={"cycles": 0})

    def test_event_parameters_and_temporary_leakage(self):
        """ASL temporaries leak into the context in both engines."""
        machine = StateMachine("Leak")
        region = machine.region
        init = region.add_initial()
        s = region.add_state("S")
        region.add_transition(init, s)
        region.add_transition(
            s, s, trigger="Acc", guard="event.v > 0",
            effect="tmp = event.v * 2; total = total + tmp;",
            kind=TransitionKind.INTERNAL)
        log_context = {"total": 0}
        machine2 = machine
        lockstep(machine2,
                 [("send", "Acc", {"v": 3}), ("send", "Acc", {"v": 0}),
                  ("send", "Acc", {"v": 7})],
                 context=log_context)

    def test_entry_exit_actions_and_sends(self):
        machine = StateMachine("EntryExit")
        region = machine.region
        init = region.add_initial()
        idle = region.add_state("Idle", entry="n = n + 1;",
                                exit='send Bye(n=n) to "p";')
        busy = region.add_state("Busy", entry='send Hi(n=n) to "p";')
        region.add_transition(init, idle)
        region.add_transition(idle, busy, trigger="Go")
        region.add_transition(busy, idle, trigger="Stop")
        log = lockstep(machine,
                       [("send", "Go", {}), ("send", "Stop", {}),
                        ("send", "Go", {})],
                       context={"n": 0})
        assert [entry[0] for entry in log] == ["Bye", "Hi", "Bye", "Hi"]


class TestRandomizedMachines:
    """Random flat machines in the compilable subset, driven in lockstep."""

    SIGNALS = ("A", "B", "C")
    GUARDS = (None, "x < 5", "x >= 2", "event.v > 0", "x == y")
    EFFECTS = (None, "x = x + 1;", "y = y + x;",
               'send Out(v=x) to "p";', "x = x - 1; y = event.v;")
    # time-triggered firings carry no parameters: no ``event.`` access
    TIME_EFFECTS = (None, "x = x + 1;", "y = y + x;",
                    'send Out(v=x) to "p";')

    def build(self, seed):
        rng = random.Random(seed)
        machine = StateMachine(f"Rnd{seed}")
        region = machine.region
        init = region.add_initial()
        states = [region.add_state(f"S{i}") for i in range(4)]
        region.add_transition(init, states[0])
        for state in states:
            for signal in self.SIGNALS:
                if rng.random() < 0.4:
                    continue
                kind = (TransitionKind.INTERNAL if rng.random() < 0.3
                        else TransitionKind.EXTERNAL)
                region.add_transition(
                    state,
                    state if kind is TransitionKind.INTERNAL
                    else rng.choice(states),
                    trigger=signal,
                    guard=rng.choice(self.GUARDS),
                    effect=rng.choice(self.EFFECTS),
                    kind=kind)
            if rng.random() < 0.5:
                region.add_transition(state, rng.choice(states),
                                      after=float(rng.randint(1, 4)),
                                      effect=rng.choice(self.TIME_EFFECTS))
        return machine

    @pytest.mark.parametrize("seed", range(12))
    def test_random_walk_equivalence(self, seed):
        machine = self.build(seed)
        rng = random.Random(1000 + seed)
        script = []
        for _ in range(60):
            if rng.random() < 0.6:
                script.append(("send", rng.choice(self.SIGNALS),
                               {"v": rng.randint(-2, 5)}))
            else:
                script.append(("advance", rng.choice((0.5, 1.0, 2.0))))
        lockstep(machine, script, context={"x": 0, "y": 0})


def make_one_region_bus():
    return make_bus("Bus", AddressMap([Region(0, 0x100, "s0")]))


class TestFallbackDetection:
    def test_deferral_is_not_compilable(self):
        uart = make_uart_tx("U")
        reason = compile_fallback_reason(uart.classifier_behavior)
        assert reason is not None and "defer" in reason
        with pytest.raises(StateMachineError):
            compile_machine(uart.classifier_behavior)

    def test_composite_state_is_not_compilable(self):
        machine = StateMachine("Deep")
        region = machine.region
        init = region.add_initial()
        outer = region.add_state("Outer")
        region.add_transition(init, outer)
        inner_region = outer.add_region("r")
        inner_init = inner_region.add_initial()
        inner = inner_region.add_state("Inner")
        inner_region.add_transition(inner_init, inner)
        assert compile_fallback_reason(machine) is not None

    @pytest.mark.parametrize("factory", [
        make_arbiter, make_dma, make_fifo, make_interrupt_controller,
        make_memory, make_retry_master, make_timer,
        make_traffic_generator, make_one_region_bus,
    ], ids=lambda factory: factory.__name__)
    def test_stock_ip_machines_compile(self, factory):
        assert compile_fallback_reason(
            factory().classifier_behavior) is None

    def test_operation_call_keeps_the_whole_machine_off_the_compiler(self):
        machine = StateMachine("Caller")
        region = machine.region
        init = region.add_initial()
        s = region.add_state("S")
        region.add_transition(init, s)
        region.add_transition(s, s, trigger="Go", effect="n = bump(n);")
        reason = compile_fallback_reason(machine)
        assert reason is not None and "'bump'" in reason
        with pytest.raises(StateMachineError):
            compile_machine(machine)

    def test_variable_named_self_is_no_operation_call(self):
        machine = StateMachine("SelfVariable")
        region = machine.region
        init = region.add_initial()
        s = region.add_state("S")
        region.add_transition(init, s)
        region.add_transition(s, s, trigger="Go", guard="self.n >= 0",
                              effect="self = {\"n\": self.n + 1};")
        assert compile_fallback_reason(machine) is None
        lockstep(machine, [("send", "Go", {})] * 3,
                 context={"self": {"n": 0}})


def bump(value):
    """A context callable: the interpreter calls it, the compiler cannot."""
    return value + 3


def caller_top():
    """A part whose effect calls the context callable ``bump`` and sends
    the result to a sink whose machine compiles."""
    top = Component("Calls")
    caller = Component("Caller")
    caller.add_port("out", direction=PortDirection.OUT)
    machine = StateMachine("CallerBehavior")
    region = machine.region
    init = region.add_initial()
    loop = region.add_state("Loop")
    region.add_transition(init, loop)
    region.add_transition(loop, loop, after=5.0,
                          effect='n = bump(n); send Value(v=n) to "out";')
    caller.add_behavior(machine, as_classifier_behavior=True)
    caller.add_attribute("n", default=0)
    sink = Component("Sink")
    sink.add_port("in", direction=PortDirection.IN)
    machine = StateMachine("SinkBehavior")
    region = machine.region
    init = region.add_initial()
    idle = region.add_state("Idle")
    region.add_transition(init, idle)
    region.add_transition(idle, idle, trigger="Value",
                          effect="total = total + event.v;",
                          kind=TransitionKind.INTERNAL)
    sink.add_behavior(machine, as_classifier_behavior=True)
    sink.add_attribute("total", default=0)
    caller_part = top.add_part("caller", caller)
    sink_part = top.add_part("sink", sink)
    top.connect(caller.port("out"), sink.port("in"), caller_part, sink_part,
                check=False)
    return top


def one_part_top(effect, **transition):
    """A top whose one part ``p`` fires ``effect`` on a self-transition
    (``after=2.0`` unless ``transition`` says otherwise)."""
    top = Component("One")
    owner = Component("Owner")
    machine = StateMachine("OwnerBehavior")
    region = machine.region
    loop = region.add_state("Loop")
    region.add_transition(region.add_initial(), loop)
    region.add_transition(loop, loop, effect=effect,
                          **(transition or {"after": 2.0}))
    owner.add_behavior(machine, as_classifier_behavior=True)
    top.add_part("p", owner)
    return top


class TestAllOrNothing:
    """A part runs compiled in full or on the interpreter in full."""

    def test_a_dict_method_call_runs_the_part_on_the_interpreter(self):
        # _asl_attr reads the dict's item "get"; the interpreter calls
        # the dict's method, so the compiler refuses the whole part
        effect = 'x = d.get("k"); n = len(d.keys()) + n;'
        interpreted, compiled = run_pair(
            lambda: one_part_top(effect), until=10.0,
            contexts={"p": {"d": {"k": 1}, "n": 0}})
        assert compiled.compile_report["p"] == \
            "interpreter: effect calls method 'get'"
        assert compiled.context_of("p") == interpreted.context_of("p")
        assert compiled.context_of("p")["x"] == 1
        assert compiled.context_of("p")["n"] == 5

    def test_a_failing_action_fails_alike_on_both_engines(self):
        # pop of an empty list: one AslRuntimeError on both engines
        def top():
            return one_part_top("x = pop(l);")

        errors = []
        for engine in ENGINE_MODES:
            with SystemSimulation(top(), engine=engine,
                                  context={"p": {"l": [1]}}) as simulation:
                with pytest.raises(AslRuntimeError) as error:
                    simulation.run(until=10.0)
                errors.append(str(error.value))
        assert errors[0] == errors[1] == \
            "action failed: pop from empty list (in 'x = pop(l);')"
        rows = []
        for engine in ENGINE_MODES:
            with SystemSimulation(top(), engine=engine,
                                  on_part_error="quarantine",
                                  context={"p": {"l": [1]}}) as simulation:
                simulation.run(until=10.0)
                rows.append(simulation.resilience.part_failures)
        assert rows[0] == rows[1] == [{
            "t": 4.0, "part": "p", "action": "quarantine",
            "error": f"AslRuntimeError: {errors[0]}"}]

    def test_a_runaway_loop_raises_on_both_engines(self):
        # compiled code has no step bound: a while loop would hang it
        errors = []
        for engine in ENGINE_MODES:
            with SystemSimulation(
                    one_part_top("while (c) { y = y + 1; }"),
                    engine=engine,
                    context={"p": {"c": True, "y": 0}}) as simulation:
                if engine == "compiled":
                    assert simulation.compile_report["p"] == \
                        "interpreter: effect has a while loop"
                with pytest.raises(AslRuntimeError) as error:
                    simulation.run(until=3.0)
                errors.append(str(error.value))
        assert errors[0] == errors[1] == \
            "execution exceeded 1000000 steps (runaway loop?)"

    @pytest.mark.parametrize("effect, context, x", [
        # the compiled engine's own names, the send callback and the ASL
        # prelude's helpers, as variables and as context keys
        ("_send = 1; send X(v=1);", {}, None),
        ("_asl_div = 0; x = 7 / 2;", {}, 3),
        ("for _asl_pop in l { x = _asl_pop; }", {"l": [1, 2]}, 2),
        ("send X(v=1); x = 1;", {"_send": 1}, 1),
        ("x = 7 / 2;", {"_asl_div": 0}, 3),
        # data under a builtin's name: a call of the builtin calls it on
        # both engines
        ("x = len(l);", {"len": 5, "l": [1, 2]}, 2),
        ("x = range(2);", {"list": 1}, [0, 1]),
    ], ids=["assigned-send", "assigned-asl-helper", "asl-helper-loop",
            "context-send", "context-asl-helper", "context-len",
            "context-list"])
    def test_reserved_names_compile(self, effect, context, x):
        # every compiled variable is an item of the scope dict: it
        # shadows neither the send callback, nor a helper, nor a builtin
        interpreted, compiled = run_pair(
            lambda: one_part_top(effect), until=3.0,
            contexts={"p": context})
        assert compiled.compile_report["p"] == "compiled"
        assert compiled.context_of("p") == interpreted.context_of("p")
        assert compiled.message_log == interpreted.message_log
        # the effect ran: it bound a variable of its own
        assert compiled.context_of("p").keys() - context.keys()
        if x is not None:
            assert compiled.context_of("p")["x"] == x

    def test_a_builtin_named_callable_runs_the_part_on_the_interpreter(self):
        # the interpreter calls a context callable in place of the
        # builtin of its name; compiled code would call the builtin
        context = {"len": lambda value: 99, "l": [1, 2]}
        interpreted, compiled = run_pair(
            lambda: one_part_top("x = len(l);"), until=3.0,
            contexts={"p": context})
        assert compiled.compile_report["p"] == \
            "interpreter: context callable 'len' shadows a builtin"
        assert compiled.context_of("p") == interpreted.context_of("p")
        assert compiled.context_of("p")["x"] == 99

    @pytest.mark.parametrize("effect, label", [
        ("d.get(1); while (x) { }", "effect calls method 'get'"),
        ("while (x) { d.get(1); }", "effect has a while loop"),
        # one pass: what the emitter cannot render comes second here
        ("d.get(1); return;", "effect calls method 'get'"),
    ], ids=["method-first", "while-first", "method-before-return"])
    def test_a_refusal_names_the_first_fault_in_source_order(self, effect,
                                                             label):
        assert compile_fallback_reason(
            one_state_machine("Faults", effect=effect)) == label

    @pytest.mark.parametrize("key, effect, context", [
        ("_send", "send X(v=1); x = 1;", {}),
        ("len", "x = len(l);", {"l": [1, 2]}),
    ], ids=["adds-send", "adds-len"])
    def test_a_callable_action_runs_the_part_on_the_interpreter(
            self, key, effect, context):
        # the callable action keeps the whole part on the interpreter,
        # so the ASL effect after it meets the engine's or builtin's
        # name the callable bound exactly as the reference does
        def top():
            top = Component("One")
            owner = Component("Owner")
            machine = StateMachine("OwnerBehavior")
            region = machine.region
            a, b = region.add_state("A"), region.add_state("B")
            region.add_transition(region.add_initial(), a)
            region.add_transition(
                a, b, after=1.0,
                effect=lambda ctx, event: ctx.__setitem__(key, 1))
            region.add_transition(b, b, after=1.0, effect=effect,
                                  kind=TransitionKind.INTERNAL)
            owner.add_behavior(machine, as_classifier_behavior=True)
            top.add_part("p", owner)
            return top

        interpreted, compiled = run_pair(top, until=3.0,
                                         contexts={"p": context})
        assert compiled.compile_report["p"] == \
            "interpreter: effect has type function"
        assert compiled.context_of("p") == interpreted.context_of("p")
        assert compiled.message_log == interpreted.message_log
        assert compiled.context_of("p")[key] == 1
        assert "x" in compiled.context_of("p")

    def test_an_action_that_merely_sends_compiles(self):
        interpreted, compiled = run_pair(
            lambda: one_part_top("send X(v=1); my_send = 2;"), until=3.0)
        assert compiled.compile_report["p"] == "compiled"
        assert compiled.context_of("p") == interpreted.context_of("p")

    def test_a_literal_index_compiles_silently_and_fails_alike(self):
        # Python warns at compile time that an int is not subscriptable;
        # the text is new, so the memo cannot skip the compile
        effect = f"x = 3[a]; /* {fresh('literal')} */"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert compile_fallback_reason(
                one_state_machine("Indexed", effect=effect)) is None
        assert [str(warning.message) for warning in caught] == []
        for runtime in (
                StateMachineRuntime(one_state_machine("I", effect=effect),
                                    context={"a": 0}),
                CompiledRuntime(compile_machine(one_state_machine(
                    "C", effect=effect)), context={"a": 0})):
            runtime.start()
            with pytest.raises(AslRuntimeError):
                runtime.send("Go")

    @pytest.mark.parametrize("effect, context, label", [
        # a for loop whose list grows may never end
        ("for v in l { append(l, v); if (len(l) > 5) { break; } }",
         {"l": [1]}, "effect appends in a for loop"),
        # builtins read, assigned or looped over as variables
        ("len = 3; x = len(l);", {"l": [1, 2]},
         "effect uses builtin name 'len' as a variable"),
        ("x = pop;", {"l": [1]},
         "effect uses builtin name 'pop' as a variable"),
        ("for sum in l { x = sum; }", {"l": [1, 2]},
         "effect uses builtin name 'sum' as a variable"),
    ], ids=["append-in-for", "assigned-builtin", "builtin-value",
            "builtin-loop-variable"])
    def test_what_only_the_interpreter_runs_alike_runs_there(
            self, effect, context, label):
        interpreted, compiled = run_pair(
            lambda: one_part_top(effect), until=3.0,
            contexts={"p": context})
        assert compiled.compile_report["p"] == f"interpreter: {label}"
        # each run binds its own builtin functions: compare the data
        data = [{name: value for name, value in run.context_of("p").items()
                 if not callable(value)}
                for run in (interpreted, compiled)]
        assert repr(data[0]) == repr(data[1])
        assert "x" in compiled.context_of("p") \
            or compiled.context_of("p")["l"] == [1] * 7

    def test_context_callable_runs_the_part_on_the_interpreter(self):
        interpreted, compiled = run_pair(
            caller_top, until=60.0, contexts={"caller": {"bump": bump}})
        label = compiled.compile_report["caller"]
        assert label.startswith("interpreter: ") and "'bump'" in label
        assert compiled.compile_report["sink"] == "compiled"
        assert interpreted.message_log == compiled.message_log
        assert interpreted.state_snapshot() == compiled.state_snapshot()
        for part in interpreted.parts:
            assert interpreted.context_of(part) == \
                compiled.context_of(part)
        assert compiled.context_of("sink")["total"] > 0

    def test_compiled_part_never_interprets(self, monkeypatch):
        calls = []
        for name in ("evaluate", "execute"):
            real = getattr(asl, name)
            monkeypatch.setattr(
                asl, name,
                lambda *args, _name=name, _real=real, **kwargs:
                calls.append(_name) or _real(*args, **kwargs))
        top = Component("Quoted")
        owner = Component("Owner")
        machine = StateMachine("QuotedBehavior")
        region = machine.region
        init = region.add_initial()
        s = region.add_state("S")
        region.add_transition(init, s)
        region.add_transition(s, s, after=2.0, guard='label != "self.y"',
                              effect='label = "self.x"; n = n + 1;')
        owner.add_behavior(machine, as_classifier_behavior=True)
        owner.add_attribute("n", default=0)
        owner.add_attribute("label", default="")
        top.add_part("quoted", owner)
        with SystemSimulation(top, engine="compiled") as simulation:
            simulation.run(until=10.0)
            assert simulation.compile_report["quoted"] == "compiled"
            context = simulation.context_of("quoted")
            assert context["label"] == "self.x" and context["n"] == 5
        assert calls == []

    @pytest.mark.parametrize("guard, effect", [
        (None, "x = event.missing;"),
        (None, "x = obj.missing;"),
        ("event.missing > 0", None),
    ])
    def test_prelude_failures_raise_asl_runtime_error(self, guard, effect):
        machine = StateMachine("Failing")
        region = machine.region
        init = region.add_initial()
        s = region.add_state("S")
        region.add_transition(init, s)
        region.add_transition(s, s, trigger="Go", guard=guard, effect=effect)
        for runtime in (StateMachineRuntime(machine, context={"obj": 3}),
                        CompiledRuntime(compile_machine(machine),
                                        context={"obj": 3})):
            runtime.start()
            with pytest.raises(AslRuntimeError):
                runtime.send("Go")


def fresh(prefix):
    """An ASL name no other test uses: the transpile memo is
    process-global, so only a new text can show a miss."""
    return f"{prefix}_{uuid.uuid4().hex}"


def one_state_machine(name, entry=None, **transition):
    """``S`` with an optional entry, plus a self-transition on ``Go``
    built from ``transition`` (guard, effect, kind) when one is given."""
    machine = StateMachine(name)
    region = machine.region
    s = region.add_state("S", entry=entry)
    region.add_transition(region.add_initial(), s)
    if transition:
        region.add_transition(s, s, trigger="Go", **transition)
    return machine


def write_soc_file(directory):
    """The SoC ``simulate`` starts from: a traffic generator, a bus and
    a RAM, written to ``directory/soc.xmi``."""
    model = Model("soc")
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x800)
    ram = make_memory("Ram", size_bytes=0x800)
    make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
             package=model)
    path = str(directory / "soc.xmi")
    xmi.write_file(path, model)
    return path


def counts():
    return (PERF.counter("sm.transpile_misses"),
            PERF.counter("sm.transpile_hits"))


def delta(before):
    return tuple(now - then for now, then in zip(counts(), before))


class TestCompileMemo:
    """Two in-process layers stand in front of the compiler: code
    objects keyed by ASL source text, and dispatch tables kept on each
    machine against its model's generation.  The store caches
    neither."""

    def test_memo_hits_until_an_edit_and_never_uses_the_store(
            self, tmp_path):
        machine = make_memory("M").classifier_behavior
        first = compile_machine_cached(machine)
        hits = PERF.counter("sm.compile_cache_hits")
        assert compile_machine_cached(machine) is first
        assert PERF.counter("sm.compile_cache_hits") == hits + 1

        machine.region.add_state("Extra")
        edited = compile_machine_cached(machine)
        assert edited is not first
        assert "Extra" in edited.states and "Extra" not in first.states

        store = ArtifactStore(tmp_path)
        with using_store(store):
            with SystemSimulation(replicated_top(), engine="compiled") \
                    as simulation:
                simulation.run(until=20.0)
        assert simulation.stats()["compiled_parts"] > 0
        assert store.ls() == []

    def test_a_fresh_parse_transpiles_nothing_again(self, tmp_path):
        model = Model("memo")
        cpu = make_traffic_generator("Cpu", period=2.0,
                                     address_range=0x800)
        ram = make_memory("Ram", size_bytes=0x800)
        # a text of its own: make_memory's entry plus a comment
        ram.classifier_behavior.find_state("Ready").entry = \
            f"store = {{}}; /* {fresh('parse')} */"
        make_soc("Soc", masters=[cpu], slaves=[(ram, "bus", 0, 0x800)],
                 package=model)
        path = str(tmp_path / "soc.xmi")
        xmi.write_file(path, model)
        starts = []
        for _ in range(2):
            top = xmi.read_file(path).model.resolve("Soc", Component)
            before = counts()
            machines = PERF.counter("sm.machines_compiled")
            with SystemSimulation(top, engine="compiled") as simulation:
                misses, _ = delta(before)
                compiled = PERF.counter("sm.machines_compiled") - machines
                assert set(simulation.compile_report.values()) == \
                    {"compiled"}
                simulation.run(until=100.0)
            starts.append((misses, compiled, simulation.message_log))
        (first_misses, _, first_log), (misses, compiled, log) = starts
        assert first_misses >= 1
        # every code object is shared; every dispatch table is new
        assert (misses, compiled) == (0, 3)
        assert log == first_log and log

    @pytest.mark.parametrize("text, reason", [
        ("{name} = ;", "does not transpile: "),
        ("n = {name}(n);", "calls operation '{name}'"),
    ], ids=["unparsable", "operation-call"])
    def test_a_memoized_refusal_names_its_own_site(self, text, reason):
        name = fresh("refused")
        text, reason = text.format(name=name), reason.format(name=name)
        before = counts()
        entry = compile_fallback_reason(
            one_state_machine("Entry", entry=text))
        effect = compile_fallback_reason(
            one_state_machine("Effect", effect=text))
        assert entry.startswith(f"entry {reason}")
        assert effect.startswith(f"effect {reason}")
        assert entry[len("entry "):] == effect[len("effect "):]
        assert delta(before) == (1, 1)

    def test_machines_sharing_an_effect_keep_separate_contexts(self):
        total = fresh("total")
        effect = f"{total} = {total} + event.v;"
        before = counts()
        pairs = []
        for _ in range(2):
            machine = one_state_machine("Adder", effect=effect,
                                        kind=TransitionKind.INTERNAL)
            pairs.append((
                StateMachineRuntime(machine, context={total: 0}).start(),
                CompiledRuntime(compile_machine(machine),
                                context={total: 0}).start()))
        assert delta(before) == (1, 1)
        for step in range(1, 6):
            for scale, (reference, compiled) in enumerate(pairs, 1):
                reference.send("Go", v=step * scale)
                compiled.send("Go", v=step * scale)
                assert compiled.context == reference.context
                assert compiled.active_leaf_names() == \
                    reference.active_leaf_names()
        assert [compiled.context[total] for _, compiled in pairs] == \
            [15, 30]

    def test_the_mode_is_part_of_the_key(self):
        # an expression: a guard compiles, an effect does not parse
        text = f"{fresh('flag')} == 0"
        before = counts()
        assert compile_fallback_reason(
            one_state_machine("Guarded", guard=text)) is None
        reason = compile_fallback_reason(
            one_state_machine("Effected", effect=text))
        assert reason.startswith("effect does not transpile: ")
        assert compile_fallback_reason(
            one_state_machine("GuardedAgain", guard=text)) is None
        assert delta(before) == (2, 1)

    def test_a_closed_model_is_freed_by_one_collection(self, tmp_path):
        path = write_soc_file(tmp_path)
        document = xmi.read_file(path)
        model = weakref.ref(document.model)
        top = document.model.resolve("Soc", Component)
        with SystemSimulation(top, engine="compiled") as simulation:
            assert set(simulation.compile_report.values()) == {"compiled"}
            simulation.run(until=50.0)
        assert simulation.messages_delivered > 0
        del simulation, top, document
        gc.collect()
        assert model() is None

    def test_memory_retained_after_closed_starts_stays_flat(self, tmp_path):
        path = write_soc_file(tmp_path)

        def start_and_close():
            top = xmi.read_file(path).model.resolve("Soc", Component)
            SystemSimulation(top, engine="compiled").close()

        for _ in range(3):
            start_and_close()  # warms the text-keyed memo layers
        tracemalloc.start()
        try:
            start_and_close()
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(30):
                start_and_close()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # each start parses a new model of about 40 KB: a table that
        # kept them (as the global compile cache did) retained 1.2 MB
        # here; what stays is the standard library's warm-up
        assert grown < 64 * 1024

    def test_a_recursion_error_is_retried_not_memoized(self):
        text = "(" * 2000 + "1" + ")" * 2000
        before = counts()
        for name in ("Deep", "DeepAgain"):
            reason = compile_fallback_reason(
                one_state_machine(name, guard=text))
            assert reason.startswith("guard does not transpile: ")
            assert "recursion" in reason
        assert delta(before) == (2, 0)


class TestFunctionForm:
    """Each guard and effect runs as one Python function over the part's
    context.  It refuses what the compiler refused before, and fails,
    sends and reads as the interpreter does."""

    @pytest.mark.parametrize("site, text", [
        ("effect", "x = 1; return;"),
        ("effect", "if (x > 1) { return; }"),
        ("effect", "class = 1;"),
        ("effect", "None = 2;"),
        ("effect", "x = None;"),
        ("effect", "x = lambda + 1;"),
        ("guard", "def > 2"),
        ("effect", "x\u00b2 = 1;"),
        ("guard", "x < 10\u00b2"),
        ("effect", "x = 10\u00b2;"),
    ], ids=["return", "nested-return", "keyword", "none", "none-read",
            "keyword-read", "keyword-guard", "no-identifier", "digit-guard",
            "digit-effect"])
    def test_what_python_spells_only_in_a_function_is_refused(
            self, site, text):
        reason = compile_fallback_reason(
            one_state_machine("Refused", **{site: text}))
        assert reason.startswith(f"{site} does not transpile: ")
        if "10" in text:
            assert "unexpected character '\u00b2'" in reason

    @staticmethod
    def both_engines(machine, context):
        """An interpreted and a compiled runtime of ``machine``, each
        with its own copy of ``context`` and its own list of sends."""
        assert compile_fallback_reason(machine) is None
        logs = ([], [])
        runtimes = (
            StateMachineRuntime(machine, context=dict(context),
                                signal_sink=logs[0].append),
            CompiledRuntime(compile_machine(machine), context=dict(context),
                            signal_sink=logs[1].append))
        return [(runtime.start(), sent)
                for runtime, sent in zip(runtimes, logs)]

    def test_a_failing_effect_keeps_the_context_and_its_sends(self):
        machine = one_state_machine(
            "Failing", effect='x = 5; send Out(v=x) to "p"; y = pop(l);')
        for runtime, sent in self.both_engines(machine, {"x": 0, "l": []}):
            with pytest.raises(AslRuntimeError):
                runtime.send("Go")
            assert runtime.context == {"x": 0, "l": []}
            assert sent == [asl.SentSignal("Out", {"v": 5}, "p")]

    def test_an_undefined_variable_is_named(self):
        machine = one_state_machine("Undefined", effect="z = y + 1;")
        for runtime, _sent in self.both_engines(machine, {}):
            with pytest.raises(AslRuntimeError, match="'y'"):
                runtime.send("Go")
            assert runtime.context == {}

    def test_names_python_would_normalize_stay_apart(self):
        # Python source normalizes identifiers (NFKC): the ligature
        # U+FB01 would be the name "fi"; the interpreter keeps both
        machine = one_state_machine(
            "Ligature", effect="\ufb01 = 1; fi = 2; s = \ufb01 + 10;")
        for runtime, _sent in self.both_engines(machine, {}):
            runtime.send("Go")
            assert runtime.context == {"\ufb01": 1, "fi": 2, "s": 11}

    def test_the_guard_phase_reads_the_unmodified_context(self):
        machine = StateMachine("GuardPhase")
        region = machine.region
        s, t = region.add_state("S"), region.add_state("T")
        region.add_transition(region.add_initial(), s)
        region.add_transition(s, s, trigger="Go", effect="x = 1;",
                              kind=TransitionKind.INTERNAL)
        region.add_transition(s, t, trigger="Go", guard="x == 0")
        for runtime, _sent in self.both_engines(machine, {"x": 0}):
            runtime.send("Go")
            assert runtime.active_leaf_names() == ("T",)
            assert runtime.context == {"x": 1}

    def test_generate_skips_a_class_whose_literal_does_not_lex(
            self, tmp_path, capsys):
        model = Model("digits")
        owner = model.add(Component("Counter"))
        owner.add_attribute("x", default=0)
        owner.add_behavior(
            one_state_machine("CounterBehavior", guard="x < 10\u00b2",
                              effect="x = x + 1;"),
            as_classifier_behavior=True)
        path = str(tmp_path / "digits.xmi")
        xmi.write_file(path, model)
        out = tmp_path / "out"
        assert main(["generate", path, "--backend", "all",
                     "-o", str(out)]) == 0
        assert "0 invalid" in capsys.readouterr().out
        assert "# skipped Counter: guard does not transpile: unexpected " \
            "character '\u00b2' (line 1, column 7)" \
            in (out / "python" / "generated.py").read_text(encoding="utf-8")


def run_pair(top_factory, until=200.0, contexts=None):
    """Run interpreted and compiled cosimulations of the same factory."""
    runs = []
    for engine in ENGINE_MODES:
        simulation = SystemSimulation(top_factory(), quantum=1.0,
                                      context=contexts,
                                      engine=engine)
        simulation.run(until=until)
        runs.append(simulation)
    return runs


class TestCosimLockstep:
    def test_stock_d8_system_identical(self):
        def factory():
            cpu = make_traffic_generator("Cpu", period=2.0,
                                         address_range=0x800)
            memory = make_memory("Ram", size_bytes=0x800)
            return make_soc("Bench", masters=[cpu],
                            slaves=[(memory, "bus", 0, 0x800)])

        interpreted, compiled = run_pair(factory)
        assert all(verdict == "compiled"
                   for verdict in compiled.compile_report.values())
        assert interpreted.message_log == compiled.message_log
        assert interpreted.state_snapshot() == compiled.state_snapshot()
        for part in interpreted.parts:
            assert interpreted.context_of(part) == \
                compiled.context_of(part)
        assert compiled.stats()["compiled_parts"] == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_assemblies_identical(self, seed):
        rng = random.Random(seed)
        n_masters = rng.randint(1, 3)
        n_slaves = rng.randint(1, 2)
        periods = [float(rng.choice((2, 3, 5))) for _ in range(n_masters)]

        def factory():
            masters = [
                make_traffic_generator(f"Cpu{i}", period=periods[i],
                                       address_range=0x400 * n_slaves)
                for i in range(n_masters)]
            slaves = [
                (make_memory(f"Ram{j}", size_bytes=0x400),
                 "bus", j * 0x400, 0x400)
                for j in range(n_slaves)]
            return make_soc(f"Rnd{seed}", masters=masters, slaves=slaves)

        interpreted, compiled = run_pair(factory, until=120.0)
        assert interpreted.message_log == compiled.message_log
        assert interpreted.state_snapshot() == compiled.state_snapshot()
        for part in interpreted.parts:
            assert interpreted.context_of(part) == \
                compiled.context_of(part)

    def test_mixed_engine_system_with_uart_fallback(self):
        """A part outside the subset interprets; the rest compile."""
        def factory():
            top = Component("Mix")
            sender = Component("Sender")
            sender.add_port("out", direction=PortDirection.OUT)
            machine = StateMachine("SenderBehavior")
            region = machine.region
            init = region.add_initial()
            loop = region.add_state("Loop")
            region.add_transition(init, loop)
            region.add_transition(
                loop, loop, after=30.0,
                effect='n = n + 1; send Send(byte=n) to "out";')
            sender.add_behavior(machine, as_classifier_behavior=True)
            sender.add_attribute("n", default=0)
            uart = make_uart_tx("Uart", bit_time=2.0)
            sender_part = top.add_part("tx_source", sender)
            uart_part = top.add_part("uart", uart)
            top.connect(sender.port("out"), uart.port("data"),
                        sender_part, uart_part, check=False)
            return top

        interpreted, compiled = run_pair(factory, until=300.0)
        assert compiled.compile_report["tx_source"] == "compiled"
        assert compiled.compile_report["uart"].startswith("interpreter:")
        assert interpreted.message_log == compiled.message_log
        assert interpreted.state_snapshot() == compiled.state_snapshot()
        for part in interpreted.parts:
            assert interpreted.context_of(part) == \
                compiled.context_of(part)
        assert interpreted.messages_delivered > 0


def replicated_top(pairs=4):
    """N point-to-point cpu<->ram channels over two Components, so every
    compiled part of a kind shares one dispatch table."""
    cpu = make_traffic_generator("Cpu", period=2.0, address_range=0x1000)
    ram = make_memory("Ram", size_bytes=0x800)
    top = Component("Soc")
    for index in range(pairs):
        cpu_part = top.add_part(f"cpu{index}", cpu)
        ram_part = top.add_part(f"ram{index}", ram)
        top.connect(cpu.port("bus"), ram.port("bus"),
                    cpu_part, ram_part, check=False)
    return top


def replicated_campaign():
    return FaultCampaign(
        [FaultSpec("drop", signal="ReadResp", probability=0.25),
         FaultSpec("delay", signal="WriteAck", delay=3.0, jitter=2.0,
                   probability=0.3)],
        name="lockstep", seed=1234)


class TestReplicatedTopLockstep:
    """Parts sharing one compiled machine keep separate state."""

    @staticmethod
    def full_trace(engine, faults=None, seed=None):
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        with SystemSimulation(replicated_top(), engine=engine, bus=bus,
                              faults=faults, fault_seed=seed) as sim:
            sim.run(until=80.0)
            return recorder, sim.stats()["kernel_events"]

    def test_plain_byte_identical(self):
        interpreted, _ = self.full_trace("interpreted")
        compiled, _ = self.full_trace("compiled")
        assert interpreted.to_jsonl(), "trace must not be empty"
        assert interpreted.to_jsonl() == compiled.to_jsonl()

    def test_kernel_event_parity(self):
        # one kernel event per delivered message on both engines
        _, interpreted_events = self.full_trace("interpreted")
        _, compiled_events = self.full_trace("compiled")
        assert interpreted_events == compiled_events > 0

    def test_under_fault_campaign_byte_identical(self):
        interpreted, _ = self.full_trace(
            "interpreted", faults=replicated_campaign(), seed=7)
        compiled, _ = self.full_trace(
            "compiled", faults=replicated_campaign(), seed=7)
        assert interpreted.to_jsonl() == compiled.to_jsonl()
        assert any(event.kind == "fault" for event in compiled.events)

    @pytest.mark.parametrize("faults", (False, True),
                             ids=("plain", "faulted"))
    def test_observer_artifacts_byte_identical(self, faults):
        artifacts = {}
        for engine in ("interpreted", "compiled"):
            with SystemSimulation(
                    replicated_top(), engine=engine,
                    faults=replicated_campaign() if faults else None,
                    fault_seed=7, coverage=True, profile=True,
                    flight_recorder=128) as sim:
                sim.run(until=100.0)
                suite = sim.observability
                artifacts[engine] = (
                    suite.coverage_report().to_json(indent=2),
                    "\n".join(suite.profile_lines("steps")),
                    suite.recorder.dump_text(sim, reason="lockstep",
                                             detail="end-of-run"))
        assert artifacts["interpreted"] == artifacts["compiled"]
        assert '"total_percent"' in artifacts["compiled"][0]
