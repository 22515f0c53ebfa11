"""The ExecutionEngine protocol (PR 3): conformance of all three
engines, registry resolution, and the no-engine-isinstance guarantee in
the cosimulation harness."""

import inspect

import repro.metamodel as mm
import repro.simulation.cosim as cosim_module
from repro.activities import Activity, ActivityRuntime
from repro.engine import (
    PROTOCOL_ATTRIBUTES,
    PROTOCOL_METHODS,
    build_engine_factory,
    conforms,
    register_engine,
    registered_behavior_types,
    supports,
)
from repro.engine import registry as engine_registry
from repro.simulation import SystemSimulation
from repro.statemachines import StateMachine, StateMachineRuntime
from repro.statemachines.compiled import CompiledRuntime, compile_machine


def simple_machine():
    machine = StateMachine("M")
    region = machine.region
    init = region.add_initial()
    a = region.add_state("A")
    b = region.add_state("B")
    region.add_transition(init, a)
    region.add_transition(a, b, trigger="Go")
    return machine


def simple_activity():
    activity = Activity("A")
    init = activity.add_initial()
    work = activity.add_action("work", "x = 1;")
    final = activity.add_final()
    activity.chain(init, work, final)
    return activity


class TestConformance:
    def test_interpreter_conforms(self):
        assert conforms(StateMachineRuntime(simple_machine()))

    def test_compiled_conforms(self):
        compiled = compile_machine(simple_machine())
        assert conforms(CompiledRuntime(compiled))

    def test_activity_runtime_conforms(self):
        assert conforms(ActivityRuntime(simple_activity()))

    def test_non_engine_does_not_conform(self):
        assert not conforms(object())
        assert not conforms(simple_machine())

    def test_methods_only_is_not_enough(self):
        # the data attributes (time/context/signal_sink) are part of the
        # contract; a methods-only object must be rejected
        class MethodsOnly:
            def start(self):
                return self

            def send(self, name, **parameters):
                return self

            def step(self, until):
                return self

            def active_configuration(self):
                return ()

            def checkpoint(self):
                return {}

            def restore(self, snap):
                pass

        assert not conforms(MethodsOnly())

    def test_surface_constants_match_protocol(self):
        for method in PROTOCOL_METHODS:
            assert method in ("start", "send", "step",
                              "active_configuration", "checkpoint",
                              "restore")
        assert PROTOCOL_ATTRIBUTES == ("time", "context", "signal_sink")


class TestRegistry:
    def test_builtin_types_registered(self):
        types = registered_behavior_types()
        assert Activity in types
        assert StateMachine in types

    def test_supports(self):
        assert supports(simple_machine())
        assert supports(simple_activity())
        assert not supports(object())

    def test_state_machine_binding_interpreted(self):
        binding = build_engine_factory(simple_machine())
        assert binding is not None
        label, factory = binding
        assert label == "interpreter"
        engine = factory()
        assert isinstance(engine, StateMachineRuntime)
        assert conforms(engine)

    def test_state_machine_binding_compiled(self):
        binding = build_engine_factory(simple_machine(),
                                       prefer_compiled=True)
        label, factory = binding
        assert label == "compiled"
        assert isinstance(factory(), CompiledRuntime)

    def test_activity_binding(self):
        binding = build_engine_factory(simple_activity())
        label, factory = binding
        assert label == "token-engine"
        assert isinstance(factory(), ActivityRuntime)

    def test_factory_produces_fresh_engines(self):
        _label, factory = build_engine_factory(simple_machine(),
                                               context={"n": 1})
        first, second = factory(), factory()
        assert first is not second
        first.context["n"] = 99
        assert second.context["n"] == 1

    def test_unknown_behavior_resolves_to_none(self):
        assert build_engine_factory(object()) is None

    def test_register_engine_shadows_builtin(self):
        class FakeEngine:
            def __init__(self):
                self.time = 0.0
                self.context = {}
                self.signal_sink = None
                self.trace_bus = None
                self.trace_part = ""

            def start(self):
                return self

            def send(self, name, **parameters):
                return self

            def step(self, until):
                self.time = until
                return self

            def active_configuration(self):
                return ("fake",)

            def checkpoint(self):
                return {"time": self.time}

            def restore(self, snap):
                self.time = snap["time"]

        def fake_builder(behavior, context, signal_sink, prefer_compiled):
            return "fake", FakeEngine

        register_engine(Activity, fake_builder)
        try:
            label, factory = build_engine_factory(simple_activity())
            assert label == "fake"
            assert isinstance(factory(), FakeEngine)
        finally:
            engine_registry._BUILDERS.pop(0)
        label, _factory = build_engine_factory(simple_activity())
        assert label == "token-engine"


class TestHarnessIsEngineAgnostic:
    def test_cosim_has_no_engine_type_dispatch(self):
        # the tentpole guarantee: the harness speaks only the protocol —
        # no isinstance against any engine or behavior class, and no
        # import of the engine classes at all (prose mentions are fine)
        import ast

        banned = {"StateMachineRuntime", "CompiledRuntime",
                  "TokenEngine", "ActivityRuntime", "StateMachine",
                  "Activity"}
        tree = ast.parse(inspect.getsource(cosim_module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = {alias.name for alias in node.names}
                assert not (imported & banned), (
                    f"cosim.py imports engine type(s) "
                    f"{sorted(imported & banned)}")
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" \
                    and len(node.args) == 2:
                names = {leaf.id for leaf in ast.walk(node.args[1])
                         if isinstance(leaf, ast.Name)}
                assert not (names & banned), (
                    f"cosim.py line {node.lineno}: isinstance dispatch "
                    f"on {sorted(names & banned)}")

    def test_part_runtimes_conform(self):
        top = mm.Component("Top")
        owner = mm.Component("Owner")
        owner.add_behavior(simple_machine(), as_classifier_behavior=True)
        top.add_part("p", owner)
        with SystemSimulation(top, bus=False) as sim:
            assert conforms(sim.parts["p"].runtime)
