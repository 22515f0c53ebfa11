"""Differential test of the generated-Python stratum: the Python code
generator against both state-machine engines.

Hypothesis generates flat machines that the model compiler accepts
(:func:`~repro.statemachines.compile_fallback_reason` is None): one
region, two to four simple states, signal triggers over two or three
names and integer ``after`` timers, internal and external rows with
several rows per key, and an initial effect.  Guards and effects come
from ``test_asl_differential.py``'s strategies, over the class's int
and bool attributes, two free names and two names the compiled code
keeps for itself (``_asl_div``, ``_c``).  Each machine is the classifier
behaviour of a class, and a script interleaves signals with integer
``advance`` calls.

The class runs on :class:`~repro.statemachines.StateMachineRuntime`
(the reference), on :class:`~repro.statemachines.CompiledRuntime` and
as the class :mod:`repro.codegen.python_gen` generates.  After the
start and after every step all three must be in the same state, hold
the same variables (the context of an engine, the attributes of the
generated object) and have sent the same signals, with the same targets
and arguments, in the same order.  Where the reference raises
:class:`~repro.errors.AslRuntimeError`, the compiled engine raises it
too and the generated class raises.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.metamodel as mm
from repro import asl
from repro.codegen import python_gen
from repro.errors import AslRuntimeError, CodegenError
from repro.statemachines import (
    CompiledRuntime,
    StateMachine,
    StateMachineRuntime,
    TransitionKind,
    compile_fallback_reason,
    compile_machine_cached,
)

from .test_asl_differential import (
    FREE_NAMES,
    event_values,
    expressions,
    program_texts,
)

#: the class's attributes and the strategies of their defaults
ATTRIBUTES = {"a": st.integers(min_value=0, max_value=9),
              "b": st.integers(min_value=0, max_value=9),
              "p": st.booleans()}
#: the variables of guards and effects: the attributes, two free names
#: and two names the compiled code keeps for itself (``_send`` is a
#: member of the generated class, which skips a class that binds it)
VARIABLES = tuple(ATTRIBUTES) + FREE_NAMES + ("_asl_div", "_c")
SIGNALS = ("Go", "Stop", "Tick")
#: what a generated object holds besides the model's variables
MEMBERS = {"on_send", "outbox", "state", "now", "_timers", "_timer_seq"}

#: guards and effects of the ASL stratum, and well-typed ones that
#: raise less often, so that more rows fire and more states change
guards = st.one_of(
    expressions(2, VARIABLES).map(asl.unparse_expression),
    st.sampled_from(("a < 5", "b >= 2", "p", "not p", "a == b")))
effects = st.one_of(
    program_texts(VARIABLES, while_loops=False),
    st.sampled_from(("a = a + 1;", "b = b - 1;", "p = not p;",
                     "send Out(v=a);", "x = a; a = b; b = x;")))


def fuzz_class(defaults, states, rows, initial_effect):
    """A class ``Fuzz`` whose machine has ``states`` simple states and
    one transition per row (source, internal, trigger or after, target,
    guard, effect)."""
    cls = mm.UmlClass("Fuzz", is_active=True)
    for name, value in defaults.items():
        cls.add_attribute(name, mm.BOOLEAN if isinstance(value, bool)
                          else mm.INTEGER, default=value)
    machine = StateMachine("fuzz")
    region = machine.region
    vertices = [region.add_state(f"S{index}") for index in range(states)]
    region.add_transition(region.add_initial(), vertices[0],
                          effect=initial_effect)
    for source, internal, trigger, target, guard, effect in rows:
        source = vertices[source % states]
        region.add_transition(
            source, source if internal else vertices[target % states],
            guard=guard, effect=effect,
            kind=TransitionKind.INTERNAL if internal
            else TransitionKind.EXTERNAL,
            **({"after": trigger} if isinstance(trigger, int)
               else {"trigger": trigger}))
    cls.add_behavior(machine, as_classifier_behavior=True)
    return cls


@st.composite
def fuzz_cases(draw):
    """(class, script): a step is (signal, v) or an integer advance."""
    signals = SIGNALS[:draw(st.integers(min_value=2, max_value=3))]
    row = st.tuples(
        # sources S0 and S1 twice as often: the script starts in S0
        st.sampled_from((0, 0, 1, 1, 2, 3)), st.booleans(),
        st.one_of(st.sampled_from(signals),
                  st.integers(min_value=1, max_value=4)),
        st.integers(min_value=0, max_value=3),
        st.one_of(st.none(), guards), st.one_of(st.none(), effects))
    cls = fuzz_class(draw(st.fixed_dictionaries(ATTRIBUTES)),
                     draw(st.integers(min_value=2, max_value=4)),
                     draw(st.lists(row, min_size=3, max_size=8)),
                     draw(st.one_of(st.none(), effects)))
    script = draw(st.lists(
        st.one_of(st.tuples(st.sampled_from(signals), event_values),
                  st.integers(min_value=1, max_value=3)),
        min_size=2, max_size=8))
    return cls, script


def variables(values):
    """A variable mapping as text, so that 1, 1.0 and True differ."""
    return repr(sorted(values.items()))


def engine_run(cls, engine, script):
    """What ``engine`` shows after its start and after every step, up
    to the step that raises :class:`AslRuntimeError` (``"raised"``)."""
    sent = []
    context = {attribute.name: attribute.default_value
               for attribute in cls.all_attributes()}
    runtime = engine(cls.classifier_behavior, context=context,
                     signal_sink=sent.append)
    log = []
    try:
        runtime.start()
        for step in [None] + list(script):
            if isinstance(step, tuple):
                runtime.send(step[0], v=step[1])
            elif step is not None:
                runtime.advance_time(step)
            log.append((runtime.active_leaf_names(),
                        variables(runtime.context),
                        repr([(signal.signal, signal.target,
                               signal.arguments) for signal in sent])))
    except AslRuntimeError:
        log.append("raised")
    return log


def generated_run(cls, script):
    """The same log for the class :mod:`python_gen` generates; any
    exception counts as raising."""
    generated = python_gen.compile_module(cls)[cls.name]
    log = []
    try:
        instance = generated()
        for step in [None] + list(script):
            if isinstance(step, tuple):
                instance.dispatch(step[0], v=step[1])
            elif step is not None:
                instance.advance(step)
            log.append(((instance.state,),
                        variables({name: value for name, value
                                   in vars(instance).items()
                                   if name not in MEMBERS}),
                        repr(instance.outbox)))
    except Exception:
        log.append("raised")
    return log


def assert_all_agree(cls, script):
    """Run the three executors; returns the reference's log."""
    assert compile_fallback_reason(cls.classifier_behavior) is None
    reference = engine_run(cls, StateMachineRuntime, script)
    compiled = engine_run(
        cls, lambda machine, **kwargs: CompiledRuntime(
            compile_machine_cached(machine), **kwargs), script)
    assert compiled == reference
    assert generated_run(cls, script) == reference
    return reference


@given(fuzz_cases())
@settings(max_examples=60, deadline=None)
# Python warns at compile time about code such as ``3[a]``, which
# raises when it runs, on all three
@pytest.mark.filterwarnings("ignore::SyntaxWarning")
def test_generated_python_agrees_with_both_engines(case):
    cls, script = case
    assume(compile_fallback_reason(cls.classifier_behavior) is None)
    assert_all_agree(cls, script)


def test_a_loop_variable_stays_bound_after_the_loop():
    # the generated class kept the loop variable local to the step
    cls = fuzz_class({"a": 0}, 2,
                     [(0, True, "Go", 0, None,
                       "for x in [1, 2] { a = a + x; } b = x;")], None)
    log = assert_all_agree(cls, [("Go", 0)])
    assert "('b', 2), ('x', 2)" in log[-1][1]


@pytest.mark.parametrize("guard, effect", [
    (None, "x = id;"),      # a Python builtin the engines lack
    (None, "x = self;"),    # the generated object
    (None, "x = Fuzz;"),    # the generated class
    ("id", None),
], ids=["builtin", "self", "class", "guard"])
def test_a_name_the_model_never_binds_raises(guard, effect):
    # the generated class read a Python name where the engines raise
    cls = fuzz_class({"a": 0}, 2, [(0, False, "Go", 1, guard, effect)],
                     None)
    assert assert_all_agree(cls, [("Go", 0)])[-1] == "raised"


@pytest.mark.parametrize("effect, reason", [
    # the generated class shared one event dict across the step's
    # actions, where each engine action gets a copy
    ("y = event; y.k = 1;", "effect uses 'event' as a value"),
    ("event.k = 1;", "effect assigns 'event'"),
    # the generated class keeps its clock in ``now``
    ("now = 1;", "effect assigns 'now'"),
    ("for event_name in [1] { x = 1; }", "effect assigns 'event_name'"),
], ids=["event-value", "event-field", "assigned-now", "event-name-loop"])
def test_what_generated_python_would_share_is_not_compiled(effect,
                                                            reason):
    cls = fuzz_class({"a": 0}, 2, [(0, True, "Go", 0, None, effect)],
                     None)
    assert compile_fallback_reason(cls.classifier_behavior) == reason
    with pytest.raises(CodegenError, match=reason):
        python_gen.generate_class(cls)
