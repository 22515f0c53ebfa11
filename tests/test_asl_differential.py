"""Differential test of the ASL stratum: the compiled engine against
the interpreter.

Hypothesis generates ASL programs and expressions over a fixed set of
identifiers, with ints, bools, short strings, lists and dicts in the
context.  Each program runs as the effect of an internal ``Go``
transition, and each expression as the guard of an external one, on
:class:`~repro.statemachines.StateMachineRuntime` (the reference)
and on the engine the
compiled binding picks (:func:`~repro.engine.build_engine_factory`).
Both must end in the same configuration, context and sent signals, or
both must raise :class:`~repro.errors.AslRuntimeError` (the texts may
differ: the interpreter words its own errors).  An example the binding
sends to the interpreter (a text the compiler refuses) is skipped and
replaced.

Generated programs always terminate and stay small: a ``for`` loop
walks a literal list or ``range`` of at most two items, a ``while``
loop runs at most twice (on the counter ``w``, which nothing else
touches), ``*`` repeats by at most two, ``range`` takes literals, and
``append`` adds a literal, so no value outgrows a few thousand items.
"""

import copy

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import asl
from repro.engine import build_engine_factory
from repro.errors import AslRuntimeError
from repro.statemachines import StateMachine, TransitionKind

#: the context variables every program may read and write
CONTEXT_NAMES = ("a", "b", "s", "l", "d", "p")
#: names no context binds: reading one first fails on both engines
FREE_NAMES = ("x", "y")
#: builtins' names, which a program may also use as variables, now
#: and then: compiled code resolves builtins as Python names, so only
#: the interpreter runs those alike
BUILTIN_VARIABLES = ("len", "list", "range")
#: the names compiled code keeps for itself (the send callback, a
#: prelude helper, the scope dict), which are ASL variables like any
#: other: every compiled variable is an item of the scope dict
ENGINE_VARIABLES = ("_send", "_asl_div", "_c")
#: the names a program reads and assigns: a builtin's name one in 13,
#: an engine's name one in 13
VARIABLES = (CONTEXT_NAMES + FREE_NAMES) * 4 + BUILTIN_VARIABLES \
    + ENGINE_VARIABLES
#: builtins' names a context may also bind, each now and then: a call
#: of the builtin calls it on both engines, whatever the variable holds
BUILTIN_KEYS = ("len", "list", "range", "sum")

small_ints = st.integers(min_value=0, max_value=9)
short_strings = st.text(alphabet="ab ", max_size=3)
scalars = st.one_of(small_ints, st.booleans(), short_strings)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.sampled_from(("k", "v")), scalars, max_size=2),
)
contexts = st.tuples(
    st.fixed_dictionaries({name: values for name in CONTEXT_NAMES}),
    st.sampled_from((None,) * 9 + BUILTIN_KEYS), values,
).map(lambda t: dict(t[0], w=0, **({t[1]: t[2]} if t[1] else {})))

literals = st.one_of(small_ints, st.booleans(), short_strings) \
    .map(asl.Literal)

BINARY = ("+", "-", "and", "or", "==", "!=", "<", "<=", ">", ">=",
          "/", "%", "in")
UNARY_CALLS = ("len", "abs", "int", "float", "str", "bool", "sum",
               "sorted")


def call(name, *arguments):
    return asl.Call(asl.Name(name), tuple(arguments))


def expressions(depth, variables=VARIABLES):
    """Expressions nested ``depth`` deep over the names ``variables``."""
    names = st.sampled_from(variables).map(asl.Name)
    leaves = st.one_of(literals, names,
                       st.just(asl.Attribute(asl.Name("event"), "v")))
    if depth == 0:
        return leaves
    sub = expressions(depth - 1, variables)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(BINARY), sub, sub)
        .map(lambda t: asl.Binary(*t)),
        # repetition by a literal of at most two keeps values small
        st.tuples(sub, st.integers(min_value=0, max_value=2))
        .map(lambda t: asl.Binary("*", t[0], asl.Literal(t[1]))),
        st.tuples(st.sampled_from(("-", "not")), sub)
        .map(lambda t: asl.Unary(*t)),
        st.lists(sub, max_size=2)
        .map(lambda items: asl.ListLiteral(tuple(items))),
        st.lists(st.tuples(st.sampled_from(("k", "v")).map(asl.Literal),
                           sub), max_size=2)
        .map(lambda items: asl.DictLiteral(tuple(items))),
        st.tuples(sub, sub).map(lambda t: asl.Index(*t)),
        st.tuples(sub, st.sampled_from(("k", "v")))
        .map(lambda t: asl.Attribute(*t)),
        st.tuples(st.sampled_from(UNARY_CALLS), sub)
        .map(lambda t: call(*t)),
        st.tuples(st.sampled_from(("min", "max", "contains")), sub, sub)
        .map(lambda t: call(*t)),
        names.map(lambda target: call("pop", target)),
        st.tuples(names, literals).map(lambda t: call("append", *t)),
        st.integers(min_value=0, max_value=3)
        .map(lambda n: call("range", asl.Literal(n))),
    )


def statements(depth=1, variables=VARIABLES, while_loops=True):
    """Statements nested ``depth`` deep over the names ``variables``;
    ``while`` loops (on the counter ``w``) only with ``while_loops``."""
    value = expressions(1, variables)
    assign = st.tuples(st.sampled_from(variables), value) \
        .map(lambda t: asl.Assign(asl.Name(t[0]), t[1]))
    send = st.tuples(
        st.sampled_from(("Out", "Tick")),
        st.lists(st.tuples(st.sampled_from(("v", "w")), value),
                 max_size=2, unique_by=lambda kv: kv[0]),
    ).map(lambda t: asl.Send(t[0], tuple(t[1])))
    expression = value.map(asl.ExprStmt)
    base = st.one_of(assign, send, expression)
    if depth == 0:
        return base
    inner = statements(depth - 1, variables, while_loops)
    body = st.lists(inner, min_size=1, max_size=2)
    loop_body = st.lists(st.one_of(inner,
                                   st.sampled_from((asl.Break(),
                                                    asl.Continue()))),
                         min_size=1, max_size=2)
    iterables = st.one_of(
        st.lists(literals, max_size=2)
        .map(lambda items: asl.ListLiteral(tuple(items))),
        st.integers(min_value=0, max_value=2)
        .map(lambda n: call("range", asl.Literal(n))),
    )
    counter = asl.Name("w")
    compound = [
        st.tuples(value, body, body)
        .map(lambda t: asl.If(t[0], tuple(t[1]), tuple(t[2]))),
        st.tuples(st.sampled_from(FREE_NAMES), iterables, loop_body)
        .map(lambda t: asl.For(t[0], t[1], tuple(t[2]))),
    ]
    if while_loops:
        # while (w < n and <condition>) { w = w + 1; <body> }
        compound.append(
            st.tuples(st.integers(min_value=1, max_value=2), value,
                      loop_body)
            .map(lambda t: asl.While(
                asl.Binary("and",
                           asl.Binary("<", counter, asl.Literal(t[0])),
                           t[1]),
                (asl.Assign(counter,
                            asl.Binary("+", counter, asl.Literal(1))),)
                + tuple(t[2]))))
    return st.one_of(base, *compound)


def program_texts(variables=VARIABLES, while_loops=True):
    """ASL programs of one to three statements, as source text."""
    return st.lists(statements(1, variables, while_loops), min_size=1,
                    max_size=3) \
        .map(lambda body: asl.unparse(asl.Program(tuple(body))))


programs = program_texts()
guards = expressions(2).map(asl.unparse_expression)
event_values = st.one_of(small_ints, short_strings)


def effect_machine(effect):
    machine = StateMachine("Effect")
    region = machine.region
    s = region.add_state("S")
    region.add_transition(region.add_initial(), s)
    region.add_transition(s, s, trigger="Go", effect=effect,
                          kind=TransitionKind.INTERNAL)
    return machine


def guard_machine(guard):
    machine = StateMachine("Guard")
    region = machine.region
    s = region.add_state("S")
    region.add_transition(region.add_initial(), s)
    region.add_transition(s, region.add_state("T"), trigger="Go",
                          guard=guard)
    return machine


def outcome(runtime, sent, event_value):
    """Dispatch ``Go(v=...)``; what the runtime ends in, as text, so
    that ``1``, ``1.0`` and ``True`` differ and self-containing lists
    compare."""
    try:
        runtime.send("Go", v=event_value)
        error = None
    except AslRuntimeError:
        error = AslRuntimeError
    return (error, runtime.active_leaf_names(), repr(runtime.context),
            repr([(signal.signal, signal.arguments, signal.target)
                  for signal in sent]))


def assert_engines_agree(machine, context, event_value=0):
    """Run ``machine`` from ``context`` on the interpreter and on the
    compiled binding's engine and require one outcome; returns it (None
    when the binding picks the interpreter)."""
    outcomes = []
    for prefer_compiled in (False, True):
        sent = []
        # a deep copy per engine: actions mutate lists and dicts in place
        label, build = build_engine_factory(
            machine, context=copy.deepcopy(context),
            signal_sink=sent.append, prefer_compiled=prefer_compiled)
        if prefer_compiled and label != "compiled":
            return None
        runtime = build()
        runtime.start()
        outcomes.append(outcome(runtime, sent, event_value))
    reference, compiled_outcome = outcomes
    assert compiled_outcome == reference
    return reference


@given(programs, contexts, event_values)
@settings(max_examples=150, deadline=None)
def test_effects_agree(program, context, event_value):
    assume(assert_engines_agree(effect_machine(program), context,
                                event_value) is not None)


@given(guards, contexts, event_values)
@settings(max_examples=50, deadline=None)
def test_guards_agree(guard, context, event_value):
    assume(assert_engines_agree(guard_machine(guard), context,
                                event_value) is not None)


# Shrunk examples, each a divergence the generators found.

@pytest.mark.parametrize("effect, context", [
    ("x = -s;", {"s": "a"}),           # TypeError escaped the interpreter
    ("x = int(s);", {"s": "a"}),       # ValueError
    ("x = append(a, 1);", {"a": 1}),   # AttributeError
    ("x = pop(l);", {"l": []}),        # IndexError
])
def test_a_python_error_is_an_asl_runtime_error_on_both_engines(effect,
                                                                context):
    assert assert_engines_agree(effect_machine(effect), context)[0] \
        is AslRuntimeError


def test_a_leading_string_statement_binds_no_variable():
    # the compiled effect stored the string as the variable ``__doc__``
    outcome = assert_engines_agree(effect_machine('"";'), {"a": 0})
    assert outcome[2] == "{'a': 0}"
