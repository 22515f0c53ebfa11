"""Differential test of the two matchers for S4 trace languages: the
prefix-trie monitor of an ``interaction_conformance`` property against
:func:`repro.interactions.conforms`.

Hypothesis generates interactions over three message labels with
``loop``, ``alt``, ``opt`` and ``strict`` fragments nested at most two
deep, with loop bounds of at most 4.  Each one is checked against
references written here from the definitions alone:

* the trace set: a brute-force enumeration (``itertools.product`` over
  operand choices, one product per loop repetition count), deduplicated
  in order, equals :func:`repro.interactions.traces`;
* the trie: inserting each sorted trace from the root gives the same
  ``nodes``, node numbers included, and the same ``alphabet``;
* the ``limit`` decision: enumeration is refused exactly when some
  non-empty sequence (the interaction body or an operand) counts more
  than ``limit`` traces with multiplicity;
* acceptance: a monitor with ``complete=True`` passes a word exactly
  when ``conforms`` accepts it, for traces of the language and for
  random words over its alphabet.

Shrunk divergences found this way are pinned by the named tests at the
bottom of the file.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import MESSAGE_DELIVERED, TraceBus
from repro.errors import InteractionError, PropertyError
from repro.interactions import (
    CombinedFragment,
    Interaction,
    InteractionOperator,
    Message,
    conforms,
    traces,
)
from repro.properties import (
    PropertyChecker,
    PropertySuite,
    interaction_conformance,
)

#: The three messages, as (sender, receiver, signal).
MESSAGES = (("a", "b", "x"), ("b", "a", "y"), ("a", "b", "z"))
LABELS = tuple(f"{s}->{r}:{signal}" for s, r, signal in MESSAGES)

# A spec is a body: a tuple of nodes.  A node is a message index, or
# (operator, (loop_min, loop_max), operand bodies).


def bodies(depth):
    return st.lists(nodes(depth), max_size=3).map(tuple)


def nodes(depth):
    message = st.integers(0, len(MESSAGES) - 1)
    if depth == 0:
        return message
    body = bodies(depth - 1)
    no_bounds = st.just((0, 1))
    bounds = st.integers(0, 4).flatmap(
        lambda high: st.tuples(st.integers(0, high), st.just(high)))
    return st.one_of(
        message,
        st.tuples(st.just("loop"), bounds, st.tuples(body)),
        st.tuples(st.just("opt"), no_bounds, st.tuples(body)),
        st.tuples(st.just("alt"), no_bounds,
                  st.lists(body, min_size=1, max_size=3).map(tuple)),
        st.tuples(st.just("strict"), no_bounds,
                  st.lists(body, min_size=2, max_size=3).map(tuple)),
    )


def build(spec):
    """The Interaction a spec describes."""
    interaction = Interaction("fuzz")
    lifelines = {name: interaction.add_lifeline(name) for name in "ab"}

    def fill(add, body):
        for node in body:
            if isinstance(node, int):
                sender, receiver, signal = MESSAGES[node]
                add(Message(signal, lifelines[sender], lifelines[receiver]))
                continue
            operator, (low, high), operands = node
            fragment = add(CombinedFragment(InteractionOperator(operator),
                                            low, high))
            for operand in operands:
                fill(fragment.add_operand().add, operand)

    def add_top(element):
        interaction._own(element)
        return element

    fill(add_top, spec)
    return interaction


def brute_traces(body):
    """Every trace of a body with multiplicity, in enumeration order."""
    out = [()]
    for node in body:
        out = [head + tail for head in out for tail in brute_node(node)]
    return out


def brute_node(node):
    if isinstance(node, int):
        return [(LABELS[node],)]
    operator, (low, high), operands = node
    options = [brute_traces(operand) for operand in operands]
    if operator == "alt":
        return [trace for option in options for trace in option]
    if operator == "opt":
        return [()] + options[0]
    if operator == "strict":
        return [sum(combo, ()) for combo in product(*options)]
    return [sum(combo, ()) for repetitions in range(low, high + 1)
            for combo in product(options[0], repeat=repetitions)]


def sequence_counts(body, counts):
    """Trace count of a body with multiplicity, exact and never cut
    short; appends the count of every nested non-empty operand body and
    then the body's own, if it is not empty, to ``counts``.  (An empty
    body is the one empty trace: nothing is enumerated, nothing
    counted.)"""
    total = 1
    for node in body:
        if isinstance(node, int):
            continue
        operator, (low, high), operands = node
        options = [sequence_counts(operand, counts) for operand in operands]
        if operator == "alt":
            total *= sum(options)
        elif operator == "opt":
            total *= 1 + options[0]
        elif operator == "strict":
            for option in options:
                total *= option
        else:
            total *= sum(options[0] ** k for k in range(low, high + 1))
    if body:
        counts.append(total)
    return total


def reference_trie(trace_set):
    """Insert each sorted trace from the root, creating missing nodes."""
    nodes = [{"edges": {}, "end": False}]
    for trace in trace_set:
        node = 0
        for label in trace:
            edges = nodes[node]["edges"]
            if label not in edges:
                edges[label] = len(nodes)
                nodes.append({"edges": {}, "end": False})
            node = edges[label]
        nodes[node]["end"] = True
    return nodes


def monitor_accepts(prop, word):
    """Whether a complete-trace monitor passes the delivered ``word``."""
    bus = TraceBus()
    checker = PropertyChecker(PropertySuite([prop]), bus)
    for t, label in enumerate(word):
        sender, rest = label.split("->")
        receiver, signal = rest.split(":")
        bus.emit(MESSAGE_DELIVERED, float(t), receiver,
                 {"signal": signal, "sender": sender})
    checker.finalize(float(len(word)))
    return checker.verdicts()[prop.name] == "pass"


def check_agreement(spec, limit, words):
    """Every check of the module docstring on one spec."""
    interaction = build(spec)
    counts = []
    sequence_counts(spec, counts)
    if max(counts, default=0) > limit:
        with pytest.raises(InteractionError,
                           match=f"^trace enumeration exceeded limit "
                                 f"{limit}$"):
            traces(interaction, limit=limit)
        with pytest.raises(PropertyError, match="cannot enumerate"):
            interaction_conformance("fuzz", interaction=interaction,
                                    limit=limit)
        return
    expected = list(dict.fromkeys(brute_traces(spec)))
    assert traces(interaction, limit=limit) == expected
    prop = interaction_conformance("fuzz", interaction=interaction,
                                   complete=True, limit=limit)
    assert prop.trace_set == tuple(sorted(expected))
    assert prop.nodes == reference_trie(prop.trace_set)
    assert prop.alphabet == {label for trace in expected
                             for label in trace}
    # the monitor skips labels outside the alphabet; conforms does not
    words = [tuple(label for label in word if label in prop.alphabet)
             for word in words]
    for word in expected[:8] + words:
        assert monitor_accepts(prop, word) == conforms(interaction,
                                                       word), word


@settings(max_examples=150, deadline=None)
@given(spec=bodies(2), data=st.data())
def test_trie_monitor_agrees_with_the_trace_matcher(spec, data):
    counts = []
    sequence_counts(spec, counts)
    peak = max(counts, default=0)
    # near the largest count, to test the decision at its boundary, or
    # anywhere below 300; enumeration stays small either way
    near = (st.integers(-2, 2).map(lambda delta: max(0, peak + delta))
            if peak <= 2000 else st.nothing())
    limit = data.draw(st.one_of(near, st.integers(0, 300)), label="limit")
    words = data.draw(st.lists(st.lists(st.sampled_from(LABELS),
                                        max_size=8).map(tuple),
                               max_size=4), label="words")
    check_agreement(spec, limit, words)


@pytest.mark.parametrize("spec, word", [
    # loop(2, 2) over an empty operand: its one trace is ()
    ((("loop", (2, 2), ((),)),), ()),
    # loop(3, 4) over opt(x): three empty repetitions and one x
    ((("loop", (3, 4), (((("opt", (0, 1), ((0,),)),)),)),), (LABELS[0],)),
], ids=["empty-body", "optional-body"])
def test_a_loop_body_that_matches_empty_reaches_its_minimum(spec, word):
    """Shrunk divergences: ``conforms`` stopped a loop at its first
    fixpoint even below ``loop_min`` and rejected a trace that
    ``traces`` lists and the monitor accepts."""
    assert word in traces(build(spec))
    assert conforms(build(spec), word)
    check_agreement(spec, limit=100, words=[word])
