"""Tests for sequence diagram structure and trace semantics."""

import time

import pytest

from repro.errors import InteractionError
from repro.interactions import (
    CombinedFragment,
    Interaction,
    InteractionOperator,
    Message,
    MessageSort,
    conforms,
    interleaving_count,
    trace_count,
    traces,
)


@pytest.fixture
def bus_read():
    """req; alt(cached: hit | else: fetch,data,resp)."""
    interaction = Interaction("bus_read")
    cpu = interaction.add_lifeline("cpu")
    bus = interaction.add_lifeline("bus")
    mem = interaction.add_lifeline("mem")
    interaction.message("req", cpu, bus)
    alt = interaction.alt()
    hit = alt.add_operand("cached")
    hit.add(Message("hit", bus, cpu))
    miss = alt.add_operand("else")
    miss.add(Message("fetch", bus, mem))
    miss.add(Message("data", mem, bus))
    miss.add(Message("resp", bus, cpu))
    return interaction


class TestStructure:
    def test_lifeline_uniqueness(self):
        interaction = Interaction("i")
        interaction.add_lifeline("a")
        with pytest.raises(InteractionError):
            interaction.add_lifeline("a")

    def test_lifeline_lookup(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        assert interaction.lifeline("a") is a
        with pytest.raises(InteractionError):
            interaction.lifeline("ghost")

    def test_message_by_lifeline_names(self):
        interaction = Interaction("i")
        interaction.add_lifeline("a")
        interaction.add_lifeline("b")
        message = interaction.message("ping", "a", "b")
        assert message.label == "a->b:ping"

    def test_self_message(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        message = interaction.message("tick", a, a)
        assert message.is_self_message

    def test_single_operand_fragments(self):
        interaction = Interaction("i")
        opt = interaction.opt()
        opt.add_operand()
        with pytest.raises(InteractionError):
            opt.add_operand()

    def test_loop_bounds_validated(self):
        interaction = Interaction("i")
        with pytest.raises(InteractionError):
            interaction.loop(3, 1)

    def test_loop_bounds_revalidated(self):
        # a model file sets the bounds without the constructor's check
        interaction = Interaction("i")
        loop = interaction.loop(0, 2)
        loop.add_operand()
        loop.loop_min = 3
        with pytest.raises(InteractionError, match="invalid loop bounds"):
            traces(interaction)

    def test_validate_rejects_foreign_lifeline(self):
        first = Interaction("a")
        second = Interaction("b")
        mine = first.add_lifeline("x")
        theirs = second.add_lifeline("y")
        message = Message("m", mine, theirs)
        first._own(message)
        with pytest.raises(InteractionError):
            first.validate()

    def test_empty_fragment_rejected(self):
        interaction = Interaction("i")
        interaction.alt()  # no operands
        with pytest.raises(InteractionError):
            interaction.validate()


class TestTraces:
    def test_alt_union(self, bus_read):
        trace_set = traces(bus_read)
        assert len(trace_set) == 2
        assert ("cpu->bus:req", "bus->cpu:hit") in trace_set

    def test_guard_narrowing_with_env(self, bus_read):
        hit_traces = traces(bus_read, env={"cached": True})
        assert hit_traces == [("cpu->bus:req", "bus->cpu:hit")]
        miss_traces = traces(bus_read, env={"cached": False})
        assert len(miss_traces) == 1
        assert miss_traces[0][-1] == "bus->cpu:resp"

    def test_opt_adds_empty_trace(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        opt = interaction.opt()
        body = opt.add_operand()
        body.add(Message("maybe", a, b))
        assert set(traces(interaction)) == {(), ("a->b:maybe",)}

    def test_loop_repetition(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        loop = interaction.loop(1, 3)
        body = loop.add_operand()
        body.add(Message("beat", a, b))
        lengths = sorted(len(t) for t in traces(interaction))
        assert lengths == [1, 2, 3]

    def test_par_interleavings(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        par = interaction.par()
        one = par.add_operand()
        one.add(Message("x1", a, b))
        one.add(Message("x2", a, b))
        two = par.add_operand()
        two.add(Message("y1", b, a))
        trace_set = traces(interaction)
        assert len(trace_set) == 3  # C(3,1) positions for y1
        for trace in trace_set:
            assert trace.index("a->b:x1") < trace.index("a->b:x2")

    def test_strict_concatenates(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        strict = interaction.strict()
        for name in ("first", "second"):
            operand = strict.add_operand()
            operand.add(Message(name, a, b))
        assert traces(interaction) == [("a->b:first", "a->b:second")]

    def test_nested_fragments(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        outer = interaction.alt()
        branch = outer.add_operand()
        inner = CombinedFragment(InteractionOperator.OPT)
        branch.add(inner)
        inner_body = inner.add_operand()
        inner_body.add(Message("deep", a, b))
        other = outer.add_operand()
        other.add(Message("flat", a, b))
        assert set(traces(interaction)) == {(), ("a->b:deep",),
                                            ("a->b:flat",)}

    def test_enumeration_limit(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        par = interaction.par()
        for operand_index in range(3):
            operand = par.add_operand()
            for message_index in range(4):
                operand.add(Message(f"m{operand_index}_{message_index}",
                                    a, b))
        with pytest.raises(InteractionError):
            traces(interaction, limit=100)


    def test_empty_loop_body_ends_the_enumeration(self):
        # an alt with no viable operand gives the loop no body trace:
        # only the zero-repetition trace, however large the bound
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        loop = interaction.loop(0, 10**9)
        alt = CombinedFragment(InteractionOperator.ALT)
        loop.add_operand().add(alt)
        alt.add_operand("go").add(Message("m", a, b))
        assert traces(interaction, env={"go": False}) == [()]

    @staticmethod
    def repeated(count, signals):
        """One ``loop(count, count)`` over a message per signal."""
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        operand = interaction.loop(count, count).add_operand()
        for signal in signals:
            operand.add(Message(signal, a, b))
        return interaction

    def test_a_loop_longer_than_the_limit_is_refused(self):
        # one trace, so the trace count alone let it through
        assert traces(self.repeated(1000, "m"), limit=1_000) \
            == [("a->b:m",) * 1000]
        with pytest.raises(InteractionError,
                           match="^loop's longest trace, 1001 labels, "
                                 "exceeded limit 1000$"):
            traces(self.repeated(1001, "m"), limit=1_000)

    def test_a_small_limit_bounds_only_the_trace_count(self):
        assert traces(self.repeated(500, "m"), limit=1) \
            == [("a->b:m",) * 500]

    def test_one_long_trace_is_built_at_once(self):
        # built by 32,000 growing concatenations, this took about 5 s
        start = time.perf_counter()
        (trace,) = traces(self.repeated(32_000, "xy"))
        assert time.perf_counter() - start < 0.5
        assert trace == ("a->b:x", "a->b:y") * 32_000


class TestCounting:
    def test_closed_form_matches_enumeration(self, bus_read):
        assert trace_count(bus_read) == len(traces(bus_read))

    def test_par_multinomial(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        par = interaction.par()
        for operand_index in range(2):
            operand = par.add_operand()
            for message_index in range(3):
                operand.add(Message(f"m{operand_index}_{message_index}",
                                    a, b))
        assert trace_count(interaction) == interleaving_count([3, 3]) == 20
        assert len(traces(interaction)) == 20

    def test_interleaving_count(self):
        assert interleaving_count([2, 2]) == 6
        assert interleaving_count([1, 1, 1]) == 6
        assert interleaving_count([0, 5]) == 1

    def test_loop_count(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        loop = interaction.loop(0, 4)
        body = loop.add_operand()
        body.add(Message("beat", a, b))
        assert trace_count(interaction) == 5


class TestConformance:
    def test_positive_and_negative(self, bus_read):
        assert conforms(bus_read, ("cpu->bus:req", "bus->cpu:hit"))
        assert conforms(bus_read, ("cpu->bus:req", "bus->mem:fetch",
                                   "mem->bus:data", "bus->cpu:resp"))
        assert not conforms(bus_read, ("cpu->bus:req",))
        assert not conforms(bus_read, ("bus->cpu:hit", "cpu->bus:req"))

    def test_par_conformance_without_enumeration_order(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        par = interaction.par()
        one = par.add_operand()
        one.add(Message("x1", a, b))
        one.add(Message("x2", a, b))
        two = par.add_operand()
        two.add(Message("y1", b, a))
        two.add(Message("y2", b, a))
        assert conforms(interaction,
                        ("a->b:x1", "b->a:y1", "b->a:y2", "a->b:x2"))
        assert not conforms(interaction,
                            ("a->b:x2", "a->b:x1", "b->a:y1", "b->a:y2"))

    def test_loop_conformance(self):
        interaction = Interaction("i")
        a = interaction.add_lifeline("a")
        b = interaction.add_lifeline("b")
        loop = interaction.loop(1, 3)
        body = loop.add_operand()
        body.add(Message("beat", a, b))
        assert conforms(interaction, ("a->b:beat",) * 2)
        assert not conforms(interaction, ())
        assert not conforms(interaction, ("a->b:beat",) * 4)

    def test_every_enumerated_trace_conforms(self, bus_read):
        for trace in traces(bus_read):
            assert conforms(bus_read, trace)

    def test_guarded_conformance(self, bus_read):
        hit = ("cpu->bus:req", "bus->cpu:hit")
        assert conforms(bus_read, hit, env={"cached": True})
        assert not conforms(bus_read, hit, env={"cached": False})
