"""Trace semantics for interactions (MSC-style).

An interaction denotes a *set of traces* — sequences of message labels.
This module provides:

* :func:`traces` — enumerate the trace set (bounded);
* :func:`trace_count` — count traces without materializing them where a
  closed form exists (flat ``par`` operands use the multinomial
  interleaving count), falling back to bounded enumeration;
* :func:`conforms` — membership test for a concrete trace, implemented
  as a memoized nondeterministic matcher so conformance does not
  require enumerating the (potentially factorial) trace set.

Semantics notes: sequencing inside an operand is *strict* (a faithful
weak-sequencing implementation would track per-lifeline orderings; the
``par`` operator recovers the interleaving behaviour designers actually
use fragments for).  ``alt`` operand guards are ASL expressions
evaluated against the optional ``env`` — without an ``env`` all
operands are considered viable (the full language).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import InteractionError
from .model import (
    CombinedFragment,
    Interaction,
    InteractionOperand,
    InteractionOperator,
    Message,
)

Trace = Tuple[str, ...]

#: The fewest labels a loop's longest trace may always hold: below it a
#: small ``limit`` bounds the trace count alone.
LOOP_LABELS_FLOOR = 1_000


def _guard_allows(operand: InteractionOperand,
                  env: Optional[Dict[str, Any]]) -> bool:
    if operand.guard is None or env is None:
        return True
    if operand.guard.strip() == "else":
        return True  # handled by the caller for alt; standalone = viable
    from .. import asl

    return bool(asl.evaluate(operand.guard, dict(env)))


def _viable_operands(fragment: CombinedFragment,
                     env: Optional[Dict[str, Any]]) -> List[InteractionOperand]:
    """Operands an alt may choose, honouring guards and the else branch."""
    operands = list(fragment.operands)
    if env is None:
        return operands
    else_ops = [op for op in operands
                if op.guard is not None and op.guard.strip() == "else"]
    passing = [op for op in operands
               if op not in else_ops and _guard_allows(op, env)]
    if passing:
        return passing
    return else_ops


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _interleavings(traces: Sequence[Trace]) -> Iterator[Trace]:
    """All interleavings of the given traces (preserving each order)."""
    traces = [t for t in traces if t]
    if not traces:
        yield ()
        return
    if len(traces) == 1:
        yield traces[0]
        return
    for index, trace in enumerate(traces):
        head, rest = trace[0], trace[1:]
        remaining = list(traces)
        if rest:
            remaining[index] = rest
        else:
            del remaining[index]
        for tail in _interleavings(remaining):
            yield (head,) + tail


def _loop_count_exceeds(body_count: int, loop_min: int, loop_max: int,
                        limit: int) -> bool:
    """Whether a loop yields more than ``limit`` traces, counted with
    multiplicity: the sum of ``body_count ** k`` for k in [min, max],
    stopped as soon as it passes the limit, so an oversized loop is
    refused before anything is built."""
    if body_count < 2:
        # 0 ** 0 == 1: an empty body still gives the empty trace once
        count = (loop_max - loop_min + 1 if body_count
                 else int(loop_min == 0))
        return count > limit
    term = 1
    for _ in range(loop_min):
        term *= body_count
        if term > limit:
            return True
    total = 0
    for _ in range(loop_min, loop_max + 1):
        total += term
        if total > limit:
            return True
        term *= body_count
    return False


def _fragment_traces(fragment, env: Optional[Dict[str, Any]],
                     limit: int) -> List[Trace]:
    if isinstance(fragment, Message):
        return [(fragment.label,)]
    if not isinstance(fragment, CombinedFragment):
        raise InteractionError(f"unexpected fragment {fragment!r}")
    operator = fragment.operator

    if operator is InteractionOperator.ALT:
        collected: List[Trace] = []
        for operand in _viable_operands(fragment, env):
            collected.extend(_sequence_traces(operand.fragments, env, limit))
            if len(collected) > limit:
                raise InteractionError(
                    f"trace enumeration exceeded limit {limit}")
        return collected

    if operator is InteractionOperator.OPT:
        body = _sequence_traces(fragment.operands[0].fragments, env, limit)
        if _guard_allows(fragment.operands[0], env):
            return [()] + body
        return [()]

    if operator is InteractionOperator.LOOP:
        body = _sequence_traces(fragment.operands[0].fragments, env, limit)
        if _loop_count_exceeds(len(body), fragment.loop_min,
                               fragment.loop_max, limit):
            raise InteractionError(
                f"trace enumeration exceeded limit {limit}")
        labels = fragment.loop_max * max(map(len, body), default=0)
        bound = max(limit, LOOP_LABELS_FLOOR)
        if labels > bound:
            raise InteractionError(
                f"loop's longest trace, {labels} labels, exceeded limit "
                f"{bound}")
        if len(body) == 1:
            # one trace per repetition count, each built in one step
            return [body[0] * repetitions for repetitions
                    in range(fragment.loop_min, fragment.loop_max + 1)]
        # Repetition r extends repetition r - 1 by one body trace: the
        # order of the product of r body choices, built once.
        power: List[Trace] = [()]
        collected = [] if fragment.loop_min else [()]
        for repetitions in range(1, fragment.loop_max + 1):
            power = [p + b for p in power for b in body]
            if not power:
                break
            if repetitions >= fragment.loop_min:
                collected.extend(power)
        return collected

    if operator in (InteractionOperator.STRICT, InteractionOperator.CRITICAL):
        collected = [()]
        for operand in fragment.operands:
            body = _sequence_traces(operand.fragments, env, limit)
            collected = [c + b for c in collected for b in body]
            if len(collected) > limit:
                raise InteractionError(
                    f"trace enumeration exceeded limit {limit}")
        return collected

    if operator is InteractionOperator.PAR:
        operand_traces = [_sequence_traces(op.fragments, env, limit)
                          for op in fragment.operands]
        collected = []
        combos: List[Tuple[Trace, ...]] = [()]
        for options in operand_traces:
            combos = [c + (o,) for c in combos for o in options]
        for combo in combos:
            for woven in _interleavings(combo):
                collected.append(woven)
                if len(collected) > limit:
                    raise InteractionError(
                        f"trace enumeration exceeded limit {limit}")
        return collected

    raise InteractionError(f"unsupported operator {operator}")


def _sequence_traces(fragments, env: Optional[Dict[str, Any]],
                     limit: int) -> List[Trace]:
    collected: List[Trace] = [()]
    for fragment in fragments:
        options = _fragment_traces(fragment, env, limit)
        collected = [c + o for c in collected for o in options]
        if len(collected) > limit:
            raise InteractionError(
                f"trace enumeration exceeded limit {limit}")
    return collected


def traces(interaction: Interaction, env: Optional[Dict[str, Any]] = None,
           limit: int = 100_000) -> List[Trace]:
    """The interaction's trace set (deduplicated, deterministic order).

    ``limit`` bounds how many traces, counted with multiplicity, any
    fragment or fragment sequence may yield.  It also bounds the labels
    of a loop's longest trace, ``loop_max`` times the longest trace of
    its body, though never below :data:`LOOP_LABELS_FLOOR` (1,000
    labels), so a small ``limit`` bounds the trace count alone.  Past
    either bound the enumeration raises
    :class:`~repro.errors.InteractionError`; a loop's count and labels
    are checked before the loop is built.
    """
    interaction.validate()
    raw = _sequence_traces(interaction.fragments, env, limit)
    seen = set()
    unique: List[Trace] = []
    for trace in raw:
        if trace not in seen:
            seen.add(trace)
            unique.append(trace)
    return unique


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def interleaving_count(lengths: Sequence[int]) -> int:
    """Number of interleavings of sequences with the given lengths."""
    total = sum(lengths)
    count = factorial(total)
    for length in lengths:
        count //= factorial(length)
    return count


def _flat_length(fragments) -> Optional[int]:
    """Length of the operand body if it is a flat message sequence."""
    length = 0
    for fragment in fragments:
        if isinstance(fragment, Message):
            length += 1
        else:
            return None
    return length


def trace_count(interaction: Interaction,
                env: Optional[Dict[str, Any]] = None,
                limit: int = 100_000) -> int:
    """Count traces; uses the multinomial closed form for flat ``par``.

    Falls back to bounded enumeration for nested structures.  Note the
    closed form counts *sequences with multiplicity*; when messages are
    distinct (the generator's case) it equals the unique-trace count.
    """
    def count(fragments) -> Optional[int]:
        total = 1
        for fragment in fragments:
            if isinstance(fragment, Message):
                continue
            if not isinstance(fragment, CombinedFragment):
                return None
            if fragment.operator is InteractionOperator.PAR:
                lengths = []
                for operand in fragment.operands:
                    length = _flat_length(operand.fragments)
                    if length is None:
                        return None
                    lengths.append(length)
                total *= interleaving_count(lengths)
            elif fragment.operator is InteractionOperator.ALT:
                branch_sum = 0
                for operand in _viable_operands(fragment, env):
                    nested = count(operand.fragments)
                    if nested is None:
                        return None
                    branch_sum += nested
                total *= max(branch_sum, 1)
            elif fragment.operator is InteractionOperator.OPT:
                nested = count(fragment.operands[0].fragments)
                if nested is None:
                    return None
                total *= nested + 1
            elif fragment.operator is InteractionOperator.LOOP:
                nested = count(fragment.operands[0].fragments)
                if nested is None:
                    return None
                total *= sum(nested ** k for k in
                             range(fragment.loop_min, fragment.loop_max + 1))
            elif fragment.operator in (InteractionOperator.STRICT,
                                       InteractionOperator.CRITICAL):
                for operand in fragment.operands:
                    nested = count(operand.fragments)
                    if nested is None:
                        return None
                    total *= nested
            else:
                return None
        return total

    closed_form = count(interaction.fragments)
    if closed_form is not None:
        return closed_form
    return len(traces(interaction, env, limit))


# ---------------------------------------------------------------------------
# conformance
# ---------------------------------------------------------------------------

def conforms(interaction: Interaction, trace: Sequence[str],
             env: Optional[Dict[str, Any]] = None) -> bool:
    """True when ``trace`` is in the interaction's trace language.

    Memoized nondeterministic matcher: returns the set of end positions
    reachable after each fragment, so conformance never enumerates the
    whole trace set.  ``par`` interleavings are resolved by recursive
    splitting with memoization on (fragment, position) pairs.
    """
    interaction.validate()
    trace = tuple(trace)
    memo: Dict[Tuple[int, Tuple[int, ...], int], frozenset] = {}

    def match_sequence(fragments: Tuple, position: int) -> frozenset:
        positions = frozenset([position])
        for fragment in fragments:
            next_positions = set()
            for pos in positions:
                next_positions |= match_fragment(fragment, pos)
            positions = frozenset(next_positions)
            if not positions:
                return positions
        return positions

    def match_fragment(fragment, position: int) -> frozenset:
        key = (id(fragment), (), position)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = _match_fragment_uncached(fragment, position)
        memo[key] = result
        return result

    def _match_fragment_uncached(fragment, position: int) -> frozenset:
        if isinstance(fragment, Message):
            if position < len(trace) and trace[position] == fragment.label:
                return frozenset([position + 1])
            return frozenset()
        operator = fragment.operator
        if operator is InteractionOperator.ALT:
            out = set()
            for operand in _viable_operands(fragment, env):
                out |= match_sequence(operand.fragments, position)
            return frozenset(out)
        if operator is InteractionOperator.OPT:
            out = {position}
            if _guard_allows(fragment.operands[0], env):
                out |= match_sequence(fragment.operands[0].fragments,
                                      position)
            return frozenset(out)
        if operator is InteractionOperator.LOOP:
            body = fragment.operands[0].fragments
            current = frozenset([position])
            results = set()
            for iteration in range(fragment.loop_max + 1):
                if iteration >= fragment.loop_min:
                    results |= current
                stepped = set()
                for pos in current:
                    stepped |= match_sequence(body, pos)
                nxt = frozenset(stepped)
                if nxt == current or not nxt:
                    # a fixpoint: every later repetition count ends at
                    # the same positions, and one of them lies within
                    # [loop_min, loop_max]
                    results |= nxt
                    break
                current = nxt
            return frozenset(results)
        if operator in (InteractionOperator.STRICT,
                        InteractionOperator.CRITICAL):
            current = frozenset([position])
            for operand in fragment.operands:
                stepped = set()
                for pos in current:
                    stepped |= match_sequence(operand.fragments, pos)
                current = frozenset(stepped)
                if not current:
                    break
            return current
        if operator is InteractionOperator.PAR:
            return match_par(tuple(op.fragments for op in fragment.operands),
                             position)
        raise InteractionError(f"unsupported operator {operator}")

    def match_par(operand_bodies: Tuple[Tuple, ...],
                  position: int) -> frozenset:
        """Interleaving match via per-operand first-step decomposition."""
        par_memo: Dict[Tuple[Tuple[Tuple[int, int], ...], int], frozenset] = {}

        # Decompose each operand body into (first message consumed,
        # remaining matcher state).  We model operand progress as the
        # set of (fragment index, intra positions...) — to stay simple
        # and correct we instead enumerate each operand's traces ONCE
        # and interleave over them with a DP; memoization keys on the
        # per-operand consumed counts.
        operand_traces = [
            _sequence_traces(body, env, 100_000) for body in operand_bodies
        ]

        ends = set()
        combos: List[Tuple[Trace, ...]] = [()]
        for options in operand_traces:
            combos = [c + (o,) for c in combos for o in options]
        for combo in combos:
            ends |= _interleave_match(combo, position)
        return frozenset(ends)

    def _interleave_match(sequences: Tuple[Trace, ...],
                          position: int) -> frozenset:
        lengths = tuple(len(s) for s in sequences)
        total = sum(lengths)
        if position + total > len(trace):
            pass  # may still fail fast below
        states = {tuple(0 for _ in sequences): {position}}
        for _ in range(total):
            next_states: Dict[Tuple[int, ...], set] = {}
            for consumed, positions in states.items():
                for index, sequence in enumerate(sequences):
                    taken = consumed[index]
                    if taken >= len(sequence):
                        continue
                    label = sequence[taken]
                    for pos in positions:
                        if pos < len(trace) and trace[pos] == label:
                            key = consumed[:index] + (taken + 1,) \
                                + consumed[index + 1:]
                            next_states.setdefault(key, set()).add(pos + 1)
            states = next_states
            if not states:
                return frozenset()
        final_key = lengths
        return frozenset(states.get(final_key, set()))

    ends = match_sequence(tuple(interaction.fragments), 0)
    return len(trace) in ends
