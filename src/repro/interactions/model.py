"""Interaction (sequence diagram) metamodel.

UML 2.0 extended the Sequence Diagram "to be comparable to an SDL
Message Sequence Chart" (the paper): lifelines, messages of several
sorts, and — the UML 2.0 addition — *combined fragments* (``alt``,
``opt``, ``loop``, ``par``, ``strict``, ``critical``) structuring the
message flow.  Trace semantics live in
:mod:`repro.interactions.traces`.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import InteractionError
from ..metamodel.classifiers import Classifier
from ..metamodel.element import Element
from ..metamodel.namespaces import NamedElement, PackageableElement


class MessageSort(enum.Enum):
    """The kind of communication a message conveys."""

    SYNC_CALL = "synchCall"
    ASYNC_CALL = "asynchCall"
    ASYNC_SIGNAL = "asynchSignal"
    REPLY = "reply"
    CREATE = "createMessage"
    DELETE = "deleteMessage"


class InteractionOperator(enum.Enum):
    """Combined fragment operators (the supported UML 2.0 subset)."""

    ALT = "alt"
    OPT = "opt"
    LOOP = "loop"
    PAR = "par"
    STRICT = "strict"
    CRITICAL = "critical"


class Lifeline(NamedElement):
    """A participant in the interaction."""

    _id_tag = "Lifeline"

    def __init__(self, name: str = "",
                 represents: Optional[Classifier] = None):
        super().__init__(name)
        self.represents = represents

    def __repr__(self) -> str:
        return f"<Lifeline {self.name!r}>"


class Message(Element):
    """A message between two lifelines (or a self-message)."""

    _id_tag = "Message"

    def __init__(self, name: str, sender: Lifeline, receiver: Lifeline,
                 sort: MessageSort = MessageSort.ASYNC_SIGNAL,
                 arguments: Optional[Dict[str, Any]] = None):
        super().__init__()
        self.name = name
        self.sender = sender
        self.receiver = receiver
        self.sort = sort
        self.arguments = dict(arguments or {})

    @property
    def is_self_message(self) -> bool:
        """True when sender and receiver coincide."""
        return self.sender is self.receiver

    @property
    def label(self) -> str:
        """Canonical trace label: ``sender->receiver:name``."""
        return f"{self.sender.name}->{self.receiver.name}:{self.name}"

    def __repr__(self) -> str:
        return f"<Message {self.label}>"


class InteractionOperand(Element):
    """One operand of a combined fragment, with an optional guard.

    ``fragments`` is the ordered body: messages and nested combined
    fragments.  The guard is an ASL expression evaluated against the
    environment passed to the trace functions (an absent guard is
    ``true``).
    """

    _id_tag = "InteractionOperand"

    def __init__(self, guard: Optional[str] = None):
        super().__init__()
        self.guard = guard

    @property
    def fragments(self) -> Tuple[Element, ...]:
        """The ordered body of this operand."""
        return tuple(child for child in self.owned_elements
                     if isinstance(child, (Message, CombinedFragment)))

    def add(self, fragment: Union[Message, "CombinedFragment"]) -> Element:
        """Append a message or nested fragment to the operand body."""
        self._own(fragment)
        return fragment


class CombinedFragment(Element):
    """A combined fragment: operator + one or more operands."""

    _id_tag = "CombinedFragment"

    def __init__(self, operator: InteractionOperator,
                 loop_min: int = 0, loop_max: int = 1):
        super().__init__()
        self.operator = operator
        if operator is InteractionOperator.LOOP:
            if loop_min < 0 or loop_max < loop_min:
                raise InteractionError(
                    f"invalid loop bounds [{loop_min}, {loop_max}]")
        self.loop_min = loop_min
        self.loop_max = loop_max

    @property
    def operands(self) -> Tuple[InteractionOperand, ...]:
        """The operands, in declaration order."""
        return self.owned_of_type(InteractionOperand)

    def add_operand(self, guard: Optional[str] = None) -> InteractionOperand:
        """Append an operand.

        ``opt``/``loop``/``critical`` take exactly one operand; ``alt``,
        ``par`` and ``strict`` take any number.
        """
        single = (InteractionOperator.OPT, InteractionOperator.LOOP,
                  InteractionOperator.CRITICAL)
        if self.operator in single and self.operands:
            raise InteractionError(
                f"{self.operator.value} fragments take exactly one operand")
        operand = InteractionOperand(guard)
        self._own(operand)
        return operand

    def validate(self) -> None:
        """Raise on structurally invalid fragments."""
        count = len(self.operands)
        if count == 0:
            raise InteractionError(
                f"{self.operator.value} fragment has no operands")
        if self.operator is InteractionOperator.ALT and count < 1:
            raise InteractionError("alt needs at least one operand")
        if self.operator in (InteractionOperator.PAR,
                             InteractionOperator.STRICT) and count < 2:
            raise InteractionError(
                f"{self.operator.value} needs at least two operands")
        # the constructor's check again: a model file sets the bounds
        # without calling it
        if self.operator is InteractionOperator.LOOP and not (
                0 <= self.loop_min <= self.loop_max):
            raise InteractionError(
                f"invalid loop bounds [{self.loop_min}, {self.loop_max}]")

    def __repr__(self) -> str:
        return (f"<CombinedFragment {self.operator.value} "
                f"({len(self.operands)} operands)>")


class Interaction(PackageableElement):
    """A sequence diagram: lifelines plus an ordered fragment body."""

    _id_tag = "Interaction"

    # -- lifelines -----------------------------------------------------------

    @property
    def lifelines(self) -> Tuple[Lifeline, ...]:
        """Participating lifelines."""
        return self.owned_of_type(Lifeline)

    def add_lifeline(self, name: str,
                     represents: Optional[Classifier] = None) -> Lifeline:
        """Create and own a lifeline."""
        if any(l.name == name for l in self.lifelines):
            raise InteractionError(
                f"interaction {self.name!r} already has lifeline {name!r}")
        lifeline = Lifeline(name, represents)
        self._own(lifeline)
        return lifeline

    def lifeline(self, name: str) -> Lifeline:
        """Lookup a lifeline by name."""
        for lifeline in self.lifelines:
            if lifeline.name == name:
                return lifeline
        raise InteractionError(
            f"interaction {self.name!r} has no lifeline {name!r}")

    # -- body ------------------------------------------------------------------

    @property
    def fragments(self) -> Tuple[Element, ...]:
        """The ordered top-level body (messages and combined fragments)."""
        return tuple(child for child in self.owned_elements
                     if isinstance(child, (Message, CombinedFragment)))

    def message(self, name: str, sender: Union[Lifeline, str],
                receiver: Union[Lifeline, str],
                sort: MessageSort = MessageSort.ASYNC_SIGNAL,
                arguments: Optional[Dict[str, Any]] = None) -> Message:
        """Append a message to the top-level body."""
        sender_obj = self.lifeline(sender) if isinstance(sender, str) else sender
        receiver_obj = (self.lifeline(receiver) if isinstance(receiver, str)
                        else receiver)
        message = Message(name, sender_obj, receiver_obj, sort, arguments)
        self._own(message)
        return message

    def combined(self, operator: InteractionOperator,
                 loop_min: int = 0, loop_max: int = 1) -> CombinedFragment:
        """Append a combined fragment to the top-level body."""
        fragment = CombinedFragment(operator, loop_min, loop_max)
        self._own(fragment)
        return fragment

    def alt(self) -> CombinedFragment:
        """Append an ``alt`` fragment."""
        return self.combined(InteractionOperator.ALT)

    def opt(self) -> CombinedFragment:
        """Append an ``opt`` fragment."""
        return self.combined(InteractionOperator.OPT)

    def par(self) -> CombinedFragment:
        """Append a ``par`` fragment."""
        return self.combined(InteractionOperator.PAR)

    def strict(self) -> CombinedFragment:
        """Append a ``strict`` fragment."""
        return self.combined(InteractionOperator.STRICT)

    def loop(self, minimum: int, maximum: int) -> CombinedFragment:
        """Append a ``loop`` fragment with the given iteration bounds."""
        return self.combined(InteractionOperator.LOOP, minimum, maximum)

    def validate(self) -> None:
        """Validate all nested combined fragments and message endpoints."""
        owned_lifelines = set(map(id, self.lifelines))
        for element in self.all_owned():
            if isinstance(element, CombinedFragment):
                element.validate()
            if isinstance(element, Message):
                if (id(element.sender) not in owned_lifelines
                        or id(element.receiver) not in owned_lifelines):
                    raise InteractionError(
                        f"{element!r} references a lifeline outside "
                        f"interaction {self.name!r}")

    def __repr__(self) -> str:
        return (f"<Interaction {self.name!r} ({len(self.lifelines)} "
                f"lifelines)>")
