"""Root of the UML 2.0 metamodel: :class:`Element` and ownership.

Every UML model element derives from :class:`Element`.  Elements form a
strict ownership *tree* (UML's composite ownership): each element has at
most one owner, and the library enforces that invariant on every
structural mutation.  This mirrors the UML 2.0 Superstructure's
``Element::owner`` / ``Element::ownedElement`` derived unions.

Also defined here: the enumerations shared across the metamodel
(:class:`VisibilityKind`, :class:`AggregationKind`,
:class:`ParameterDirection`) and :class:`Multiplicity`, the value object
behind UML multiplicity strings such as ``"0..*"``.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, List, Optional, Tuple, Type, TypeVar

from .._ids import next_id
from ..errors import ModelError

E = TypeVar("E", bound="Element")
T = TypeVar("T")


class VisibilityKind(enum.Enum):
    """UML visibility of a named element within its namespace."""

    PUBLIC = "public"
    PRIVATE = "private"
    PROTECTED = "protected"
    PACKAGE = "package"


class AggregationKind(enum.Enum):
    """Kind of aggregation for a property that is an association end."""

    NONE = "none"
    SHARED = "shared"
    COMPOSITE = "composite"


class ParameterDirection(enum.Enum):
    """Direction of an operation parameter."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"
    RETURN = "return"


#: Upper bound value representing UML's unlimited natural ``*``.
UNLIMITED: Optional[int] = None


class Multiplicity:
    """A UML multiplicity: a lower bound and an upper bound.

    The upper bound is ``None`` for ``*`` (unlimited).  Instances are
    immutable value objects and compare by bounds.

    >>> Multiplicity.parse("0..*")
    Multiplicity('0..*')
    >>> Multiplicity.parse("1").accepts(1)
    True
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: int = 1, upper: Optional[int] = 1):
        if lower < 0:
            raise ModelError(f"multiplicity lower bound must be >= 0, got {lower}")
        if upper is not None and upper < lower:
            raise ModelError(
                f"multiplicity upper bound {upper} is below lower bound {lower}"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Multiplicity is immutable")

    def __reduce__(self):
        # immutability blocks the default slot-state protocol; rebuild
        # through the constructor (needed to ship models to process
        # pools in codegen.pipeline)
        return (Multiplicity, (self.lower, self.upper))

    @classmethod
    def parse(cls, text: str) -> "Multiplicity":
        """Parse a UML multiplicity string: ``"1"``, ``"0..1"``, ``"2..*"``, ``"*"``."""
        text = text.strip()
        if text == "*":
            return cls(0, UNLIMITED)
        if ".." in text:
            low_text, high_text = text.split("..", 1)
            lower = int(low_text)
            upper = UNLIMITED if high_text.strip() == "*" else int(high_text)
            return cls(lower, upper)
        value = int(text)
        return cls(value, value)

    def accepts(self, count: int) -> bool:
        """Return True if ``count`` values satisfy this multiplicity."""
        if count < self.lower:
            return False
        return self.upper is None or count <= self.upper

    @property
    def is_unlimited(self) -> bool:
        """True when the upper bound is ``*``."""
        return self.upper is None

    @property
    def is_collection(self) -> bool:
        """True when more than one value may be held."""
        return self.upper is None or self.upper > 1

    def __str__(self) -> str:
        if self.upper is None:
            return "*" if self.lower == 0 else f"{self.lower}..*"
        if self.lower == self.upper:
            return str(self.lower)
        return f"{self.lower}..{self.upper}"

    def __repr__(self) -> str:
        return f"Multiplicity('{self}')"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiplicity):
            return NotImplemented
        return (self.lower, self.upper) == (other.lower, other.upper)

    def __hash__(self) -> int:
        return hash((self.lower, self.upper))


#: Common multiplicities, ready to share (the object is immutable).
ONE = Multiplicity(1, 1)
OPTIONAL = Multiplicity(0, 1)
MANY = Multiplicity(0, UNLIMITED)
ONE_OR_MORE = Multiplicity(1, UNLIMITED)


class Element:
    """Abstract root of the metamodel; owns other elements compositely.

    Subclasses *must* route ownership changes through :meth:`_own` and
    :meth:`_disown` so the single-owner invariant holds everywhere.
    """

    _id_tag = "Element"

    def __init__(self) -> None:
        self.xmi_id: str = next_id(type(self)._id_tag)
        self._owner: Optional[Element] = None
        self._owned: List[Element] = []

    # -- mutation tracking ----------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        """Set the attribute and bump the owning tree's generation.

        The generation counter lives on the tree root and increments on
        every attribute assignment anywhere in the tree; :meth:`memo`
        keys on it.  Writes go through ``__dict__`` directly so the bump
        itself never re-enters this hook.
        """
        object.__setattr__(self, name, value)
        target: Element = self
        node = target.__dict__.get("_owner")
        while node is not None:
            target = node
            node = node.__dict__.get("_owner")
        owner_dict = target.__dict__
        owner_dict["_generation"] = owner_dict.get("_generation", 0) + 1

    def _note_mutation(self) -> None:
        """Record a structural mutation invisible to ``__setattr__``.

        List/dict mutations (``_owned.append``, deferrable triggers, …)
        do not pass through the attribute hook; call this explicitly.
        """
        root = self.root()
        owner_dict = root.__dict__
        owner_dict["_generation"] = owner_dict.get("_generation", 0) + 1

    @property
    def generation(self) -> int:
        """Mutation counter of the tree rooted here (0 when untouched).

        Only meaningful on a tree root: mutations anywhere in a tree bump
        the *root's* counter.
        """
        return self.__dict__.get("_generation", 0)

    def memo(self, compute: Callable[["Element"], T]) -> T:
        """``compute(self)``, computed once per edit of this tree.

        The one cache of values derived from a model tree: a machine's
        walk, validation and compiled tables, and fingerprints.  The
        values live on this element, keyed by ``compute``, in one
        record, ``__dict__["_memo"]``, held against the identity and
        generation of the tree's root: any edit in the tree, or a move
        into another tree, drops them all.  Written through
        ``__dict__``, the record bumps no generation, fingerprints skip
        it, and it dies with the element.  A ``compute`` that raises
        records nothing, so it raises again on the next call.
        """
        root = self.root()
        key = (id(root), root.generation)
        record = self.__dict__.get("_memo")
        if record is None or record[0] != key:
            record = self.__dict__["_memo"] = (key, {})
        values = record[1]
        if compute not in values:
            values[compute] = compute(self)
        return values[compute]

    # -- ownership tree -------------------------------------------------

    @property
    def owner(self) -> Optional["Element"]:
        """The unique owner of this element, or None for a root."""
        return self._owner

    @property
    def owned_elements(self) -> Tuple["Element", ...]:
        """Directly owned elements, in insertion order."""
        return tuple(self._owned)

    def _own(self, child: "Element") -> "Element":
        """Take composite ownership of ``child`` (single-owner enforced)."""
        if child is self:
            raise ModelError(f"{self!r} cannot own itself")
        if child._owner is not None:
            raise ModelError(
                f"{child!r} is already owned by {child._owner!r}; "
                "remove it from its owner first"
            )
        ancestor: Optional[Element] = self
        while ancestor is not None:
            if ancestor is child:
                raise ModelError(f"ownership cycle: {child!r} is an ancestor of {self!r}")
            ancestor = ancestor._owner
        child._owner = self
        self._owned.append(child)
        return child

    def _disown(self, child: "Element") -> "Element":
        """Release ownership of ``child``."""
        if child._owner is not self:
            raise ModelError(f"{child!r} is not owned by {self!r}")
        # bump the old tree's generation while the child is still
        # attached — after the unlink the child walks to itself
        self._note_mutation()
        child._owner = None
        self._owned.remove(child)
        return child

    def root(self) -> "Element":
        """The top of the ownership tree containing this element."""
        node: Element = self
        while node._owner is not None:
            node = node._owner
        return node

    def owner_chain(self) -> Iterator["Element"]:
        """Yield owners from the direct owner up to the root."""
        node = self._owner
        while node is not None:
            yield node
            node = node._owner

    def all_owned(self) -> Iterator["Element"]:
        """Yield every transitively owned element (pre-order).

        Lazy, with an explicit stack of iterators over the live
        ``_owned`` lists: no generator per level, so a tree of any
        depth walks without recursion, and a child added during the
        walk is still reached, exactly as a recursive walk would.
        """
        stack = [iter(self._owned)]
        while stack:
            for child in stack[-1]:
                yield child
                if child._owned:
                    stack.append(iter(child._owned))
                break
            else:
                stack.pop()

    def owned_of_type(self, kind: Type[E]) -> Tuple[E, ...]:
        """Directly owned elements that are instances of ``kind``."""
        return tuple(child for child in self._owned if isinstance(child, kind))

    def descendants_of_type(self, kind: Type[E]) -> Tuple[E, ...]:
        """All transitively owned elements that are instances of ``kind``."""
        return tuple(child for child in self.all_owned() if isinstance(child, kind))

    # -- comments --------------------------------------------------------

    @property
    def comments(self) -> Tuple["Comment", ...]:
        """Comments attached to this element."""
        return self.owned_of_type(Comment)

    def add_comment(self, body: str) -> "Comment":
        """Attach a :class:`Comment` with the given body text."""
        comment = Comment(body)
        self._own(comment)
        return comment

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.xmi_id}>"


class Comment(Element):
    """An annotation attached to an element (UML Comment)."""

    _id_tag = "Comment"

    def __init__(self, body: str = ""):
        super().__init__()
        self.body = body

    def __repr__(self) -> str:
        preview = self.body if len(self.body) <= 30 else self.body[:27] + "..."
        return f"<Comment {preview!r}>"
