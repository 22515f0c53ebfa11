"""The model root and whole-model queries.

A :class:`Model` is the top-level package of a UML model.  It provides
indexed lookup by ``xmi_id``, typed iteration, and summary statistics
used by the metrics package and the benchmark workload generators.

Also here: :func:`model_fingerprint`, the content-addressed hash over
an ownership tree that keys the MDA transform cache.  Two independently
built but structurally identical models fingerprint the same (the hash
walks content, not ``xmi_id`` identities), and any mutation changes the
fingerprint.  Recomputation is O(1) for an unchanged tree: the digest
is cached per :attr:`Element.generation`.
"""

from __future__ import annotations

import enum
import hashlib
import re
from typing import Any, Dict, Iterator, Optional, Tuple, Type, TypeVar

from ..errors import LookupFailed
from .element import Element, Multiplicity
from .namespaces import Package

E = TypeVar("E", bound=Element)

#: Attributes excluded from the fingerprint: identity (fresh per run),
#: tree bookkeeping (covered by the walk itself), the cache fields and
#: the state machine validation record.
_FP_SKIP = frozenset(
    {"xmi_id", "_owner", "_owned", "_generation", "_fp_cache",
     "_subtree_fp_cache", "_validated"})

#: CPython default reprs embed process-local addresses ("at 0x7f...").
_ADDRESS_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _encode_value(value: Any, index: Dict[int, int], out: list) -> None:
    """Append a canonical token stream for one attribute value."""
    if value is None:
        out.append("N")
    elif isinstance(value, bool):
        out.append(f"b{value}")
    elif isinstance(value, (int, float)):
        out.append(f"n{value!r}")
    elif isinstance(value, str):
        out.append(f"s{len(value)}:{value}")
    elif isinstance(value, enum.Enum):
        out.append(f"e{type(value).__name__}.{value.name}")
    elif isinstance(value, Element):
        position = index.get(id(value))
        if position is not None:
            out.append(f"@{position}")  # in-tree ref -> walk position
        else:
            # reference into another tree: hash by type and name only
            out.append(f"x{type(value).__name__}:"
                       f"{getattr(value, 'name', '')}")
    elif isinstance(value, Multiplicity):
        out.append(f"m{value}")
    elif isinstance(value, (list, tuple)):
        out.append(f"[{len(value)}")
        for item in value:
            _encode_value(item, index, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append(f"{{{len(value)}")
        for key in sorted(value, key=str):
            out.append(f"k{key}")
            _encode_value(value[key], index, out)
        out.append("}")
    elif isinstance(value, (set, frozenset)):
        # tokenize each member recursively, then sort the token strings:
        # str(member) would leak process-local state (xmi_id counters,
        # default reprs with memory addresses) into the digest
        member_tokens = []
        for item in value:
            sub: list = []
            _encode_value(item, index, sub)
            member_tokens.append("\x1e".join(sub))
        out.append(f"S{len(value)}:{'|'.join(sorted(member_tokens))}")
    elif callable(value):
        out.append(f"c{getattr(value, '__qualname__', 'callable')}")
    else:
        # strip CPython's "at 0x..." addresses from default reprs so the
        # fallback never varies between processes
        text = _ADDRESS_RE.sub("", f"{value}")
        out.append(f"o{type(value).__name__}:{text}")


def model_fingerprint(root: Element) -> str:
    """Stable content hash of the ownership tree rooted at ``root``.

    The digest covers every element's metaclass and attributes in
    pre-order; in-tree element references hash as walk positions, so
    the result is independent of ``xmi_id`` allocation.  Cached against
    :attr:`Element.generation` — repeat calls on an unchanged tree are
    a dict lookup.
    """
    generation = root.__dict__.get("_generation", 0)
    cached = root.__dict__.get("_fp_cache")
    if cached is not None and cached[0] == generation:
        return cached[1]

    digest = _subtree_digest(root)
    # store via __dict__ so the cache write itself does not bump the
    # generation counter and invalidate what it just computed
    root.__dict__["_fp_cache"] = (generation, digest)
    return digest


def _subtree_digest(top: Element) -> str:
    """Uncached content hash of the ownership subtree under ``top``."""
    elements = [top]
    elements.extend(top.all_owned())
    index = {id(element): position
             for position, element in enumerate(elements)}
    hasher = hashlib.blake2b(digest_size=16)
    tokens: list = []
    for element in elements:
        tokens.append(f"E{type(element).__name__}")
        attributes = element.__dict__
        for name in sorted(attributes):
            if name in _FP_SKIP:
                continue
            tokens.append(f"a{name}")
            _encode_value(attributes[name], index, tokens)
    hasher.update("\x1f".join(tokens).encode("utf-8", "surrogatepass"))
    return hasher.hexdigest()


def element_fingerprint(element: Element) -> str:
    """Stable content hash of the subtree rooted at ``element``.

    Like :func:`model_fingerprint` but usable on any element of a tree:
    the walk covers only ``element`` and its transitively owned children,
    so sibling subtrees of the same model fingerprint independently —
    editing one state machine changes only that machine's subtree digest.
    References *out* of the subtree hash by type and name (the same rule
    whole-model fingerprints apply to cross-tree references).

    Cached against the owning tree root's generation counter, so repeat
    calls on an unchanged tree are a dict lookup.
    """
    generation = element.root().__dict__.get("_generation", 0)
    cached = element.__dict__.get("_subtree_fp_cache")
    if cached is not None and cached[0] == generation:
        return cached[1]
    digest = _subtree_digest(element)
    element.__dict__["_subtree_fp_cache"] = (generation, digest)
    return digest


class Model(Package):
    """Root package of a UML model."""

    _id_tag = "Model"

    def __init__(self, name: str = "model"):
        super().__init__(name)

    # -- lookup -----------------------------------------------------------

    def find_by_id(self, xmi_id: str) -> Optional[Element]:
        """Locate any owned element by its ``xmi_id`` (linear scan)."""
        if self.xmi_id == xmi_id:
            return self
        for element in self.all_owned():
            if element.xmi_id == xmi_id:
                return element
        return None

    def element_by_id(self, xmi_id: str) -> Element:
        """Like :meth:`find_by_id` but raising when absent."""
        found = self.find_by_id(xmi_id)
        if found is None:
            raise LookupFailed(f"model {self.name!r} has no element {xmi_id!r}")
        return found

    def build_id_index(self) -> Dict[str, Element]:
        """A dict from ``xmi_id`` to element, for repeated lookups."""
        index: Dict[str, Element] = {self.xmi_id: self}
        for element in self.all_owned():
            index[element.xmi_id] = element
        return index

    # -- iteration ----------------------------------------------------------

    def elements_of_type(self, kind: Type[E]) -> Iterator[E]:
        """Yield every transitively owned element of the given kind."""
        for element in self.all_owned():
            if isinstance(element, kind):
                yield element

    def element_count(self) -> int:
        """Total number of owned elements (excluding the root itself)."""
        return sum(1 for _ in self.all_owned())

    def fingerprint(self) -> str:
        """Content hash of the whole model (see :func:`model_fingerprint`)."""
        return model_fingerprint(self)

    # -- statistics -----------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Count of owned elements per concrete metaclass name."""
        counts: Dict[str, int] = {}
        for element in self.all_owned():
            key = type(element).__name__
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def __repr__(self) -> str:
        return f"<Model {self.name!r} ({self.element_count()} elements)>"
