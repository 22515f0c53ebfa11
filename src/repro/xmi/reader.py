"""XMI reader: reconstruct models from documents written by the writer.

Three passes:

1. **Build** — instantiate every ``element`` node (bypassing class
   constructors, which enforce builder-time invariants that the
   document already satisfies), restore plain fields, attach ownership
   by XML nesting, and queue reference fields.
2. **Resolve** — patch ``ref``/``reflist`` fields through the id index
   (``builtin:`` ids resolve to the shared primitive types).
3. **Fixup** — run each class's fixup hook (rebuilding derived internal
   structures), then re-apply stereotype applications.

:data:`~repro.xmi.schema.SPEC` is compiled once, at import, into one
:class:`_Plan` per class: the values every element of the class starts
from, and the converter of each XML attribute.  Build, resolve and the
fixups write fields straight into each new element's ``__dict__``, so
they bump no tree generation (the tree is new: no cache can hold
anything of it); only the stereotype applications of pass three go
through :func:`~repro.profiles.core.apply_stereotype`.  The build walks
the document with an explicit stack, so nesting depth is bounded by
memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from .._ids import reserve_ids
from ..errors import XmiError
from ..metamodel.element import Element, Multiplicity, ONE
from ..metamodel.model import Model
from ..metamodel.types import PRIMITIVES
from ..profiles.core import Profile, Stereotype
from .schema import ENUMS, SPEC, TAG_TYPES, ClassSpec, Field
from .writer import BUILTIN_PREFIX, XMI_NS

_TYPE_ATTR = f"{{{XMI_NS}}}type"
_ID_ATTR = f"{{{XMI_NS}}}id"


class XmiDocument:
    """The result of reading an XMI document."""

    def __init__(self, model: Optional[Model], profiles: List[Profile],
                 elements_by_id: Dict[str, Element]):
        self.model = model
        self.profiles = profiles
        self.elements_by_id = elements_by_id

    def __repr__(self) -> str:
        return (f"<XmiDocument model={self.model!r} "
                f"profiles={len(self.profiles)}>")


# ---------------------------------------------------------------------------
# restore plans, compiled from the schema at import
# ---------------------------------------------------------------------------

# how an XML attribute restores its field
_TEXT = 0      # the field is the text itself
_CONVERT = 1   # the field is converter(text); a failure is located
_REF = 2       # an id, resolved in pass two
_REFLIST = 3   # space-separated ids, resolved in pass two

#: Converters of the plain field kinds: (converter, what a bad value is).
_CONVERTERS: Dict[str, Tuple[Callable[[str], Any], str]] = {
    "int": (int, "integer"),
    "float": (float, "number"),
    "bool": ("true".__eq__, "boolean"),
    "json": (json.loads, "JSON"),
    "multiplicity": (Multiplicity.parse, "multiplicity"),
    "tagtype": (TAG_TYPES.__getitem__, "tag type"),
}

#: Enum type name -> member by value, without the Enum call machinery.
_ENUM_MEMBERS: Dict[str, Callable[[str], Any]] = {
    name: {member.value: member for member in enum_type}.__getitem__
    for name, enum_type in ENUMS.items()}


class _Plan:
    """How the reader restores every element of one class."""

    __slots__ = ("cls", "defaults", "fresh", "steps", "required", "fixup")

    def __init__(self, cls: type, defaults: Dict[str, Any],
                 fresh: Tuple[Tuple[str, Callable[[], Any]], ...],
                 steps: Dict[str, Tuple[str, int, Any, str]],
                 required: Tuple[Tuple[str, str], ...],
                 fixup: Optional[Callable[[Any], None]]):
        self.cls = cls
        #: field -> immutable value every element starts with
        self.defaults = defaults
        #: (field, factory) of the mutable starting values
        self.fresh = fresh
        #: XML attribute -> (field, how, converter, what a bad value is)
        self.steps = steps
        #: (XML attribute, field) that must be present
        self.required = required
        self.fixup = fixup


def _starting_value(field: Field) -> Tuple[Any, Optional[Callable[[], Any]]]:
    """The value of ``field`` when its attribute is absent, as a value
    or, when mutable, as a factory of fresh copies."""
    kind, default = field.kind, field.default
    if kind == "reflist":
        return None, list
    if kind == "multiplicity":
        return ONE, None
    if kind in ("ref", "action"):
        return None, None
    if kind == "json" and isinstance(default, (list, dict)):
        return None, partial(type(default), default)
    return default, None


def _compile_plan(cls: type, spec: ClassSpec) -> _Plan:
    values: Dict[str, Any] = {}
    factories: Dict[str, Callable[[], Any]] = {}
    for name, factory in spec.init:
        if isinstance(factory(), (list, dict, set)):
            factories[name] = factory
        else:
            values[name] = factory()
    steps: Dict[str, Tuple[str, int, Any, str]] = {}
    required: List[Tuple[str, str]] = []
    for field in spec.fields:
        attr = field.name.lstrip("_")
        values.pop(field.name, None)
        factories.pop(field.name, None)
        if field.kind == "tagtype":
            required.append((attr, field.name))
        else:
            value, factory = _starting_value(field)
            if factory is None:
                values[field.name] = value
            else:
                factories[field.name] = factory
        if field.kind in ("str", "action"):
            steps[attr] = (field.name, _TEXT, None, "")
        elif field.kind == "ref":
            steps[attr] = (field.name, _REF, None, "")
        elif field.kind == "reflist":
            steps[attr] = (field.name, _REFLIST, None, "")
        elif field.kind == "enum":
            steps[attr] = (field.name, _CONVERT,
                           _ENUM_MEMBERS[field.enum_type],
                           f"{field.enum_type} value")
        elif field.kind in _CONVERTERS:
            steps[attr] = (field.name, _CONVERT) + _CONVERTERS[field.kind]
        else:
            raise XmiError(f"unknown field kind {field.kind!r}")
    return _Plan(cls, values, tuple(factories.items()), steps,
                 tuple(required), spec.fixup)


#: Class name -> its restore plan.
_PLANS: Dict[str, _Plan] = {cls.__name__: _compile_plan(cls, spec)
                            for cls, spec in SPEC.items()}


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

def read_model(text: str) -> XmiDocument:
    """Parse XMI text produced by :func:`repro.xmi.writer.write_model`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmiError(f"malformed XMI document: {exc}")
    if root.tag != f"{{{XMI_NS}}}XMI":
        raise XmiError(f"not an XMI document (root tag {root.tag!r})")

    index: Dict[str, Element] = {}
    pending_refs: List[Tuple[Element, str, int, str]] = []
    fixups: List[Tuple[Element, Callable[[Any], None]]] = []
    top_level = _build(root, index, pending_refs, fixups)

    # elements created after this load must not reuse the file's ids
    reserve_ids(index)
    _resolve(index, pending_refs)

    for element, fixup in fixups:
        # fixups rebuild derived structure from restored fields; on
        # a corrupt document they can trip over missing pieces, and
        # the caller should still see a located XmiError
        try:
            fixup(element)
        except XmiError:
            raise
        except Exception as exc:
            raise XmiError(
                f"element {element.xmi_id!r} "
                f"({type(element).__name__}): inconsistent document "
                f"structure: {type(exc).__name__}: {exc}") from exc

    applications_node = root.find("applications")
    if applications_node is not None:
        _apply_applications(applications_node, index)

    model = next((e for e in top_level if isinstance(e, Model)), None)
    profiles = [e for e in top_level if isinstance(e, Profile)]
    return XmiDocument(model, profiles, index)


def read_file(path: str) -> XmiDocument:
    """Parse an XMI file."""
    with open(path, "r", encoding="utf-8") as handle:
        return read_model(handle.read())


# ---------------------------------------------------------------------------
# pass 1: build
# ---------------------------------------------------------------------------

def _build(root: ET.Element, index: Dict[str, Element],
           pending_refs: List[Tuple[Element, str, int, str]],
           fixups: List[Tuple[Element, Callable[[Any], None]]]
           ) -> List[Element]:
    """Build every ``element`` node under ``root`` in document pre-order
    (an explicit stack, not recursion) and return the top-level ones.
    Each element's fields come from its class's plan, and it joins its
    owner's ``_owned`` as it is built, so siblings keep document order."""
    top_level: List[Element] = []
    # (XML node, owner or None) — pushed in reverse, popped in order
    stack: List[Tuple[ET.Element, Optional[Element]]] = [
        (node, None) for node in reversed(root) if node.tag == "element"]
    while stack:
        node, owner = stack.pop()
        attributes = node.attrib
        type_name = attributes.get(_TYPE_ATTR)
        xmi_id = attributes.get(_ID_ATTR)
        if not type_name or not xmi_id:
            raise XmiError("element node missing xmi:type or xmi:id")
        plan = _PLANS.get(type_name)
        if plan is None:
            raise XmiError(f"unknown element type {type_name!r}")
        if xmi_id in index:
            raise XmiError(
                f"duplicate xmi:id {xmi_id!r}: already used by "
                f"{type(index[xmi_id]).__name__}, redefined as {type_name}")

        element: Element = object.__new__(plan.cls)
        index[xmi_id] = element
        values = element.__dict__
        values["xmi_id"] = xmi_id
        values["_owner"] = owner
        values["_owned"] = []
        values.update(plan.defaults)
        for name, factory in plan.fresh:
            values[name] = factory()
        steps = plan.steps
        for attr, raw in attributes.items():
            step = steps.get(attr)
            if step is None:
                continue  # xmi:type, xmi:id or an attribute of no field
            name, how, convert, what = step
            if how == _TEXT:
                values[name] = raw
            elif how == _CONVERT:
                try:
                    values[name] = convert(raw)
                except Exception as exc:
                    # every conversion of document text answers with a
                    # *located* XmiError, never a bare ValueError/KeyError
                    raise XmiError(
                        f"element {xmi_id!r} ({type_name}): field "
                        f"{attr!r}: bad {what} {raw!r}: {exc}") from exc
            elif how == _REF or raw:
                pending_refs.append((element, name, how, raw))
        for attr, name in plan.required:
            if name not in values:
                raise XmiError(
                    f"element {xmi_id!r} ({type_name}): field {attr!r}: "
                    f"missing")
        if plan.fixup is not None:
            fixups.append((element, plan.fixup))

        if owner is None:
            top_level.append(element)
        else:
            owner._owned.append(element)
        if len(node):
            stack.extend((child, element) for child in reversed(node)
                         if child.tag == "element")
    return top_level


# ---------------------------------------------------------------------------
# pass 2: resolve references
# ---------------------------------------------------------------------------

def _lookup(reference: str, index: Dict[str, Element]) -> Element:
    if reference.startswith(BUILTIN_PREFIX):
        name = reference[len(BUILTIN_PREFIX):]
        primitive = PRIMITIVES.get(name)
        if primitive is None:
            raise XmiError(f"unknown builtin primitive {name!r}")
        return primitive
    target = index.get(reference)
    if target is None:
        raise XmiError(f"dangling reference {reference!r}")
    return target


def _resolve(index: Dict[str, Element],
             pending_refs: List[Tuple[Element, str, int, str]]) -> None:
    for element, name, how, raw in pending_refs:
        try:
            if how == _REF:
                element.__dict__[name] = _lookup(raw, index)
            else:
                element.__dict__[name] = [_lookup(ref, index)
                                          for ref in raw.split()]
        except XmiError as exc:
            raise XmiError(
                f"element {element.xmi_id!r} "
                f"({type(element).__name__}): field "
                f"{name.lstrip('_')!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# pass 3: stereotype applications
# ---------------------------------------------------------------------------

def _apply_applications(applications_node: ET.Element,
                        index: Dict[str, Element]) -> None:
    for xml_app in applications_node:
        if xml_app.tag != "application":
            continue
        stereotype = index.get(xml_app.get("stereotype", ""))
        target = index.get(xml_app.get("element", ""))
        if not isinstance(stereotype, Stereotype) or target is None:
            raise XmiError(
                f"application references unknown stereotype/element: "
                f"{xml_app.attrib}")
        raw_values = xml_app.get("values")
        try:
            values = json.loads(raw_values) if raw_values else {}
        except json.JSONDecodeError as exc:
            raise XmiError(
                f"application of {stereotype.name!r} to "
                f"{target.xmi_id!r}: bad values JSON: {exc}") from exc
        from ..profiles.core import apply_stereotype

        apply_stereotype(target, stereotype, **values)
