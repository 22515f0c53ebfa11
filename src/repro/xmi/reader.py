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
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from typing import Any, Dict, List, Optional, Tuple

from .._ids import reserve_ids
from ..errors import XmiError
from ..metamodel.element import Element, Multiplicity, ONE
from ..metamodel.model import Model
from ..metamodel.types import PRIMITIVES
from ..profiles.core import Profile, Stereotype
from .schema import CLASS_BY_NAME, ENUMS, TAG_TYPES, Field, spec_for
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


def read_model(text: str) -> XmiDocument:
    """Parse XMI text produced by :func:`repro.xmi.writer.write_model`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmiError(f"malformed XMI document: {exc}")
    if root.tag != f"{{{XMI_NS}}}XMI":
        raise XmiError(f"not an XMI document (root tag {root.tag!r})")

    index: Dict[str, Element] = {}
    pending_refs: List[Tuple[Element, Field, str]] = []
    built: List[Element] = []
    top_level: List[Element] = []

    for xml_element in root:
        if xml_element.tag == "element":
            top_level.append(
                _build(xml_element, None, index, pending_refs, built))

    # elements created after this load must not reuse the file's ids
    reserve_ids(index)
    _resolve(index, pending_refs)

    for element in built:
        spec = spec_for(element)
        if spec.fixup is not None:
            # fixups rebuild derived structure from restored fields; on
            # a corrupt document they can trip over missing pieces, and
            # the caller should still see a located XmiError
            try:
                spec.fixup(element)
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

def _build(xml_element: ET.Element, owner: Optional[Element],
           index: Dict[str, Element],
           pending_refs: List[Tuple[Element, Field, str]],
           built: List[Element]) -> Element:
    type_name = xml_element.get(_TYPE_ATTR)
    xmi_id = xml_element.get(_ID_ATTR)
    if not type_name or not xmi_id:
        raise XmiError("element node missing xmi:type or xmi:id")
    cls = CLASS_BY_NAME.get(type_name)
    if cls is None:
        raise XmiError(f"unknown element type {type_name!r}")

    element: Element = object.__new__(cls)
    element.xmi_id = xmi_id
    element._owner = None
    element._owned = []
    if xmi_id in index:
        raise XmiError(
            f"duplicate xmi:id {xmi_id!r}: already used by "
            f"{type(index[xmi_id]).__name__}, redefined as {type_name}")
    index[xmi_id] = element
    built.append(element)

    spec = spec_for(element)
    for attr_name, factory in spec.init:
        setattr(element, attr_name, factory())
    for field in spec.fields:
        _restore_field(element, field, xml_element, pending_refs)

    if owner is not None:
        owner._own(element)

    for child in xml_element:
        if child.tag == "element":
            _build(child, element, index, pending_refs, built)
    return element


def _restore_field(element: Element, field: Field,
                   xml_element: ET.Element,
                   pending_refs: List[Tuple[Element, Field, str]]) -> None:
    attr = field.name.lstrip("_")
    raw = xml_element.get(attr)
    kind = field.kind

    def convert(factory: Any, what: str) -> Any:
        # every conversion of document text answers with a *located*
        # XmiError; a corrupt attribute must never surface as a bare
        # ValueError/KeyError from the converter
        try:
            return factory(raw)
        except XmiError:
            raise
        except Exception as exc:
            raise XmiError(
                f"element {element.xmi_id!r} "
                f"({type(element).__name__}): field {attr!r}: "
                f"bad {what} {raw!r}: {exc}") from exc

    if kind == "str":
        setattr(element, field.name, raw if raw is not None else field.default)
    elif kind == "int":
        setattr(element, field.name,
                convert(int, "integer") if raw is not None
                else field.default)
    elif kind == "float":
        setattr(element, field.name,
                convert(float, "number") if raw is not None
                else field.default)
    elif kind == "bool":
        setattr(element, field.name,
                raw == "true" if raw is not None else field.default)
    elif kind == "enum":
        enum_type = ENUMS[field.enum_type]
        setattr(element, field.name,
                convert(enum_type, f"{field.enum_type} value")
                if raw is not None else field.default)
    elif kind == "json":
        if raw is not None:
            setattr(element, field.name, convert(json.loads, "JSON"))
        else:
            default = field.default
            if isinstance(default, (list, dict)):
                default = type(default)(default)
            setattr(element, field.name, default)
    elif kind == "multiplicity":
        setattr(element, field.name,
                convert(Multiplicity.parse, "multiplicity")
                if raw is not None else ONE)
    elif kind == "action":
        setattr(element, field.name, raw)
    elif kind == "ref":
        setattr(element, field.name, None)
        if raw is not None:
            pending_refs.append((element, field, raw))
    elif kind == "reflist":
        setattr(element, field.name, [])
        if raw:
            pending_refs.append((element, field, raw))
    elif kind == "tagtype":
        if raw is None or raw not in TAG_TYPES:
            raise XmiError(
                f"element {element.xmi_id!r} "
                f"({type(element).__name__}): bad tag type {raw!r}")
        setattr(element, field.name, TAG_TYPES[raw])
    else:
        raise XmiError(f"unknown field kind {kind!r}")


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
             pending_refs: List[Tuple[Element, Field, str]]) -> None:
    for element, field, raw in pending_refs:
        try:
            if field.kind == "ref":
                setattr(element, field.name, _lookup(raw, index))
            else:
                targets = [_lookup(ref, index) for ref in raw.split()]
                setattr(element, field.name, targets)
        except XmiError as exc:
            raise XmiError(
                f"element {element.xmi_id!r} "
                f"({type(element).__name__}): field "
                f"{field.name.lstrip('_')!r}: {exc}") from exc


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
