"""XMI writer: serialize models (and profiles + applications) to XML.

The document shape follows XMI 2.x conventions: an ``xmi:XMI`` root,
``xmi:type``/``xmi:id`` attributes on every element, ownership as XML
nesting and cross-references by id.  Stereotype applications are
emitted in a trailing ``applications`` section, mirroring how XMI
stores profile applications outside the model tree.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import XmiError
from ..metamodel.element import Element, Multiplicity, ONE
from ..metamodel.model import Model
from ..metamodel.types import PRIMITIVES
from ..profiles.core import Profile, applications_of
from .schema import Field, spec_for

XMI_NS = "http://www.omg.org/XMI"

#: The escapes of an attribute value, ``&`` first: the entities
#: ElementTree's serializer writes, so a value reads back unchanged.
_ATTR_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
                 ('"', "&quot;"), ("\r", "&#13;"), ("\n", "&#10;"),
                 ("\t", "&#09;"))

#: id prefix for the shared builtin primitive types.
BUILTIN_PREFIX = "builtin:"

_BUILTIN_IDS = {id(prim): f"{BUILTIN_PREFIX}{name}"
                for name, prim in PRIMITIVES.items()}


def _ref_id(target: Optional[Element]) -> Optional[str]:
    if target is None:
        return None
    builtin = _BUILTIN_IDS.get(id(target))
    if builtin is not None:
        return builtin
    return target.xmi_id


def _serialize_field(element: Element, field: Field,
                     attributes: Dict[str, str]) -> None:
    value = getattr(element, field.name)
    attr = field.name.lstrip("_")
    kind = field.kind

    if kind in ("str", "int", "float"):
        if value != field.default:
            attributes[attr] = str(value)
    elif kind == "bool":
        if value != field.default:
            attributes[attr] = "true" if value else "false"
    elif kind == "enum":
        if value is not None and value != field.default:
            attributes[attr] = value.value
    elif kind == "json":
        if value != field.default:
            attributes[attr] = json.dumps(value)
    elif kind == "multiplicity":
        if value != ONE:
            attributes[attr] = str(value)
    elif kind == "action":
        if value is None:
            return
        if callable(value):
            raise XmiError(
                f"{type(element).__name__} {element.xmi_id}: field "
                f"{field.name!r} holds a Python callable; XMI interchange "
                "requires ASL text actions")
        attributes[attr] = str(value)
    elif kind == "ref":
        ref = _ref_id(value)
        if ref is not None:
            attributes[attr] = ref
    elif kind == "reflist":
        refs = [_ref_id(v) for v in value]
        if refs:
            attributes[attr] = " ".join(r for r in refs if r)
    elif kind == "tagtype":
        attributes[attr] = value.__name__
    else:
        raise XmiError(f"unknown field kind {kind!r}")


def _escape_attrib(value: str) -> str:
    for char, entity in _ATTR_ESCAPES:
        if char in value:
            value = value.replace(char, entity)
    return value


def _tag(name: str, attributes: Dict[str, str]) -> str:
    """The start tag ``<name key="value" ...``, left open for ``>`` or
    `` />``, its values escaped as ``ElementTree.tostring`` escapes
    them."""
    return "<" + name + "".join(f' {key}="{_escape_attrib(value)}"'
                                for key, value in attributes.items())


def _serialize_element(top: Element, pad: Callable[[int], str],
                       out: List[str]) -> None:
    """Append ``top``, a child of the root, and everything it owns to
    ``out`` as nested ``element`` tags.  An explicit stack walks the
    tree, as the reader builds it, so nesting depth is bounded by
    memory, not by the interpreter's recursion limit."""
    pending: List[Tuple[int, Optional[Element]]] = [(1, top)]
    while pending:
        depth, element = pending.pop()
        if element is None:  # the end of an element with children
            out.append(pad(depth) + "</element>")
            continue
        attributes = {"xmi:type": type(element).__name__,
                      "xmi:id": element.xmi_id}
        for field in spec_for(element).fields:
            _serialize_field(element, field, attributes)
        out.append(pad(depth) + _tag("element", attributes))
        children = element.owned_elements
        if children:
            out.append(">")
            pending.append((depth, None))
            pending.extend((depth + 1, child) for child in reversed(children))
        else:
            out.append(" />")


def _serialize_applications(scope: Element) -> Iterable[str]:
    """The ``application`` tags of ``scope`` and everything it owns."""
    for target in [scope] + list(scope.all_owned()):
        for application in applications_of(target):
            attributes = {"stereotype": application.stereotype.xmi_id,
                          "element": target.xmi_id}
            if application.values:
                attributes["values"] = json.dumps(application.values,
                                                  sort_keys=True)
            yield _tag("application", attributes) + " />"


def _pad(depth: int) -> str:
    return "\n" + "  " * depth


def write_model(model: Model, profiles: Sequence[Profile] = (),
                pretty: bool = False) -> str:
    """Serialize a model (plus profiles and applications) to XMI text;
    ``pretty`` puts every tag on a line of its own, indented two spaces
    per level."""
    pad = _pad if pretty else (lambda depth: "")
    out = [f'<xmi:XMI xmlns:xmi="{XMI_NS}" version="2.1">']
    for top in (*profiles, model):
        _serialize_element(top, pad, out)
    applications = [tag for scope in (*profiles, model)
                    for tag in _serialize_applications(scope)]
    out.append(pad(1) + "<applications")
    if applications:
        out.append(">")
        out.extend(pad(2) + tag for tag in applications)
        out.append(pad(1) + "</applications>")
    else:
        out.append(" />")
    out.append(pad(0) + "</xmi:XMI>")
    return "".join(out)


def write_file(path: str, model: Model,
               profiles: Sequence[Profile] = ()) -> None:
    """Serialize to a file (UTF-8, pretty-printed)."""
    text = write_model(model, profiles, pretty=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        handle.write(text)
