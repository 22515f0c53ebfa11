"""Field schema driving XMI serialization.

Rather than scattering to/from-XML code across seventy metamodel
classes, serialization is table-driven: :data:`SPEC` maps each concrete
element class to the fields that must be persisted, their kinds, and a
fixup hook run after reference resolution (rebuilding derived internal
lists such as ``Association._member_ends``).

Field kinds:

``str``/``int``/``float``/``bool``
    plain XML attributes (absent = default).
``json``
    JSON-encoded attribute (lists, dicts of plain values).
``enum``
    an :class:`enum.Enum` stored by value; ``enum_type`` names the type.
``multiplicity``
    a :class:`~repro.metamodel.element.Multiplicity` via its string form.
``action``
    a guard/effect/behavior: ASL text serializes; Python callables
    raise :class:`~repro.errors.XmiError` (XMI interchange needs text).
``ref`` / ``reflist``
    references to other elements by ``xmi:id``, resolved in pass two.
``tagtype``
    a tag-definition value type, stored by name (str/int/float/bool/list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from .. import activities as ac
from .. import interactions as ix
from .. import metamodel as mm
from .. import profiles as pf
from .. import statemachines as st
from ..errors import XmiError

ENUMS: Dict[str, type] = {
    "VisibilityKind": mm.VisibilityKind,
    "AggregationKind": mm.AggregationKind,
    "ParameterDirection": mm.ParameterDirection,
    "PortDirection": mm.PortDirection,
    "ConnectorKind": mm.ConnectorKind,
    "PseudostateKind": st.PseudostateKind,
    "TransitionKind": st.TransitionKind,
    "MessageSort": ix.MessageSort,
    "InteractionOperator": ix.InteractionOperator,
}

TAG_TYPES: Dict[str, type] = {
    "str": str, "int": int, "float": float, "bool": bool, "list": list,
    "dict": dict,
}


@dataclass(frozen=True)
class Field:
    """One persisted field of an element class."""

    name: str
    kind: str
    enum_type: str = ""
    default: Any = None


@dataclass(frozen=True)
class ClassSpec:
    """Serialization recipe for one element class."""

    fields: Tuple[Field, ...] = ()
    init: Tuple[Tuple[str, Callable[[], Any]], ...] = ()
    fixup: Optional[Callable[[Any], None]] = None


def _s(name: str, default: Any = "") -> Field:
    return Field(name, "str", default=default)


def _i(name: str, default: Any = 0) -> Field:
    return Field(name, "int", default=default)


def _f(name: str, default: Any = 0.0) -> Field:
    return Field(name, "float", default=default)


def _b(name: str, default: Any = False) -> Field:
    return Field(name, "bool", default=default)


def _e(name: str, enum_type: str, default: Any = None) -> Field:
    return Field(name, "enum", enum_type=enum_type, default=default)


def _r(name: str) -> Field:
    return Field(name, "ref")


def _rl(name: str) -> Field:
    return Field(name, "reflist", default=())


def _a(name: str) -> Field:
    return Field(name, "action")


def _j(name: str, default: Any = None) -> Field:
    return Field(name, "json", default=default)


NAMED = (_s("name"), _e("visibility", "VisibilityKind",
                        mm.VisibilityKind.PUBLIC))


# -- fixups ------------------------------------------------------------------
# A fixup runs on an element the reader has just built, so it writes
# through ``__dict__`` as the reader does: no cache can hold the new
# tree yet, so there is no generation to bump.

def _fix_package(package: mm.Package) -> None:
    package.__dict__["_imports"] = [c for c in package.owned_elements
                                    if isinstance(c, mm.PackageImport)]


def _fix_property(prop: mm.Property) -> None:
    specs = prop.owned_of_type(mm.ValueSpecification)
    prop.__dict__["_default"] = specs[0] if specs else None


def _fix_parameter(param: mm.Parameter) -> None:
    specs = param.owned_of_type(mm.ValueSpecification)
    param.__dict__["_default"] = specs[0] if specs else None


def _fix_operation(op: mm.Operation) -> None:
    bodies = op.owned_of_type(mm.OpaqueExpression)
    op.__dict__["_body"] = bodies[0] if bodies else None


def _fix_association(assoc: mm.Association) -> None:
    for end in assoc._member_ends:
        # an end is written to: never let one be a shared primitive
        if not isinstance(end, mm.Property):
            raise XmiError(
                f"association {assoc.xmi_id}: member end "
                f"{type(end).__name__} {end.name!r} is no property")
        end.__dict__["association"] = assoc


def _fix_connector(connector: mm.Connector) -> None:
    ends = connector.owned_of_type(mm.ConnectorEnd)
    if len(ends) != 2:
        raise XmiError(
            f"connector {connector.xmi_id} needs 2 ends, found {len(ends)}")
    connector.__dict__["ends"] = (ends[0], ends[1])


def _fix_link(link: mm.Link) -> None:
    link.__dict__["participants"] = tuple(link.participants)


SPEC: Dict[type, ClassSpec] = {
    # --- core metamodel -----------------------------------------------------
    mm.Comment: ClassSpec((_s("body"),)),
    mm.Package: ClassSpec(NAMED, (("_imports", list),), _fix_package),
    mm.Model: ClassSpec(NAMED, (("_imports", list),), _fix_package),
    mm.PackageImport: ClassSpec((_r("imported"),)),
    mm.LiteralInteger: ClassSpec((_i("literal"),)),
    mm.LiteralReal: ClassSpec((_f("literal"),)),
    mm.LiteralBoolean: ClassSpec((_b("literal"),)),
    mm.LiteralString: ClassSpec((_s("literal"),)),
    mm.LiteralNull: ClassSpec(),
    mm.LiteralUnlimitedNatural: ClassSpec((Field("literal", "json"),)),
    mm.InstanceValue: ClassSpec((_r("instance"),)),
    mm.OpaqueExpression: ClassSpec((_s("body"), _s("language", "asl"),
                                _s("name"))),
    mm.PrimitiveType: ClassSpec(NAMED),
    mm.DataType: ClassSpec(NAMED),
    mm.Enumeration: ClassSpec(NAMED),
    mm.EnumerationLiteral: ClassSpec(NAMED),
    mm.Property: ClassSpec(
        NAMED + (_r("type"), Field("multiplicity", "multiplicity"),
                 _e("aggregation", "AggregationKind", mm.AggregationKind.NONE),
                 _b("is_read_only"), _b("is_derived"), _b("is_static"),
                 _b("is_ordered"), _b("is_unique", True),
                 _b("is_navigable", True), _r("association")),
        (("_default", lambda: None),),
        _fix_property),
    mm.Parameter: ClassSpec(
        NAMED + (_r("type"),
                 _e("direction", "ParameterDirection",
                    mm.ParameterDirection.IN),
                 Field("multiplicity", "multiplicity")),
        (("_default", lambda: None),),
        _fix_parameter),
    mm.Operation: ClassSpec(
        NAMED + (_b("is_abstract"), _b("is_query"), _b("is_static"),
                 Field("type", "ref")),
        (("_body", lambda: None),),
        _fix_operation),
    mm.Reception: ClassSpec(NAMED + (_r("signal"), _b("is_static"),
                                     Field("type", "ref"))),
    mm.Generalization: ClassSpec((_r("general"),)),
    mm.InterfaceRealization: ClassSpec((_r("contract"),)),
    mm.Dependency: ClassSpec((_r("supplier"), _s("kind", "use"))),
    mm.Classifier: ClassSpec(NAMED + (_b("is_abstract"),)),
    mm.Interface: ClassSpec(NAMED + (_b("is_abstract"),)),
    mm.Signal: ClassSpec(NAMED + (_b("is_abstract"),)),
    mm.UmlClass: ClassSpec(
        NAMED + (_b("is_abstract"), _b("is_active"),
                 _r("_classifier_behavior"))),
    mm.Association: ClassSpec(
        NAMED + (_rl("_member_ends"),), (), _fix_association),
    mm.Component: ClassSpec(
        NAMED + (_b("is_abstract"), _b("is_active", True),
                 _r("_classifier_behavior"))),
    mm.Port: ClassSpec(
        NAMED + (_r("type"), Field("multiplicity", "multiplicity"),
                 _e("direction", "PortDirection", mm.PortDirection.INOUT),
                 _b("is_behavior"), _b("is_service", True),
                 _e("aggregation", "AggregationKind", mm.AggregationKind.NONE),
                 _b("is_read_only"), _b("is_derived"), _b("is_static"),
                 _b("is_ordered"), _b("is_unique", True),
                 _b("is_navigable", True), _r("association"),
                 _rl("_provided"), _rl("_required")),
        (("_default", lambda: None),),
        _fix_property),
    mm.ConnectorEnd: ClassSpec((_r("port"), _r("part"))),
    mm.Connector: ClassSpec(
        (_s("name"), _e("kind", "ConnectorKind", mm.ConnectorKind.ASSEMBLY)),
        (("ends", tuple),), _fix_connector),
    mm.Slot: ClassSpec((_r("feature"),)),
    mm.InstanceSpecification: ClassSpec(NAMED + (_rl("classifiers"),)),
    mm.Link: ClassSpec(
        NAMED + (_r("association"), _rl("participants")), (), _fix_link),
    mm.Actor: ClassSpec(NAMED + (_b("is_abstract"),)),
    mm.UseCase: ClassSpec(
        NAMED + (_b("is_abstract"), _rl("_subjects"), _rl("_actors"),
                 _j("extension_points", [])),
        (("extension_points", list),)),
    mm.Include: ClassSpec((_r("addition"),)),
    mm.Extend: ClassSpec((_r("extended"), _s("extension_point"),
                          _s("condition"))),
    mm.Artifact: ClassSpec(NAMED + (_b("is_abstract"), _s("file_name"))),
    mm.Manifestation: ClassSpec((_r("utilized"),)),
    mm.Deployment: ClassSpec((_r("artifact"),)),
    mm.Node: ClassSpec(NAMED + (_b("is_abstract"),)),
    mm.Device: ClassSpec(NAMED + (_b("is_abstract"),)),
    mm.ExecutionEnvironment: ClassSpec(NAMED + (_b("is_abstract"),)),
    mm.CommunicationPath: ClassSpec(NAMED + (_rl("ends"),)),
    # --- state machines ------------------------------------------------------
    st.StateMachine: ClassSpec(NAMED),
    st.Region: ClassSpec(NAMED),
    st.State: ClassSpec(
        NAMED + (_a("entry"), _a("exit"), _a("do_activity"),
                 _j("deferrable", [])),
        (("deferrable", list),)),
    st.FinalState: ClassSpec(
        NAMED + (_a("entry"), _a("exit"), _a("do_activity"),
                 _j("deferrable", [])),
        (("deferrable", list),)),
    st.Pseudostate: ClassSpec(
        NAMED + (_e("kind", "PseudostateKind", None),)),
    st.Transition: ClassSpec(
        (_s("name"), _r("source"), _r("target"), _rl("triggers"),
         _a("guard"), _a("effect"),
         _e("kind", "TransitionKind", st.TransitionKind.EXTERNAL))),
    st.SignalEvent: ClassSpec((_s("name"),)),
    st.CallEvent: ClassSpec((_s("name"),)),
    st.TimeEvent: ClassSpec((_s("name"), _f("after"))),
    st.ChangeEvent: ClassSpec((_s("name"), _s("condition"))),
    # --- activities -------------------------------------------------------------
    ac.Activity: ClassSpec(NAMED),
    ac.InitialNode: ClassSpec(NAMED),
    ac.ActivityFinalNode: ClassSpec(NAMED),
    ac.FlowFinalNode: ClassSpec(NAMED),
    ac.ForkNode: ClassSpec(NAMED),
    ac.JoinNode: ClassSpec(NAMED),
    ac.DecisionNode: ClassSpec(NAMED),
    ac.MergeNode: ClassSpec(NAMED),
    ac.Action: ClassSpec(NAMED + (_a("behavior"),)),
    ac.SendSignalAction: ClassSpec(
        NAMED + (_a("behavior"), _s("signal"), _s("target"))),
    ac.AcceptEventAction: ClassSpec(NAMED + (_a("behavior"), _s("event"))),
    ac.ObjectNode: ClassSpec(NAMED + (_r("type"), _j("upper_bound"))),
    ac.CentralBufferNode: ClassSpec(NAMED + (_r("type"), _j("upper_bound"))),
    ac.ActivityParameterNode: ClassSpec(
        NAMED + (_r("type"), _j("upper_bound"), _b("is_input", True))),
    ac.InputPin: ClassSpec(NAMED + (_r("type"), _j("upper_bound"))),
    ac.OutputPin: ClassSpec(NAMED + (_r("type"), _j("upper_bound"))),
    ac.ControlFlow: ClassSpec(
        (_s("name"), _r("source"), _r("target"), _a("guard"),
         _i("weight", 1))),
    ac.ObjectFlow: ClassSpec(
        (_s("name"), _r("source"), _r("target"), _a("guard"),
         _i("weight", 1))),
    # --- interactions ---------------------------------------------------------------
    ix.Interaction: ClassSpec(NAMED),
    ix.Lifeline: ClassSpec(NAMED + (_r("represents"),)),
    ix.Message: ClassSpec(
        (_s("name"), _r("sender"), _r("receiver"),
         _e("sort", "MessageSort", ix.MessageSort.ASYNC_SIGNAL),
         _j("arguments", {})),
        (("arguments", dict),)),
    ix.CombinedFragment: ClassSpec(
        (_e("operator", "InteractionOperator", None),
         _i("loop_min"), _i("loop_max", 1))),
    ix.InteractionOperand: ClassSpec((Field("guard", "json"),)),
    # --- profiles ---------------------------------------------------------------------
    pf.Profile: ClassSpec(NAMED, (("_imports", list),), _fix_package),
    pf.Stereotype: ClassSpec(
        NAMED + (_j("extends", []), _r("_specializes")),
        (("constraints", list), ("extends", tuple))),
    pf.TagDefinition: ClassSpec(
        NAMED + (Field("tag_type", "tagtype"), _j("default"),
                 _b("required"))),
}


def spec_for(element: Any) -> ClassSpec:
    """The :class:`ClassSpec` for an element (exact class match)."""
    spec = SPEC.get(type(element))
    if spec is None:
        raise XmiError(
            f"no XMI schema for {type(element).__name__}; register it in "
            "repro.xmi.schema.SPEC")
    return spec
