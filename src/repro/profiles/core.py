"""The UML profile mechanism: stereotypes, tagged values, application.

The paper: a profile "defines a relevant domain-specific UML subset
with semantic extensions for the supported model elements".  This
module implements that mechanism generically; the SoC profile
(:mod:`repro.profiles.soc`) and the UML-RT-style profile
(:mod:`repro.profiles.rt`) instantiate it.

A :class:`Stereotype` names the metaclasses it extends (by metamodel
class name, subclass-aware), declares typed tag definitions with
defaults, and may attach *constraint* callables — executable
well-formedness rules evaluated by :func:`validate_applications`.
Applications are stored on the target element (``element`` keeps its
applications alive for XMI round-trips).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..errors import ProfileError
from ..metamodel.element import Element
from ..metamodel.namespaces import NamedElement, Package, PackageableElement

#: A constraint: f(element, application) -> error message or None.
Constraint = Callable[[Element, "StereotypeApplication"], Optional[str]]


class TagDefinition(NamedElement):
    """A typed attribute of a stereotype (a 'tag')."""

    _id_tag = "TagDefinition"

    def __init__(self, name: str, tag_type: type = str,
                 default: Any = None, required: bool = False):
        super().__init__(name)
        self.tag_type = tag_type
        self.default = default
        self.required = required

    def check(self, value: Any) -> None:
        """Raise :class:`ProfileError` when ``value`` has the wrong type."""
        if value is None:
            if self.required:
                raise ProfileError(f"tag {self.name!r} is required")
            return
        if self.tag_type is float and isinstance(value, int):
            return  # ints are acceptable reals
        if not isinstance(value, self.tag_type):
            raise ProfileError(
                f"tag {self.name!r} expects {self.tag_type.__name__}, "
                f"got {type(value).__name__}")


class Stereotype(NamedElement):
    """A domain-specific extension of one or more metaclasses."""

    _id_tag = "Stereotype"

    def __init__(self, name: str, extends: Tuple[str, ...] = ("Element",)):
        super().__init__(name)
        self.extends = tuple(extends)
        self.constraints: List[Constraint] = []
        self._specializes: Optional[Stereotype] = None

    # -- tags ---------------------------------------------------------------

    @property
    def tags(self) -> Tuple[TagDefinition, ...]:
        """Own tag definitions plus inherited ones."""
        own = self.owned_of_type(TagDefinition)
        if self._specializes is None:
            return own
        own_names = {t.name for t in own}
        inherited = tuple(t for t in self._specializes.tags
                          if t.name not in own_names)
        return own + inherited

    def add_tag(self, name: str, tag_type: type = str, default: Any = None,
                required: bool = False) -> TagDefinition:
        """Declare a tag definition."""
        if any(t.name == name for t in self.tags):
            raise ProfileError(
                f"stereotype {self.name!r} already has tag {name!r}")
        tag = TagDefinition(name, tag_type, default, required)
        self._own(tag)
        return tag

    def tag(self, name: str) -> TagDefinition:
        """Lookup a tag definition by name."""
        for tag in self.tags:
            if tag.name == name:
                return tag
        raise ProfileError(f"stereotype {self.name!r} has no tag {name!r}")

    # -- inheritance -----------------------------------------------------------

    def specialize(self, general: "Stereotype") -> "Stereotype":
        """Declare this stereotype a specialization of ``general``."""
        ancestor: Optional[Stereotype] = general
        while ancestor is not None:
            if ancestor is self:
                raise ProfileError(
                    f"stereotype cycle through {self.name!r}")
            ancestor = ancestor._specializes
        self._specializes = general
        return self

    @property
    def specializes(self) -> Optional["Stereotype"]:
        """The generalized stereotype, if any."""
        return self._specializes

    def is_kind_of(self, other: "Stereotype") -> bool:
        """True when self is ``other`` or specializes it (transitively)."""
        node: Optional[Stereotype] = self
        while node is not None:
            if node is other:
                return True
            node = node._specializes
        return False

    # -- applicability ------------------------------------------------------------

    def applicable_to(self, element: Element) -> bool:
        """True when the element's metaclass (or a base) is extended."""
        metaclass_names = {cls.__name__ for cls in type(element).__mro__}
        # UmlClass is the Python-safe spelling of the UML metaclass 'Class'
        if "UmlClass" in metaclass_names:
            metaclass_names.add("Class")
        return bool(metaclass_names & set(self._all_extends()))

    def _all_extends(self) -> Tuple[str, ...]:
        collected = list(self.extends)
        node = self._specializes
        while node is not None:
            collected.extend(node.extends)
            node = node._specializes
        return tuple(collected)

    def add_constraint(self, constraint: Constraint) -> "Stereotype":
        """Attach an executable well-formedness constraint (chainable)."""
        self.constraints.append(constraint)
        return self

    def __repr__(self) -> str:
        return f"<Stereotype <<{self.name}>>>"


class StereotypeApplication(Element):
    """The application of a stereotype to a model element."""

    _id_tag = "StereotypeApplication"

    def __init__(self, stereotype: Stereotype, element: Element,
                 values: Optional[Dict[str, Any]] = None):
        super().__init__()
        self.stereotype = stereotype
        self.element = element
        self._values: Dict[str, Any] = {}
        declared = {tag.name: tag for tag in stereotype.tags}
        for key, value in (values or {}).items():
            if key not in declared:
                raise ProfileError(
                    f"stereotype {stereotype.name!r} has no tag {key!r}")
            declared[key].check(value)
            self._values[key] = value
        for tag in stereotype.tags:
            if tag.required and tag.name not in self._values:
                raise ProfileError(
                    f"applying <<{stereotype.name}>> requires tag "
                    f"{tag.name!r}")

    def value(self, tag_name: str) -> Any:
        """The tagged value (falling back to the tag's default)."""
        if tag_name in self._values:
            return self._values[tag_name]
        return self.stereotype.tag(tag_name).default

    def set_value(self, tag_name: str, value: Any) -> None:
        """Update a tagged value (type-checked)."""
        tag = self.stereotype.tag(tag_name)
        tag.check(value)
        self._values[tag_name] = value
        # tagged values hash into the target's fingerprint
        self.element._note_mutation()

    @property
    def values(self) -> Dict[str, Any]:
        """All explicit tagged values (defaults not materialized)."""
        return dict(self._values)

    def __repr__(self) -> str:
        return f"<<{self.stereotype.name}>> on {self.element!r}"


class Profile(Package):
    """A package of stereotypes defining a domain-specific UML subset."""

    _id_tag = "Profile"

    @property
    def stereotypes(self) -> Tuple[Stereotype, ...]:
        """Directly owned stereotypes."""
        return self.owned_of_type(Stereotype)

    def define(self, name: str,
               extends: Tuple[str, ...] = ("Element",)) -> Stereotype:
        """Create and own a stereotype."""
        if any(s.name == name for s in self.stereotypes):
            raise ProfileError(
                f"profile {self.name!r} already defines <<{name}>>")
        stereotype = Stereotype(name, extends)
        self._own(stereotype)
        return stereotype

    def stereotype(self, name: str) -> Stereotype:
        """Lookup a stereotype by name."""
        for stereotype in self.stereotypes:
            if stereotype.name == name:
                return stereotype
        raise ProfileError(f"profile {self.name!r} has no <<{name}>>")


# ---------------------------------------------------------------------------
# application helpers (applications live on the target element)
# ---------------------------------------------------------------------------

_APPLICATIONS_ATTR = "_stereotype_applications"


def apply_stereotype(element: Element, stereotype: Stereotype,
                     **values: Any) -> StereotypeApplication:
    """Apply a stereotype to an element with the given tagged values."""
    if not stereotype.applicable_to(element):
        raise ProfileError(
            f"<<{stereotype.name}>> extends {stereotype.extends}, "
            f"not {type(element).__name__}")
    existing = applications_of(element)
    if any(app.stereotype is stereotype for app in existing):
        raise ProfileError(
            f"<<{stereotype.name}>> is already applied to {element!r}")
    application = StereotypeApplication(stereotype, element, values)
    applications = getattr(element, _APPLICATIONS_ATTR, None)
    if applications is None:
        applications = []
        setattr(element, _APPLICATIONS_ATTR, applications)
    applications.append(application)
    element._note_mutation()
    return application


def unapply_stereotype(element: Element, stereotype: Stereotype) -> None:
    """Remove a stereotype application from an element."""
    applications = getattr(element, _APPLICATIONS_ATTR, [])
    for application in applications:
        if application.stereotype is stereotype:
            applications.remove(application)
            element._note_mutation()
            return
    raise ProfileError(
        f"<<{stereotype.name}>> is not applied to {element!r}")


def applications_of(element: Element) -> Tuple[StereotypeApplication, ...]:
    """All stereotype applications on an element."""
    return tuple(getattr(element, _APPLICATIONS_ATTR, ()))


def stereotypes_of(element: Element) -> Tuple[Stereotype, ...]:
    """The stereotypes applied to an element."""
    return tuple(app.stereotype for app in applications_of(element))


def has_stereotype(element: Element, name: str) -> bool:
    """True when a stereotype with this name is applied (kind-aware)."""
    for stereotype in stereotypes_of(element):
        node: Optional[Stereotype] = stereotype
        while node is not None:
            if node.name == name:
                return True
            node = node.specializes
    return False


def application_of(element: Element, name: str) -> StereotypeApplication:
    """The application of the named stereotype on the element."""
    for application in applications_of(element):
        node: Optional[Stereotype] = application.stereotype
        while node is not None:
            if node.name == name:
                return application
            node = node.specializes
    raise ProfileError(f"{element!r} has no <<{name}>> application")


def tagged_value(element: Element, stereotype_name: str,
                 tag_name: str) -> Any:
    """Shortcut: the tagged value of an applied stereotype."""
    return application_of(element, stereotype_name).value(tag_name)


def validate_applications(scope: Element) -> List[str]:
    """Run every constraint of every application under ``scope``.

    Returns the list of violation messages (empty = clean).
    """
    violations: List[str] = []
    elements = [scope] + list(scope.all_owned())
    for element in elements:
        for application in applications_of(element):
            stereotype: Optional[Stereotype] = application.stereotype
            while stereotype is not None:
                for constraint in stereotype.constraints:
                    message = constraint(element, application)
                    if message:
                        violations.append(
                            f"<<{application.stereotype.name}>> on "
                            f"{getattr(element, 'name', element.xmi_id)}: "
                            f"{message}")
                stereotype = stereotype.specializes
    return violations
