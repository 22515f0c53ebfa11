"""The transformation rule framework with traceability.

A PIM→PSM transformation is a sequence of :class:`TransformationRule`
objects applied to a *clone* of the source model.  Cloning goes through
the XMI writer/reader — the same serialization used for interchange —
which guarantees the clone is structurally complete and keeps source
ids stable, so the :class:`TraceLink` set is exact: every PSM element
either descends from the equally-named PIM element (same ``xmi_id``) or
appears in a trace link naming the rule that synthesized it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..metamodel.element import Element
from ..metamodel.model import Model
from ..profiles.core import Profile
from .platform import Platform


@dataclass(frozen=True)
class TraceLink:
    """One transformation trace record."""

    rule: str
    source_id: str        # PIM element (or "" for synthesized elements)
    target_id: str        # PSM element
    note: str = ""


class TransformationContext:
    """Shared state while a transformation runs."""

    def __init__(self, source: Model, target: Model, platform: Platform,
                 profile: Optional[Profile] = None):
        self.source = source
        self.target = target
        self.platform = platform
        self.profile = profile
        self.trace: List[TraceLink] = []
        self._source_index = source.build_id_index()

    def source_of(self, target_element: Element) -> Optional[Element]:
        """The PIM element with the same id, if the clone preserved it."""
        return self._source_index.get(target_element.xmi_id)

    def record(self, rule: str, source: Optional[Element],
               target: Element, note: str = "") -> None:
        """Record a trace link (synthesized elements pass source=None)."""
        self.trace.append(TraceLink(
            rule, source.xmi_id if source is not None else "",
            target.xmi_id, note))


class TransformationRule:
    """One mapping rule.

    ``applies_to`` filters target elements (the clone's elements);
    ``apply`` mutates/extends the target model and records trace links.
    Rules run in ascending ``priority`` order; within a rule, elements
    are visited in model order.
    """

    def __init__(self, name: str,
                 applies_to: Callable[[Element], bool],
                 apply: Callable[[Element, TransformationContext], None],
                 priority: int = 100,
                 description: str = ""):
        self.name = name
        self.applies_to = applies_to
        self.apply = apply
        self.priority = priority
        self.description = description

    def __repr__(self) -> str:
        return f"<TransformationRule {self.name} (priority {self.priority})>"


class ModelRule(TransformationRule):
    """A rule that runs once against the whole target model."""

    def __init__(self, name: str,
                 apply: Callable[[Model, TransformationContext], None],
                 priority: int = 100, description: str = ""):
        super().__init__(
            name,
            applies_to=lambda element: isinstance(element, Model),
            apply=apply,  # type: ignore[arg-type]
            priority=priority,
            description=description)


@dataclass
class TransformationResult:
    """The outcome of one PIM→PSM transformation."""

    pim: Model
    psm: Model
    platform: Platform
    trace: List[TraceLink]
    applications: Dict[str, int]  # rule name -> elements touched
    #: profiles cloned alongside the PSM (their applications target PSM
    #: elements) — needed to serialize the PSM as a store artifact
    psm_profiles: tuple = ()

    @property
    def rules_applied(self) -> int:
        """Total rule applications."""
        return sum(self.applications.values())

    def completeness(self) -> float:
        """Fraction of PIM elements represented in the PSM.

        An element counts as represented when the PSM contains an
        element with the same id (clone-preserved) or a trace link names
        it as a source.
        """
        psm_ids = {self.psm.xmi_id}
        for element in self.psm.all_owned():
            psm_ids.add(element.xmi_id)
        traced_sources = {t.source_id for t in self.trace if t.source_id}
        total = 0
        covered = 0
        for element in [self.pim] + list(self.pim.all_owned()):
            total += 1
            if element.xmi_id in psm_ids or element.xmi_id in traced_sources:
                covered += 1
        return covered / total if total else 1.0
