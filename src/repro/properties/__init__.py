"""`repro.properties` — online temporal-property checking (PR 7).

Fault campaigns that prove *correctness*, not just survival: declare
temporal assertions (:func:`response`, :func:`precedence`,
:func:`absence`, :func:`bounded_liveness`,
:func:`interaction_conformance`) over the typed TraceBus stream, let
the :class:`PropertyChecker` evaluate them online as monitor automata
over simulated time — engine-agnostic, byte-identical across the
interpreted/compiled engines, checkpoint/restore-transparent —
and aggregate per-property pass rates across campaign seeds with
:func:`aggregate_reports`.  See ``docs/PROPERTIES.md``.
"""

from .checker import VIOLATION_POLICIES, PropertyChecker
from .report import PropertyReport, aggregate_reports, aggregate_to_json
from .spec import (
    AbsenceProperty,
    BoundedLivenessProperty,
    EventMatch,
    InteractionConformanceProperty,
    PrecedenceProperty,
    Property,
    PropertySuite,
    ResponseProperty,
    absence,
    bounded_liveness,
    coerce_suite,
    interaction_conformance,
    precedence,
    response,
)

__all__ = [
    "EventMatch",
    "Property",
    "PropertySuite",
    "ResponseProperty",
    "PrecedenceProperty",
    "AbsenceProperty",
    "BoundedLivenessProperty",
    "InteractionConformanceProperty",
    "response",
    "precedence",
    "absence",
    "bounded_liveness",
    "interaction_conformance",
    "coerce_suite",
    "PropertyChecker",
    "VIOLATION_POLICIES",
    "PropertyReport",
    "aggregate_reports",
    "aggregate_to_json",
]
