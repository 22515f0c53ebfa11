"""Property verdicts as artifacts: per-run and campaign-level reports.

A :class:`PropertyReport` is the serialized outcome of one checked run
— per property: verdict, monitor statistics, the ordered violation
records and the time-to-first-violation.  JSON output is key-sorted so
reports are byte-comparable: two runs that behaved identically produce
identical bytes, which is how the engine-lockstep and
serial == parallel == resumed guarantees are asserted.

:func:`aggregate_reports` folds per-seed reports into the campaign
artifact: per-property pass rates across seeds, violated-seed lists and
a seed → time-to-violation map.  Aggregation is *order-independent* —
it keys by seed and sorts — so the merged artifact is identical no
matter which execution mode produced the rows or in which order they
completed (the same contract :class:`ResilienceReport.merge` keeps).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..errors import PropertyError

REPORT_VERSION = 1


class PropertyReport:
    """Per-run property verdicts (see module docstring for the schema)."""

    __slots__ = ("suite", "properties")

    def __init__(self, suite: str,
                 properties: Dict[str, Dict[str, Any]]):
        self.suite = suite
        #: property name -> {kind, verdict, stats, violations,
        #:                    time_to_violation}
        self.properties = properties

    @classmethod
    def from_checker(cls, checker) -> "PropertyReport":
        """Snapshot a :class:`PropertyChecker`'s current verdicts."""
        stats = checker.stats()
        properties: Dict[str, Dict[str, Any]] = {}
        for prop in checker.suite:
            violations = checker.violations(prop.name)
            properties[prop.name] = {
                "kind": prop.kind,
                "verdict": "violated" if violations else "pass",
                "stats": stats[prop.name],
                "violations": violations,
                "time_to_violation": (violations[0]["t"] if violations
                                      else None),
            }
        return cls(checker.suite.name, properties)

    @property
    def total_violations(self) -> int:
        return sum(len(entry["violations"])
                   for entry in self.properties.values())

    @property
    def verdict(self) -> str:
        """``"violated"`` when any property failed, else ``"pass"``."""
        return ("violated" if any(entry["verdict"] == "violated"
                                  for entry in self.properties.values())
                else "pass")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "suite": self.suite,
            "verdict": self.verdict,
            "total_violations": self.total_violations,
            "properties": {name: dict(entry)
                           for name, entry in self.properties.items()},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PropertyReport":
        if not isinstance(data, Mapping) or "properties" not in data:
            raise PropertyError(
                f"not a property report: {data!r}")
        return cls(data.get("suite", "suite"),
                   {name: dict(entry)
                    for name, entry in data["properties"].items()})

    def __repr__(self) -> str:
        return (f"<PropertyReport {self.suite!r} {self.verdict} "
                f"violations={self.total_violations}>")


def aggregate_reports(per_seed: Mapping[int, Any]) -> Dict[str, Any]:
    """Fold ``{seed: PropertyReport | report dict}`` into the campaign
    artifact (order-independent; see module docstring)."""
    reports: Dict[int, PropertyReport] = {}
    for seed, report in per_seed.items():
        if not isinstance(report, PropertyReport):
            report = PropertyReport.from_dict(report)
        reports[int(seed)] = report

    seeds = sorted(reports)
    if not seeds:
        return {"version": REPORT_VERSION, "suite": "suite",
                "seeds": [], "verdict": "pass", "total_violations": 0,
                "properties": {}}

    suite_names = {reports[seed].suite for seed in seeds}
    if len(suite_names) > 1:
        raise PropertyError(
            f"cannot aggregate reports from different suites: "
            f"{sorted(suite_names)}")

    names: Dict[str, str] = {}
    for seed in seeds:
        for name, entry in reports[seed].properties.items():
            names.setdefault(name, entry["kind"])

    properties: Dict[str, Dict[str, Any]] = {}
    total_violations = 0
    for name in sorted(names):
        checked = 0
        violations = 0
        violated_seeds = []
        time_to_violation: Dict[str, float] = {}
        for seed in seeds:
            entry = reports[seed].properties.get(name)
            if entry is None:
                continue
            checked += 1
            violations += len(entry["violations"])
            if entry["verdict"] == "violated":
                violated_seeds.append(seed)
                if entry["time_to_violation"] is not None:
                    time_to_violation[str(seed)] = entry["time_to_violation"]
        passes = checked - len(violated_seeds)
        properties[name] = {
            "kind": names[name],
            "checked": checked,
            "violated_seeds": violated_seeds,
            "pass_rate": round(100.0 * passes / checked, 2) if checked
                         else 100.0,
            "violations": violations,
            "time_to_violation": time_to_violation,
        }
        total_violations += violations

    return {
        "version": REPORT_VERSION,
        "suite": next(iter(suite_names)),
        "seeds": seeds,
        "verdict": ("violated" if total_violations else "pass"),
        "total_violations": total_violations,
        "properties": properties,
    }


def aggregate_to_json(per_seed: Mapping[int, Any],
                      indent: Optional[int] = 2) -> str:
    """Key-sorted JSON of :func:`aggregate_reports` (byte-comparable)."""
    return json.dumps(aggregate_reports(per_seed), indent=indent,
                      sort_keys=True)
