"""Structured resilience reporting.

Every :class:`~repro.simulation.cosim.SystemSimulation` owns a
:class:`ResilienceReport` that accumulates what went wrong — injected
faults, part failures and the policy's answer
(quarantine/restart/restore), kernel-level incidents (watchdog,
livelock, deadlock, queue overflow) — in a fully deterministic form:
the same seeded campaign produces a byte-identical :meth:`to_json` on
every run, which is what the D11 determinism check asserts.

Multi-seed aggregation (PR 5): :meth:`ResilienceReport.merge` combines
the reports of independent runs — e.g. every seed of a fault campaign
sweep — into one report whose serialization is *order-independent*:
record lists are re-sorted by their canonical JSON form, counters are
summed key-sorted, quarantine times keep the earliest.  Merging the
same set of per-seed reports in any order (serial, parallel completion
order, resumed-from-journal) yields byte-identical JSON, which is what
the campaign runner's determinism contract rests on.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

#: Valid part-error policies: what a simulation does when a part's
#: behavior raises (the decisions this report records).
PART_ERROR_POLICIES = ("raise", "quarantine", "restart", "restore")


def _record_key(record: Dict[str, Any]) -> str:
    """Total order over heterogeneous records: canonical JSON."""
    return json.dumps(record, sort_keys=True, default=str)


class ResilienceReport:
    """Deterministic record of faults injected and failures survived."""

    __slots__ = ("injections", "part_failures", "quarantined", "restarts",
                 "restores", "kernel_incidents", "counts")

    def __init__(self) -> None:
        #: one record per injected fault, in injection order
        self.injections: List[Dict[str, Any]] = []
        #: one record per part effect/guard failure, in failure order
        self.part_failures: List[Dict[str, Any]] = []
        #: part name -> simulated time of quarantine
        self.quarantined: Dict[str, float] = {}
        #: part name -> number of restarts performed
        self.restarts: Dict[str, int] = {}
        #: part name -> number of rollback restores performed
        self.restores: Dict[str, int] = {}
        #: kernel-level events (watchdog, livelock, deadlock, overflow)
        self.kernel_incidents: List[Dict[str, Any]] = []
        #: aggregate counters per fault kind / policy action
        self.counts: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment an aggregate counter."""
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def record_injection(self, time: float, spec_name: str, kind: str,
                         site: str, signal: str, detail: str = "") -> None:
        record = {"t": time, "spec": spec_name, "kind": kind,
                  "site": site, "signal": signal}
        if detail:
            record["detail"] = detail
        self.injections.append(record)
        self.bump(kind)

    def record_part_failure(self, time: float, part: str, error: str,
                            action: str) -> None:
        self.part_failures.append(
            {"t": time, "part": part, "error": error, "action": action})
        self.bump(f"part_{action}")

    def record_quarantine(self, time: float, part: str) -> None:
        if part not in self.quarantined:
            self.quarantined[part] = time

    def record_restart(self, part: str) -> None:
        self.restarts[part] = self.restarts.get(part, 0) + 1

    def record_restore(self, part: str) -> None:
        self.restores[part] = self.restores.get(part, 0) + 1

    def record_kernel_incident(self, time: float, kind: str,
                               detail: str) -> None:
        self.kernel_incidents.append(
            {"t": time, "kind": kind, "detail": detail})
        self.bump("kernel_incident")

    # -- reading -----------------------------------------------------------

    @property
    def total_injections(self) -> int:
        return len(self.injections)

    def to_dict(self) -> Dict[str, Any]:
        """A deterministic, JSON-ready summary (no wall-clock data)."""
        return {
            "injections": list(self.injections),
            "part_failures": list(self.part_failures),
            "quarantined": dict(sorted(self.quarantined.items())),
            "restarts": dict(sorted(self.restarts.items())),
            "restores": dict(sorted(self.restores.items())),
            "kernel_incidents": list(self.kernel_incidents),
            "counts": dict(sorted(self.counts.items())),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResilienceReport":
        """Rebuild a report from its :meth:`to_dict` form (e.g. a
        campaign-journal row); missing keys default to empty."""
        report = cls()
        report.injections = list(data.get("injections", ()))
        report.part_failures = list(data.get("part_failures", ()))
        report.quarantined = dict(data.get("quarantined", {}))
        report.restarts = dict(data.get("restarts", {}))
        report.restores = dict(data.get("restores", {}))
        report.kernel_incidents = list(data.get("kernel_incidents", ()))
        report.counts = dict(data.get("counts", {}))
        return report

    # -- multi-seed aggregation --------------------------------------------

    def merge(self, other: "ResilienceReport") -> "ResilienceReport":
        """A new report aggregating this one with ``other``.

        The merge is commutative and associative: record lists are
        concatenated and re-sorted by canonical JSON, per-part counters
        sum, quarantine keeps the earliest time.  Folding any
        permutation of the same reports therefore serializes
        byte-identically — campaign results merge order-independently.
        """
        merged = ResilienceReport()
        merged.injections = sorted(self.injections + other.injections,
                                   key=_record_key)
        merged.part_failures = sorted(
            self.part_failures + other.part_failures, key=_record_key)
        merged.kernel_incidents = sorted(
            self.kernel_incidents + other.kernel_incidents,
            key=_record_key)
        merged.quarantined = dict(self.quarantined)
        for part, when in other.quarantined.items():
            mine = merged.quarantined.get(part)
            merged.quarantined[part] = when if mine is None \
                else min(mine, when)
        for source in (self, other):
            for part, count in source.restarts.items():
                merged.restarts[part] = \
                    merged.restarts.get(part, 0) + count
            for part, count in source.restores.items():
                merged.restores[part] = \
                    merged.restores.get(part, 0) + count
            for counter, amount in source.counts.items():
                merged.counts[counter] = \
                    merged.counts.get(counter, 0) + amount
        return merged

    @classmethod
    def merged(cls, reports: Iterable["ResilienceReport"]
               ) -> "ResilienceReport":
        """Fold :meth:`merge` over an iterable (empty ⇒ empty report)."""
        result: Optional[ResilienceReport] = None
        for report in reports:
            result = report if result is None else result.merge(report)
        return result if result is not None else cls()

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Capture the report for checkpoint/restore round-trips."""
        return {
            "injections": list(self.injections),
            "part_failures": list(self.part_failures),
            "quarantined": dict(self.quarantined),
            "restarts": dict(self.restarts),
            "restores": dict(self.restores),
            "kernel_incidents": list(self.kernel_incidents),
            "counts": dict(self.counts),
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        self.injections = list(snap["injections"])
        self.part_failures = list(snap["part_failures"])
        self.quarantined = dict(snap["quarantined"])
        self.restarts = dict(snap["restarts"])
        self.restores = dict(snap.get("restores", {}))
        self.kernel_incidents = list(snap["kernel_incidents"])
        self.counts = dict(snap["counts"])

    def __repr__(self) -> str:
        return (f"<ResilienceReport injections={len(self.injections)} "
                f"failures={len(self.part_failures)} "
                f"quarantined={len(self.quarantined)}>")
