"""Cross-seed observability report (PR 9).

One campaign, many seeds, four telemetry streams — functional coverage
(PR 4), temporal-property verdicts (PR 7), profiler hot paths (PR 4)
and causal hot edges (PR 9) — merged into a single deterministic
artifact.  :class:`ObservabilityReport` is built from a
:class:`~repro.faults.runner.CampaignResult` whose rows were collected
with ``CampaignSpec(obs=True)``: each row then carries ``profile``
(collapsed-stack lines) and ``causal_edges`` (kind/part edge counts)
next to the usual coverage/property payloads.

Determinism: everything here is a sorted-key fold over simulation
-derived row data — no wall-clock, no completion order — so serial,
parallel and resumed sweeps over the same seeds produce a byte-identical
report, which is what lets it be stored (and deduped) in the PR 8
artifact store under a campaign fingerprint.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: How many merged hot frames / hot edges the report keeps.
TOP_FRAMES = 20
TOP_EDGES = 20


def parse_collapsed(lines: Iterable[str]) -> Dict[str, float]:
    """Parse collapsed-stack lines (``frame;frame value``) to a map."""
    frames: Dict[str, float] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        if not stack:
            continue
        try:
            frames[stack] = frames.get(stack, 0.0) + float(value)
        except ValueError:
            continue
    return frames


def merge_frames(per_seed: Iterable[Iterable[str]],
                 top: int = TOP_FRAMES) -> List[Dict[str, Any]]:
    """Sum collapsed stacks across seeds; keep the ``top`` hottest."""
    total: Dict[str, float] = {}
    for lines in per_seed:
        for stack, value in parse_collapsed(lines).items():
            total[stack] = total.get(stack, 0.0) + value
    ranked = sorted(total.items(), key=lambda item: (-item[1], item[0]))
    return [{"stack": stack, "value": round(value, 9)}
            for stack, value in ranked[:top]]


def merge_edges(per_seed: Iterable[Dict[str, Dict[str, int]]]
                ) -> Dict[str, Dict[str, int]]:
    """Sum per-seed causal edge counts (kind edges and part edges)."""
    merged: Dict[str, Dict[str, int]] = {"kinds": {}, "parts": {}}
    for counts in per_seed:
        for family in ("kinds", "parts"):
            for edge, count in (counts.get(family) or {}).items():
                merged[family][edge] = \
                    merged[family].get(edge, 0) + int(count)
    return {family: {edge: merged[family][edge]
                     for edge in sorted(merged[family])}
            for family in ("kinds", "parts")}


def hot_edges(edges: Dict[str, int], top: int = TOP_EDGES
              ) -> List[Dict[str, Any]]:
    ranked = sorted(edges.items(), key=lambda item: (-item[1], item[0]))
    return [{"edge": edge, "count": count}
            for edge, count in ranked[:top]]


class ObservabilityReport:
    """The merged observability picture of one multi-seed campaign."""

    __slots__ = ("name", "seeds", "failed_seeds", "coverage",
                 "properties", "hot_frames", "causal_edges",
                 "messages_delivered", "messages_dropped",
                 "quarantined")

    def __init__(self, name: str, seeds: List[int],
                 failed_seeds: List[int],
                 coverage: Optional[Dict[str, Any]],
                 properties: Optional[Dict[str, Any]],
                 hot_frames: List[Dict[str, Any]],
                 causal_edges: Dict[str, Dict[str, int]],
                 messages_delivered: int, messages_dropped: int,
                 quarantined: List[str]):
        self.name = name
        self.seeds = seeds
        self.failed_seeds = failed_seeds
        self.coverage = coverage
        self.properties = properties
        self.hot_frames = hot_frames
        self.causal_edges = causal_edges
        self.messages_delivered = messages_delivered
        self.messages_dropped = messages_dropped
        self.quarantined = quarantined

    @classmethod
    def from_result(cls, result: Any) -> "ObservabilityReport":
        """Fold a :class:`~repro.faults.runner.CampaignResult`.

        Works on any result — rows without ``profile``/``causal_edges``
        (collected with ``obs=False``) simply contribute nothing to
        those sections.
        """
        rows = result.rows
        merged_coverage = result.coverage()
        coverage_dict: Optional[Dict[str, Any]] = None
        if merged_coverage is not None:
            report_dict = merged_coverage.to_dict()
            coverage_dict = {
                "percent": merged_coverage.total_percent(),
                "report": report_dict,
            }
        quarantined = sorted({part for row in rows
                              for part in row.get("quarantined", ())})
        return cls(
            name=result.name,
            seeds=[row["seed"] for row in rows],
            failed_seeds=list(result.failed_seeds),
            coverage=coverage_dict,
            properties=result.properties(),
            hot_frames=merge_frames(
                row["profile"] for row in rows if "profile" in row),
            causal_edges=merge_edges(
                row["causal_edges"] for row in rows
                if "causal_edges" in row),
            messages_delivered=sum(row.get("messages_delivered", 0)
                                   for row in rows),
            messages_dropped=sum(row.get("messages_dropped", 0)
                                 for row in rows),
            quarantined=quarantined,
        )

    # -- exports -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.name,
            "causal_edges": self.causal_edges,
            "causal_hot_edges": {
                "kinds": hot_edges(self.causal_edges.get("kinds", {})),
                "parts": hot_edges(self.causal_edges.get("parts", {})),
            },
            "coverage": self.coverage,
            "failed_seeds": self.failed_seeds,
            "hot_frames": self.hot_frames,
            "messages": {
                "delivered": self.messages_delivered,
                "dropped": self.messages_dropped,
            },
            "properties": self.properties,
            "quarantined": self.quarantined,
            "seeds": self.seeds,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          default=str)

    def to_html(self) -> str:
        """A dependency-free, self-contained HTML rendering."""
        data = self.to_dict()

        def esc(value: Any) -> str:
            return (str(value).replace("&", "&amp;")
                    .replace("<", "&lt;").replace(">", "&gt;"))

        def table(headers: Tuple[str, ...],
                  rows: Iterable[Tuple[Any, ...]]) -> str:
            head = "".join(f"<th>{esc(h)}</th>" for h in headers)
            body = "".join(
                "<tr>" + "".join(f"<td>{esc(cell)}</td>" for cell in row)
                + "</tr>" for row in rows)
            return (f"<table><thead><tr>{head}</tr></thead>"
                    f"<tbody>{body}</tbody></table>")

        sections: List[str] = []
        summary_rows = [
            ("seeds", len(self.seeds)),
            ("failed seeds", len(self.failed_seeds)),
            ("messages delivered", self.messages_delivered),
            ("messages dropped", self.messages_dropped),
            ("quarantined parts", ", ".join(self.quarantined) or "-"),
        ]
        if self.coverage is not None:
            summary_rows.append(
                ("coverage", f"{self.coverage['percent']:.1f}%"))
        if self.properties is not None:
            summary_rows.append(
                ("property violations",
                 self.properties.get("total_violations", 0)))
        sections.append("<h2>Summary</h2>"
                        + table(("metric", "value"), summary_rows))
        if self.hot_frames:
            sections.append(
                "<h2>Hot paths (merged collapsed stacks)</h2>"
                + table(("stack", "time"),
                        ((frame["stack"], f"{frame['value']:g}")
                         for frame in self.hot_frames)))
        kinds = data["causal_hot_edges"]["kinds"]
        parts = data["causal_hot_edges"]["parts"]
        if kinds or parts:
            sections.append(
                "<h2>Causal hot edges</h2>"
                + table(("kind edge", "count"),
                        ((e["edge"], e["count"]) for e in kinds))
                + table(("part edge", "count"),
                        ((e["edge"], e["count"]) for e in parts)))
        if self.properties is not None:
            prop_rows = [
                (name, stats.get("pass_rate", ""),
                 stats.get("violations", 0))
                for name, stats in sorted(
                    (self.properties.get("properties") or {}).items())]
            if prop_rows:
                sections.append(
                    "<h2>Temporal properties</h2>"
                    + table(("property", "pass rate", "violations"),
                            prop_rows))
        style = ("body{font-family:sans-serif;margin:2em;}"
                 "table{border-collapse:collapse;margin:1em 0;}"
                 "td,th{border:1px solid #999;padding:.3em .6em;"
                 "text-align:left;font-size:13px;}"
                 "th{background:#eee;}")
        return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
                f"<title>observability: {esc(self.name)}</title>"
                f"<style>{style}</style></head><body>"
                f"<h1>Observability report — {esc(self.name)}</h1>"
                + "".join(sections) + "</body></html>")

    def __repr__(self) -> str:
        return (f"<ObservabilityReport {self.name!r} "
                f"seeds={len(self.seeds)} "
                f"frames={len(self.hot_frames)}>")


def campaign_fingerprint(spec: Any) -> str:
    """A stable artifact-store key for one campaign configuration.

    Hashes the canonical spec dict (which already includes the seed
    list), so re-running the identical campaign dedupes to the same
    ``report`` artifact in the PR 8 store.
    """
    from ..store import ArtifactStore, canonical_json

    spec_dict = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
    return ArtifactStore.make_key("obs-report", canonical_json(spec_dict))
