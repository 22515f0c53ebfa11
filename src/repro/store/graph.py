"""The explicit build graph over pipeline stages.

Every store-mediated stage of the model-processing pipeline — PIM→PSM
transform, per-unit codegen — and every stored model, result or report
records a :class:`BuildNode` here: the artifact kind, its
content-addressed key, the input fingerprints it declared (the model
slice it read plus upstream artifact keys), and whether the artifact
was **built** (cold: the stage ran) or **reused** (warm: served from
the disk store).  The graph is what makes incremental regeneration
*checkable*: after editing exactly one component of a multi-part
model, the counters must show one ``built`` codegen node per backend
and warm reuses for every sibling unit.

The graph is per-:class:`~repro.store.artifacts.ArtifactStore` instance
and in-memory only; it describes *this process's* build activity, not
the store's whole history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Node status values.
BUILT = "built"
REUSED = "reused"


@dataclass(frozen=True)
class BuildNode:
    """One stage execution: an artifact and the inputs that keyed it."""

    kind: str                       # "transform" | "codegen" | ...
    key: str                        # content-addressed artifact key
    inputs: Tuple[str, ...]         # input fingerprints / upstream keys
    status: str                     # BUILT or REUSED
    label: str = ""                 # human handle (machine/model name)


@dataclass
class BuildGraph:
    """An append-only record of build activity with per-kind counters."""

    nodes: List[BuildNode] = field(default_factory=list)

    def record(self, kind: str, key: str, inputs: Tuple[str, ...],
               status: str, label: str = "") -> BuildNode:
        node = BuildNode(kind, key, tuple(inputs), status, label)
        self.nodes.append(node)
        return node

    # -- counters (the incremental-rebuild assertions) -------------------

    def built(self, kind: Optional[str] = None) -> int:
        """How many artifacts were cold-built (optionally of one kind)."""
        return sum(1 for node in self.nodes if node.status == BUILT
                   and (kind is None or node.kind == kind))

    def reused(self, kind: Optional[str] = None) -> int:
        """How many artifacts were served warm from the store."""
        return sum(1 for node in self.nodes if node.status == REUSED
                   and (kind is None or node.kind == kind))

    def counts(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {"built": n, "reused": n}}`` over all recorded nodes."""
        table: Dict[str, Dict[str, int]] = {}
        for node in self.nodes:
            bucket = table.setdefault(node.kind,
                                      {"built": 0, "reused": 0})
            bucket[node.status] = bucket.get(node.status, 0) + 1
        return {kind: table[kind] for kind in sorted(table)}

    def reset(self) -> None:
        """Forget recorded activity (counters restart at zero)."""
        self.nodes.clear()

    def __repr__(self) -> str:
        return (f"<BuildGraph {len(self.nodes)} nodes "
                f"built={self.built()} reused={self.reused()}>")
