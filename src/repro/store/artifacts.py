"""The content-addressed, disk-backed artifact store.

Artifacts are keyed by content fingerprints of their inputs (model
subtree digests plus upstream artifact keys) and persisted as
version-stamped, sorted-key JSON envelopes::

    {"version": 1, "kind": "codegen", "key": "...", "inputs": [...],
     "meta": {...}, "payload": ..., "checksum": "..."}

Durability protocol (safe under concurrent fork workers):

* **writes** go to a unique temp file in the store's ``tmp/`` directory
  and land by rename (:func:`repro.durable.atomic_write`) — readers
  only ever see a complete envelope, and the last of two racing
  same-key writers wins with a valid file either way;
* **reads** re-verify the envelope (version stamp, kind/key match,
  payload checksum); anything truncated, garbled or from a future
  format counts a ``store.corrupt`` miss, evicts the bad file and falls
  through to a clean rebuild — corruption can cost time, never
  correctness.

The default location is ``~/.cache/repro`` (override with the
``REPRO_STORE`` environment variable or an explicit root — the CLI's
``--store DIR``).  Every load/save also records a node in the store's
:class:`~repro.store.graph.BuildGraph`, which is how the incremental
regeneration tests count rebuilds.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..durable import atomic_write, canonical_json
from ..errors import StoreError
from ..perf import PERF
from .graph import BUILT, REUSED, BuildGraph

#: Envelope format version; bumping it invalidates every stored artifact.
ENVELOPE_VERSION = 1

#: Environment variable naming the store root.
STORE_ENV = "REPRO_STORE"


def default_store_root() -> Path:
    """``$REPRO_STORE`` when set, else ``~/.cache/repro``."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _checksum(payload: Any) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


class ArtifactStore:
    """Content-addressed artifacts on disk, one JSON envelope per key."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root).expanduser() if root is not None \
            else default_store_root()
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        try:
            self._objects.mkdir(parents=True, exist_ok=True)
            self._tmp.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create store at {self.root}: {exc}")
        #: build activity of *this process* against this store
        self.graph = BuildGraph()

    # -- keys ------------------------------------------------------------

    @staticmethod
    def make_key(*parts: str) -> str:
        """Content-addressed key over fingerprint/name parts."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update("\x1f".join(str(part) for part in parts)
                      .encode("utf-8", "surrogatepass"))
        return digest.hexdigest()

    @staticmethod
    def _check_name(what: str, name: str) -> None:
        """A kind or key must be one path component under ``objects/``."""
        if not name or any(ch in name for ch in "/\\."):
            raise StoreError(f"invalid artifact {what} {name!r}")

    def _path(self, kind: str, key: str) -> Path:
        self._check_name("kind", kind)
        self._check_name("key", key)
        return self._objects / kind / f"{key}.json"

    # -- load / save ------------------------------------------------------

    def load(self, kind: str, key: str,
             inputs: Iterable[str] = (),
             label: str = "") -> Optional[Any]:
        """The payload stored under (kind, key), or None.

        A hit records a ``reused`` build-graph node and refreshes the
        file's mtime (so :meth:`gc` approximates LRU).  A missing,
        truncated, garbled, mismatched or future-versioned envelope is a
        miss — corrupt files are evicted so the rebuild can replace
        them.
        """
        path = self._path(kind, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            PERF.incr("store.miss")
            return None
        except (OSError, ValueError):
            return self._corrupt(path)
        if (not isinstance(envelope, dict)
                or envelope.get("version") != ENVELOPE_VERSION
                or envelope.get("kind") != kind
                or envelope.get("key") != key
                or "payload" not in envelope
                or envelope.get("checksum")
                != _checksum(envelope["payload"])):
            return self._corrupt(path)
        PERF.incr("store.hit")
        try:
            os.utime(path)
        except OSError:
            pass
        self.graph.record(kind, key, tuple(inputs), REUSED, label)
        return envelope["payload"]

    def _corrupt(self, path: Path) -> None:
        PERF.incr("store.corrupt")
        PERF.incr("store.miss")
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def save(self, kind: str, key: str, payload: Any,
             inputs: Iterable[str] = (),
             meta: Optional[Dict[str, Any]] = None,
             label: str = "") -> Path:
        """Persist a payload atomically; records a ``built`` node."""
        path = self._path(kind, key)
        envelope = {
            "version": ENVELOPE_VERSION,
            "kind": kind,
            "key": key,
            "inputs": sorted(str(item) for item in inputs),
            "meta": dict(meta or {}),
            "payload": payload,
            "checksum": _checksum(payload),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, json.dumps(envelope, sort_keys=True, indent=1,
                                      default=str), tmp_dir=self._tmp)
        PERF.incr("store.write")
        self.graph.record(kind, key, tuple(inputs), BUILT, label)
        return path

    def contains(self, kind: str, key: str) -> bool:
        """True when an envelope file exists (without validating it)."""
        return self._path(kind, key).exists()

    # -- inspection (the ``repro store`` CLI surface) ---------------------

    def ls(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Envelope summaries, sorted by (kind, key).

        Unreadable envelopes are listed with ``"corrupt": True`` rather
        than skipped, so ``repro store ls`` surfaces damage.
        """
        entries: List[Dict[str, Any]] = []
        if kind is not None:
            self._check_name("kind", kind)
        kinds = [kind] if kind is not None else sorted(
            p.name for p in self._objects.iterdir() if p.is_dir())
        for kind_name in kinds:
            kind_dir = self._objects / kind_name
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*.json")):
                stat = path.stat()
                entry: Dict[str, Any] = {
                    "kind": kind_name,
                    "key": path.stem,
                    "bytes": stat.st_size,
                    "age_s": max(0.0, round(time.time() - stat.st_mtime,
                                            1)),
                }
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        envelope = json.load(handle)
                    entry["meta"] = envelope.get("meta", {})
                    entry["inputs"] = len(envelope.get("inputs", ()))
                except (OSError, ValueError):
                    entry["corrupt"] = True
                entries.append(entry)
        return entries

    def info(self) -> Dict[str, Any]:
        """Store-wide summary: root, artifact/byte counts per kind."""
        kinds: Dict[str, Dict[str, int]] = {}
        total_bytes = 0
        total = 0
        for entry in self.ls():
            bucket = kinds.setdefault(entry["kind"],
                                      {"artifacts": 0, "bytes": 0})
            bucket["artifacts"] += 1
            bucket["bytes"] += entry["bytes"]
            total += 1
            total_bytes += entry["bytes"]
        return {
            "root": str(self.root),
            "version": ENVELOPE_VERSION,
            "artifacts": total,
            "bytes": total_bytes,
            "kinds": kinds,
        }

    def gc(self, max_age_s: Optional[float] = None,
           kind: Optional[str] = None,
           dry_run: bool = False) -> List[Tuple[str, str]]:
        """Evict artifacts, returning the removed ``(kind, key)`` pairs.

        Policy: age-based LRU — an artifact's mtime refreshes on every
        warm load, so ``max_age_s`` evicts what no consumer has touched
        recently.  ``max_age_s=None`` evicts everything (of ``kind``
        when given).  Stray temp files older than an hour are always
        swept.
        """
        removed: List[Tuple[str, str]] = []
        now = time.time()
        for entry in self.ls(kind):
            if max_age_s is not None and entry["age_s"] <= max_age_s \
                    and not entry.get("corrupt"):
                continue
            removed.append((entry["kind"], entry["key"]))
            if not dry_run:
                try:
                    self._path(entry["kind"], entry["key"]).unlink()
                except OSError:
                    pass
        if not dry_run:
            for stray in self._tmp.glob("*.tmp"):
                try:
                    if now - stray.stat().st_mtime > 3600:
                        stray.unlink()
                except OSError:
                    pass
            PERF.incr("store.gc_removed", len(removed))
        return removed

    def __repr__(self) -> str:
        return f"<ArtifactStore {self.root}>"
