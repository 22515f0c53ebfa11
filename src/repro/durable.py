"""Durable files: one atomic writer and one append-only journal.

Everything the package persists across a crash lands through one of
two primitives:

* :func:`atomic_write` — a whole file that readers see complete or not
  at all.  The text goes to a unique ``.tmp`` file, then ``os.replace``
  renames it over the target; a write that fails removes its temp file.
  The artifact store, the job store's snapshots and results, and the
  campaign and daemon workers' result files all use it.
* :class:`Journal` — an append-only JSONL file with one
  :func:`canonical_json` record per line (the campaign resume journal
  and the service's job journal).  A writer killed mid-append can only
  leave a *torn tail*: a partial last line without its newline.
  Reading stops there and counts it in ``journal.torn_records``; the
  first append after a reopen cuts it off, so new records never glue
  onto it.

Durability level: every record is flushed to the OS, never fsync'd.
That survives a SIGKILL of the writer, the crash model the recovery
tests pin, but not a power cut.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Optional, Tuple

from .perf import PERF


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, ASCII."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, default=str)


def atomic_write(path: os.PathLike, text: str,
                 tmp_dir: Optional[os.PathLike] = None) -> Path:
    """Replace ``path`` with ``text`` in one rename; returns the path.

    The temp file goes to ``tmp_dir`` (default: the target's own
    directory), which must sit on the target's filesystem.
    """
    path = Path(path)
    descriptor, tmp_name = tempfile.mkstemp(
        prefix=f"{path.name}.", suffix=".tmp",
        dir=path.parent if tmp_dir is None else tmp_dir)
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


class Journal:
    """An append-only JSONL file of records that tolerates a torn tail."""

    def __init__(self, path: os.PathLike):
        self.path = Path(path)
        self._handle = None

    def records(self) -> Iterator[Tuple[int, Any]]:
        """``(line number, record)`` for every complete record.

        Blank lines are skipped.  The first line that does not parse is
        the torn tail: it is counted and ends the read.  An absent file
        has no records.
        """
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except FileNotFoundError:
            return
        with handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    PERF.incr("journal.torn_records")
                    return
                yield number, record

    def append(self, record: Any) -> None:
        """Write one record as a line and flush it."""
        if self._handle is None:
            self._cut_torn_tail()
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(canonical_json(record) + "\n")
        self._handle.flush()

    def truncate(self) -> None:
        """Empty the journal."""
        self.close()
        with open(self.path, "w", encoding="utf-8"):
            pass

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _cut_torn_tail(self) -> None:
        """Drop whatever follows the file's last newline, unless it
        parses: then :meth:`records` returned it, so only its newline
        is missing."""
        try:
            handle = open(self.path, "r+b")
        except FileNotFoundError:
            return
        with handle:
            end = keep = handle.seek(0, os.SEEK_END)
            while keep > 0:
                start = max(0, keep - 4096)
                handle.seek(start)
                newline = handle.read(keep - start).rfind(b"\n")
                if newline >= 0:
                    keep = start + newline + 1
                    break
                keep = start
            if keep == end:
                return
            handle.seek(keep)
            try:
                json.loads(handle.read())
            except ValueError:
                handle.truncate(keep)
            else:
                handle.write(b"\n")
