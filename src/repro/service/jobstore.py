"""Durable job state: one append-only journal.

The daemon's queue must survive the daemon.  Every state change of
every job is appended to a JSONL journal *before* the daemon acts on
it, and replaying the journal reconstructs the exact queue — after a
SIGKILL of the daemon itself, after a torn tail, after any interleaving
of crashes.  The journal is the only durable job state; a drained
restart and a crash restart read the same records.  The layout under
the service state directory::

    state/
      journal.jsonl        append-only, one JSON record per line
      results/<job>.json   published result payloads (rename-into-place)
      results/tmp/         scratch for the rename protocol

Journal records (``seq`` is a monotone sequence number)::

    {"seq": 1, "kind": "submit", "job_id": ..., "fingerprint": ...,
     "spec": {...}, "budget": 3}
    {"seq": 2, "kind": "event",  "job_id": ..., "event": "lease"}
    {"seq": 9, "kind": "event",  "job_id": ..., "event": "fail",
     "error": "..."}

``fail`` and ``cancel`` events carry the job's ``error``, and
``expire`` events the lease failure's ``reason``.  Every change to a
job goes through :meth:`Job.apply`: the daemon calls it on each event
it appends, and :meth:`JobStore.replay` on each event it reads, so a
live job and its replayed copy cannot drift apart.

Recovery invariants (pinned by ``tests/test_service_recovery.py``):

* **replay-idempotent** — replaying a journal any number of times
  yields the same state: ``submit`` for a known job is a no-op, and
  lifecycle events are applied through the state machine's tolerant
  :meth:`~repro.service.lifecycle.JobLifecycle.replay`, which skips
  records the reconstructed state no longer enables (the shadow a torn
  tail can cast) instead of corrupting it;
* **torn-tail tolerant** — a half-written final line is dropped and
  counted (``journal.torn_records`` in :data:`~repro.perf.PERF`), and
  cut off before the next append (:class:`repro.durable.Journal`, the
  same journal the campaign runner resumes from); a complete line that
  is not a job record is a :class:`~repro.errors.ServiceError` naming
  the file and line;
* **results are exactly-once visible** — a result lands as an atomic
  rename into ``results/`` before its ``publish`` or ``hit`` event is
  journaled, so a present file is complete and a journaled result
  always exists; the daemon's recovery sweep re-publishes any file
  that made it to disk before the record did, and dedupes by
  fingerprint rather than re-running.

The journal is never compacted: boot replays every record.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from ..durable import Journal, atomic_write, canonical_json
from ..errors import ServiceError
from ..faults.runner import SPEC_FILE_FIELDS, file_identity
from ..perf import PERF
from .lifecycle import DEFAULT_LEASE_BUDGET, JobLifecycle


def job_fingerprint(spec_data: Dict[str, Any]) -> str:
    """Content-addressed identity of one job's work.

    Two submissions that would simulate the same thing must collide —
    that is what lets the daemon serve the second from the store, so the
    daemon hashes the normalized spec (``CampaignSpec.to_dict()``), in
    which defaults are filled in and numbers coerced.  The spec's
    file-path fields (``model``, ``campaign``, ``properties``)
    are replaced by digests of the file *contents*
    (:func:`~repro.faults.runner.file_identity`, which the campaign
    model memo keys on too), so renaming or copying a model does not
    defeat the cache, while editing one invalidates it.  The ``name``
    field is presentation, not work, and is excluded.
    """
    identity = dict(spec_data)
    identity.pop("name", None)
    for field in SPEC_FILE_FIELDS:
        if field in identity:
            identity[field] = file_identity(identity[field])
    digest = hashlib.blake2b(canonical_json(identity).encode("utf-8"),
                             digest_size=16)
    return digest.hexdigest()


def read_text(path: os.PathLike) -> str:
    """A result file's text without its final newline: the payload's
    canonical JSON, as :meth:`JobStore.write_result_text` and the pool
    workers write it."""
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().rstrip("\n")


class Job:
    """One submitted job: persistent identity + lifecycle + bookkeeping.

    Lease plumbing that only means something while one daemon process
    is alive (deadlines, worker handles, backoff timers) deliberately
    lives in the daemon, not here — a journal must never have to
    explain a monotonic-clock value from a previous boot.
    """

    __slots__ = ("job_id", "fingerprint", "spec", "lifecycle", "attempts",
                 "error", "cached", "seq")

    def __init__(self, job_id: str, fingerprint: str,
                 spec: Dict[str, Any], seq: int,
                 budget: int = DEFAULT_LEASE_BUDGET):
        self.job_id = job_id
        self.fingerprint = fingerprint
        self.spec = dict(spec)
        self.lifecycle = JobLifecycle(budget=budget)
        self.attempts = 0          # leases taken so far
        self.error = ""            # why it failed, was cancelled or
                                   # was quarantined
        self.cached = False        # result served from the store
        self.seq = seq             # journal seq of the submit record

    @property
    def state(self) -> str:
        return self.lifecycle.state

    def status(self) -> Dict[str, Any]:
        """Plain-data status row (the ``status`` API response body)."""
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "attempts": self.attempts,
            "budget": self.lifecycle.budget,
            "cached": self.cached,
            "error": self.error,
            "name": self.spec.get("name", "campaign"),
            "seeds": len(self.spec.get("seeds") or ()),
        }

    def apply(self, record: Dict[str, Any]) -> bool:
        """Apply one journaled ``event`` record; returns whether it fired.

        The one place a job changes: the daemon applies each event it
        appends, and replay each event it reads.  An event the state
        machine does not enable changes nothing and returns False.
        """
        event = record.get("event", "")
        if not self.lifecycle.replay(event):
            return False
        if event == "lease":
            self.attempts += 1
        elif event == "hit":
            self.cached = True
        elif event == "fail":
            self.error = record.get("error", "job failed")
        elif event == "cancel":
            self.error = record.get("error", "")
        elif event == "expire" and self.state == "quarantined":
            self.error = (f"quarantined after {self.attempts} failed "
                          f"lease(s); last: {record.get('reason', '')}")
        return True

    def __repr__(self) -> str:
        return f"<Job {self.job_id} {self.state} fp={self.fingerprint[:8]}>"


class JobStore:
    """The disk half of the daemon: journal and result files."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root).expanduser()
        self.results_dir = self.root / "results"
        self._results_tmp = self.results_dir / "tmp"
        try:
            self._results_tmp.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ServiceError(
                f"cannot create service state dir {self.root}: {exc}")
        self.journal = Journal(self.root / "journal.jsonl")
        self.journal_path = self.journal.path
        self._seq = 0  # highest seq written or replayed

    # -- journal ---------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> int:
        """Append one record (assigning its ``seq``); returns the seq.

        The line is flushed so a SIGKILL of the daemon immediately
        after cannot lose it (only the line *being* written can tear,
        which replay tolerates).
        """
        self._seq += 1
        self.journal.append(dict(record, seq=self._seq))
        return self._seq

    def next_seq(self) -> int:
        """The seq the next :meth:`append` will assign.

        Job ids derive from their submit record's seq, which must be
        known *before* the record is written (the record carries the
        id).
        """
        return self._seq + 1

    def close(self) -> None:
        self.journal.close()

    # -- replay ----------------------------------------------------------

    def replay(self) -> Dict[str, Job]:
        """Reconstruct all jobs from the journal.

        Also advances the internal sequence counter past everything
        seen, so new appends never reuse a seq.  Safe to call on an
        empty or absent state directory (returns no jobs).  Records of
        other kinds (the ``result`` records older journals carry) are
        ignored.
        """
        jobs: Dict[str, Job] = {}
        self._seq = 0
        for number, record in self.journal.records():
            seq = record.get("seq") if isinstance(record, dict) else None
            if type(seq) is not int:
                raise ServiceError(
                    f"journal {self.journal_path} line {number} is not "
                    f"a job record: {canonical_json(record)[:80]}")
            self._seq = max(self._seq, seq)
            kind = record.get("kind")
            job_id = record.get("job_id", "")
            if kind == "submit":
                if job_id not in jobs:  # a resubmitted id is a no-op
                    jobs[job_id] = Job(
                        job_id, record.get("fingerprint", ""),
                        record.get("spec", {}), seq,
                        budget=int(record.get("budget",
                                              DEFAULT_LEASE_BUDGET)))
            elif job_id not in jobs:
                PERF.incr("service.replay_orphans")
            elif kind == "event" and not jobs[job_id].apply(record):
                PERF.incr("service.replay_skipped")
        return jobs

    # -- results ---------------------------------------------------------

    def result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def result_scratch(self, job_id: str, attempt: int) -> Path:
        """Scratch path a worker writes before the publishing rename."""
        return self._results_tmp / f"{job_id}.try{attempt}.tmp"

    def write_result(self, job_id: str, payload: Dict[str, Any]) -> Path:
        """Write a result payload via the atomic-rename protocol.

        Canonical JSON, so a cache-served copy of the same payload is
        byte-identical to the cold-run original (`cmp`-clean).
        """
        return self.write_result_text(job_id, canonical_json(payload))

    def write_result_text(self, job_id: str, text: str) -> Path:
        """:meth:`write_result` for a payload's canonical JSON text; the
        file holds ``text`` and a newline, as a pool worker's does."""
        return atomic_write(self.result_path(job_id), text + "\n",
                            tmp_dir=self._results_tmp)

    def read_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The published payload for a job, or None (absent/torn)."""
        text = self.read_result_text(job_id)
        return None if text is None else json.loads(text)

    def read_result_text(self, job_id: str) -> Optional[str]:
        """The published payload's canonical JSON text, or None when the
        file is absent or does not parse (torn)."""
        try:
            text = read_text(self.result_path(job_id))
            json.loads(text)
        except (OSError, ValueError):
            return None
        return text

    def __repr__(self) -> str:
        return f"<JobStore {self.root} seq={self._seq}>"
