"""Durable job state: append-only journal + atomic snapshots.

The daemon's queue must survive the daemon.  Every state change of
every job is appended to a JSONL journal *before* the daemon acts on
it, and replaying the journal reconstructs the exact queue — after a
SIGKILL of the daemon itself, after a torn tail, after any interleaving
of crashes.  The layout under the service state directory::

    state/
      journal.jsonl        append-only, one JSON record per line
      snapshot.json        atomic-rename full-state snapshot
      results/<job>.json   published result payloads (rename-into-place)
      results/tmp/         scratch for the rename protocol

Journal records (``seq`` is a monotone sequence number)::

    {"seq": 1, "kind": "submit", "job_id": ..., "fingerprint": ...,
     "spec": {...}, "budget": 3}
    {"seq": 2, "kind": "event",  "job_id": ..., "event": "lease"}
    {"seq": 3, "kind": "result", "job_id": ..., "fingerprint": ...,
     "cached": false}

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
  rename into ``results/`` before its ``result`` record is journaled,
  so a present file is complete and a journaled result always exists;
  the daemon's recovery sweep re-publishes any file that made it to
  disk before the record did, and dedupes by fingerprint rather than
  re-running.

Snapshots bound replay cost: :meth:`JobStore.snapshot` atomically
writes the whole reconstructed state plus the journal position it
covers; replay then starts from the snapshot and applies only newer
records.  :meth:`compact` (clean drain only) additionally resets the
journal, since the snapshot now carries everything.
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

#: Snapshot format version; mismatches fall back to full journal replay.
SNAPSHOT_VERSION = 1


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
        self.error = ""            # terminal error text (failed jobs)
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

    def to_snapshot(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "spec": self.spec,
            "lifecycle": self.lifecycle.snapshot(),
            "attempts": self.attempts,
            "error": self.error,
            "cached": self.cached,
            "seq": self.seq,
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "Job":
        job = cls(data["job_id"], data["fingerprint"], data["spec"],
                  int(data.get("seq", 0)))
        job.lifecycle = JobLifecycle.from_snapshot(
            data.get("lifecycle", {}))
        job.attempts = int(data.get("attempts", 0))
        job.error = data.get("error", "")
        job.cached = bool(data.get("cached", False))
        return job

    def __repr__(self) -> str:
        return f"<Job {self.job_id} {self.state} fp={self.fingerprint[:8]}>"


class JobStore:
    """The disk half of the daemon: journal, snapshot, result files."""

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
        self.snapshot_path = self.root / "snapshot.json"
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
        """Reconstruct all jobs from snapshot + journal suffix.

        Also advances the internal sequence counter past everything
        seen, so new appends never reuse a seq.  Safe to call on an
        empty or absent state directory (returns no jobs).
        """
        jobs: Dict[str, Job] = {}
        snapshot_seq = 0
        snapshot = self._load_snapshot()
        if snapshot is not None:
            snapshot_seq = int(snapshot.get("seq", 0))
            for data in snapshot.get("jobs", []):
                job = Job.from_snapshot(data)
                jobs[job.job_id] = job
        self._seq = snapshot_seq
        for number, record in self.journal.records():
            seq = record.get("seq") if isinstance(record, dict) else None
            if type(seq) is not int:
                raise ServiceError(
                    f"journal {self.journal_path} line {number} is not "
                    f"a job record: {canonical_json(record)[:80]}")
            if seq > self._seq:
                self._seq = seq
            if seq <= snapshot_seq:
                continue  # the snapshot already covers this record
            self._apply(jobs, record)
        return jobs

    def _apply(self, jobs: Dict[str, Job], record: Dict[str, Any]) -> None:
        kind = record.get("kind")
        job_id = record.get("job_id", "")
        if kind == "submit":
            if job_id in jobs:
                return  # replay idempotence
            jobs[job_id] = Job(
                job_id, record.get("fingerprint", ""),
                record.get("spec", {}), int(record.get("seq", 0)),
                budget=int(record.get("budget", DEFAULT_LEASE_BUDGET)))
            return
        job = jobs.get(job_id)
        if job is None:
            PERF.incr("service.replay_orphans")
            return
        if kind == "event":
            event = record.get("event", "")
            if job.lifecycle.replay(event):
                if event == "lease":
                    job.attempts += 1
                if event == "fail":
                    job.error = record.get("error", "job failed")
            else:
                PERF.incr("service.replay_skipped")
        elif kind == "result":
            job.cached = bool(record.get("cached", False))

    # -- snapshots -------------------------------------------------------

    def snapshot(self, jobs: Dict[str, Job]) -> Path:
        """Atomically persist the full state (covering seq so far)."""
        payload = {
            "version": SNAPSHOT_VERSION,
            "seq": self._seq,
            "jobs": [jobs[job_id].to_snapshot()
                     for job_id in sorted(jobs)],
        }
        payload["checksum"] = hashlib.blake2b(
            canonical_json({k: payload[k] for k in ("version", "seq",
                                                    "jobs")})
            .encode("utf-8"), digest_size=16).hexdigest()
        return atomic_write(self.snapshot_path, canonical_json(payload))

    def _load_snapshot(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) \
                or payload.get("version") != SNAPSHOT_VERSION:
            PERF.incr("service.snapshot_rejected")
            return None
        expected = payload.get("checksum")
        actual = hashlib.blake2b(
            canonical_json({k: payload.get(k) for k in ("version", "seq",
                                                        "jobs")})
            .encode("utf-8"), digest_size=16).hexdigest()
        if expected != actual:
            PERF.incr("service.snapshot_rejected")
            return None
        return payload

    def compact(self, jobs: Dict[str, Job]) -> None:
        """Snapshot, then reset the journal (clean-drain housekeeping).

        Only sound *after* the snapshot rename landed — which is why the
        truncation happens second: a crash between the two steps leaves
        a journal whose every record the snapshot already covers, and
        replay skips them by seq.
        """
        self.snapshot(jobs)
        self.journal.truncate()

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
        return atomic_write(self.result_path(job_id),
                            canonical_json(payload) + "\n",
                            tmp_dir=self._results_tmp)

    def read_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The published payload for a job, or None (absent/torn)."""
        try:
            with open(self.result_path(job_id), "r",
                      encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def __repr__(self) -> str:
        return f"<JobStore {self.root} seq={self._seq}>"
