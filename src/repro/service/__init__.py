"""Simulation-as-a-service (subsystem S17, PR 10).

The campaign runner made one sweep crash-tolerant; this package makes
the *queue of sweeps* crash-tolerant.  ``repro serve`` runs a
long-lived orchestration daemon whose accepted jobs survive SIGKILL of
any worker — or of the daemon itself — without losing work or
publishing a result twice:

* :mod:`~repro.service.jobstore` — durable queue state: one
  append-only JSONL journal, replayed torn-tail-tolerantly and
  idempotently through ``Job.apply`` (the same method the daemon
  applies live events with), and rename-into-place result files;
* :mod:`~repro.service.lifecycle` — the job lifecycle as one of our own
  executable state machines (queued → leased → running → merging →
  done, with guarded retry-or-quarantine on lease expiry);
* :mod:`~repro.service.daemon` — lease-based worker pools with
  heartbeat renewal, deterministic-jitter retry backoff, poison-job
  quarantine, wall-clock watchdogs, bounded admission (reject/shed),
  graceful SIGTERM drain, and fingerprint-deduped results served
  byte-identically from the PR 8 artifact store;
* :mod:`~repro.service.api` — the JSONL-over-Unix-socket wire surface
  (``ServiceServer``) and its blocking client (``ServiceClient``),
  driven by ``repro submit | status | result | cancel``.
"""

from .api import ServiceClient, ServiceServer
from .daemon import SimulationService
from .jobstore import Job, JobStore, canonical_json, job_fingerprint
from .lifecycle import (
    DEFAULT_LEASE_BUDGET,
    JOB_EVENTS,
    JOB_STATES,
    TERMINAL_STATES,
    JobLifecycle,
    build_job_lifecycle,
)

__all__ = [
    "ServiceClient",
    "ServiceServer",
    "SimulationService",
    "Job",
    "JobStore",
    "canonical_json",
    "job_fingerprint",
    "DEFAULT_LEASE_BUDGET",
    "JOB_EVENTS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobLifecycle",
    "build_job_lifecycle",
]
