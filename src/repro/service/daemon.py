"""The fault-tolerant simulation service daemon.

``SimulationService`` wraps :func:`~repro.faults.run_campaign` behind a
durable, crash-recoverable job queue:

* every accepted job's state changes are journaled *before* the daemon
  acts on them (:mod:`~repro.service.jobstore`), so a SIGKILL of the
  daemon at any instant is recoverable by replay;
* each job's lifecycle is an instance of our own
  :class:`~repro.service.lifecycle.JobLifecycle` state machine —
  illegal transitions are structurally impossible;
* jobs execute on a :class:`~repro.workers.WorkerPool` of ``workers``
  persistent processes, forked on the first lease and closed by
  :meth:`SimulationService.shutdown`, so a worker keeps its imports
  and warmed model from one job to the next;
* each job holds a **time-bounded lease** on a worker: the pool
  worker's heartbeats, sent on its own pipe and recorded on its
  :class:`~repro.workers.Worker` handle, renew the lease; a worker
  silent for ``lease_duration`` (alive but unable to run, such as a
  stopped one) expires it, a dead one ends it at once, and either
  requeues the job with deterministic seeded backoff
  (:func:`~repro.faults.runner.backoff_delay`) until its budget runs
  out — then the job is quarantined as poison instead of wedging the
  pool forever;
* a per-job wall-clock watchdog bounds even a worker that heartbeats
  while making no progress;
* admission control keeps the queue bounded: beyond ``max_depth`` the
  daemon rejects (or, with ``admission="shed"``, cancels the oldest
  queued job to admit the new one);
* results dedupe by the content-addressed ``(model, campaign, seeds)``
  fingerprint: a published payload is stored in the PR 8
  :class:`~repro.store.ArtifactStore` (kind ``result``), and an
  identical later submission is served from it byte-identically
  (``hit`` transition) instead of re-simulated;
* SIGTERM drains gracefully: stop admitting, finish leased work,
  exit 0.  Queued-but-unleased jobs stay in the journal and resume on
  the next boot, exactly as after a crash.

Everything observable flows through :data:`~repro.perf.PERF`
(``service.*`` counters, the ``service.queue_depth`` gauge series and
the ``service.submit_to_result_s`` latency histogram), so the existing
``stats``/Prometheus surface covers the service for free.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ServiceError
from ..faults.runner import CampaignSpec, backoff_delay
from ..perf import PERF
from ..workers import Worker, WorkerPool, maybe_test_kill
from .jobstore import Job, JobStore, job_fingerprint, read_text
from .lifecycle import DEFAULT_LEASE_BUDGET, RECOVERABLE_STATES

#: Environment hook (tests/CI): ``"<campaign name>:<max attempt>"``
#: makes the job worker SIGKILL itself through the given attempt —
#: proving the lease-expiry → backoff → retry → success path on demand.
TEST_KILL_ENV = "REPRO_SERVICE_TEST_KILL"

#: Default seconds a lease lives without a heartbeat renewal.
DEFAULT_LEASE_DURATION = 10.0

#: Default bound on queued + leased (non-terminal) jobs.
DEFAULT_MAX_DEPTH = 64

#: Default base of the expired-lease retry backoff (seconds).
DEFAULT_RETRY_BACKOFF = 0.25


def _job_worker_main(spec_data: Dict[str, Any],
                     attempt: int) -> Dict[str, Any]:
    """Pool task: run the job's campaign; returns its result payload.

    It runs in a persistent pool worker, which keeps the simulation
    stack imported and the model parsed from one job to the next.  The
    payload crosses back as a result file renamed into place (a present
    file is a complete file; a missing one means the worker died; see
    :mod:`repro.workers`).  The pool's heartbeats prove liveness on the
    worker's own pipe while it runs; the wall-clock watchdog in the
    daemon covers the case of a live heartbeat over a wedged
    simulation.
    """
    maybe_test_kill(TEST_KILL_ENV, spec_data.get("name", ""), attempt)
    try:
        from ..faults.runner import run_campaign

        spec = CampaignSpec.from_dict(spec_data)
        result = run_campaign(spec, workers=0)
        payload: Dict[str, Any] = {"ok": True, "result": result.to_dict()}
        if not result.ok:
            # per-seed infrastructure failures inside the campaign are
            # already retried there; surviving ones are the job's result
            payload["failures"] = result.to_dict()["failures"]
    except BaseException as error:  # noqa: BLE001 - must report, not die
        payload = {"ok": False,
                   "error": f"{type(error).__name__}: {error}"}
    return payload


class _Lease:
    """Daemon-side record of one live lease (never persisted)."""

    __slots__ = ("job_id", "worker", "attempt", "scratch", "watchdog")

    def __init__(self, job_id: str, worker: Worker, attempt: int,
                 scratch: str, watchdog: Optional[float]):
        self.job_id = job_id
        self.worker = worker          # its heartbeats renew the lease
        self.attempt = attempt
        self.scratch = scratch
        self.watchdog = watchdog      # absolute wall-clock kill time

    @property
    def process(self) -> Any:
        """The worker process holding the lease."""
        return self.worker.process


class SimulationService:
    """The orchestration daemon (also usable in-process, tick by tick).

    Tests and benchmarks drive :meth:`tick` directly for determinism;
    ``repro serve`` wraps it in :meth:`run_forever` plus the socket
    API and signal handlers.
    """

    def __init__(self, state_dir: os.PathLike,
                 workers: int = 2,
                 lease_duration: float = DEFAULT_LEASE_DURATION,
                 job_timeout: Optional[float] = None,
                 max_depth: int = DEFAULT_MAX_DEPTH,
                 admission: str = "reject",
                 budget: int = DEFAULT_LEASE_BUDGET,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 store: Any = None):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if lease_duration <= 0:
            raise ServiceError(
                f"lease_duration must be positive, got {lease_duration}")
        if admission not in ("reject", "shed"):
            raise ServiceError(
                f"admission must be 'reject' or 'shed', got {admission!r}")
        if max_depth < 1:
            raise ServiceError(f"max_depth must be >= 1, got {max_depth}")
        self.jobstore = JobStore(state_dir)
        self.workers = int(workers)
        self.lease_duration = float(lease_duration)
        self.job_timeout = job_timeout
        self.max_depth = int(max_depth)
        self.admission = admission
        self.budget = int(budget)
        self.retry_backoff = float(retry_backoff)
        self.store = store
        self.jobs: Dict[str, Job] = {}
        #: the non-terminal subset of ``jobs``: what every scheduling
        #: scan reads, so a tick costs the same after any number of
        #: finished jobs
        self.active: Dict[str, Job] = {}
        #: fingerprint -> job_id of the live (non-terminal) owner
        self.active_fp: Dict[str, str] = {}
        #: job_id -> monotonic instant a queued job becomes leasable
        self.ready_at: Dict[str, float] = {}
        self.leases: Dict[str, _Lease] = {}
        self.draining = False
        self.pool = WorkerPool(self.workers, _job_worker_main)
        self._submitted_at: Dict[str, float] = {}
        #: what the boot-time :meth:`recover` pass found and repaired
        self.last_recovery = self.recover()

    # -- recovery --------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Replay the journal and repair every crash-orphaned job.

        Invariants restored here (the ISSUE 10 crash matrix):

        * a job journaled ``leased``/``running`` lost its worker with
          the old daemon — ``expire`` it (requeue or quarantine, by
          budget), exactly as a live lease expiry would;
        * a job in ``merging`` whose result file survived is published
          idempotently (same canonical bytes — republish cannot create
          a second distinct result); without the file it expires like
          a lost lease and is re-earned;
        * ``done`` jobs keep their published results untouched.
        """
        self.jobs = self.jobstore.replay()
        self.active = {}
        counts = {"requeued": 0, "republished": 0, "quarantined": 0}
        for job_id in sorted(self.jobs, key=lambda j: self.jobs[j].seq):
            job = self.jobs[job_id]
            state = job.state
            if state == "merging":
                text = self.jobstore.read_result_text(job_id)
                if text is not None:
                    self._publish(job, text)
                    counts["republished"] += 1
                    continue
                # no result file: the unpublished result died with the
                # old daemon; fall through to expire and re-earn it
            if state in RECOVERABLE_STATES:
                PERF.incr("service.recovered_leases")
                after = self._journal_event(
                    job, "expire",
                    reason="lease lost with the previous daemon")
                if after == "queued":
                    counts["requeued"] += 1
                    self.ready_at[job_id] = time.monotonic() \
                        + backoff_delay(self.retry_backoff,
                                        max(1, job.attempts),
                                        token=job_id)
                else:
                    counts["quarantined"] += 1
                    PERF.incr("service.quarantined")
            elif state == "queued":
                self.ready_at[job_id] = 0.0
            if not job.lifecycle.terminal:
                self.active[job_id] = job
                self.active_fp.setdefault(job.fingerprint, job_id)
        self._observe_depth()
        return counts

    # -- admission -------------------------------------------------------

    def submit(self, spec_data: Dict[str, Any]) -> Dict[str, Any]:
        """Accept (or refuse) one job; returns its status row.

        Refusals raise :class:`~repro.errors.ServiceError` — nothing is
        journaled for a refused job, so "accepted" and "journaled" are
        the same event, which is what makes "never lose an accepted
        job" checkable.
        """
        if self.draining:
            PERF.incr("service.rejected")
            raise ServiceError("service is draining; not admitting jobs")
        # validate, then fingerprint and journal the normalized spec so
        # equal work spelled differently dedupes onto one job
        spec_data = CampaignSpec.from_dict(spec_data).to_dict()
        fingerprint = job_fingerprint(spec_data)
        live = self.active_fp.get(fingerprint)
        if live in self.active:
            PERF.incr("service.coalesced")
            status = self.active[live].status()
            status["coalesced"] = True
            return status
        depth = self.queue_depth()
        if depth >= self.max_depth:
            if self.admission == "shed" and self._shed_one():
                PERF.incr("service.shed")
            else:
                PERF.incr("service.rejected")
                raise ServiceError(
                    f"queue full ({depth}/{self.max_depth} jobs); "
                    f"admission policy is {self.admission!r}")
        seq = self.jobstore.next_seq()
        job_id = f"job-{seq:06d}"
        self.jobstore.append({"kind": "submit", "job_id": job_id,
                              "fingerprint": fingerprint,
                              "spec": spec_data, "budget": self.budget})
        job = Job(job_id, fingerprint, spec_data, seq, budget=self.budget)
        self.jobs[job_id] = job
        self.active[job_id] = job
        self.active_fp[fingerprint] = job_id
        self.ready_at[job_id] = 0.0
        self._submitted_at[job_id] = time.monotonic()
        PERF.incr("service.submitted")
        self._try_cache_hit(job)
        self._observe_depth()
        status = job.status()
        status["coalesced"] = False
        return status

    def _shed_one(self) -> bool:
        """Cancel the oldest queued job to admit a newer one."""
        queued = [job for job in self.active.values()
                  if job.state == "queued"]
        if not queued:
            return False
        victim = min(queued, key=lambda job: job.seq)
        self._cancel_job(victim, reason="shed by admission control")
        return True

    # -- the scheduler tick ----------------------------------------------

    def tick(self) -> None:
        """One scheduling round: reap, expire, lease, then forget the
        store's build graph, which the daemon never reads and which
        would otherwise hold a node for every load and save."""
        self._reap()
        if not self.draining:
            self._grant_leases()
        if self.store is not None:
            self.store.graph.reset()

    def idle(self) -> bool:
        """No live leases and nothing leasable right now?"""
        if self.leases:
            return False
        if self.draining:
            return True
        return not any(job.state == "queued"
                       for job in self.active.values())

    def next_deadline(self) -> float:
        """The nearest monotonic instant at which :meth:`tick` has work
        that no worker message announces: a lease expiry, a watchdog,
        or a backed-off job turning leasable while a worker is free
        (``math.inf`` when nothing is due)."""
        deadlines = []
        for lease in self.leases.values():
            deadlines.append(lease.worker.last_beat + self.lease_duration)
            if lease.watchdog is not None:
                deadlines.append(lease.watchdog)
        if not self.draining and len(self.leases) < self.workers:
            deadlines.extend(self.ready_at.values())
        return min(deadlines, default=math.inf)

    def queue_depth(self) -> int:
        """Jobs the daemon is still responsible for (non-terminal)."""
        return len(self.active)

    def _observe_depth(self) -> None:
        PERF.observe("service.queue_depth", float(self.queue_depth()))

    # -- leases ----------------------------------------------------------

    def _grant_leases(self) -> None:
        free = self.workers - len(self.leases)
        if free <= 0:
            return
        now = time.monotonic()
        leasable: List[Tuple[int, Job]] = sorted(
            ((job.seq, job) for job in self.active.values()
             if job.state == "queued"
             and self.ready_at.get(job.job_id, 0.0) <= now),
            key=lambda pair: pair[0])
        for _seq, job in leasable[:free]:
            if self._try_cache_hit(job):
                continue
            self._launch(job)

    def _try_cache_hit(self, job: Job) -> bool:
        """Serve a queued job from the store when its result exists."""
        if job.state != "queued" or self.store is None:
            return False
        text = self.store.load_text("result", job.fingerprint,
                                    label=f"result {job.job_id}")
        if text is None:
            return False
        # same ordering as a cold publish: result bytes land before the
        # journal says the job is done, so a journaled `hit` always has
        # its (byte-identical) payload on disk
        self._deliver(job, text)
        self._journal_event(job, "hit")
        PERF.incr("service.cache_hits")
        self._record_latency(job)
        self._finish(job)
        return True

    def _launch(self, job: Job) -> None:
        self._journal_event(job, "lease")
        attempt = job.attempts
        scratch = str(self.jobstore.result_scratch(job.job_id, attempt))
        worker = self.pool.submit(scratch, job.spec, attempt)
        self.leases[job.job_id] = _Lease(
            job.job_id, worker, attempt, scratch,
            watchdog=(time.monotonic() + self.job_timeout
                      if self.job_timeout is not None else None))
        self.ready_at.pop(job.job_id, None)

    def _reap(self) -> None:
        finished = self.pool.wait(0)
        # a worker's first beat precedes its completion on its pipe, so
        # every completed lease reaped below has journaled its start
        for lease in self.leases.values():
            job = self.jobs[lease.job_id]
            if lease.worker.started and job.state == "leased":
                self._journal_event(job, "start")
        by_worker = {lease.worker: lease for lease in self.leases.values()}
        for worker, payload in finished:
            lease = by_worker[worker]
            job = self.jobs[lease.job_id]
            if payload is not None and payload.get("ok"):
                # the worker's file holds the payload's canonical text,
                # which publishing writes on as it is
                text = read_text(lease.scratch)
            self._forget_lease(lease)
            if payload is None:
                PERF.incr("service.lease_expiries")
                self._lease_failed(
                    job, lease,
                    f"worker died (exit code {worker.process.exitcode}) "
                    f"before writing a result")
            elif payload.get("ok"):
                self._journal_event(job, "complete")
                self._publish(job, text)
            else:
                self._journal_event(job, "fail",
                                    error=payload.get("error", "job failed"))
                PERF.incr("service.failed")
                self._finish(job)
        now = time.monotonic()
        for lease in list(self.leases.values()):
            job = self.jobs[lease.job_id]
            if lease.watchdog is not None and now > lease.watchdog:
                self._kill_lease(lease)
                PERF.incr("service.watchdog_kills")
                self._lease_failed(job, lease, "wall-clock watchdog")
            elif now > lease.worker.last_beat + self.lease_duration:
                self._kill_lease(lease)
                PERF.incr("service.lease_expiries")
                self._lease_failed(job, lease, "lease expired "
                                   "(no heartbeat)")

    def _kill_lease(self, lease: _Lease) -> None:
        self.pool.kill(lease.worker)
        self._forget_lease(lease)

    def _forget_lease(self, lease: _Lease) -> None:
        self.leases.pop(lease.job_id, None)
        try:
            os.unlink(lease.scratch)
        except OSError:
            pass

    def _lease_failed(self, job: Job, lease: _Lease, reason: str) -> None:
        after = self._journal_event(job, "expire", reason=reason)
        if after == "queued":
            PERF.incr("service.retries")
            self.ready_at[job.job_id] = time.monotonic() \
                + backoff_delay(self.retry_backoff, lease.attempt,
                                token=job.job_id)
        else:  # quarantined: poison job, budget exhausted
            PERF.incr("service.quarantined")
            self._finish(job)

    # -- publishing ------------------------------------------------------

    def _publish(self, job: Job, text: str) -> None:
        """Make a merging job's result durable, visible, and deduped.

        ``text`` is the payload's canonical JSON, which the store
        envelope and the result file both embed as it is.  Order
        matters for the crash matrix: store first (idempotent,
        content-addressed), result file second (atomic rename), the
        ``publish`` event last — every prefix of that sequence is
        re-runnable on recovery without a second visible result.
        """
        if self.store is not None:
            self.store.save_text("result", job.fingerprint, text,
                                 meta={"job": job.job_id,
                                       "campaign": job.spec.get("name", "")},
                                 label=f"result {job.job_id}")
        self._deliver(job, text)
        self._journal_event(job, "publish")
        self._record_latency(job)
        self._finish(job)

    def _deliver(self, job: Job, text: str) -> None:
        """Write the job's result file (atomic rename)."""
        self.jobstore.write_result_text(job.job_id, text)
        PERF.incr("service.published")

    def _record_latency(self, job: Job) -> None:
        submitted = self._submitted_at.pop(job.job_id, None)
        if submitted is not None:
            PERF.hist("service.submit_to_result_s",
                      time.monotonic() - submitted)

    def _finish(self, job: Job) -> None:
        """Terminal-state bookkeeping shared by every outcome."""
        self.active.pop(job.job_id, None)
        self.ready_at.pop(job.job_id, None)
        if self.active_fp.get(job.fingerprint) == job.job_id \
                and job.lifecycle.terminal and job.state != "done":
            # a failed/cancelled/quarantined owner frees the
            # fingerprint for a future submission to retry fresh
            self.active_fp.pop(job.fingerprint, None)
        self._observe_depth()

    def _journal_event(self, job: Job, event: str, **extra: Any) -> str:
        """Journal a lifecycle event, then apply it. Returns new state.

        Journal-first means a crash immediately after the append
        replays into exactly the state the daemon was about to be in:
        replay applies the same record through the same
        :meth:`~repro.service.jobstore.Job.apply`.  The ``publish`` and
        ``hit`` records land only after the result file rename (see
        :meth:`_publish`), so a journaled result always has its bytes
        on disk.
        """
        record = {"kind": "event", "job_id": job.job_id, "event": event}
        record.update(extra)
        self.jobstore.append(record)
        if not job.apply(record):
            raise ServiceError(
                f"illegal job transition: event {event!r} is not "
                f"enabled in state {job.state!r}")
        return job.state

    # -- client operations ----------------------------------------------

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        if job_id is not None:
            job = self._job(job_id)
            return job.status()
        return {
            "jobs": [self.jobs[job_id].status()
                     for job_id in sorted(self.jobs)],
            "queue_depth": self.queue_depth(),
            "leases": len(self.leases),
            "draining": self.draining,
        }

    def result(self, job_id: str) -> Dict[str, Any]:
        return json.loads(self.result_text(job_id))

    def result_text(self, job_id: str) -> str:
        """A done job's payload as canonical JSON text: the published
        file's, or the store's copy when the file is gone or torn."""
        job = self._job(job_id)
        if job.state != "done":
            raise ServiceError(
                f"job {job_id} has no result yet (state {job.state!r}"
                + (f": {job.error}" if job.error else "") + ")")
        text = self.jobstore.read_result_text(job_id)
        if text is None and self.store is not None:
            text = self.store.load_text("result", job.fingerprint,
                                        label=f"result {job_id}")
        if text is None:
            raise ServiceError(
                f"job {job_id} is done but its result payload is "
                f"missing from disk")
        return text

    def cancel(self, job_id: str) -> Dict[str, Any]:
        job = self._job(job_id)
        if job.lifecycle.terminal:
            raise ServiceError(
                f"job {job_id} is already {job.state}; cannot cancel")
        self._cancel_job(job, reason="client cancel")
        return job.status()

    def _cancel_job(self, job: Job, reason: str) -> None:
        lease = self.leases.get(job.job_id)
        if lease is not None:
            self._kill_lease(lease)
        self._journal_event(job, "cancel", error=reason)
        PERF.incr("service.cancelled")
        self._finish(job)

    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def stats(self) -> Dict[str, Any]:
        """Service gauges + the process-wide PERF snapshot."""
        return {
            "service": {
                "queue_depth": self.queue_depth(),
                "leases": len(self.leases),
                "jobs": len(self.jobs),
                "draining": self.draining,
                "workers": self.workers,
            },
            "perf": PERF.snapshot(),
        }

    # -- drain / shutdown ------------------------------------------------

    def drain(self) -> None:
        """Stop admitting; leased work finishes, queued work persists."""
        self.draining = True

    def shutdown(self) -> None:
        """Finish leased work, stop the workers, release file handles."""
        self.drain()
        while self.leases:
            self.tick()
            time.sleep(0.02)
        self.pool.close()
        self.jobstore.close()

    # -- convenience (in-process use: tests, benchmarks) ----------------

    def run_until_idle(self, timeout: float = 60.0,
                       poll: float = 0.01) -> None:
        deadline = time.monotonic() + timeout
        while not self.idle():
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"service did not go idle within {timeout}s "
                    f"({len(self.leases)} lease(s) outstanding)")
            self.tick()
            time.sleep(poll)

    def __repr__(self) -> str:
        return (f"<SimulationService jobs={len(self.jobs)} "
                f"leases={len(self.leases)} "
                f"draining={self.draining}>")
