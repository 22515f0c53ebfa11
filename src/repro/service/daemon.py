"""The fault-tolerant simulation service daemon.

``SimulationService`` wraps :func:`~repro.faults.run_campaign` behind a
durable, crash-recoverable job queue:

* every accepted job's state changes are journaled *before* the daemon
  acts on them (:mod:`~repro.service.jobstore`), so a SIGKILL of the
  daemon at any instant is recoverable by replay;
* each job's lifecycle is an instance of our own
  :class:`~repro.service.lifecycle.JobLifecycle` state machine —
  illegal transitions are structurally impossible;
* jobs execute in forked worker processes holding **time-bounded
  leases**: heartbeats over the PR 9 pipe protocol renew the lease, a
  silent or dead worker expires it, and an expired lease requeues the
  job with deterministic seeded backoff
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
  snapshot, exit 0.  Queued-but-unleased jobs persist and resume on
  the next boot.

Everything observable flows through :data:`~repro.perf.PERF`
(``service.*`` counters, the ``service.queue_depth`` gauge series and
the ``service.submit_to_result_s`` latency histogram), so the existing
``stats``/Prometheus surface covers the service for free.
"""

from __future__ import annotations

import json
import os
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

from ..durable import atomic_write, canonical_json
from ..errors import ServiceError
from ..faults.runner import CampaignSpec, _make_context, backoff_delay
from ..observability.campaign import WorkerHeartbeat
from ..perf import PERF
from .jobstore import Job, JobStore, job_fingerprint
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


def _maybe_test_kill(name: str, attempt: int) -> None:
    directive = os.environ.get(TEST_KILL_ENV, "")
    if not directive:
        return
    target, _, through = directive.partition(":")
    try:
        max_attempt = int(through) if through else 1
    except ValueError:
        return
    if target == name and attempt <= max_attempt:
        os.kill(os.getpid(), signal.SIGKILL)


def _job_worker_main(spec_data: Dict[str, Any], scratch_path: str,
                     beat_fd: Optional[int], token: int,
                     attempt: int) -> None:
    """Worker process entry: run the job's campaign, one result file.

    The result crosses back via the rename-into-place protocol (a
    present file is a complete file; a missing one means this worker
    died) — never a pipe or queue a SIGKILL could tear mid-message.
    A heartbeat thread proves liveness on the daemon's beat pipe; the
    wall-clock watchdog in the daemon covers the case of a live thread
    over a wedged simulation.
    """
    _maybe_test_kill(spec_data.get("name", ""), attempt)
    heartbeat = WorkerHeartbeat(beat_fd, token, lambda: 0) \
        if beat_fd is not None else None
    ok = False
    try:
        from ..faults.runner import run_campaign

        spec = CampaignSpec.from_dict(spec_data)
        result = run_campaign(spec, workers=0)
        payload: Dict[str, Any] = {"ok": True, "result": result.to_dict()}
        if not result.ok:
            # per-seed infrastructure failures inside the campaign are
            # already retried there; surviving ones are the job's result
            payload["failures"] = result.to_dict()["failures"]
        ok = True
    except BaseException as error:  # noqa: BLE001 - must report, not die
        payload = {"ok": False,
                   "error": f"{type(error).__name__}: {error}"}
    finally:
        if heartbeat is not None:
            heartbeat.close(ok=ok)
    atomic_write(scratch_path, canonical_json(payload) + "\n")
    if not ok:
        raise SystemExit(1)


class _Lease:
    """Daemon-side record of one live lease (never persisted)."""

    __slots__ = ("job_id", "process", "attempt", "scratch",
                 "deadline", "watchdog", "token")

    def __init__(self, job_id: str, process: Any, attempt: int,
                 scratch: str, deadline: Optional[float],
                 watchdog: Optional[float], token: int):
        self.job_id = job_id
        self.process = process
        self.attempt = attempt
        self.scratch = scratch
        self.deadline = deadline      # heartbeat-renewed lease expiry
        self.watchdog = watchdog      # absolute wall-clock kill time
        self.token = token            # beat-pipe correlation id


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
                 store: Any = None,
                 heartbeats: bool = True):
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
        #: fingerprint -> job_id of the live (non-terminal) owner
        self.active_fp: Dict[str, str] = {}
        #: job_id -> monotonic instant a queued job becomes leasable
        self.ready_at: Dict[str, float] = {}
        self.leases: Dict[str, _Lease] = {}
        self.draining = False
        self._context = _make_context()
        self._beat_read: Optional[int] = None
        self._beat_write: Optional[int] = None
        self._beat_buffer = b""
        self._token_to_job: Dict[int, str] = {}
        self._next_token = 1
        self._submitted_at: Dict[str, float] = {}
        if heartbeats:
            read_fd, write_fd = os.pipe()
            os.set_blocking(read_fd, False)
            self._beat_read, self._beat_write = read_fd, write_fd
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
        counts = {"requeued": 0, "republished": 0, "quarantined": 0}
        for job_id in sorted(self.jobs, key=lambda j: self.jobs[j].seq):
            job = self.jobs[job_id]
            state = job.state
            if state == "merging":
                payload = self.jobstore.read_result(job_id)
                if payload is not None:
                    self._publish(job, payload, cached=job.cached)
                    counts["republished"] += 1
                    continue
                # no result file: the unpublished result died with the
                # old daemon; fall through to expire and re-earn it
            if state in RECOVERABLE_STATES:
                PERF.incr("service.recovered_leases")
                after = self._journal_event(job, "expire")
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
        if live is not None and live in self.jobs \
                and not self.jobs[live].lifecycle.terminal:
            PERF.incr("service.coalesced")
            status = self.jobs[live].status()
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
        queued = [job for job in self.jobs.values()
                  if job.state == "queued"]
        if not queued:
            return False
        victim = min(queued, key=lambda job: job.seq)
        self._cancel_job(victim, reason="shed by admission control")
        return True

    # -- the scheduler tick ----------------------------------------------

    def tick(self) -> None:
        """One scheduling round: drain beats, reap, expire, lease."""
        self._drain_beats()
        self._reap()
        if not self.draining:
            self._grant_leases()

    def idle(self) -> bool:
        """No live leases and nothing leasable right now?"""
        if self.leases:
            return False
        if self.draining:
            return True
        return not any(job.state == "queued"
                       for job in self.jobs.values())

    def queue_depth(self) -> int:
        """Jobs the daemon is still responsible for (non-terminal)."""
        return sum(1 for job in self.jobs.values()
                   if not job.lifecycle.terminal)

    def _observe_depth(self) -> None:
        PERF.observe("service.queue_depth", float(self.queue_depth()))

    # -- leases ----------------------------------------------------------

    def _grant_leases(self) -> None:
        free = self.workers - len(self.leases)
        if free <= 0:
            return
        now = time.monotonic()
        leasable: List[Tuple[int, Job]] = sorted(
            ((job.seq, job) for job in self.jobs.values()
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
        payload = self.store.load("result", job.fingerprint,
                                  label=f"result {job.job_id}")
        if payload is None:
            return False
        # same ordering as a cold publish: result bytes land before the
        # journal says the job is done, so a journaled `hit` always has
        # its (byte-identical) payload on disk
        self._deliver(job, payload, cached=True)
        self._journal_event(job, "hit")
        job.cached = True
        PERF.incr("service.cache_hits")
        self._record_latency(job)
        self._finish(job)
        return True

    def _launch(self, job: Job) -> None:
        attempt = job.attempts + 1
        token = self._next_token
        self._next_token += 1
        scratch = str(self.jobstore.result_scratch(job.job_id, attempt))
        process = self._context.Process(
            target=_job_worker_main,
            args=(job.spec, scratch, self._beat_write, token, attempt),
            daemon=True)
        self._journal_event(job, "lease")
        job.attempts = attempt
        process.start()
        now = time.monotonic()
        self.leases[job.job_id] = _Lease(
            job.job_id, process, attempt, scratch,
            deadline=now + self.lease_duration,
            watchdog=(now + self.job_timeout
                      if self.job_timeout is not None else None),
            token=token)
        self._token_to_job[token] = job.job_id
        self.ready_at.pop(job.job_id, None)

    def _drain_beats(self) -> None:
        """Consume the heartbeat pipe: renew leases, observe starts."""
        if self._beat_read is None:
            return
        while True:
            try:
                chunk = os.read(self._beat_read, 65536)
            except BlockingIOError:
                break
            except OSError:
                return
            if not chunk:
                break
            self._beat_buffer += chunk
        while b"\n" in self._beat_buffer:
            line, self._beat_buffer = self._beat_buffer.split(b"\n", 1)
            parts = line.decode("utf-8", "replace").split()
            if len(parts) < 2:
                continue
            verb, raw_token = parts[0], parts[1]
            try:
                token = int(raw_token)
            except ValueError:
                continue
            job_id = self._token_to_job.get(token)
            lease = self.leases.get(job_id or "")
            if lease is None or lease.token != token:
                continue
            lease.deadline = time.monotonic() + self.lease_duration
            if verb == "start":
                job = self.jobs[lease.job_id]
                if job.lifecycle.can("start"):
                    self._journal_event(job, "start")

    def _reap(self) -> None:
        now = time.monotonic()
        for job_id in list(self.leases):
            lease = self.leases[job_id]
            job = self.jobs[job_id]
            if lease.process.is_alive():
                if lease.watchdog is not None and now > lease.watchdog:
                    self._kill_lease(lease)
                    PERF.incr("service.watchdog_kills")
                    self._lease_failed(job, lease, "wall-clock watchdog")
                elif now > lease.deadline:
                    self._kill_lease(lease)
                    PERF.incr("service.lease_expiries")
                    self._lease_failed(job, lease, "lease expired "
                                       "(no heartbeat)")
                continue
            lease.process.join()
            payload = self._read_scratch(lease.scratch)
            self._forget_lease(lease)
            if payload is None:
                PERF.incr("service.lease_expiries")
                self._lease_failed(
                    job, lease,
                    f"worker died (exit code {lease.process.exitcode}) "
                    f"before writing a result")
            elif payload.get("ok"):
                if job.lifecycle.can("start"):
                    # worker finished between beats; catch the start up
                    self._journal_event(job, "start")
                self._journal_event(job, "complete")
                self._publish(job, payload, cached=False)
            else:
                error = payload.get("error", "job failed")
                self._journal_event(job, "fail", error=error)
                job.error = error
                PERF.incr("service.failed")
                self._finish(job)

    def _read_scratch(self, scratch: str) -> Optional[Dict[str, Any]]:
        try:
            with open(scratch, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def _kill_lease(self, lease: _Lease) -> None:
        try:
            lease.process.kill()
            lease.process.join()
        except Exception:  # noqa: BLE001 - dying processes race freely
            pass
        self._forget_lease(lease)

    def _forget_lease(self, lease: _Lease) -> None:
        self.leases.pop(lease.job_id, None)
        self._token_to_job.pop(lease.token, None)
        try:
            os.unlink(lease.scratch)
        except OSError:
            pass

    def _lease_failed(self, job: Job, lease: _Lease, reason: str) -> None:
        after = self._journal_event(job, "expire")
        if after == "queued":
            PERF.incr("service.retries")
            self.ready_at[job.job_id] = time.monotonic() \
                + backoff_delay(self.retry_backoff, lease.attempt,
                                token=job.job_id)
        else:  # quarantined: poison job, budget exhausted
            job.error = f"quarantined after {job.attempts} failed " \
                        f"lease(s); last: {reason}"
            PERF.incr("service.quarantined")
            self._finish(job)

    # -- publishing ------------------------------------------------------

    def _publish(self, job: Job, payload: Dict[str, Any],
                 cached: bool) -> None:
        """Make a merging job's result durable, visible, and deduped.

        Order matters for the crash matrix: store first (idempotent,
        content-addressed), result file second (atomic rename), journal
        records last — every prefix of that sequence is re-runnable on
        recovery without a second visible result.
        """
        if self.store is not None and not cached:
            self.store.save("result", job.fingerprint, payload,
                            meta={"job": job.job_id,
                                  "campaign": job.spec.get("name", "")},
                            label=f"result {job.job_id}")
        self._deliver(job, payload, cached=cached)
        self._journal_event(job, "publish")
        job.cached = cached
        self._record_latency(job)
        self._finish(job)

    def _deliver(self, job: Job, payload: Dict[str, Any],
                 cached: bool) -> None:
        """Result file (atomic rename) then its journal record."""
        self.jobstore.write_result(job.job_id, payload)
        self.jobstore.append({"kind": "result", "job_id": job.job_id,
                              "fingerprint": job.fingerprint,
                              "cached": cached})
        PERF.incr("service.published")

    def _record_latency(self, job: Job) -> None:
        submitted = self._submitted_at.pop(job.job_id, None)
        if submitted is not None:
            PERF.hist("service.submit_to_result_s",
                      time.monotonic() - submitted)

    def _finish(self, job: Job) -> None:
        """Terminal-state bookkeeping shared by every outcome."""
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
        replays into exactly the state the daemon was about to be in.
        ``merging``/``publish`` special case: the publish record lands
        only after the result file rename (see :meth:`_publish`), so a
        journaled publish always has its bytes on disk.
        """
        record = {"kind": "event", "job_id": job.job_id, "event": event}
        record.update(extra)
        self.jobstore.append(record)
        return job.lifecycle.signal(event)

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
        job = self._job(job_id)
        if job.state != "done":
            raise ServiceError(
                f"job {job_id} has no result yet (state {job.state!r}"
                + (f": {job.error}" if job.error else "") + ")")
        payload = self.jobstore.read_result(job_id)
        if payload is None and self.store is not None:
            payload = self.store.load("result", job.fingerprint,
                                      label=f"result {job_id}")
        if payload is None:
            raise ServiceError(
                f"job {job_id} is done but its result payload is "
                f"missing from disk")
        return payload

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
        self._journal_event(job, "cancel")
        job.error = reason
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
        """Finish leased work, snapshot, release file handles."""
        self.drain()
        while self.leases:
            self.tick()
            time.sleep(0.02)
        self.jobstore.snapshot(self.jobs)
        self.jobstore.close()
        if self._beat_read is not None:
            for fd in (self._beat_read, self._beat_write):
                try:
                    os.close(fd)
                except OSError:
                    pass
            self._beat_read = self._beat_write = None

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
