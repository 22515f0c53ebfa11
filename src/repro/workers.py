"""One pool of persistent worker processes.

The campaign runner fans seeds over it (``run_campaign(workers=N)``)
and the service daemon runs its leased jobs on it (``repro serve
--workers N``).  Both hand it the same kind of task: call a handler
in a worker process and bring back its plain-data payload.

* **Lazy, persistent workers.**  A slot forks its worker on first
  demand, so a pool that is never used forks nothing.  The worker then
  serves one task at a time from its own pipe until the pipe closes or
  its parent dies.  Everything the handlers cache at module level (the
  imported simulation stack, the parsed model of
  :func:`repro.faults.runner._warm_model`) stays warm between tasks.
* **Result transport.**  The worker writes the handler's payload to
  the task's result file with :func:`repro.durable.atomic_write`, then
  sends a short completion message on its pipe that carries the task's
  final progress sample.  A present file is a complete file, so a
  SIGKILL mid-message cannot tear a result, and the parent never blocks
  on a half-sent payload.
* **Heartbeats on the same pipe.**  While a task runs, the worker
  sends ``beat <n>`` when it takes the task and then every
  :data:`HEARTBEAT_INTERVAL` seconds from a thread; ``n`` is the
  sample a handler registered with :func:`report_progress` (0 without
  one).  The thread is joined before the completion message goes out,
  so no beat of a task can be charged to the worker's next one.
  :meth:`WorkerPool.wait` records each beat on the :class:`Worker`
  handle (``started``, ``last_beat``, ``progress``): the daemon renews
  leases from it and the campaign runner feeds its live telemetry.  An
  idle worker sends nothing.
* **A crash is a missing result.**  A worker whose pipe reaches EOF or
  tears without a result file died; :meth:`WorkerPool.wait` reports
  it with a ``None`` payload and frees its slot, and the next
  :meth:`WorkerPool.submit` forks a replacement.  Callers route that
  ``None`` through their own retry paths.
* **Descriptor hygiene.**  A worker points every inherited socket
  other than its own pipe at ``/dev/null``: a daemon's listener, its
  client connections, its siblings' pipe ends.  An orphaned worker can
  then neither hold a dead daemon's socket open nor keep a sibling's
  pipe from reporting EOF.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import stat
import threading
import time
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, Dict, List, Optional, Tuple

from .durable import atomic_write, canonical_json

#: Seconds between two heartbeats of a worker running a task.
HEARTBEAT_INTERVAL = 0.25

#: The message verbs: a heartbeat, and the completion a worker sends
#: after its result file landed.  Each message is ``<verb> <sample>``.
_BEAT = b"beat"
_DONE = b"done"


def _make_context():
    """``fork`` where the host has it: a worker starts from the
    parent's imports and warmed caches instead of re-paying them."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


class Worker:
    """Parent-side handle on one worker process and its pipe."""

    __slots__ = ("process", "conn", "result_path", "started",
                 "last_beat", "progress")

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        #: where the current task's payload lands (None while idle)
        self.result_path: Optional[str] = None
        #: the current task's first heartbeat arrived
        self.started = False
        #: monotonic time of the latest heartbeat (the submit counts)
        self.last_beat = 0.0
        #: the current task's latest progress sample; after completion,
        #: its final one
        self.progress = 0


class WorkerPool:
    """Up to ``size`` persistent workers, each running ``handler``.

    ``handler(*args)`` runs in a worker and returns a JSON-serializable
    payload; it should catch its own errors and report them in the
    payload, because an exception that escapes it ends the worker (a
    death, not a result).  The pool is single-threaded: one caller
    submits, waits and kills.  Use it as a context manager, or call
    :meth:`close`, so that no worker outlives its user.
    """

    def __init__(self, size: int, handler: Callable[..., Dict[str, Any]]):
        self.size = size
        self.handler = handler
        self._context = _make_context()
        self._idle: List[Worker] = []
        self._busy: List[Worker] = []

    @property
    def free(self) -> int:
        """Tasks :meth:`submit` can start right now."""
        return self.size - len(self._busy)

    def submit(self, result_path: str, *args: Any) -> Worker:
        """Start ``handler(*args)`` on an idle worker, forking one into a
        free slot when none is idle; returns the busy worker."""
        if not self.free:
            raise RuntimeError("every worker of the pool is busy")
        worker = self._idle.pop() if self._idle else self._fork()
        worker.result_path = result_path
        worker.started = False
        worker.last_beat = time.monotonic()
        worker.progress = 0
        self._busy.append(worker)
        try:
            worker.conn.send((result_path, args))
        except OSError:
            pass  # the worker is gone: wait() reports its death
        return worker

    def wait(self, timeout: Optional[float] = None
             ) -> List[Tuple[Worker, Optional[Dict[str, Any]]]]:
        """Block up to ``timeout`` seconds (``None``: until one finishes)
        for busy workers; return each finished one with its payload,
        ``None`` for a worker that died without one.  Heartbeats that
        arrive meanwhile are recorded on their handles and do not end
        the wait.  With no busy worker it just sleeps out ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            ready = wait_ready(
                [worker.conn for worker in self._busy],
                None if deadline is None
                else max(0.0, deadline - time.monotonic()))
            finished = []
            for worker in [w for w in self._busy if w.conn in ready]:
                alive = _receive(worker)
                if alive is None:
                    continue  # heartbeats only: the task still runs
                payload = _read_result(worker.result_path)
                self._busy.remove(worker)
                worker.result_path = None
                if alive:
                    self._idle.append(worker)
                else:
                    _stop(worker)
                finished.append((worker, payload))
            if finished or not ready or (
                    deadline is not None and time.monotonic() >= deadline):
                return finished

    def kill(self, worker: Worker) -> None:
        """SIGKILL a busy worker (a watchdog, a cancel); the next
        :meth:`submit` refills its slot."""
        self._busy.remove(worker)
        worker.result_path = None
        _stop(worker)

    def close(self) -> None:
        """Stop every worker and reap it: idle ones leave their loop on
        EOF of their pipe, busy ones are killed."""
        idle, busy = self._idle, self._busy
        self._idle, self._busy = [], []
        for worker in busy:
            _stop(worker)
        for worker in idle:
            worker.conn.close()
        for worker in idle:
            worker.process.join(timeout=5.0)
            _stop(worker)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _fork(self) -> Worker:
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_serve, args=(child_end, self.handler), daemon=True)
        process.start()
        child_end.close()  # only the worker holds it: its death is EOF
        return Worker(process, parent_end)

    def __repr__(self) -> str:
        return (f"<WorkerPool size={self.size} busy={len(self._busy)} "
                f"idle={len(self._idle)}>")


def _stop(worker: Worker) -> None:
    """Close the parent's pipe end, SIGKILL the process (a no-op once it
    exited) and reap it."""
    worker.conn.close()
    worker.process.kill()
    worker.process.join()


def _receive(worker: Worker) -> Optional[bool]:
    """Read every queued message of a ready worker, recording its beats
    on the handle.  Returns ``None`` while its task runs, ``True`` once
    it completed, ``False`` when it died (EOF or a torn pipe)."""
    try:
        while True:
            verb, _, sample = worker.conn.recv_bytes().partition(b" ")
            worker.progress = int(sample)
            if verb != _BEAT:
                return verb == _DONE
            worker.started = True
            worker.last_beat = time.monotonic()
            if not worker.conn.poll():
                return None
    except (EOFError, OSError):
        return False


def _read_result(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# the worker side
# ---------------------------------------------------------------------------

#: The heartbeat of the task this process runs (set only in a pool
#: worker, while a task runs).
_heartbeat: Optional["_Heartbeat"] = None


def report_progress(sample: Callable[[], int]) -> None:
    """Make ``sample()`` the running task's progress: every heartbeat of
    the task and its completion message carry its latest value, which
    the parent reads as :attr:`Worker.progress`.  ``sample`` runs on the
    heartbeat thread, so it must be a cheap read that cannot raise.
    Outside a pool worker this does nothing."""
    if _heartbeat is not None:
        _heartbeat.sample = sample


def maybe_test_kill(variable: str, label: str, attempt: int) -> None:
    """Test/CI hook: SIGKILL this process when the environment variable
    ``variable`` reads ``<label>[:<max attempt>]`` and ``attempt`` is
    at most that bound (1 when omitted), so a task's worker dies on
    demand and its caller's retry path runs."""
    target, _, through = os.environ.get(variable, "").partition(":")
    try:
        max_attempt = int(through) if through else 1
    except ValueError:
        return
    if target and target == label and attempt <= max_attempt:
        os.kill(os.getpid(), signal.SIGKILL)


class _Heartbeat:
    """One task's beats: ``beat <n>`` on the worker's pipe on entry,
    then every :data:`HEARTBEAT_INTERVAL` from a thread until exit.
    The exit joins the thread, so a message sent after the block (the
    completion) follows every beat."""

    def __init__(self, conn: Any):
        self.conn = conn
        self.sample: Callable[[], int] = lambda: 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="heartbeat", daemon=True)

    def send(self, verb: bytes) -> None:
        self.conn.send_bytes(b"%s %d" % (verb, self.sample()))

    def _run(self) -> None:
        try:
            while not self._stop.wait(HEARTBEAT_INTERVAL):
                self.send(_BEAT)
        except OSError:
            pass  # the parent is gone; the main thread sees it too

    def __enter__(self) -> "_Heartbeat":
        global _heartbeat
        self.send(_BEAT)
        self._thread.start()
        _heartbeat = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _heartbeat
        _heartbeat = None
        self._stop.set()
        self._thread.join()


def _serve(conn: Any, handler: Callable[..., Dict[str, Any]]) -> None:
    """Worker process main: run tasks from ``conn`` until it closes or
    the parent dies."""
    _release_inherited_sockets(keep=conn.fileno())
    watch: List[Any] = [conn]
    parent = multiprocessing.parent_process()
    if parent is not None:
        watch.append(parent.sentinel)
    while True:
        ready = wait_ready(watch)
        if parent is not None and parent.sentinel in ready:
            return
        try:
            result_path, args = conn.recv()
            with _Heartbeat(conn) as heartbeat:
                atomic_write(result_path,
                             canonical_json(handler(*args)) + "\n")
            heartbeat.send(_DONE)
        except (EOFError, OSError):
            return  # the pool closed the pipe, or the parent is gone


def _release_inherited_sockets(keep: int) -> None:
    """Point every open socket descriptor but ``keep`` at ``/dev/null``.

    ``dup2`` rather than ``close`` keeps each number taken: an
    inherited socket object that is finalized later closes the
    ``/dev/null`` copy, never an unrelated file that reused its number.
    """
    try:
        descriptors = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:
        return  # no descriptor listing on this host: nothing to scan
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in descriptors:
            if fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass  # closed since the listing (the listing's own fd)
    finally:
        os.close(null)
