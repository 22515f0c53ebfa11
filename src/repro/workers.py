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
  sends a short completion message on its pipe.  A present file is a
  complete file, so a SIGKILL mid-message cannot tear a result, and
  the parent never blocks on a half-sent payload.
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
import stat
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, Dict, List, Optional, Tuple

from .durable import atomic_write, canonical_json

#: The completion message a worker sends after its result file landed.
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

    __slots__ = ("process", "conn", "result_path")

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        #: where the current task's payload lands (None while idle)
        self.result_path: Optional[str] = None


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
        ``None`` for a worker that died without one.  With no busy
        worker it just sleeps out ``timeout``."""
        ready = wait_ready([worker.conn for worker in self._busy], timeout)
        finished = []
        for worker in [w for w in self._busy if w.conn in ready]:
            try:
                alive = worker.conn.recv_bytes() == _DONE
            except (EOFError, OSError):
                alive = False
            payload = _read_result(worker.result_path)
            self._busy.remove(worker)
            worker.result_path = None
            if alive:
                self._idle.append(worker)
            else:
                _stop(worker)
            finished.append((worker, payload))
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


def _read_result(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# the worker side
# ---------------------------------------------------------------------------

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
            atomic_write(result_path, canonical_json(handler(*args)) + "\n")
            conn.send_bytes(_DONE)
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
