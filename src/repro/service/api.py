"""The service's wire surface: JSONL over a local Unix socket.

One request is one JSON object on one line; one response is one JSON
object on one line.  Every response carries ``"ok"``: ``true`` with the
operation's payload, or ``false`` with an ``"error"`` string — client
errors (unknown job, full queue, draining) never kill the daemon, they
travel back as refusals.

Operations::

    {"op": "ping"}                        -> {"ok": true, "pong": true}
    {"op": "submit", "spec": {...}}       -> {"ok": true, "job": {...}}
    {"op": "status"}                      -> {"ok": true, "status": {...}}
    {"op": "status", "job_id": "..."}     -> {"ok": true, "job": {...}}
    {"op": "wait", "job_id": "...",
     "timeout": 30.0}                     -> {"ok": true, "job": {...}}
    {"op": "result", "job_id": "..."}     -> {"ok": true, "payload": {...}}
    {"op": "cancel", "job_id": "..."}     -> {"ok": true, "job": {...}}
    {"op": "stats"}                       -> {"ok": true, "stats": {...}}
    {"op": "metrics"}                     -> {"ok": true, "text": "..."}
    {"op": "drain"}                       -> {"ok": true, "draining": true}

``wait`` answers with the job's status row once the job is terminal,
or with its current row when ``timeout`` seconds (optional: no bound)
pass first.  Until then its connection is parked: requests that follow
on the same connection are answered after it, in order.  ``result``
sends the published file's canonical text as its payload.

The server is a single-threaded :mod:`selectors` loop that multiplexes
client sockets, the busy pool workers' pipes *and* the daemon's
scheduler: every pass through the loop also runs
:meth:`~repro.service.daemon.SimulationService.tick`.  A pass starts
when a client socket or a worker's pipe turns ready, or at the nearest
deadline (a lease expiry, a watchdog, a backoff, a parked ``wait``),
so a finished job is published, and its waiters answered, in the pass
its worker's completion wakes.  A Unix socket (filesystem permissions
as access control, no TCP port to squat) matches the ``repro`` CLI's
local-first posture.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import socket
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..errors import ReproError, ServiceError
from ..observability.metrics import to_prometheus
from ..perf import PERF
from .daemon import SimulationService
from .jobstore import canonical_json
from .lifecycle import TERMINAL_STATES

#: Largest accepted request line (a spec is small; a megabyte is ample).
MAX_REQUEST_BYTES = 1 << 20

#: A response: a JSON object, or its canonical text when the daemon
#: already holds it (``result``).
Response = Union[Dict[str, Any], str]


class _Connection:
    __slots__ = ("sock", "buffer", "outbox", "events", "closed_input",
                 "wait")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = b""
        self.outbox = b""
        #: the selector events the socket is registered for
        self.events = selectors.EVENT_READ
        #: the client closed its side: nothing more to read
        self.closed_input = False
        #: ``(job_id, monotonic deadline)`` of a parked wait
        self.wait: Optional[Tuple[str, float]] = None


class ServiceServer:
    """Bind the daemon to a Unix socket and pump both until drained."""

    def __init__(self, service: SimulationService, socket_path: str):
        self.service = service
        self.socket_path = socket_path
        self._selector = selectors.DefaultSelector()
        self._listener: Optional[socket.socket] = None
        self._stop = False
        #: busy worker -> the pipe descriptor registered for it
        self._workers: Dict[Any, int] = {}
        #: connections with a parked ``wait``, in arrival order
        self._parked: Dict[_Connection, None] = {}

    # -- lifecycle -------------------------------------------------------

    def bind(self) -> None:
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.setblocking(False)
        listener.bind(self.socket_path)
        listener.listen(16)
        self._listener = listener
        self._selector.register(listener, selectors.EVENT_READ, None)

    def close(self) -> None:
        for key in list(self._selector.get_map().values()):
            try:
                self._selector.unregister(key.fileobj)
                if not isinstance(key.fileobj, int):
                    key.fileobj.close()
            except (OSError, KeyError, ValueError):
                pass
        self._workers.clear()
        self._parked.clear()
        self._listener = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    def request_stop(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler-safe)."""
        self._stop = True
        self.service.drain()

    def serve_forever(self, poll: float = 0.05,
                      on_tick: Optional[Callable[[], None]] = None) -> None:
        """Run until told to stop *and* every leased job settled.

        On SIGTERM/SIGINT the CLI calls :meth:`request_stop`: admission
        closes immediately, leased work runs to completion, and queued
        work stays journaled for the next boot, which replays the
        journal exactly as it would after a crash.  A pass waits at
        most ``poll`` seconds: Python resumes an interrupted ``select``
        after the signal handler ran (PEP 475), so the cap is what
        bounds how late a stop request is seen.
        """
        if self._listener is None:
            self.bind()
        try:
            while True:
                self._pump(poll)
                self.service.tick()
                self._answer_waits()
                if on_tick is not None:
                    on_tick()
                if self._stop and not self.service.leases:
                    break
            for connection in list(self._parked):
                self._answer(connection, {
                    "ok": False,
                    "error": f"service stopped before job "
                             f"{connection.wait[0]} finished"})
        finally:
            self.service.shutdown()
            self.close()

    # -- socket plumbing -------------------------------------------------

    def _timeout(self, poll: float) -> float:
        """Seconds until the nearest deadline, capped at ``poll``."""
        nearest = min([self.service.next_deadline()]
                      + [connection.wait[1] for connection in self._parked])
        return min(poll, max(0.0, nearest - time.monotonic()))

    def _watch_workers(self) -> None:
        """Register exactly the busy workers' pipes, so a heartbeat, a
        completion or a death wakes the loop.  A released worker's
        pipe may be closed already, so it leaves by its descriptor."""
        busy = {lease.worker for lease in self.service.leases.values()}
        for worker in [w for w in self._workers if w not in busy]:
            self._selector.unregister(self._workers.pop(worker))
        for worker in busy:
            if worker not in self._workers:
                descriptor = worker.conn.fileno()
                self._selector.register(descriptor, selectors.EVENT_READ,
                                        worker)
                self._workers[worker] = descriptor

    def _pump(self, poll: float) -> None:
        self._watch_workers()
        for key, mask in self._selector.select(
                timeout=self._timeout(poll)):
            connection = key.data
            if connection is None:
                self._accept()
            elif isinstance(connection, _Connection):
                if mask & selectors.EVENT_READ:
                    self._read(connection)
                if mask & selectors.EVENT_WRITE:
                    self._write(connection)
            # a worker's pipe: the tick that follows reads it

    def _accept(self) -> None:
        if self._listener is None:
            return
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        connection = _Connection(sock)
        # a cancel earlier in this pass may have closed a worker's pipe,
        # whose descriptor number the new socket can reuse
        self._watch_workers()
        self._selector.register(sock, connection.events, connection)

    def _drop(self, connection: _Connection) -> None:
        self._parked.pop(connection, None)
        # a later _write in the same pass finds nothing to do but drop
        connection.outbox = b""
        connection.closed_input = True
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError):
            pass
        try:
            connection.sock.close()
        except OSError:
            pass

    def _read(self, connection: _Connection) -> None:
        try:
            chunk = connection.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._drop(connection)
            return
        if not chunk:
            # the client is done sending: once nothing is left to send
            # it is dropped, with its parked wait if it has one
            connection.closed_input = True
            self._write(connection)
            return
        connection.buffer += chunk
        if len(connection.buffer) > MAX_REQUEST_BYTES:
            connection.outbox += self._encode(
                {"ok": False, "error": "request too large"})
            connection.buffer = b""
            self._write(connection)
            self._drop(connection)
            return
        self._serve_lines(connection)
        self._write(connection)

    def _serve_lines(self, connection: _Connection) -> None:
        """Answer the buffered requests in order, up to a parked wait."""
        while connection.wait is None and b"\n" in connection.buffer:
            line, connection.buffer = connection.buffer.split(b"\n", 1)
            if line.strip():
                response = self.handle_line(line, connection)
                if response is not None:
                    connection.outbox += self._encode(response)

    def _write(self, connection: _Connection) -> None:
        """Send what the outbox holds, then watch the socket for what
        comes next: input until the client closes its side, output
        while a response is pending.  A connection with neither left
        is done."""
        if connection.outbox:
            try:
                sent = connection.sock.send(connection.outbox)
                connection.outbox = connection.outbox[sent:]
            except BlockingIOError:
                pass
            except OSError:
                self._drop(connection)
                return
        events = (0 if connection.closed_input else selectors.EVENT_READ) \
            | (selectors.EVENT_WRITE if connection.outbox else 0)
        if not events:
            self._drop(connection)
        elif events != connection.events:
            connection.events = events
            self._selector.modify(connection.sock, events, connection)

    # -- parked waits ------------------------------------------------------

    def _answer_waits(self) -> None:
        """Answer each parked wait whose job turned terminal or whose
        timeout passed."""
        if not self._parked:
            return
        now = time.monotonic()
        for connection in list(self._parked):
            job_id, deadline = connection.wait
            row = self.service.status(job_id)
            if row["state"] in TERMINAL_STATES or now >= deadline:
                self._answer(connection, {"ok": True, "job": row})

    def _answer(self, connection: _Connection, response: Response) -> None:
        del self._parked[connection]
        connection.wait = None
        connection.outbox += self._encode(response)
        self._serve_lines(connection)
        self._write(connection)

    @staticmethod
    def _encode(response: Response) -> bytes:
        text = response if isinstance(response, str) \
            else canonical_json(response)
        return (text + "\n").encode("utf-8")

    # -- request dispatch -------------------------------------------------

    def handle_line(self, line: bytes,
                    connection: Optional[_Connection] = None
                    ) -> Optional[Response]:
        """Decode, dispatch, and package one request (never raises).

        None means the request parked ``connection`` (a ``wait``).
        """
        try:
            request = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            PERF.incr("service.bad_requests")
            return {"ok": False, "error": f"request is not JSON: {error}"}
        if not isinstance(request, dict):
            PERF.incr("service.bad_requests")
            return {"ok": False, "error": "request must be a JSON object"}
        try:
            return self.handle(request, connection)
        except ServiceError as error:
            return {"ok": False, "error": str(error)}
        except ReproError as error:
            return {"ok": False,
                    "error": f"{type(error).__name__}: {error}"}
        except Exception as error:  # noqa: BLE001 - daemon must survive
            PERF.incr("service.internal_errors")
            return {"ok": False,
                    "error": f"internal error: "
                             f"{type(error).__name__}: {error}"}

    def handle(self, request: Dict[str, Any],
               connection: Optional[_Connection] = None
               ) -> Optional[Response]:
        """Dispatch one decoded request.

        A ``wait`` on a job that is not terminal parks ``connection``
        and returns None; without a connection (an in-process call) it
        returns the job's current row at once.
        """
        op = request.get("op")
        service = self.service
        if op == "ping":
            return {"ok": True, "pong": True,
                    "draining": service.draining}
        if op == "submit":
            spec = request.get("spec")
            if not isinstance(spec, dict):
                raise ServiceError("submit needs a 'spec' object")
            return {"ok": True, "job": service.submit(spec)}
        if op == "status":
            job_id = request.get("job_id")
            if job_id is None:
                return {"ok": True, "status": service.status()}
            return {"ok": True, "job": service.status(str(job_id))}
        if op == "wait":
            job_id = request.get("job_id")
            if not job_id:
                raise ServiceError("wait needs a 'job_id'")
            timeout = request.get("timeout")
            if timeout is not None and (
                    isinstance(timeout, bool)
                    or not isinstance(timeout, (int, float))
                    or not timeout >= 0):
                raise ServiceError(
                    f"wait's 'timeout' must be a number >= 0, "
                    f"got {timeout!r}")
            row = service.status(str(job_id))
            if row["state"] in TERMINAL_STATES or connection is None:
                return {"ok": True, "job": row}
            connection.wait = (row["job_id"], math.inf if timeout is None
                               else time.monotonic() + timeout)
            self._parked[connection] = None
            return None
        if op == "result":
            job_id = request.get("job_id")
            if not job_id:
                raise ServiceError("result needs a 'job_id'")
            # canonical_json orders "ok" before "payload": splice the
            # published text in rather than decode and re-encode it
            return '{"ok":true,"payload":%s}' % service.result_text(
                str(job_id))
        if op == "cancel":
            job_id = request.get("job_id")
            if not job_id:
                raise ServiceError("cancel needs a 'job_id'")
            return {"ok": True, "job": service.cancel(str(job_id))}
        if op == "stats":
            return {"ok": True, "stats": service.stats()}
        if op == "metrics":
            return {"ok": True, "text": to_prometheus(PERF.snapshot())}
        if op == "drain":
            self.request_stop()
            return {"ok": True, "draining": True}
        raise ServiceError(f"unknown operation {op!r}")


class ServiceClient:
    """Blocking JSONL client: one connection per request.

    Per-request connections keep the client stateless and immune to the
    daemon restarting between calls — exactly the property a
    crash-recoverable service should hand its callers.
    """

    def __init__(self, socket_path: str, timeout: float = 30.0):
        self.socket_path = socket_path
        self.timeout = timeout

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One round-trip; raises :class:`ServiceError` on refusal."""
        return self._exchange(dict(fields, op=op), self.timeout)

    def _exchange(self, body: Dict[str, Any],
                  timeout: float) -> Dict[str, Any]:
        try:
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as sock:
                sock.settimeout(timeout)
                sock.connect(self.socket_path)
                sock.sendall(
                    (canonical_json(body) + "\n").encode("utf-8"))
                chunks = b""
                while not chunks.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks += chunk
        except OSError as error:
            raise ServiceError(
                f"cannot reach service at {self.socket_path}: {error}")
        if not chunks.strip():
            raise ServiceError(
                f"service at {self.socket_path} closed the connection "
                f"without answering")
        try:
            response = json.loads(chunks.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ServiceError(f"malformed service response: {error}")
        if not response.get("ok"):
            raise ServiceError(response.get("error", "request refused"))
        return response

    # -- convenience verbs ----------------------------------------------

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        return self.request("submit", spec=spec)["job"]

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        if job_id is None:
            return self.request("status")["status"]
        return self.request("status", job_id=job_id)["job"]

    def result(self, job_id: str) -> Dict[str, Any]:
        return self.request("result", job_id=job_id)["payload"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("cancel", job_id=job_id)["job"]

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    def metrics(self) -> str:
        return self.request("metrics")["text"]

    def drain(self) -> None:
        self.request("drain")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job is terminal; return its final status.

        One ``wait`` request, which the daemon answers in the pass the
        job turns terminal; past ``timeout`` seconds it answers with
        the job's current row, and this raises :class:`ServiceError`.
        ``poll`` is accepted for callers of the former polling client
        and ignored.
        """
        row = self._exchange(
            {"op": "wait", "job_id": job_id, "timeout": timeout},
            timeout + self.timeout)["job"]
        if row["state"] not in TERMINAL_STATES:
            raise ServiceError(
                f"timed out after {timeout}s waiting for "
                f"{job_id} (state {row['state']!r})")
        return row
