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
    {"op": "result", "job_id": "..."}     -> {"ok": true, "payload": {...}}
    {"op": "cancel", "job_id": "..."}     -> {"ok": true, "job": {...}}
    {"op": "stats"}                       -> {"ok": true, "stats": {...}}
    {"op": "metrics"}                     -> {"ok": true, "text": "..."}
    {"op": "drain"}                       -> {"ok": true, "draining": true}

The server is a single-threaded :mod:`selectors` loop that multiplexes
client sockets *and* the daemon's scheduler: every pass through the
loop also runs :meth:`~repro.service.daemon.SimulationService.tick`,
so the queue makes progress whether or not anyone is connected.  A
Unix socket (filesystem permissions as access control, no TCP port to
squat) matches the ``repro`` CLI's local-first posture.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time
from typing import Any, Callable, Dict, Optional

from ..errors import ReproError, ServiceError
from ..observability.metrics import to_prometheus
from ..perf import PERF
from .daemon import SimulationService
from .jobstore import canonical_json

#: Largest accepted request line (a spec is small; a megabyte is ample).
MAX_REQUEST_BYTES = 1 << 20


class _Connection:
    __slots__ = ("sock", "buffer", "outbox")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = b""
        self.outbox = b""


class ServiceServer:
    """Bind the daemon to a Unix socket and pump both until drained."""

    def __init__(self, service: SimulationService, socket_path: str):
        self.service = service
        self.socket_path = socket_path
        self._selector = selectors.DefaultSelector()
        self._listener: Optional[socket.socket] = None
        self._stop = False

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
                key.fileobj.close()
            except (OSError, KeyError, ValueError):
                pass
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
        journal exactly as it would after a crash.
        """
        if self._listener is None:
            self.bind()
        try:
            while True:
                self._pump(poll)
                self.service.tick()
                if on_tick is not None:
                    on_tick()
                if self._stop and not self.service.leases:
                    break
        finally:
            self.service.shutdown()
            self.close()

    # -- socket plumbing -------------------------------------------------

    def _pump(self, poll: float) -> None:
        for key, mask in self._selector.select(timeout=poll):
            if key.data is None:
                self._accept()
            else:
                connection = key.data
                if mask & selectors.EVENT_READ:
                    self._read(connection)
                if mask & selectors.EVENT_WRITE:
                    self._write(connection)

    def _accept(self) -> None:
        if self._listener is None:
            return
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        connection = _Connection(sock)
        self._selector.register(
            sock, selectors.EVENT_READ | selectors.EVENT_WRITE, connection)

    def _drop(self, connection: _Connection) -> None:
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
            if not connection.outbox:
                self._drop(connection)
            return
        connection.buffer += chunk
        if len(connection.buffer) > MAX_REQUEST_BYTES:
            connection.outbox += self._encode(
                {"ok": False, "error": "request too large"})
            connection.buffer = b""
            self._write(connection)
            self._drop(connection)
            return
        while b"\n" in connection.buffer:
            line, connection.buffer = connection.buffer.split(b"\n", 1)
            if line.strip():
                response = self.handle_line(line)
                connection.outbox += self._encode(response)
        self._write(connection)

    def _write(self, connection: _Connection) -> None:
        if not connection.outbox:
            return
        try:
            sent = connection.sock.send(connection.outbox)
            connection.outbox = connection.outbox[sent:]
        except BlockingIOError:
            pass
        except OSError:
            self._drop(connection)

    @staticmethod
    def _encode(response: Dict[str, Any]) -> bytes:
        return (canonical_json(response) + "\n").encode("utf-8")

    # -- request dispatch -------------------------------------------------

    def handle_line(self, line: bytes) -> Dict[str, Any]:
        """Decode, dispatch, and package one request (never raises)."""
        try:
            request = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            PERF.incr("service.bad_requests")
            return {"ok": False, "error": f"request is not JSON: {error}"}
        if not isinstance(request, dict):
            PERF.incr("service.bad_requests")
            return {"ok": False, "error": "request must be a JSON object"}
        try:
            return self.handle(request)
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

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
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
        if op == "result":
            job_id = request.get("job_id")
            if not job_id:
                raise ServiceError("result needs a 'job_id'")
            return {"ok": True,
                    "payload": service.result(str(job_id))}
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
        body = dict(fields, op=op)
        try:
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as sock:
                sock.settimeout(self.timeout)
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
             poll: float = 0.1) -> Dict[str, Any]:
        """Block until the job is terminal; return its final status."""
        deadline = time.monotonic() + timeout
        while True:
            row = self.status(job_id)
            if row["state"] in ("done", "failed", "cancelled",
                                "quarantined"):
                return row
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for "
                    f"{job_id} (state {row['state']!r})")
            time.sleep(poll)
