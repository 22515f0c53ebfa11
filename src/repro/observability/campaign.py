"""Live campaign telemetry (PR 9).

Fault-campaign workers are forked processes; until now the only
feedback during a long campaign was silence followed by a result
table.  This module streams worker heartbeats over a plain OS pipe so
the parent can render a live progress line and a ``campaign.live``
Prometheus snapshot *without touching the TraceBus* — subscribing
telemetry to the bus would change which events are emitted and shift
ordinals, breaking the serial == parallel report byte-identity
guarantee.  A pipe is invisible to the simulation.

Protocol (one short line per beat, written atomically — every line is
far below ``PIPE_BUF``):

* ``start <seed>`` — the worker has begun simulating;
* ``hb <seed> <events>`` — periodic sample of the worker's kernel
  ``events_processed`` counter (a daemon thread, ~4 Hz);
* ``done <seed> <events>`` / ``fail <seed>`` — terminal beats; the
  parent's reap loop remains the ground truth for results, these only
  keep the progress display honest between reaps.

Everything degrades to silence: if the pipe is gone (spawn start
method, closed parent) writes are swallowed, and the progress line is
rendered only when the stream is a TTY or rendering is forced.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from .metrics import PREFIX, metric_name

#: Seconds between worker heartbeat samples.
HEARTBEAT_INTERVAL = 0.25

#: Minimum seconds between progress-line renders in the parent.
RENDER_INTERVAL = 0.1


def send_beat(fd: Optional[int], line: str) -> bool:
    """Write one protocol line to the telemetry pipe, silently
    swallowing every failure (missing fd, closed pipe, spawn-context
    inheritance gaps).  Returns whether the write went through."""
    if fd is None:
        return False
    try:
        os.write(fd, (line.rstrip("\n") + "\n").encode("utf-8"))
        return True
    except (OSError, ValueError):
        return False


class WorkerHeartbeat:
    """Worker-side beat sender: a daemon thread sampling a counter.

    ``sample`` is called on the telemetry thread (~4 Hz) and must be
    cheap and thread-safe to *read* — the kernel's ``events_processed``
    int qualifies.  ``close()`` sends the terminal beat.
    """

    def __init__(self, fd: Optional[int], seed: int,
                 sample: Callable[[], int],
                 interval: float = HEARTBEAT_INTERVAL):
        self.fd = fd
        self.seed = seed
        self.sample = sample
        self.interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if send_beat(fd, f"start {seed}"):
            self._thread = threading.Thread(
                target=self._run, name=f"telemetry-seed-{seed}",
                daemon=True)
            self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                events = int(self.sample())
            except Exception:
                events = 0
            if not send_beat(self.fd, f"hb {self.seed} {events}"):
                return  # pipe is gone; stop sampling

    def close(self, ok: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
        if ok:
            try:
                events = int(self.sample())
            except Exception:
                events = 0
            send_beat(self.fd, f"done {self.seed} {events}")
        else:
            send_beat(self.fd, f"fail {self.seed}")


class CampaignTelemetry:
    """Parent-side aggregation and rendering of campaign progress.

    Tracks per-seed state (``pending`` -> ``running`` -> ``done`` /
    ``failed``) fed by pipe beats and by the runner's reap loop, and
    renders a single carriage-return progress line::

        campaign demo: 12/20 done (1 failed) | 3 running | 48231 ev/s | ETA 4.2s

    Rendering auto-enables only when the stream is a TTY (``enabled``
    forces it either way); when disabled the object still aggregates,
    so :meth:`prometheus` and :meth:`snapshot` work headlessly.
    """

    def __init__(self, total: int, name: str = "campaign",
                 stream: Any = None, enabled: Optional[bool] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.total = int(total)
        self.name = name
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self.stream, "isatty", None)
            enabled = bool(isatty()) if callable(isatty) else False
        self.enabled = enabled
        self._clock = clock
        self.started_at = clock()
        self.done = 0
        self.failed = 0
        self.running: Dict[int, int] = {}  # seed -> last sampled events
        self.events_done = 0  # events of finished seeds
        self._done_seeds: set = set()
        self._finish_times: List[float] = []
        self._last_render = 0.0
        self._rendered = False
        self._read_fd: Optional[int] = None
        self._write_fd: Optional[int] = None
        self._buffer = b""

    # -- the pipe ----------------------------------------------------------

    def open_pipe(self) -> int:
        """Create the beat pipe; returns the write fd workers inherit."""
        read_fd, write_fd = os.pipe()
        os.set_blocking(read_fd, False)
        self._read_fd, self._write_fd = read_fd, write_fd
        return write_fd

    @property
    def write_fd(self) -> Optional[int]:
        return self._write_fd

    def poll(self) -> None:
        """Drain pending beats (non-blocking) and maybe re-render."""
        if self._read_fd is not None:
            while True:
                try:
                    chunk = os.read(self._read_fd, 65536)
                except BlockingIOError:
                    break
                except OSError:
                    break
                if not chunk:
                    break
                self._buffer += chunk
            *lines, self._buffer = self._buffer.split(b"\n")
            for raw in lines:
                self._apply(raw.decode("utf-8", "replace"))
        self.render()

    def _apply(self, line: str) -> None:
        fields = line.split()
        if len(fields) < 2:
            return
        verb = fields[0]
        try:
            seed = int(fields[1])
        except ValueError:
            return
        if verb == "start":
            self.running.setdefault(seed, 0)
        elif verb == "hb" and len(fields) >= 3:
            try:
                self.running[seed] = int(fields[2])
            except ValueError:
                pass
        elif verb == "done":
            events = 0
            if len(fields) >= 3:
                try:
                    events = int(fields[2])
                except ValueError:
                    events = 0
            self.seed_done(seed, events)
        elif verb == "fail":
            # a failed attempt may be retried; only the runner's reap
            # loop decides terminal failure (seed_failed)
            self.running.pop(seed, None)

    # -- direct feeds (serial runner, reap loop) ---------------------------

    def seed_started(self, seed: int) -> None:
        self.running.setdefault(seed, 0)

    def seed_done(self, seed: int, events: int = 0) -> None:
        sampled = self.running.pop(seed, 0)
        if seed not in self._done_seeds:
            self._done_seeds.add(seed)
            self.done += 1
            self.events_done += max(int(events), sampled)
            self._finish_times.append(self._clock())

    def seed_failed(self, seed: int) -> None:
        self.running.pop(seed, None)
        if seed not in self._done_seeds:
            self._done_seeds.add(seed)
            self.done += 1
            self.failed += 1
            self._finish_times.append(self._clock())

    # -- derived numbers ---------------------------------------------------

    def elapsed(self) -> float:
        return max(self._clock() - self.started_at, 1e-9)

    def events_total(self) -> int:
        return self.events_done + sum(self.running.values())

    def events_per_second(self) -> float:
        return self.events_total() / self.elapsed()

    def eta(self) -> Optional[float]:
        """Seconds until completion, from the mean seed finish pace."""
        if not self._finish_times or self.done >= self.total:
            return None
        pace = self.elapsed() / self.done
        remaining = self.total - self.done
        # running seeds are partway through; count them as half-done
        credit = min(len(self.running) * 0.5, remaining)
        return max((remaining - credit) * pace, 0.0)

    # -- rendering ---------------------------------------------------------

    def progress_line(self) -> str:
        bits = [f"campaign {self.name}:",
                f"{self.done}/{self.total} done"]
        if self.failed:
            bits.append(f"({self.failed} failed)")
        bits.append(f"| {len(self.running)} running")
        bits.append(f"| {self.events_per_second():.0f} ev/s")
        eta = self.eta()
        if eta is not None:
            bits.append(f"| ETA {eta:.1f}s")
        return " ".join(bits)

    def render(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = self._clock()
        if not force and now - self._last_render < RENDER_INTERVAL:
            return
        self._last_render = now
        try:
            self.stream.write("\r\x1b[2K" + self.progress_line())
            self.stream.flush()
        except (OSError, ValueError):
            self.enabled = False
        else:
            self._rendered = True

    def finish(self) -> None:
        """Final render plus newline; close the pipe ends."""
        self.render(force=True)
        if self._rendered:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass
        for fd in (self._read_fd, self._write_fd):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._read_fd = self._write_fd = None

    def close_worker_end(self) -> None:
        """Close the parent's copy of the write fd (after the last fork)
        so EOF propagates once every worker exits."""
        if self._write_fd is not None:
            try:
                os.close(self._write_fd)
            except OSError:
                pass
            self._write_fd = None

    # -- exports -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "running": len(self.running),
            "events": self.events_total(),
            "events_per_second": round(self.events_per_second(), 3),
            "elapsed": round(self.elapsed(), 6),
        }

    def prometheus(self) -> str:
        """A ``campaign.live`` Prometheus text snapshot."""
        snap = self.snapshot()
        lines: List[str] = []
        for key in ("total", "done", "failed", "running", "events"):
            name = metric_name(f"campaign.live.{key}")
            lines.append(f"# HELP {name} "
                         f"Live campaign telemetry: {key} seeds"
                         if key != "events" else
                         f"# HELP {name} "
                         f"Live campaign telemetry: kernel events so far")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {snap[key]}")
        name = metric_name("campaign.live.events_per_second")
        lines.append(f"# HELP {name} Aggregate kernel event throughput")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {snap['events_per_second']}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"<CampaignTelemetry {self.name!r} {self.done}/"
                f"{self.total} running={len(self.running)}>")
