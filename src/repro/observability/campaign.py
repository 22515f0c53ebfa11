"""Live campaign telemetry (PR 9).

Fault-campaign workers are pool processes; without telemetry the only
feedback during a long campaign is silence followed by a result table.
:class:`CampaignTelemetry` aggregates per-seed progress in the parent
and renders a live progress line and a ``campaign.live`` Prometheus
snapshot *without touching the TraceBus* — subscribing telemetry to
the bus would change which events are emitted and shift ordinals,
breaking the serial == parallel report byte-identity guarantee.

The runner feeds it directly.  A parallel sweep reads the
:class:`~repro.workers.WorkerPool` heartbeats that each worker sends on
its own pipe, sampling its kernel's ``events_processed``: the seeds of
started workers with their latest samples are the running set, and a
worker's completion carries the seed's final count.  A serial sweep
reports each seed as it starts and finishes.  The parent's reap loop
stays the ground truth for results; telemetry only keeps the display
honest between reaps.  The progress line is rendered only when the
stream is a TTY or rendering is forced.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional

from .metrics import PREFIX, metric_name

#: Minimum seconds between progress-line renders in the parent.
RENDER_INTERVAL = 0.1


class CampaignTelemetry:
    """Parent-side aggregation and rendering of campaign progress.

    Tracks per-seed state (``pending`` -> ``running`` -> ``done`` /
    ``failed``) fed by the runner, and renders a single
    carriage-return progress line::

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

    # -- feeds (the runner) ------------------------------------------------

    def seed_started(self, seed: int) -> None:
        self.running.setdefault(seed, 0)

    def update(self, running: Dict[int, int]) -> None:
        """Take the running seeds with their latest event samples (a
        pool's started workers) and maybe re-render."""
        self.running = dict(running)
        self.render()

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
        """Final render plus newline."""
        self.render(force=True)
        if self._rendered:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass

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
