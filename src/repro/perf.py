"""Lightweight performance counters for the compiled execution pipeline.

One process-wide registry (:data:`PERF`) collects named counters and
timing observations from the hot paths added by the compiled pipeline:
state-machine compilation (``cosim.compiled_parts``, ``sm.compile_s``),
the artifact store (``store.hit`` / ``store.miss``) and the code
generators (``codegen.<backend>.wall_s``).  The registry is
deliberately simple — plain dicts behind one lock — so recording a
counter costs a dict update, not a measurable fraction of the thing
being measured.

Usage::

    from repro.perf import PERF

    PERF.incr("store.hit")
    with PERF.timed("sm.compile_s"):
        compile_machine(machine)
    PERF.hist("cosim.run_hist_s", 0.012)
    print(PERF.report())

``snapshot()`` returns plain data (safe to serialize) with every dict
deterministically key-sorted, so two runs recording the same series
serialize identically and ``--stats`` output is diffable.  ``reset()``
clears everything — counters, observations and histograms (benchmarks
call it between runs).

Histograms (PR 4) are *bounded*: a fixed bucket-boundary vector plus
one overflow slot, so memory is O(buckets) regardless of observation
count, and the p50/p95/p99 estimates (bucket upper bound at the
cumulative rank, clamped to the observed min/max) are deterministic —
the same observation sequence always yields the same export.

The campaign runner reports its model warm-up memo here too, surfaced
by the ``stats`` subcommand: ``campaign.model_builds`` /
``campaign.model_warm_hits``.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple
from contextlib import contextmanager

#: Default histogram bucket upper bounds: a 1/2.5/5 decade ladder wide
#: enough for both sub-millisecond wall times and simulated durations.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    float(f"{mantissa}e{exponent}")
    for exponent in range(-6, 5)
    for mantissa in ("1", "2.5", "5"))


class PerfRegistry:
    """Named counters, timing observations, and bounded histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._observations: Dict[str, Dict[str, float]] = {}
        self._histograms: Dict[str, Dict[str, Any]] = {}

    # -- recording ------------------------------------------------------

    def incr(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record one observation of a named quantity (e.g. seconds)."""
        with self._lock:
            stats = self._observations.get(name)
            if stats is None:
                self._observations[name] = {
                    "count": 1, "total": value, "min": value, "max": value,
                }
            else:
                stats["count"] += 1
                stats["total"] += value
                if value < stats["min"]:
                    stats["min"] = value
                if value > stats["max"]:
                    stats["max"] = value

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Context manager observing the wall time of its body."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def hist(self, name: str, value: float,
             buckets: Optional[Sequence[float]] = None) -> None:
        """Record ``value`` into the named bounded histogram.

        ``buckets`` (sorted upper bounds) is honoured only on the first
        observation of ``name``; later calls reuse the series' vector.
        Values above the last bound land in the overflow slot.
        """
        with self._lock:
            series = self._histograms.get(name)
            if series is None:
                bounds = tuple(buckets) if buckets is not None \
                    else DEFAULT_BUCKETS
                series = {
                    "buckets": bounds,
                    "counts": [0] * (len(bounds) + 1),
                    "count": 0, "sum": 0.0, "min": value, "max": value,
                }
                self._histograms[name] = series
            series["counts"][bisect_left(series["buckets"], value)] += 1
            series["count"] += 1
            series["sum"] += value
            if value < series["min"]:
                series["min"] = value
            if value > series["max"]:
                series["max"] = value

    def percentiles(self, name: str,
                    points: Sequence[float] = (50, 95, 99)
                    ) -> Optional[Dict[str, float]]:
        """Deterministic percentile estimates for a histogram series.

        Each estimate is the bucket upper bound at the cumulative rank,
        clamped to the observed ``[min, max]`` (the overflow slot
        answers with ``max``).  Returns None for an unknown series.
        """
        with self._lock:
            series = self._histograms.get(name)
            if series is None or not series["count"]:
                return None
            bounds = series["buckets"]
            counts = series["counts"]
            total = series["count"]
            low, high = series["min"], series["max"]
            estimates: Dict[str, float] = {}
            for point in points:
                rank = (point / 100.0) * total
                cumulative = 0
                estimate = high
                for index, count in enumerate(counts):
                    cumulative += count
                    if cumulative >= rank and count:
                        estimate = (bounds[index] if index < len(bounds)
                                    else high)
                        break
                estimates[f"p{point:g}"] = min(max(estimate, low), high)
            return estimates

    def hist_stats(self, name: str) -> Optional[Dict[str, Any]]:
        """Copy of a histogram series (buckets, counts, aggregates)."""
        with self._lock:
            series = self._histograms.get(name)
            if series is None:
                return None
            copied = dict(series)
            copied["counts"] = list(series["counts"])
            return copied

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def stats(self, name: str) -> Optional[Dict[str, float]]:
        """Copy of the stats dict for an observed quantity, or None."""
        with self._lock:
            stats = self._observations.get(name)
            return dict(stats) if stats else None

    def snapshot(self) -> Dict[str, Any]:
        """All counters, observations and histograms as plain data.

        Every dict — outer sections, series names, per-series stats —
        is key-sorted, so serializing two equal snapshots yields
        byte-identical text (``--stats`` diffability).  Histogram
        entries carry their deterministic p50/p95/p99 estimates.
        """
        with self._lock:
            histograms: Dict[str, Any] = {}
            for name in sorted(self._histograms):
                series = self._histograms[name]
                histograms[name] = {
                    "buckets": list(series["buckets"]),
                    "count": series["count"],
                    "counts": list(series["counts"]),
                    "max": series["max"],
                    "min": series["min"],
                    "sum": series["sum"],
                }
            snapshot = {
                "counters": {name: self._counters[name]
                             for name in sorted(self._counters)},
                "histograms": histograms,
                "observations": {
                    name: {key: self._observations[name][key]
                           for key in sorted(self._observations[name])}
                    for name in sorted(self._observations)},
            }
        for name, series in snapshot["histograms"].items():
            series.update(sorted(
                (self.percentiles(name) or {}).items()))
        return snapshot

    def reset(self) -> None:
        """Drop every counter, observation and histogram series."""
        with self._lock:
            self._counters.clear()
            self._observations.clear()
            self._histograms.clear()

    def report(self) -> str:
        """Human-readable multi-line summary (CLI ``--stats`` output)."""
        snap = self.snapshot()
        lines = []
        if snap["counters"]:
            lines.append("counters:")
            for name in sorted(snap["counters"]):
                value = snap["counters"][name]
                shown = int(value) if float(value).is_integer() else value
                lines.append(f"  {name:40} {shown}")
        if snap["observations"]:
            lines.append("timings:")
            for name in sorted(snap["observations"]):
                stats = snap["observations"][name]
                mean = stats["total"] / stats["count"]
                lines.append(
                    f"  {name:40} n={int(stats['count'])} "
                    f"total={stats['total']:.6f} mean={mean:.6f} "
                    f"min={stats['min']:.6f} max={stats['max']:.6f}")
        if snap["histograms"]:
            lines.append("histograms:")
            for name in sorted(snap["histograms"]):
                series = snap["histograms"][name]
                lines.append(
                    f"  {name:40} n={series['count']} "
                    f"p50={series['p50']:.6f} p95={series['p95']:.6f} "
                    f"p99={series['p99']:.6f} max={series['max']:.6f}")
        return "\n".join(lines) if lines else "(no perf data recorded)"


#: The process-wide registry used by the library's instrumented paths.
PERF = PerfRegistry()
