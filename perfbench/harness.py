"""Shared plumbing for the perf harness: paths, timing, statistics,
host-drift calibration, peak-RSS probes and the result line.

Every workload module exposes ``run(ctx) -> Outcome``; ``run.py``
builds the :class:`Context` from the command line and prints the
outcome as the final JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

#: The checkout root (parent of this directory); the program lives in
#: ``src/`` below it and the shared model generators in ``benchmarks/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where runs keep scratch files and their records (inside the
#: checkout, ignored by git).
STATE_DIR = os.path.join(ROOT, ".perfbench")


def program_available() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def import_program() -> None:
    """Put ``src/`` first and ``benchmarks/`` last on the path and import
    the CLI (interpreter start and imports are excluded from every
    metric).  ``benchmarks/`` goes last so its modules never shadow the
    harness's own."""
    source = os.path.join(ROOT, "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    shared = os.path.join(ROOT, "benchmarks")
    if shared not in sys.path:
        sys.path.append(shared)
    import repro.cli  # noqa: F401


# -- statistics -------------------------------------------------------------

def median(values: List[float]) -> float:
    return float(statistics.median(values))


def p90(values: List[float]) -> Optional[float]:
    """The 90th percentile, or None when fewer than ten samples lie
    beyond it (the percentile would then rest on too few values)."""
    if len(values) < 100:
        return None
    return float(statistics.quantiles(values, n=10)[-1])


def summary(values: List[float]) -> Dict[str, object]:
    """Median, p90 (when at least 100 samples) and the sample count."""
    row: Dict[str, object] = {"median": median(values), "n": len(values)}
    tail = p90(values)
    if tail is not None:
        row["p90"] = tail
    return row


# -- host drift --------------------------------------------------------------

#: Iterations of the fixed pure-Python calibration loop.
CALIBRATION_ITERATIONS = 300_000
#: Iterations of the short calibration probe timed next to every
#: measured operation.
PROBE_ITERATIONS = 25_000
#: Seconds the probe takes on the reference host.  Every reported time
#: is scaled by REFERENCE_PROBE_S / (the probe measured next to it).
REFERENCE_PROBE_S = 0.002


def calibration_loop(iterations: int) -> float:
    """Seconds of a fixed pure-Python integer loop: a host-speed probe.

    Of the loops tried (this one; dict, tuple and list churn; method
    calls with a heap; JSON round trips), this one tracked the program's
    own slowdowns closest: over 150 s of paired samples the log-log
    slope of a cosim segment's time against it was 1.05, against 0.70
    to 0.79 for the others.
    """
    start = time.perf_counter()
    total = 0
    for index in range(iterations):
        total += index * index % 7
    return time.perf_counter() - start


def calibrate(repeats: int = 5) -> float:
    """Median seconds of the calibration loop, taken at the start and
    end of every run (stored with the run, not gated)."""
    return median([calibration_loop(CALIBRATION_ITERATIONS)
                   for _ in range(repeats)])


def two_core_probe() -> float:
    """Mean probe time of this process and a forked twin running at
    once: the host speed seen by work that keeps both cores busy."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            os.write(write_fd, repr(calibration_loop(PROBE_ITERATIONS))
                     .encode("ascii"))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    mine = calibration_loop(PROBE_ITERATIONS)
    with os.fdopen(read_fd, "rb") as handle:
        theirs = handle.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not theirs:
        raise RuntimeError("probe child failed")
    return (mine + float(theirs.decode("ascii"))) / 2


class Meter:
    """Times operations in reference seconds.

    This host's speed drifts by up to a factor of two within minutes,
    which no median inside one run can remove.  So every operation is
    paired with a short calibration probe taken right before it (and,
    for long operations, right after it), and its time is scaled by
    ``REFERENCE_PROBE_S / probe``.  Raw seconds are kept alongside.
    """

    def __init__(self):
        self.raw: Dict[str, List[float]] = {}
        self.scaled: Dict[str, List[float]] = {}
        self.probes: List[float] = []

    def probe(self, cores: int = 1) -> float:
        value = (calibration_loop(PROBE_ITERATIONS) if cores == 1
                 else two_core_probe())
        self.probes.append(value)
        return value

    def add(self, name: str, seconds: float, probe: float) -> None:
        self.raw.setdefault(name, []).append(seconds)
        self.scaled.setdefault(name, []).append(
            seconds * REFERENCE_PROBE_S / probe)

    def time(self, name: str, work: Callable[[], object],
             bracket: bool = False, cores: int = 1):
        """Run ``work()`` as one timed operation; returns its result.
        ``bracket`` probes after the operation too (long operations);
        ``cores=2`` probes both cores (work that keeps both busy)."""
        before = self.probe(cores)
        start = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - start
        probe = (before + self.probe(cores)) / 2 if bracket else before
        self.add(name, elapsed, probe)
        return result

    def median(self, name: str) -> float:
        return median(self.scaled[name])

    def scale(self) -> float:
        """Run-wide factor to reference seconds, for times taken
        without their own probe (the per-layer wrapper totals)."""
        return REFERENCE_PROBE_S / median(self.probes)

    def summary(self, name: str) -> Dict[str, object]:
        """Scaled median, p90 and count, plus the raw median."""
        row = summary(self.scaled[name])
        row["raw_median"] = median(self.raw[name])
        return row


# -- memory ------------------------------------------------------------------

def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- set-up timing in forked children ----------------------------------------

def time_in_fork(meter: Meter, name: str,
                 work: Callable[[], None]) -> None:
    """Time ``work()`` in a forked child as one operation of ``meter``.

    The child starts from this process's post-import state, so caches
    this process has not filled are cold, as in a fresh CLI process;
    the fork itself is not timed.  The child probes host speed right
    before and after the work.  Used to repeat one-shot set-up work.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            before = calibration_loop(PROBE_ITERATIONS)
            start = time.perf_counter()
            work()
            elapsed = time.perf_counter() - start
            probe = (before + calibration_loop(PROBE_ITERATIONS)) / 2
            os.write(write_fd, f"{elapsed!r} {probe!r}".encode("ascii"))
            status = 0
        except BaseException:  # noqa: BLE001 - report through the status
            import traceback

            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    while True:
        chunk = os.read(read_fd, 64)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        raise RuntimeError(f"{name}: forked child failed")
    elapsed, probe = map(float, b"".join(chunks).decode("ascii").split())
    meter.probes.append(probe)
    meter.add(name, elapsed, probe)


# -- the run -----------------------------------------------------------------

class Context:
    """Arguments of one run plus its scratch directory."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        os.makedirs(STATE_DIR, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix=f"work-{workload}-",
                                        dir=STATE_DIR)
        # the program's own temp files (campaign pools, codegen) stay
        # inside the checkout too
        tmp = os.path.join(self.scratch, "tmp")
        os.makedirs(tmp)
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = tmp
        for name in ("REPRO_STORE", "REPRO_SOCKET"):
            os.environ.pop(name, None)

    def path(self, *parts: str) -> str:
        return os.path.join(self.scratch, *parts)

    def deadline(self) -> float:
        return time.perf_counter() + self.seconds

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class Outcome:
    """What a workload hands back: checks, operation counts, metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: name -> (value, unit)
        self.metrics: Dict[str, tuple] = {}
        #: sample counts, tails and native figures (printed, not gated)
        self.detail: Dict[str, object] = {}
        #: spans of a traced run, written out when the run ends
        self.spans: List[dict] = []

    def check(self, ok: bool, problem: str) -> bool:
        """Record one output check; a failed check fails its operation."""
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def record_run(ctx: Context, outcome: Outcome, calibration: Dict) -> None:
    """Append the run's record (calibration included) and spans under
    ``.perfbench/`` in the checkout."""
    record = {
        "workload": ctx.workload, "seed": ctx.seed,
        "seconds": ctx.seconds, "trace": ctx.trace,
        "time": time.time(), "calibration_s": calibration,
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "problems": outcome.problems,
        "metrics": {name: value for name, (value, _unit)
                    in outcome.metrics.items()},
        "detail": outcome.detail,
    }
    with open(os.path.join(STATE_DIR, "runs.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    if outcome.spans:
        name = f"spans-{ctx.workload}-{ctx.seed}-{os.getpid()}.jsonl"
        with open(os.path.join(STATE_DIR, name), "w",
                  encoding="utf-8") as handle:
            for span in outcome.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def result_line(outcome: Outcome) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    })
