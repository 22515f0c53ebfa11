"""Crash-tolerant, resumable multi-seed campaign runner (PR 5).

A fault campaign only earns statistical weight when it is swept over
many RNG seeds — and a multi-hour sweep only earns trust when it
survives the sweep *itself* failing: a hung worker, an OOM-killed
process, a Ctrl-C half-way through.  This module fans the seeds of one
:class:`~repro.faults.FaultCampaign` across worker processes and makes
the sweep as robust as the models it is torturing:

* **per-run watchdog** — each seed gets ``run_timeout`` wall-clock
  seconds; a hung worker is SIGKILLed and the seed retried;
* **bounded retry with exponential backoff** — infrastructure failures
  (crashed or killed workers, missing results) are retried up to
  ``max_retries`` times; deterministic in-simulation errors are *not*
  retried — they are results;
* **crash isolation** — a dying worker records a failure row and the
  campaign continues with the remaining seeds;
* **append-only journal** — every completed seed is appended to a JSONL
  journal (:class:`repro.durable.Journal`) as it finishes, so an
  interrupted sweep resumes with ``resume=True`` re-running only the
  missing seeds;
* **order-independent aggregation** — per-seed
  :class:`~repro.faults.ResilienceReport` and
  :class:`~repro.observability.CoverageReport` rows merge via their
  commutative/associative ``merge``, so serial, parallel and resumed
  sweeps over the same seeds serialize byte-identically;
* **graceful degradation** — without usable process support (or with
  ``workers <= 1`` and no ``run_timeout``) the sweep runs serially
  in-process through the exact same journal/merge path.

Parallel sweeps run on a :class:`repro.workers.WorkerPool` that lives
for one :func:`run_campaign` call.  The parent warms the model and
compile caches first (:func:`_warm_spec`), so on fork-capable hosts
every worker starts with the parsed top and hot dispatch tables, and
each worker then runs seed after seed on them.  A row comes back as a
result file renamed into place plus a completion message on the
worker's pipe: a result file that exists is complete, a missing one
means the worker died.  Live telemetry reads the pool's heartbeats
from the same pipe: each worker samples its kernel's
``events_processed``, and the completion carries the seed's final
count.

The ``REPRO_CAMPAIGN_TEST_KILL`` environment variable
(``"<seed>"`` or ``"<seed>:<max_attempt>"``) makes the worker for that
seed SIGKILL itself through the given attempt — the CI smoke test uses
it to prove the kill/retry/resume path on demand.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..durable import Journal
from ..engine import ENGINE_MODES, build_engine_factory
from ..errors import FaultError, ReproError
from ..perf import PERF
from .campaign import FaultCampaign
from .report import PART_ERROR_POLICIES, ResilienceReport

#: Default number of infrastructure retries per seed.
DEFAULT_MAX_RETRIES = 2

#: Default backoff base (seconds); attempt n waits base * 2**(n-1).
DEFAULT_RETRY_BACKOFF = 0.25

#: Environment hook: kill the worker for one seed (test/CI only).
TEST_KILL_ENV = "REPRO_CAMPAIGN_TEST_KILL"


def backoff_delay(base: float, attempt: int, token: Any = 0) -> float:
    """Exponential backoff with deterministic, seeded jitter.

    ``base * 2**(attempt-1)`` is the nominal window; the returned delay
    is that window scaled into ``[0.5, 1.5)`` by a jitter fraction
    hashed from ``(token, attempt)``.  Pure exponential backoff
    synchronizes: when many workers fail at the same instant (a full
    machine stall, a killed pool) they all retry at the same instant
    too, stampeding whatever made them fail.  Hashing the retry token
    (a seed, a job id) spreads the herd across the window — and because
    the jitter is a hash, not ``random()``, the schedule is reproducible
    run to run, which keeps retry timing out of result bytes and makes
    backoff behavior unit-testable.
    """
    window = base * (2 ** (attempt - 1))
    digest = hashlib.blake2b(f"{token}:{attempt}".encode("utf-8"),
                             digest_size=8).digest()
    fraction = int.from_bytes(digest, "big") / 2.0 ** 64
    return window * (0.5 + fraction)


def _coerce(field: str, value: Any, kind: type) -> Any:
    """``kind(value)``, or a :class:`FaultError` naming the spec field;
    a float must be finite (Python's ``json`` reads NaN and Infinity)."""
    try:
        result = kind(value)
        if kind is not float or math.isfinite(result):
            return result
    except (TypeError, ValueError, OverflowError):
        pass
    noun = "a finite number" if kind is float else "an integer"
    raise FaultError(f"campaign spec {field} must be {noun}, got {value!r}")


class CampaignSpec:
    """Everything a worker needs to run one seed, as plain data.

    The model under test comes from exactly one of two sources:
    ``model`` + ``top`` (an XMI file and the qualified name of the top
    component) or ``builder`` (a ``"package.module:function"`` dotted
    path to a zero-argument factory returning the top
    :class:`~repro.metamodel.Component`).  The spec round-trips through
    :meth:`to_dict`/:meth:`from_dict` so it can cross a process
    boundary and head the resume journal.
    """

    __slots__ = ("model", "top", "builder", "campaign", "seeds", "until",
                 "quantum", "engine", "on_part_error",
                 "checkpoint_interval", "max_restarts", "max_restores",
                 "coverage", "name", "properties", "on_violation", "obs")

    def __init__(self,
                 seeds: Sequence[int],
                 model: Optional[str] = None,
                 top: Optional[str] = None,
                 builder: Optional[str] = None,
                 campaign: Optional[str] = None,
                 until: float = 100.0,
                 quantum: float = 1.0,
                 engine: str = "compiled",
                 on_part_error: str = "raise",
                 checkpoint_interval: Optional[float] = None,
                 max_restarts: int = 3,
                 max_restores: int = 3,
                 coverage: bool = False,
                 name: str = "campaign",
                 properties: Optional[Any] = None,
                 on_violation: str = "incident",
                 obs: bool = False):
        if (model is None) == (builder is None):
            raise FaultError(
                "campaign spec needs exactly one model source: "
                "model=<xmi path> (with top=) or "
                "builder='module:function'")
        if model is not None and not top:
            raise FaultError(
                "campaign spec with model= also needs top= "
                "(qualified component name)")
        if builder is not None and ":" not in builder:
            raise FaultError(
                f"builder must be 'package.module:function', "
                f"got {builder!r}")
        try:
            seeds = [int(seed) for seed in seeds]
        except (TypeError, ValueError, OverflowError):
            raise FaultError(f"campaign spec seeds must be a list of "
                             f"integers, got {seeds!r}") from None
        if not seeds:
            raise FaultError("campaign spec needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise FaultError(f"duplicate seeds in {seeds}")
        if engine not in ENGINE_MODES:
            raise FaultError(
                f"unknown engine {engine!r}; choose from {ENGINE_MODES}")
        if on_part_error not in PART_ERROR_POLICIES:
            raise FaultError(
                f"unknown on_part_error policy {on_part_error!r}; "
                f"choose from {PART_ERROR_POLICIES}")
        self.model = model
        self.top = top
        self.builder = builder
        self.campaign = campaign
        self.seeds = seeds
        self.until = _coerce("until", until, float)
        self.quantum = _coerce("quantum", quantum, float)
        if self.quantum <= 0:
            raise FaultError(
                f"campaign spec quantum must be positive, got {quantum!r}")
        self.engine = engine
        self.on_part_error = on_part_error
        if checkpoint_interval is not None:
            checkpoint_interval = _coerce("checkpoint_interval",
                                          checkpoint_interval, float)
            if checkpoint_interval <= 0:
                raise FaultError(
                    f"campaign spec checkpoint_interval must be "
                    f"positive, got {checkpoint_interval!r}")
        self.checkpoint_interval = checkpoint_interval
        self.max_restarts = _coerce("max_restarts", max_restarts, int)
        self.max_restores = _coerce("max_restores", max_restores, int)
        self.coverage = bool(coverage)
        self.name = name
        #: temporal-property suite checked on every seed: a path to a
        #: ``props.json`` file or an inline suite dict (both plain data,
        #: so the spec still crosses process boundaries and journals).
        if properties is not None \
                and not isinstance(properties, (str, dict)):
            raise FaultError(
                "campaign spec properties= must be a props.json path "
                f"or a suite dict, got {type(properties).__name__}")
        self.properties = properties
        from ..properties.checker import VIOLATION_POLICIES

        if on_violation not in VIOLATION_POLICIES:
            raise FaultError(
                f"on_violation must be one of {VIOLATION_POLICIES}, "
                f"got {on_violation!r}")
        self.on_violation = on_violation
        #: full observability collection (PR 9): every seed also runs
        #: with coverage, the profiler and the causal index attached,
        #: and its row carries ``profile`` + ``causal_edges`` for the
        #: cross-seed :class:`~repro.observability.ObservabilityReport`.
        self.obs = bool(obs)

    # -- plumbing ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from plain data (a journal header, a socket
        request); a malformed field raises :class:`FaultError`."""
        unknown = [key for key in data if key not in cls.__slots__]
        if unknown:
            raise FaultError(f"unknown campaign spec field(s): "
                             f"{', '.join(map(str, unknown))}")
        if "seeds" not in data:
            raise FaultError("campaign spec needs a 'seeds' list")
        return cls(**data)

    def build_top(self):
        """Materialize the top component in this process."""
        if self.builder is not None:
            import importlib

            module_name, _, function_name = self.builder.partition(":")
            module = importlib.import_module(module_name)
            factory = getattr(module, function_name, None)
            if factory is None:
                raise FaultError(
                    f"builder {self.builder!r}: module "
                    f"{module_name!r} has no {function_name!r}")
            return factory()
        from .. import metamodel as mm
        from .. import xmi

        document = xmi.read_file(self.model)
        if document.model is None:
            raise FaultError(f"{self.model} contains no model")
        return document.model.resolve(self.top, mm.Component)

    def load_campaign(self) -> Optional[FaultCampaign]:
        if self.campaign is None:
            return None
        return FaultCampaign.from_file(self.campaign)

    def load_properties(self):
        """Materialize the property suite (None when not configured)."""
        if self.properties is None:
            return None
        from ..properties import coerce_suite

        return coerce_suite(self.properties)

    def __repr__(self) -> str:
        source = self.builder or f"{self.model}::{self.top}"
        return (f"<CampaignSpec {self.name!r} {source} "
                f"seeds={len(self.seeds)}>")


# ---------------------------------------------------------------------------
# model warm-up (shared across seeds, inherited across forks)
# ---------------------------------------------------------------------------

#: Spec fields that name input files.
SPEC_FILE_FIELDS = ("model", "campaign", "properties")


def file_identity(value: Any) -> Any:
    """What a spec's file field means as input: ``"content:<digest>"``
    of the file it names, or the value itself when it names no file.

    The one definition of "same input": the warm-model memos below and
    the daemon's :func:`~repro.service.jobstore.job_fingerprint` key on
    it, so rewriting a file in place invalidates both, while renaming
    or copying it invalidates neither.  A path to no file stays a path,
    and loading it raises the loader's usual error.
    """
    if not isinstance(value, str) or not os.path.isfile(value):
        return value
    digest = hashlib.blake2b(digest_size=16)
    with open(value, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return f"content:{digest.hexdigest()}"


#: single-entry memo: spec model input -> (top component, campaign).
_MODEL_CACHE: Dict[Tuple[Any, ...], Tuple[Any, Optional[FaultCampaign]]] = {}


def _warm_model(spec: CampaignSpec) -> Tuple[Any, Optional[FaultCampaign]]:
    """Materialize (once) the top component and fault campaign.

    Every seed of a sweep runs the same model, so parsing the XMI (or
    calling the builder) per seed is pure overhead.  The memo holds one
    entry — campaigns don't interleave model sources — and lives at
    module level so that a parent process warming it *before* the pool
    forks hands every worker the already-parsed model for free, and a
    pool worker keeps it from one task to the next.  It keys on file
    contents (:func:`file_identity`), never on paths alone: a file
    rewritten between two sweeps is parsed again.

    Sharing is sound because simulations never write to the model:
    engines copy their initial contexts out of the attribute defaults,
    and the fault injector keeps its per-run state (RNG, fired counts)
    on itself, not on the campaign.
    """
    key = (file_identity(spec.model), spec.top, spec.builder,
           file_identity(spec.campaign))
    hit = _MODEL_CACHE.get(key)
    if hit is None:
        PERF.incr("campaign.model_builds")
        hit = (spec.build_top(), spec.load_campaign())
        _MODEL_CACHE.clear()
        _MODEL_CACHE[key] = hit
    else:
        PERF.incr("campaign.model_warm_hits")
    return hit


#: single-entry memo: property source -> compiled PropertySuite.
_SUITE_CACHE: Dict[Any, Any] = {}


def _warm_suite(spec: CampaignSpec):
    """Materialize (once) the property suite for a sweep.

    Compiling a suite enumerates interaction trace sets into prefix
    tries; like the model, that work is identical for every seed.  The
    shared suite is sound because per-run monitor state lives on each
    simulation's :class:`~repro.properties.PropertyChecker`, never on
    the :class:`~repro.properties.Property` objects.
    """
    if spec.properties is None:
        return None
    key = (file_identity(spec.properties)
           if isinstance(spec.properties, str)
           else json.dumps(spec.properties, sort_keys=True, default=str))
    hit = _SUITE_CACHE.get(key)
    if hit is None:
        hit = spec.load_properties()
        _SUITE_CACHE.clear()
        _SUITE_CACHE[key] = hit
    return hit


def _warm_spec(spec: CampaignSpec) -> None:
    """Pre-fork warm-up: parse the model and bind every part's
    classifier behavior in the parent, as the simulation will, so pool
    workers start with hot dispatch-table caches."""
    top, _campaign = _warm_model(spec)
    _warm_suite(spec)
    if spec.engine != "compiled":
        return
    for part in top.parts:
        build_engine_factory(getattr(part.type, "classifier_behavior", None),
                             prefer_compiled=True)


# ---------------------------------------------------------------------------
# one seed, in a pool worker (or inline)
# ---------------------------------------------------------------------------

def _collect_row(simulation, spec: CampaignSpec, seed: int,
                 sim_error: str) -> Dict[str, Any]:
    """Distil one finished simulation into its plain-data journal row."""
    row: Dict[str, Any] = {"seed": seed}
    row["messages_delivered"] = simulation.messages_delivered
    row["messages_dropped"] = simulation.messages_dropped
    row["quarantined"] = sorted(simulation.quarantined_parts)
    row["resilience"] = simulation.resilience.to_dict()
    if spec.coverage or spec.obs:
        row["coverage"] = \
            simulation.observability.coverage_report().to_dict()
    if spec.obs:
        row["profile"] = simulation.observability.profile_lines("time")
        row["causal_edges"] = \
            simulation.observability.causal.edge_counts()
    if simulation.property_checker is not None:
        row["properties"] = simulation.property_report().to_dict()
    if sim_error:
        row["sim_error"] = sim_error
    return row


def run_seed(spec: CampaignSpec, seed: int,
             observer=None) -> Dict[str, Any]:
    """Run one seed of the campaign and return its plain-data row.

    Everything in the row is derived from simulated state, so the same
    (spec, seed) pair produces a byte-identical row in any process, on
    any engine, on any attempt — which is what makes retry and resume
    sound.  A deterministic in-simulation error (a part raising under
    ``on_part_error="raise"``, a kernel watchdog, …) is captured in the
    row as ``sim_error``, not raised: it *is* the result of that seed.

    ``observer`` (optional) is called once with the live simulation
    before the run starts — the telemetry hook.  It must not subscribe
    anything to the trace bus (that would shift ordinals and break
    cross-mode row identity); the pool's heartbeat thread only *reads*
    ``simulation.simulator.events_processed``.
    """
    from ..simulation import SystemSimulation

    top, campaign = _warm_model(spec)
    suite = _warm_suite(spec)
    sim_error = ""
    with SystemSimulation(top, quantum=spec.quantum,
                          engine=spec.engine,
                          faults=campaign, fault_seed=seed,
                          on_part_error=spec.on_part_error,
                          max_restarts=spec.max_restarts,
                          max_restores=spec.max_restores,
                          checkpoint_interval=spec.checkpoint_interval,
                          coverage=spec.coverage or spec.obs,
                          profile=spec.obs,
                          causality=spec.obs,
                          properties=suite,
                          on_violation=spec.on_violation) as simulation:
        if observer is not None:
            observer(simulation)
        try:
            simulation.run(until=spec.until)
        except ReproError as error:
            sim_error = f"{type(error).__name__}: {error}"
        row = _collect_row(simulation, spec, seed, sim_error)
    return row


def _worker_main(spec_data: Dict[str, Any], seed: int,
                 attempt: int) -> Dict[str, Any]:
    """Pool task: run one seed; returns ``{"ok": True, "row": ...}`` or
    ``{"ok": False, "error": ...}``.  The kernel's ``events_processed``
    is the task's progress sample, which the worker's heartbeats and
    its completion message carry to the parent."""
    from ..workers import maybe_test_kill, report_progress

    maybe_test_kill(TEST_KILL_ENV, str(seed), attempt)
    try:
        row = run_seed(CampaignSpec.from_dict(spec_data), seed,
                       observer=lambda simulation: report_progress(
                           lambda: simulation.simulator.events_processed))
        return {"ok": True, "row": row}
    except BaseException as error:  # noqa: BLE001 - must report, not die
        return {"ok": False,
                "error": f"{type(error).__name__}: {error}"}


# ---------------------------------------------------------------------------
# the journal
# ---------------------------------------------------------------------------

def read_journal(path: str) -> Tuple[Optional[Dict[str, Any]],
                                     Dict[int, Dict[str, Any]],
                                     List[Dict[str, Any]]]:
    """Parse a campaign journal into (header, ok rows by seed, failures).

    A truncated final line (the writer was killed mid-append) is
    dropped — everything before it is still trustworthy, which is the
    whole point of an append-only journal — but no longer *silently*:
    every torn record bumps the ``journal.torn_records`` counter in
    :data:`~repro.perf.PERF`, so a sweep that resumed past damage
    shows it in ``--stats`` / Prometheus output instead of hiding it.
    A journal with no complete record has no header.  A complete
    record of the wrong shape, or a first record that is not the
    header (another tool's JSONL file), is a :class:`FaultError`
    naming the file and line.
    """
    header: Optional[Dict[str, Any]] = None
    completed: Dict[int, Dict[str, Any]] = {}
    failures: List[Dict[str, Any]] = []
    for number, record in Journal(path).records():
        fields = record if isinstance(record, dict) else {}
        status, seed = fields.get("status"), fields.get("seed")
        if header is None:
            if status != "header":
                raise FaultError(f"journal {path!r} line {number}: not a "
                                 f"campaign journal (no header record)")
            header = fields
        elif status == "ok" and type(seed) is int \
                and isinstance(fields.get("row"), dict):
            completed[seed] = fields["row"]
        elif status == "failed" and type(seed) is int:
            failures.append(fields)
        else:
            raise FaultError(f"journal {path!r} line {number}: malformed "
                             f"record {json.dumps(record)[:80]}")
    return header, completed, failures


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

class CampaignResult:
    """The merged outcome of a multi-seed sweep.

    ``to_dict`` contains only simulation-derived, deterministically
    ordered data — no worker counts, wall-clock times or completion
    order — so a parallel, a serial and a resumed sweep over the same
    seeds serialize byte-identically.
    """

    __slots__ = ("name", "rows", "failures", "resumed_seeds",
                 "workers_used", "mode")

    def __init__(self, name: str, rows: Sequence[Dict[str, Any]],
                 failures: Sequence[Dict[str, Any]] = (),
                 resumed_seeds: Sequence[int] = (),
                 workers_used: int = 1, mode: str = "serial"):
        self.name = name
        #: per-seed rows, sorted by seed
        self.rows: List[Dict[str, Any]] = \
            sorted(rows, key=lambda row: row["seed"])
        #: permanent infrastructure failures ({"seed","attempts","error"})
        self.failures: List[Dict[str, Any]] = \
            sorted(failures, key=lambda row: row["seed"])
        #: seeds skipped because the journal already had their rows
        self.resumed_seeds: List[int] = sorted(resumed_seeds)
        self.workers_used = workers_used
        self.mode = mode

    @property
    def completed_seeds(self) -> List[int]:
        return [row["seed"] for row in self.rows]

    @property
    def failed_seeds(self) -> List[int]:
        return [row["seed"] for row in self.failures]

    @property
    def ok(self) -> bool:
        return not self.failures

    def resilience(self) -> ResilienceReport:
        """All per-seed resilience reports merged (order-independent)."""
        return ResilienceReport.merged(
            ResilienceReport.from_dict(row["resilience"])
            for row in self.rows)

    def coverage(self):
        """All per-seed coverage reports merged, or ``None``."""
        from ..observability import CoverageReport

        reports = [CoverageReport.from_dict(row["coverage"])
                   for row in self.rows if "coverage" in row]
        return CoverageReport.merged(reports) if reports else None

    def properties(self) -> Optional[Dict[str, Any]]:
        """Per-property pass rates and time-to-violation across seeds.

        Aggregated with
        :func:`repro.properties.aggregate_reports` — order-independent
        and keyed by seed, so serial, parallel and resumed sweeps
        produce the identical artifact.  ``None`` when no row
        carries property verdicts.
        """
        per_seed = {row["seed"]: row["properties"]
                    for row in self.rows if "properties" in row}
        if not per_seed:
            return None
        from ..properties import aggregate_reports

        return aggregate_reports(per_seed)

    @property
    def property_violations(self) -> int:
        """Total property violations recorded across all seeds."""
        return sum(row["properties"].get("total_violations", 0)
                   for row in self.rows if "properties" in row)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "campaign": self.name,
            "completed": list(self.rows),
            "failures": [
                {"seed": row["seed"], "attempts": row["attempts"],
                 "error": row["error"]} for row in self.failures],
            "resilience": self.resilience().to_dict(),
        }
        merged_coverage = self.coverage()
        if merged_coverage is not None:
            data["coverage"] = merged_coverage.to_dict()
        merged_properties = self.properties()
        if merged_properties is not None:
            data["properties"] = merged_properties
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        return (f"<CampaignResult {self.name!r} ok={len(self.rows)} "
                f"failed={len(self.failures)} mode={self.mode}>")


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def _processes_usable() -> bool:
    """Can this host actually fork/spawn worker processes?"""
    try:
        import multiprocessing

        multiprocessing.get_context()
    except (ImportError, OSError, ValueError):
        return False
    return True


def run_campaign(spec: CampaignSpec,
                 workers: int = 0,
                 journal: Optional[str] = None,
                 resume: bool = False,
                 run_timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 progress: Any = None,
                 ) -> CampaignResult:
    """Sweep every seed of ``spec``, robustly.

    ``workers`` > 1 fans seeds over a pool of that many persistent
    worker processes (0/1, or a host without multiprocessing, runs
    serially in-process; the parent warms the model and compile caches
    before the pool forks, so every worker starts warm).  A
    ``run_timeout`` always runs the sweep on the pool, with
    ``max(1, workers)`` slots, because its watchdog needs a process to
    kill.  ``journal`` appends a JSONL row per finished seed under a
    header naming the spec and the contents of its input files
    (:func:`file_identity`); ``resume=True`` first reads it back,
    refuses it when the spec or an input file changed, and re-runs
    only the seeds without an ``ok`` row.  The returned
    :class:`CampaignResult`
    serializes identically however the sweep was executed or
    interrupted, as long as the same seeds completed.

    ``progress`` controls live telemetry (PR 9): ``True`` builds a
    :class:`~repro.observability.CampaignTelemetry` that renders onto
    stderr when (and only when) it is a TTY; a ``CampaignTelemetry``
    instance is used as given; ``None``/``False`` disables it.
    Telemetry flows from the pool's heartbeats (parallel) or the
    finished kernel (serial), never the trace bus, so enabling it
    cannot change any row or merged report byte.
    """
    if run_timeout is not None and run_timeout <= 0:
        raise FaultError(f"run_timeout must be positive, got {run_timeout}")
    if max_retries < 0:
        raise FaultError(f"max_retries cannot be negative, got {max_retries}")
    completed: Dict[int, Dict[str, Any]] = {}
    resumed: List[int] = []
    header = None
    inputs = ({field: file_identity(getattr(spec, field))
               for field in SPEC_FILE_FIELDS} if journal else None)
    if journal and resume:
        header, journaled, _ = read_journal(journal)
        if header is not None and (header.get("spec") != spec.to_dict()
                                   or header.get("inputs") != inputs):
            files = ", ".join(
                f"{field} {getattr(spec, field)!r}"
                for field in SPEC_FILE_FIELDS
                if isinstance(getattr(spec, field), str)) or "none"
            raise FaultError(
                f"journal {journal!r} was written for a different "
                f"campaign spec or other contents of its input files "
                f"({files}); refusing to resume into it")
        for seed in spec.seeds:
            if seed in journaled:
                completed[seed] = journaled[seed]
                resumed.append(seed)
    todo = [seed for seed in spec.seeds if seed not in completed]
    telemetry = None
    if progress is not None and progress is not False:
        from ..observability.campaign import CampaignTelemetry

        telemetry = (progress if isinstance(progress, CampaignTelemetry)
                     else CampaignTelemetry(len(spec.seeds),
                                            name=spec.name))
        for seed in resumed:
            telemetry.seed_done(seed)
    rows_journal = Journal(journal) if journal else None
    if rows_journal is not None and header is None:
        rows_journal.truncate()
        rows_journal.append({"status": "header", "spec": spec.to_dict(),
                             "inputs": inputs})
    slots = max(1, workers)
    try:
        parallel = bool(todo) and _processes_usable() and (
            run_timeout is not None or (workers > 1 and len(todo) > 1))
        if parallel:
            _warm_spec(spec)  # workers fork with hot model/compile caches
            rows, failures = _run_parallel(
                spec, todo, slots, rows_journal, run_timeout,
                max_retries, retry_backoff, telemetry)
        else:
            rows, failures = _run_serial(spec, todo, rows_journal,
                                         telemetry)
    finally:
        if rows_journal is not None:
            rows_journal.close()
        if telemetry is not None:
            telemetry.finish()
    rows.extend(completed.values())
    return CampaignResult(spec.name, rows, failures=failures,
                          resumed_seeds=resumed,
                          workers_used=slots if parallel else 1,
                          mode="parallel" if parallel else "serial")


def _run_serial(spec: CampaignSpec, todo: Sequence[int],
                journal: Optional[Journal], telemetry=None
                ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """The degraded (and reference) path: every seed inline."""
    rows: List[Dict[str, Any]] = []
    for seed in todo:
        kernel_box: List[Any] = []
        observer = None
        if telemetry is not None:
            telemetry.seed_started(seed)
            telemetry.render()
            observer = lambda sim: kernel_box.append(sim.simulator)  # noqa: E731
        row = run_seed(spec, seed, observer=observer)
        rows.append(row)
        if telemetry is not None:
            events = (getattr(kernel_box[0], "events_processed", 0)
                      if kernel_box else 0)
            telemetry.seed_done(seed, events)
            telemetry.render()
        if journal is not None:
            journal.append({"status": "ok", "seed": seed, "attempt": 1,
                            "row": row})
    return rows, []


def _run_parallel(spec: CampaignSpec, todo: Sequence[int], workers: int,
                  journal: Optional[Journal],
                  run_timeout: Optional[float],
                  max_retries: int, retry_backoff: float,
                  telemetry=None,
                  ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    import tempfile

    from ..observability.campaign import RENDER_INTERVAL
    from ..workers import WorkerPool

    spec_data = spec.to_dict()
    rows: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    #: (seed, attempt, ready_at) — backoff holds a seed until ready_at
    pending: List[Tuple[int, int, float]] = \
        [(seed, 1, 0.0) for seed in todo]
    #: busy worker -> (seed, attempt, deadline)
    running: Dict[Any, Tuple[int, int, Optional[float]]] = {}

    def record_failure(seed: int, attempt: int, error: str) -> None:
        if journal is not None:
            journal.append({"status": "failed", "seed": seed,
                            "attempt": attempt, "error": error})
        if attempt <= max_retries:
            ready_at = time.monotonic() \
                + backoff_delay(retry_backoff, attempt, token=seed)
            pending.append((seed, attempt + 1, ready_at))
        else:
            failures.append({"seed": seed, "attempts": attempt,
                             "error": error})
            if telemetry is not None:
                telemetry.seed_failed(seed)

    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as scratch, \
            WorkerPool(workers, _worker_main) as pool:
        while pending or running:
            now = time.monotonic()
            # launch whatever is ready while worker slots are free
            ready = [item for item in pending if item[2] <= now]
            for item in ready[:pool.free]:
                pending.remove(item)
                seed, attempt, _ = item
                worker = pool.submit(
                    os.path.join(scratch, f"seed{seed}-try{attempt}.json"),
                    spec_data, seed, attempt)
                running[worker] = (seed, attempt,
                                   now + run_timeout
                                   if run_timeout is not None else None)
            # sleep until a worker finishes, a deadline passes, a
            # backoff ends or the progress line is due
            wake = [deadline for _, _, deadline in running.values()
                    if deadline is not None]
            wake += [ready_at for _, _, ready_at in pending
                     if ready_at > now]
            if telemetry is not None:
                wake.append(now + RENDER_INTERVAL)
            timeout = (max(0.0, min(wake) - time.monotonic())
                       if wake else None)
            for worker, payload in pool.wait(timeout):
                seed, attempt, _ = running.pop(worker)
                if payload is not None and payload.get("ok"):
                    row = payload["row"]
                    rows.append(row)
                    if telemetry is not None:
                        telemetry.seed_done(seed, worker.progress)
                    if journal is not None:
                        journal.append({"status": "ok", "seed": seed,
                                        "attempt": attempt, "row": row})
                elif payload is not None:
                    record_failure(seed, attempt,
                                   payload.get("error", "worker error"))
                else:
                    record_failure(
                        seed, attempt,
                        f"worker died (exit code "
                        f"{worker.process.exitcode}) before writing a "
                        f"result")
            now = time.monotonic()
            for worker, (seed, attempt, deadline) in list(running.items()):
                if deadline is not None and now > deadline:
                    pool.kill(worker)
                    del running[worker]
                    record_failure(
                        seed, attempt,
                        f"run timeout: seed {seed} exceeded "
                        f"{run_timeout}s wall clock")
            if telemetry is not None:
                telemetry.update({seed: worker.progress
                                  for worker, (seed, _, _) in running.items()
                                  if worker.started})
    # a seed that eventually succeeded should not linger as a failure
    succeeded = {row["seed"] for row in rows}
    failures = [entry for entry in failures
                if entry["seed"] not in succeeded]
    return rows, failures

