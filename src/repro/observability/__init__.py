"""`repro.observability` — verification-grade observability (PR 4).

Four engine-agnostic :class:`~repro.engine.TraceBus` consumers plus an
export layer, all byte-deterministic across the interpreted and
compiled engines:

* functional coverage (:mod:`~repro.observability.coverage`) — static
  bin universes with enumerable holes, hit collection, mergeable
  reports;
* the deterministic profiler (:mod:`~repro.observability.profiler`) —
  simulated-time and step-count attribution as collapsed stacks;
* metrics export (:mod:`~repro.observability.metrics`) — Prometheus
  text / JSON rendering of :data:`repro.perf.PERF` plus coverage;
* the flight recorder (:mod:`~repro.observability.flightrecorder`) —
  a bounded ring of recent events auto-dumped on kernel errors and
  quarantines.

``SystemSimulation(coverage=True, profile=True, flight_recorder=N)``
wires them through :class:`ObservabilitySuite`; see
docs/OBSERVABILITY.md.

PR 9 adds the *why* layer on top:

* causal span tracing (:mod:`~repro.observability.causality`) —
  provenance trees over the causally-stamped trace stream, with
  ``why()`` root-cause walks, per-part causal cones, JSONL span and
  Chrome/Perfetto exports (``SystemSimulation(causality=True)``);
* live campaign telemetry (:mod:`~repro.observability.campaign`) —
  fed by the worker pool's heartbeats (never the TraceBus), a live
  progress line and a ``campaign.live`` Prometheus snapshot;
* the cross-seed report (:mod:`~repro.observability.report`) —
  coverage, property pass rates, profiler hot paths and causal hot
  edges of a whole campaign merged into one deterministic artifact.
"""

from .campaign import CampaignTelemetry
from .causality import (
    CausalIndex,
    event_label,
    perfetto_json,
    span_lines,
    spans_from_jsonl,
)
from .coverage import (
    BIN_KINDS,
    COMPLETION,
    CoverageCollector,
    CoverageModel,
    CoverageReport,
    PartCoverageModel,
    cross_key,
    transition_key,
)
from .flightrecorder import DEFAULT_CAPACITY, FlightRecorder
from .metrics import PREFIX, metric_name, to_json, to_prometheus
from .profiler import IDLE, SimProfiler
from .report import ObservabilityReport, campaign_fingerprint
from .suite import ObservabilitySuite

__all__ = [
    "CampaignTelemetry",
    "CausalIndex",
    "event_label",
    "perfetto_json",
    "span_lines",
    "spans_from_jsonl",
    "ObservabilityReport",
    "campaign_fingerprint",
    "BIN_KINDS",
    "COMPLETION",
    "CoverageCollector",
    "CoverageModel",
    "CoverageReport",
    "PartCoverageModel",
    "cross_key",
    "transition_key",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "PREFIX",
    "metric_name",
    "to_json",
    "to_prometheus",
    "IDLE",
    "SimProfiler",
    "ObservabilitySuite",
]
