"""One-stop wiring of the observability subscribers onto a simulation.

:class:`ObservabilitySuite` is what ``SystemSimulation(coverage=True,
profile=True, flight_recorder=N)`` constructs: it derives the static
:class:`~repro.observability.CoverageModel` from the top component,
attaches the requested subscribers to the simulation's
:class:`~repro.engine.TraceBus` *before* the part engines start (so
initial-configuration entries are covered too), and registers the
flight recorder's auto-dump incident hook.  The suite holds no
execution state of its own — everything lives in the individual
collectors, which remain usable stand-alone.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import SimulationError
from .causality import CausalIndex
from .coverage import CoverageCollector, CoverageModel, CoverageReport
from .flightrecorder import DEFAULT_CAPACITY, FlightRecorder
from .profiler import SimProfiler


class ObservabilitySuite:
    """The verification-grade observers of one simulation."""

    def __init__(self, simulation: Any, coverage: bool = False,
                 profile: bool = False, flight_recorder: int = 0,
                 flight_dump: Optional[str] = None,
                 causality: bool = False):
        bus = simulation.bus
        if bus is None:
            raise SimulationError(
                "observability needs a trace bus; construct the "
                "simulation without bus=False")
        self.simulation = simulation
        self.coverage: Optional[CoverageCollector] = None
        self.profiler: Optional[SimProfiler] = None
        self.recorder: Optional[FlightRecorder] = None
        self.causal: Optional[CausalIndex] = None
        if causality:
            # first: provenance is only complete if the index sees
            # every record other subscribers might force on
            self.causal = CausalIndex(bus)
        if coverage:
            model = CoverageModel.for_component(simulation.top)
            self.coverage = CoverageCollector(model, bus=bus)
        if profile:
            self.profiler = SimProfiler(bus=bus)
        if flight_recorder:
            capacity = (flight_recorder if flight_recorder > 0
                        else DEFAULT_CAPACITY)
            self.recorder = FlightRecorder(capacity=capacity, bus=bus,
                                           path=flight_dump)
            self.recorder.attach(simulation)

    def coverage_report(self) -> CoverageReport:
        """The current functional-coverage report."""
        if self.coverage is None:
            raise SimulationError(
                "coverage was not enabled on this simulation")
        return self.coverage.report()

    def profile_lines(self, metric: str = "time") -> list:
        """Collapsed-stack lines (``metric`` = "time" or "steps"),
        finalized at the current simulated time."""
        if self.profiler is None:
            raise SimulationError(
                "profiling was not enabled on this simulation")
        if self.simulation is not None:  # else close() finalized it
            self.profiler.finalize(self.simulation.simulator.now)
        if metric == "time":
            return self.profiler.collapsed_time()
        if metric == "steps":
            return self.profiler.collapsed_steps()
        raise SimulationError(
            f"unknown profile metric {metric!r}; choose 'time' or 'steps'")

    def close(self, now: float) -> None:
        """Finalize the profile at simulated time ``now`` and drop the
        simulation (its :meth:`~repro.simulation.SystemSimulation.close`
        calls this), breaking the reference cycle through it; every
        report reads the same afterwards."""
        if self.profiler is not None:
            self.profiler.finalize(now)
        if self.recorder is not None:
            self.recorder.detach()
        self.simulation = None

    def checkpoint(self) -> Dict[str, Any]:
        """Capture every attached collector (part of the simulation's
        full :meth:`~repro.simulation.SystemSimulation.checkpoint`, so
        rollback rewinds coverage counts, profiler attribution and the
        flight-recorder ring together with the execution state)."""
        return {
            "coverage": (self.coverage.checkpoint()
                         if self.coverage is not None else None),
            "profiler": (self.profiler.checkpoint()
                         if self.profiler is not None else None),
            "recorder": (self.recorder.checkpoint()
                         if self.recorder is not None else None),
            "causality": (self.causal.checkpoint()
                          if self.causal is not None else None),
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        if self.coverage is not None and snap.get("coverage") is not None:
            self.coverage.restore(snap["coverage"])
        if self.profiler is not None and snap.get("profiler") is not None:
            self.profiler.restore(snap["profiler"])
        if self.recorder is not None and snap.get("recorder") is not None:
            self.recorder.restore(snap["recorder"])
        if self.causal is not None and snap.get("causality") is not None:
            self.causal.restore(snap["causality"])

    def summary(self) -> Dict[str, Any]:
        """What is attached, and the headline numbers so far."""
        summary: Dict[str, Any] = {}
        if self.coverage is not None:
            summary["coverage_percent"] = \
                self.coverage.report().total_percent()
        if self.profiler is not None:
            summary["profiler_events"] = self.profiler.events_seen
        if self.recorder is not None:
            summary["flight_buffered"] = len(self.recorder.events)
            summary["flight_dumps"] = self.recorder.dumps_written
        if self.causal is not None:
            records, edges = self.causal.counts()
            summary["causal_records"] = records
            summary["causal_edges"] = edges
        return summary

    def __repr__(self) -> str:
        attached = [name for name, value in
                    (("coverage", self.coverage),
                     ("profiler", self.profiler),
                     ("recorder", self.recorder),
                     ("causality", self.causal)) if value is not None]
        return f"<ObservabilitySuite {'+'.join(attached) or 'empty'}>"
