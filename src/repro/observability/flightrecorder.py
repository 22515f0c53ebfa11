"""Post-mortem flight recorder: the last N trace events, always.

Aircraft keep a crash-survivable ring of the last minutes of telemetry;
a long fault-campaign run deserves the same.  The
:class:`FlightRecorder` subscribes to *every* trace kind and keeps a
fixed-size ring buffer (``collections.deque(maxlen=N)``) of the most
recent events — O(N) memory however long the run.  When a
:class:`~repro.errors.SimulationError` escapes the harness's ``run`` or
a part is quarantined, the attached recorder auto-dumps a JSONL
post-mortem: one header record (reason, simulated time, every part's
active configuration, quarantine set, and — when a fault campaign is
attached — the injector's exact RNG state for replay), followed by the
buffered events oldest-first.

Everything written is derived from simulated state, so two engines (or
two runs of one engine) over the same model and seed crash with
byte-identical black boxes — the dump itself is lockstep-testable.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional

#: Default ring capacity.
DEFAULT_CAPACITY = 256


def _jsonable(value: Any) -> Any:
    """Recursively convert tuples (e.g. ``random.getstate()``) to lists."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


class FlightRecorder:
    """Bounded ring of recent :class:`~repro.engine.TraceEvent` records.

    ``path`` arms auto-dump: :meth:`attach` registers an incident hook
    on a :class:`~repro.simulation.SystemSimulation`, and every
    escaping kernel error or quarantine writes the post-mortem there
    (each dump overwrites the previous one — the *last* incident is the
    one you debug).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, bus: Any = None,
                 path: Optional[str] = None):
        if capacity <= 0:
            from ..errors import SimulationError
            raise SimulationError(
                f"flight recorder capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.path = path
        self.dumps_written = 0
        self.last_dump: Optional[str] = None
        self._simulation: Any = None
        self.subscription = None
        if bus is not None:
            # deque.append is a C function: recording costs no Python
            # frame at all, only the bus dispatch
            self.subscription = bus.subscribe(self.events.append)

    # -- the hot path ------------------------------------------------------

    def __call__(self, event: Any) -> None:
        self.events.append(event)

    # -- wiring ------------------------------------------------------------

    def attach(self, simulation: Any) -> "FlightRecorder":
        """Register the auto-dump incident hook on a simulation."""
        self._simulation = simulation
        simulation.incident_hooks.append(self._on_incident)
        return self

    def detach(self) -> None:
        """Drop the simulation :meth:`attach` registered on (its
        ``close()`` does this); a later auto-dump has no simulation
        header fields."""
        self._simulation = None

    def _on_incident(self, reason: str, detail: str) -> None:
        if self.path is not None:
            text = self.dump_text(self._simulation, reason=reason,
                                  detail=detail)
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.dumps_written += 1
            self.last_dump = self.path

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Capture the ring content (dump counters are side effects on
        disk and intentionally not rolled back)."""
        return {"events": list(self.events)}

    def restore(self, snap: Dict[str, Any]) -> None:
        self.events.clear()
        self.events.extend(snap["events"])

    # -- dumping -----------------------------------------------------------

    def header(self, simulation: Any = None, reason: str = "manual",
               detail: str = "") -> Dict[str, Any]:
        """The post-mortem header record (deterministically ordered)."""
        record: Dict[str, Any] = {
            "kind": "postmortem",
            "reason": reason,
            "detail": detail,
            "buffered": len(self.events),
            "capacity": self.capacity,
        }
        if simulation is not None:
            record["t"] = simulation.simulator.now
            record["configurations"] = {
                name: list(states)
                for name, states in sorted(
                    simulation.state_snapshot().items())}
            record["quarantined"] = list(simulation.quarantined_parts)
            injector = simulation.injector
            record["injector_rng"] = (
                _jsonable(injector.snapshot()["rng"])
                if injector is not None else None)
        return record

    def dump_lines(self, simulation: Any = None, reason: str = "manual",
                   detail: str = "") -> List[str]:
        """Header + buffered events as JSONL lines (oldest first)."""
        lines = [json.dumps(self.header(simulation, reason, detail),
                            sort_keys=True, separators=(",", ":"),
                            default=str)]
        lines.extend(event.to_json() for event in self.events)
        return lines

    def dump_text(self, simulation: Any = None, reason: str = "manual",
                  detail: str = "") -> str:
        """The whole post-mortem as one JSONL string."""
        return "\n".join(self.dump_lines(simulation, reason, detail)) + "\n"

    def dump(self, path: str, simulation: Any = None,
             reason: str = "manual", detail: str = "") -> int:
        """Write the post-mortem to ``path``; returns the line count."""
        lines = self.dump_lines(simulation, reason, detail)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        self.dumps_written += 1
        self.last_dump = path
        return len(lines)

    def __repr__(self) -> str:
        return (f"<FlightRecorder {len(self.events)}/{self.capacity} "
                f"dumps={self.dumps_written}>")
