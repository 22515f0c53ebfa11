"""Deterministic fault injection over the cosimulation routing layer.

The :class:`FaultInjector` wraps the connector hop of every routed
signal in a :class:`~repro.simulation.cosim.SystemSimulation`: the
harness hands each (sender part, sender port, peer part, connector,
signal) tuple to :meth:`route` *instead of* scheduling the delivery
directly, and the injector decides — per the campaign's first matching
spec — whether the signal is dropped, duplicated, corrupted, delayed,
reordered, or passed through untouched.

Determinism: one ``random.Random(seed)`` is consulted in interception
order only (probability draws for ``probability < 1``, mask draws for
``corrupt`` without an explicit ``xor``), so two runs of the same
seeded campaign over the same traffic produce byte-identical message
logs and :class:`~repro.faults.report.ResilienceReport`s.  Because the
injector sits *above* the state machine engines, compiled and
interpreted cosimulation stay lockstep-equivalent under faults.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from ..engine import FAULT
from ..perf import PERF
from .campaign import FaultCampaign, FaultSpec
from .report import ResilienceReport

#: A held (reorder) message: peer part, signal, arguments, latency.
_Held = Tuple[str, str, Dict[str, Any], float]
#: A hop's site: sender part, sender port, peer part, connector, signal.
_Site = Tuple[str, str, str, str, str]


class FaultInjector:
    """Applies a :class:`FaultCampaign` to routed cosimulation traffic."""

    __slots__ = ("simulation", "campaign", "seed", "rng", "report",
                 "_fired", "_held", "_sites")

    def __init__(self, simulation, campaign: FaultCampaign,
                 seed: Optional[int] = None,
                 report: Optional[ResilienceReport] = None):
        self.simulation = simulation
        self.campaign = campaign
        self.seed = campaign.seed if seed is None else int(seed)
        self.rng = random.Random(self.seed)
        self.report = report if report is not None else ResilienceReport()
        #: per-spec injection counts (enforces max_count)
        self._fired: List[int] = [0] * len(campaign.faults)
        #: per-spec held message awaiting its reorder partner
        self._held: Dict[int, _Held] = {}
        #: site -> the (index, spec) pairs, in campaign order, whose
        #: site fields admit it
        self._sites: Dict[_Site, Tuple[Tuple[int, FaultSpec], ...]] = {}

    # -- the interception point -------------------------------------------

    def route(self, part: str, port: str, peer: str, connector: str,
              signal: str, arguments: Dict[str, Any],
              latency: float) -> None:
        """Route one signal hop, applying the first matching fault spec."""
        simulation = self.simulation
        now = simulation.simulator.now
        spec, index = self._match(now, part, port, peer, connector, signal)
        if spec is None:
            simulation._schedule_delivery(peer, signal, arguments, latency,
                                          sender=part)
            return
        self._fired[index] += 1
        PERF.incr("faults.injected")
        kind = spec.kind
        # Report writes stay direct (deterministic whoever subscribes);
        # the trace event is observation only.
        bus = simulation.bus
        if FAULT in bus.active_kinds:
            record = bus.emit(FAULT, now, part,
                              {"fault": spec.name, "kind": kind,
                               "signal": signal, "peer": peer,
                               "connector": connector})
            if bus.causal and record is not None:
                # the corrupted/delayed/duplicated delivery descends
                # from the injection, not the clean routing record
                bus.cause = record.ordinal
        if kind == "drop":
            self.report.record_injection(now, spec.name, kind, spec.site(),
                                         signal)
            return
        if kind == "duplicate":
            self.report.record_injection(now, spec.name, kind, spec.site(),
                                         signal)
            simulation._schedule_delivery(peer, signal, arguments, latency,
                                          sender=part)
            simulation._schedule_delivery(peer, signal, dict(arguments),
                                          latency, sender=part)
            return
        if kind == "corrupt":
            mutated, detail = self._corrupt(spec, arguments)
            self.report.record_injection(now, spec.name, kind, spec.site(),
                                         signal, detail=detail)
            simulation._schedule_delivery(peer, signal, mutated, latency,
                                          sender=part)
            return
        if kind == "delay":
            extra = spec.delay
            if spec.jitter:
                extra += self.rng.uniform(0.0, spec.jitter)
            self.report.record_injection(now, spec.name, kind, spec.site(),
                                         signal, detail=f"+{extra:g}")
            simulation._schedule_delivery(peer, signal, arguments,
                                          latency + extra, sender=part)
            return
        # reorder: hold the first matched signal; the next match releases
        # both with the arrival order swapped.
        held = self._held.pop(index, None)
        if held is None:
            self._held[index] = (peer, signal, dict(arguments), latency)
            return
        held_peer, held_signal, held_arguments, held_latency = held
        self.report.record_injection(
            now, spec.name, kind, spec.site(), signal,
            detail=f"swapped with held {held_signal}")
        simulation._schedule_delivery(peer, signal, arguments, latency,
                                      sender=part)
        simulation._schedule_delivery(held_peer, held_signal,
                                      held_arguments, held_latency,
                                      sender=part)

    def _match(self, now: float, part: str, port: str, peer: str,
               connector: str, signal: str
               ) -> Tuple[Optional[FaultSpec], int]:
        """First enabled spec at the site (budget, window, dice)."""
        site = (part, port, peer, connector, signal)
        candidates = self._sites.get(site)
        if candidates is None:
            candidates = self._sites[site] = tuple(
                (index, spec)
                for index, spec in enumerate(self.campaign.faults)
                if spec.at_site(*site))
        for index, spec in candidates:
            if spec.max_count is not None \
                    and self._fired[index] >= spec.max_count:
                continue
            if not spec.in_window(now):
                continue
            if spec.probability < 1.0 \
                    and self.rng.random() >= spec.probability:
                continue
            return spec, index
        return None, -1

    def _corrupt(self, spec: FaultSpec, arguments: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], str]:
        """XOR one integer argument; non-integer payloads pass through."""
        field = spec.field
        if field is None:
            for key in sorted(arguments):
                if isinstance(arguments[key], int):
                    field = key
                    break
        value = arguments.get(field) if field is not None else None
        if field is None or not isinstance(value, int):
            return arguments, "no integer field to corrupt"
        mask = spec.xor if spec.xor is not None \
            else 1 << self.rng.randrange(12)
        mutated = dict(arguments)
        mutated[field] = value ^ mask
        return mutated, f"{field} ^= {mask:#x}"

    # -- end-of-run + checkpointing ---------------------------------------

    def flush(self) -> List[Tuple[str, str, Dict[str, Any]]]:
        """Release reorder-held messages that never found a partner.

        Returns ``(peer, signal, arguments)`` tuples in spec order; the
        harness schedules them at the current time so no message is
        silently lost at the end of a run.
        """
        leftovers = [(peer, signal, arguments)
                     for _index, (peer, signal, arguments, _latency)
                     in sorted(self._held.items())]
        self._held.clear()
        return leftovers

    def snapshot(self) -> Dict[str, Any]:
        """Capture RNG state, budgets and held messages."""
        return {
            "rng": self.rng.getstate(),
            "fired": list(self._fired),
            "held": {index: (peer, signal, dict(arguments), latency)
                     for index, (peer, signal, arguments, latency)
                     in self._held.items()},
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        self.rng.setstate(snap["rng"])
        self._fired = list(snap["fired"])
        self._held = {index: (peer, signal, dict(arguments), latency)
                      for index, (peer, signal, arguments, latency)
                      in snap["held"].items()}

    def __repr__(self) -> str:
        return (f"<FaultInjector {self.campaign.name!r} seed={self.seed} "
                f"injected={sum(self._fired)}>")
