"""Cosimulation: executing UML component models on the event kernel.

This is the paper's "early prototyping and inherent software
simulation" made concrete: a :class:`SystemSimulation` takes a top
component (whose parts are classes/components with classifier
behaviors), wires the parts' ports along the model's connectors, and
executes everything over one
:class:`~repro.simulation.kernel.Simulator`.

Execution core (PR 3): the harness speaks only the
:class:`~repro.engine.ExecutionEngine` protocol —
``start``/``send``/``step``/``active_configuration``/``checkpoint``/
``restore`` — and resolves each part's classifier behavior to an engine
with :func:`repro.engine.build_engine_factory`.  A part whose behavior is a
state machine runs on the interpreter (or, with ``engine="compiled"``,
the dispatch-table :class:`~repro.statemachines.compiled.CompiledRuntime`
when the machine is in the compilable subset); a part whose behavior is
an :class:`~repro.activities.Activity` runs on the token-game
:class:`~repro.activities.ActivityRuntime` — under the *same*
scheduler, fault injector, degradation policies and
checkpoint/restore.  There is no engine-type dispatch here.

Observation: every routed/delivered/dropped message, every fault
injection and every quarantine/restart is emitted as a typed
:class:`~repro.engine.TraceEvent` on the simulation's
:class:`~repro.engine.TraceBus` (``bus`` attribute).  The message log
and the resilience quarantine accounting are plain bus subscribers;
engine-level events (RTC steps, transitions, state entries/exits,
token firings) flow on the same bus when a subscriber asks for them.
``bus=False`` disables the bus entirely (benchmark mode: no message
log, no quarantine-drop accounting); passing a
:class:`~repro.engine.TraceBus` shares one stream across observers
(note: the harness's own subscribers then see every event on that bus,
so avoid sharing one bus between concurrently running simulations).

Communication model: a behavior executes ``send Sig(arg=..) to
"port";`` (state machines) or fires a
:class:`~repro.activities.SendSignalAction` with a ``target`` port
(activities) — the harness routes the signal through the connector
attached to that part's port, delivering it to the peer part's engine
after the connector latency.  A ``send`` without a target is a
self-send (internal event).  Hardware and software parts are treated
identically — which is precisely the interchangeability argument of
Section 4.

Time: engine time triggers advance on a fixed quantum: a kernel tick
wakes every ``quantum`` and steps each engine's local clock to the
kernel's absolute time.  Deliveries also advance the target engine
first, so local clocks never run ahead of the kernel.

Observability (PR 4): ``coverage=True``, ``profile=True`` and
``flight_recorder=N`` attach the :mod:`repro.observability`
subscribers (functional coverage, the deterministic profiler, the
post-mortem ring buffer) to the bus before the engines start; the
wired suite is exposed as :attr:`observability`.  ``causality=True``
(PR 9) additionally attaches a
:class:`~repro.observability.CausalIndex` and flips the bus into
causal mode, so every emitted record carries the ordinal of the record
that caused it (see docs/TRACING.md).  ``incident_hooks``
fire on every escaping kernel error and quarantine — that is how the
flight recorder auto-dumps its black box.

Resilience (PR 2): a seeded
:class:`~repro.faults.FaultCampaign` attached via ``faults=`` wraps
every connector hop in a deterministic
:class:`~repro.faults.FaultInjector`; ``on_part_error`` selects what
happens when a part's behavior raises (``"raise"`` propagates,
``"quarantine"`` isolates the part, ``"restart"`` rebuilds its engine
up to ``max_restarts`` times, then quarantines); everything that
happened is recorded in :attr:`resilience`
(:class:`~repro.faults.ResilienceReport`).  :meth:`checkpoint` /
:meth:`restore` round-trip the *entire* simulation state — kernel
clock and queue, every part's engine checkpoint, the trace-bus ordinal
— so campaigns can snapshot, inject and roll back.  The harness is
also a context manager: leaving the ``with`` block closes the kernel
so no campaign leaks scheduled work into the next run.

Supervised rollback recovery (PR 5): ``checkpoint_interval=T`` arms
periodic per-part snapshots (the exact-replay engine checkpoints), and
``on_part_error="restore"`` rolls a failing part back to its last good
snapshot — keeping everything it learned — through the
:class:`~repro.simulation.supervisor.Supervisor` escalation chain
(restore up to ``max_restores`` times, then restart up to
``max_restarts``, then quarantine).  Every decision is emitted as a
typed ``supervisor_decision`` trace event, and the rollback itself as
``part_restored``, so recovery is byte-comparable across engines.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..asl import SentSignal
from ..engine import (
    CHECKPOINT,
    ENGINE_MODES,
    MESSAGE_DELIVERED,
    MESSAGE_DROPPED,
    MESSAGE_ROUTED,
    PART_QUARANTINED,
    PART_RESTARTED,
    PART_RESTORED,
    SUPERVISOR_DECISION,
    ExecutionEngine,
    TraceBus,
    TraceEvent,
    build_engine_factory,
)
from ..errors import ReproError, SimulationError
from ..faults import (
    PART_ERROR_POLICIES,
    FaultCampaign,
    FaultInjector,
    ResilienceReport,
)
from ..metamodel.components import Component, Connector, ConnectorKind
from ..metamodel.classifiers import UmlClass
from ..perf import PERF
from .kernel import Simulator
from .supervisor import Supervisor


class PartInstance:
    """One running part: its model property plus a live engine."""

    __slots__ = ("name", "part_type", "runtime", "received", "sent")

    def __init__(self, name: str, part_type: UmlClass,
                 runtime: Optional[ExecutionEngine]):
        self.name = name
        self.part_type = part_type
        self.runtime = runtime
        self.received = 0
        self.sent = 0

    def state(self) -> Tuple[str, ...]:
        """The active configuration (empty for behavior-less parts)."""
        if self.runtime is None:
            return ()
        return self.runtime.active_configuration()

    def __repr__(self) -> str:
        return f"<PartInstance {self.name}: {self.part_type.name}>"


Route = Tuple[str, str, float, str]  # (peer part, peer port, latency, conn)


class SystemSimulation:
    """Executes a component assembly as a discrete-event cosimulation."""

    def __init__(self, top: Component,
                 quantum: float = 1.0,
                 default_latency: float = 1.0,
                 latency_fn: Optional[Callable[[Connector], float]] = None,
                 context: Optional[Dict[str, Dict[str, Any]]] = None,
                 strict_routing: bool = False,
                 engine: str = "interpreted",
                 faults: Optional[FaultCampaign] = None,
                 fault_seed: Optional[int] = None,
                 on_part_error: str = "raise",
                 max_restarts: int = 3,
                 max_restores: int = 3,
                 checkpoint_interval: Optional[float] = None,
                 max_queue: Optional[int] = None,
                 overflow_policy: str = "raise",
                 bus: Any = None,
                 coverage: bool = False,
                 profile: bool = False,
                 flight_recorder: int = 0,
                 flight_dump: Optional[str] = None,
                 causality: bool = False,
                 properties: Any = None,
                 on_violation: str = "incident"):
        if on_part_error not in PART_ERROR_POLICIES:
            raise SimulationError(
                f"unknown on_part_error policy {on_part_error!r}; "
                f"choose from {PART_ERROR_POLICIES}")
        if engine not in ENGINE_MODES:
            raise SimulationError(
                f"unknown engine {engine!r}; choose from {ENGINE_MODES}")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise SimulationError(
                f"checkpoint_interval must be positive, "
                f"got {checkpoint_interval}")
        self.top = top
        self.simulator = Simulator(max_queue=max_queue,
                                   overflow_policy=overflow_policy)
        self.quantum = quantum
        self.default_latency = default_latency
        self.latency_fn = latency_fn
        self.strict_routing = strict_routing
        self.engine_mode = engine
        self.on_part_error = on_part_error
        self.max_restarts = max_restarts
        self.max_restores = max_restores
        self.checkpoint_interval = checkpoint_interval
        #: the escalation chain deciding restore/restart/quarantine
        self.supervisor = Supervisor(on_part_error,
                                     max_restores=max_restores,
                                     max_restarts=max_restarts)
        #: part name -> last good recovery snapshot
        #: ({"t", "runtime", "received", "sent"})
        self._part_snapshots: Dict[str, Dict[str, Any]] = {}
        #: (time, sender, receiver, signal) for every delivered message
        #: (maintained by a bus subscriber; empty with ``bus=False``)
        self.message_log: List[Tuple[float, str, str, str]] = []
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.wall_time_s = 0.0
        self.parts: Dict[str, PartInstance] = {}
        #: part name -> engine choice: "compiled", "interpreter[: reason]",
        #: "token-engine", or "no behavior"
        self.compile_report: Dict[str, str] = {}
        #: structured record of faults injected and failures survived
        self.resilience = ResilienceReport()
        # bus=None -> fresh bus; bus=False -> disabled; else shared bus.
        if bus is False:
            self._bus: Optional[TraceBus] = None
        elif bus is None:
            self._bus = TraceBus()
        elif isinstance(bus, TraceBus):
            self._bus = bus
        else:
            raise SimulationError(
                f"bus must be None, False or a TraceBus, got {bus!r}")
        #: the harness's own subscriptions (cancellable, e.g. to measure
        #: the cost of a bus with zero subscribers)
        self._builtin_subscriptions: Tuple[Any, ...] = ()
        if self._bus is not None:
            self._builtin_subscriptions = (
                self._bus.subscribe(self._record_delivery,
                                    kinds=(MESSAGE_DELIVERED,)),
                self._bus.subscribe(self._record_drop,
                                    kinds=(MESSAGE_DROPPED,)),
            )
        #: callbacks fired as ``hook(reason, detail)`` when a
        #: SimulationError escapes :meth:`run` or a part is quarantined
        #: (the flight recorder's auto-dump registers here); hook
        #: failures are swallowed — post-mortem machinery must never
        #: mask the original incident.
        self.incident_hooks: List[Callable[[str, str], None]] = []
        #: the attached ObservabilitySuite (None unless any of
        #: coverage/profile/flight_recorder was requested)
        self.observability: Any = None
        self._injector: Optional[FaultInjector] = None
        self._quarantined: set = set()
        #: part name -> zero-arg factory rebuilding a fresh engine
        self._part_factories: Dict[str, Callable[[], ExecutionEngine]] = {}
        self._routes: Dict[Tuple[str, str], List[Route]] = {}
        #: precompiled per-part port lookup: part -> {port: routes}
        self._part_routes: Dict[str, Dict[str, List[Route]]] = {}
        self._inward: Dict[str, List[Route]] = {}  # top port -> parts
        # Order matters: build every part's engine, wire the routes,
        # attach faults, and only then start the engines — a behavior
        # may send from its initial step (an activity's first token run,
        # a state entry action) and that send must route and be subject
        # to the campaign like any other.
        self._build_parts(context or {})
        self._build_routes()
        if faults is not None:
            if not isinstance(faults, FaultCampaign):
                raise SimulationError(
                    f"faults must be a FaultCampaign, got {faults!r}")
            self._injector = FaultInjector(self, faults, seed=fault_seed,
                                           report=self.resilience)
        # Observability subscribers attach before the engines start so
        # the initial configuration entries land in coverage/profiles.
        if coverage or profile or flight_recorder or causality:
            from ..observability import ObservabilitySuite

            self.observability = ObservabilitySuite(
                self, coverage=coverage, profile=profile,
                flight_recorder=flight_recorder, flight_dump=flight_dump,
                causality=causality)
        #: the attached online PropertyChecker (None unless properties=
        #: was given).  Attached after observability so the flight
        #: recorder sees each witnessing event *before* the nested
        #: property_violation it provokes — post-mortems read causally.
        self.property_checker: Any = None
        if properties is not None:
            if self._bus is None:
                raise SimulationError(
                    "properties= needs the trace bus; it cannot be "
                    "combined with bus=False")
            from ..properties import PropertyChecker

            self.property_checker = PropertyChecker(
                properties, self._bus, simulation=self,
                on_violation=on_violation)
        self._start_parts()
        # Baseline recovery snapshot: with periodic checkpoints armed or
        # the restore policy selected, every part has a last-good
        # snapshot from the moment it started — a failure before the
        # first interval still rolls back instead of cold-restarting.
        if checkpoint_interval is not None or on_part_error == "restore":
            self.take_part_checkpoints()

    # ------------------------------------------------------------------
    # bus + built-in subscribers
    # ------------------------------------------------------------------

    @property
    def bus(self) -> Optional[TraceBus]:
        """The simulation's trace bus (None when disabled)."""
        return self._bus

    def _record_delivery(self, event: TraceEvent) -> None:
        self.message_log.append((event.t, event.data["sender"], event.part,
                                 event.data["signal"]))

    def _record_drop(self, event: TraceEvent) -> None:
        if event.data.get("reason") == "quarantined":
            self.resilience.bump("quarantine_dropped")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _make_runtime(self, part_name: str, behavior: Any,
                      initial_context: Dict[str, Any]
                      ) -> Optional[ExecutionEngine]:
        """Resolve a behavior to an engine with
        :func:`build_engine_factory`; None when no engine executes it."""
        binding = build_engine_factory(
            behavior, context=initial_context,
            signal_sink=self._make_sink(part_name),
            prefer_compiled=self.engine_mode == "compiled")
        if binding is None:
            return None
        label, build = binding
        self.compile_report[part_name] = label
        bus = self._bus

        def factory(_build=build, _name=part_name,
                    _bus=bus) -> ExecutionEngine:
            runtime = _build()
            runtime.trace_bus = _bus
            runtime.trace_part = _name
            return runtime
        self._part_factories[part_name] = factory
        return factory()

    def _build_parts(self, contexts: Dict[str, Dict[str, Any]]) -> None:
        for part in self.top.parts:
            part_type = part.type
            if not isinstance(part_type, UmlClass):
                continue
            behavior = part_type.classifier_behavior
            initial_context = dict(contexts.get(part.name, {}))
            for attribute in part_type.all_attributes():
                if attribute.name not in initial_context \
                        and attribute.default_value is not None:
                    initial_context[attribute.name] = attribute.default_value
            runtime = self._make_runtime(part.name, behavior, initial_context)
            if runtime is None:
                self.compile_report[part.name] = "no behavior"
            self.parts[part.name] = PartInstance(part.name, part_type,
                                                 runtime)
        if not self.parts:
            raise SimulationError(
                f"component {self.top.name!r} has no executable parts")

    def _start_parts(self) -> None:
        for instance in self.parts.values():
            if instance.runtime is not None:
                instance.runtime.start()

    def _connector_latency(self, connector: Connector) -> float:
        if self.latency_fn is not None:
            return self.latency_fn(connector)
        return self.default_latency

    def _build_routes(self) -> None:
        part_of_port: Dict[int, str] = {}
        for part in self.top.parts:
            part_type = part.type
            if isinstance(part_type, Component):
                for port in part_type.ports:
                    part_of_port[id(port)] = part.name

        for connector in self.top.connectors:
            latency = self._connector_latency(connector)
            conn_name = connector.name
            end_a, end_b = connector.ends
            name_a = end_a.part.name if end_a.part is not None else None
            name_b = end_b.part.name if end_b.part is not None else None
            if connector.kind is ConnectorKind.DELEGATION:
                # outer port (no part) -> inner part port
                outer = end_a if name_a is None else end_b
                inner = end_b if name_a is None else end_a
                if inner.part is None:
                    raise SimulationError(
                        f"delegation connector {connector!r} has no part end")
                self._inward.setdefault(outer.port.name, []).append(
                    (inner.part.name, inner.port.name, latency, conn_name))
                continue
            if name_a is None or name_b is None:
                raise SimulationError(
                    f"assembly connector {connector!r} must reference parts")
            self._routes.setdefault((name_a, end_a.port.name), []).append(
                (name_b, end_b.port.name, latency, conn_name))
            self._routes.setdefault((name_b, end_b.port.name), []).append(
                (name_a, end_a.port.name, latency, conn_name))
        # flatten into per-part lookup tables: the send hot path then
        # does two dict gets instead of building a tuple key per signal
        for (part_name, port_name), routes in self._routes.items():
            self._part_routes.setdefault(part_name, {})[port_name] = routes
        for part_name in self.parts:
            self._part_routes.setdefault(part_name, {})

    # ------------------------------------------------------------------
    # fault injection & degradation
    # ------------------------------------------------------------------

    @property
    def injector(self) -> Optional[FaultInjector]:
        """The attached fault injector, if any."""
        return self._injector

    @property
    def quarantined_parts(self) -> Tuple[str, ...]:
        """Names of quarantined parts, sorted."""
        return tuple(sorted(self._quarantined))

    def _part_failed(self, part_name: str, error: BaseException) -> None:
        """Apply the ``on_part_error`` policy to a part failure.

        Everything except ``"raise"`` goes through the
        :class:`~repro.simulation.supervisor.Supervisor` escalation
        chain (restore → restart → quarantine, per-part budgets); the
        decision is emitted as a ``supervisor_decision`` trace event
        before the chosen action executes.
        """
        if self.on_part_error == "raise":
            raise error
        now = self.simulator.now
        detail = f"{type(error).__name__}: {error}"
        has_snapshot = part_name in self._part_snapshots
        action, label = self.supervisor.decide(part_name, has_snapshot)
        if self._bus is not None \
                and SUPERVISOR_DECISION in self._bus.active_kinds:
            data = {"action": action, "label": label, "reason": detail}
            data.update(self.supervisor.budgets(part_name))
            record = self._bus.emit(SUPERVISOR_DECISION, now, part_name,
                                    data)
            if self._bus.causal and record is not None:
                # the restore/restart/quarantine record descends from
                # this decision
                self._bus.cause = record.ordinal
        self.resilience.record_part_failure(now, part_name, detail, label)
        if action == "restore":
            self.resilience.record_restore(part_name)
            self._restore_part(part_name, detail)
            return
        if action == "restart":
            self.resilience.record_restart(part_name)
            self._restart_part(part_name, detail)
            return
        self.resilience.record_quarantine(now, part_name)
        self._quarantined.add(part_name)
        if self._bus is not None:
            self._bus.emit(PART_QUARANTINED, now, part_name,
                           {"reason": detail})
        self._fire_incident("part_quarantined", f"{part_name}: {detail}")

    def _fire_incident(self, reason: str, detail: str) -> None:
        """Run the registered incident hooks, swallowing hook errors."""
        for hook in list(self.incident_hooks):
            try:
                hook(reason, detail)
            except Exception:  # noqa: BLE001 - best-effort post-mortem
                PERF.incr("cosim.incident_hook_errors")

    def _restart_part(self, part_name: str, detail: str = "") -> None:
        """Rebuild a part's engine in its initial configuration.

        The fresh engine's clock starts at the current simulation time
        so it does not replay a burst of catch-up time triggers.
        """
        instance = self.parts[part_name]
        runtime = self._part_factories[part_name]()
        runtime.time = self.simulator.now
        runtime.start()
        instance.runtime = runtime
        if self._bus is not None:
            self._bus.emit(PART_RESTARTED, self.simulator.now, part_name,
                           {"reason": detail})

    def _restore_part(self, part_name: str, detail: str = "") -> None:
        """Roll a part back to its last good recovery snapshot.

        The engine reinstates the snapshot's configuration, context and
        timers — everything the part learned up to the snapshot
        survives, unlike a restart.  The engine's local clock rewinds
        to the snapshot time; the next harness sync advances it back to
        kernel time, deterministically replaying due time triggers, so
        interpreted and compiled engines stay lockstep through the
        rollback.
        """
        instance = self.parts[part_name]
        snap = self._part_snapshots[part_name]
        instance.runtime.restore(snap["runtime"])
        instance.received = snap["received"]
        instance.sent = snap["sent"]
        if self._bus is not None:
            self._bus.emit(PART_RESTORED, self.simulator.now, part_name,
                           {"reason": detail, "snapshot_t": snap["t"]})

    def take_part_checkpoints(self) -> int:
        """Snapshot every healthy part's engine for rollback recovery.

        Called automatically every ``checkpoint_interval`` during
        :meth:`run` (and once at construction when the restore policy or
        an interval is configured); callable by hand to mark a known-good
        point.  Returns the number of parts snapshotted.
        """
        now = self.simulator.now
        taken = 0
        for name, instance in self.parts.items():
            if instance.runtime is None or name in self._quarantined:
                continue
            self._part_snapshots[name] = {
                "t": now,
                "runtime": instance.runtime.checkpoint(),
                "received": instance.received,
                "sent": instance.sent,
            }
            taken += 1
        if self._bus is not None and CHECKPOINT in self._bus.active_kinds:
            if self._bus.causal:
                # checkpoints are roots, not consequences of whatever
                # record happened to precede the tick
                self._bus.cause = None
            self._bus.emit(CHECKPOINT, now, "", {"parts": taken})
        return taken

    @property
    def part_snapshot_times(self) -> Dict[str, float]:
        """Snapshot age per part: name -> simulated time it was taken."""
        return {name: snap["t"]
                for name, snap in sorted(self._part_snapshots.items())}

    # ------------------------------------------------------------------
    # signal routing
    # ------------------------------------------------------------------

    def _make_sink(self, part_name: str) -> Callable[[SentSignal], None]:
        def sink(sent: SentSignal) -> None:
            self.parts[part_name].sent += 1
            if sent.target is None:
                # self-send: schedule as an internal event, zero latency
                self._schedule_delivery(part_name, sent.signal,
                                        sent.arguments, 0.0,
                                        sender=part_name)
                return
            port_name = str(sent.target)
            routes = self._part_routes[part_name].get(port_name)
            if not routes:
                if self.strict_routing:
                    raise SimulationError(
                        f"part {part_name!r} sent {sent.signal!r} to port "
                        f"{port_name!r}, but no connector is attached")
                # dangling output: drop (counted), like an unconnected pin
                self.messages_dropped += 1
                if self._bus is not None \
                        and MESSAGE_DROPPED in self._bus.active_kinds:
                    self._bus.emit(MESSAGE_DROPPED, self.simulator.now,
                                   part_name, {"signal": sent.signal,
                                               "port": port_name,
                                               "reason": "unrouted"})
                return
            bus = self._bus
            routed = bus is not None and MESSAGE_ROUTED in bus.active_kinds
            causal = bus is not None and bus.causal
            # each routed record (not the transition that sent it) is
            # the proximate cause of its delivery; the register is
            # restored per hop so sibling hops stay siblings
            origin = bus.cause if causal else None
            injector = self._injector
            if injector is None:
                for peer_part, _peer_port, latency, conn in routes:
                    if routed:
                        record = bus.emit(
                            MESSAGE_ROUTED, self.simulator.now,
                            part_name, {"signal": sent.signal,
                                        "port": port_name,
                                        "peer": peer_part,
                                        "connector": conn})
                        if causal and record is not None:
                            bus.cause = record.ordinal
                    self._schedule_delivery(peer_part, sent.signal,
                                            sent.arguments, latency,
                                            sender=part_name)
                    if causal:
                        bus.cause = origin
            else:
                for peer_part, _peer_port, latency, conn in routes:
                    if routed:
                        record = bus.emit(
                            MESSAGE_ROUTED, self.simulator.now,
                            part_name, {"signal": sent.signal,
                                        "port": port_name,
                                        "peer": peer_part,
                                        "connector": conn})
                        if causal and record is not None:
                            bus.cause = record.ordinal
                    injector.route(part_name, port_name, peer_part, conn,
                                   sent.signal, sent.arguments, latency)
                    if causal:
                        bus.cause = origin
        return sink

    def _schedule_delivery(self, part_name: str, signal: str,
                           arguments: Dict[str, Any],
                           latency: float,
                           sender: str = "env") -> None:
        # Capture the causal register at schedule time: the delivery,
        # executing later, is caused by whatever record scheduled it
        # (a routed message, a fault injection, a transition self-send).
        bus = self._bus
        cause = bus.cause if bus is not None and bus.causal else None

        def deliver() -> None:
            instance = self.parts[part_name]
            if instance.runtime is None:
                return
            bus = self._bus
            causal = bus is not None and bus.causal
            if causal:
                bus.cause = cause
            if part_name in self._quarantined:
                self._drop_quarantined(part_name, signal, sender)
                if causal:
                    bus.cause = None
                return
            self._sync_runtime(instance)
            if causal:
                # the sync rooted its timer chains; this delivery is
                # still caused by the record that scheduled it
                bus.cause = cause
            if part_name in self._quarantined:
                # the time sync itself failed the part
                self._drop_quarantined(part_name, signal, sender)
                if causal:
                    bus.cause = None
                return
            instance.received += 1
            self.messages_delivered += 1
            if bus is not None and MESSAGE_DELIVERED in bus.active_kinds:
                record = bus.emit(MESSAGE_DELIVERED, self.simulator.now,
                                  part_name,
                                  {"signal": signal, "sender": sender})
                if causal and record is not None:
                    bus.cause = record.ordinal
            try:
                instance.runtime.send(signal, **arguments)
            except Exception as error:  # noqa: BLE001 - policy decides
                self._part_failed(part_name, error)
            if causal:
                bus.cause = None
        self.simulator.schedule(latency, deliver)

    def _drop_quarantined(self, part_name: str, signal: str,
                          sender: str) -> None:
        if self._bus is not None \
                and MESSAGE_DROPPED in self._bus.active_kinds:
            self._bus.emit(MESSAGE_DROPPED, self.simulator.now, part_name,
                           {"signal": signal, "sender": sender,
                            "reason": "quarantined"})
        else:
            # keep the resilience count deterministic even with the bus
            # off or unobserved (the subscriber normally does this)
            self.resilience.bump("quarantine_dropped")

    def _sync_runtime(self, instance: PartInstance) -> None:
        runtime = instance.runtime
        if runtime is not None and runtime.time < self.simulator.now \
                and instance.name not in self._quarantined:
            bus = self._bus
            if bus is not None and bus.causal:
                # timer chains fired by the advance root themselves at
                # their own event records
                bus.cause = None
            try:
                runtime.step(self.simulator.now)
            except Exception as error:  # noqa: BLE001 - policy decides
                self._part_failed(instance.name, error)

    def _sync_all(self) -> None:
        for instance in self.parts.values():
            self._sync_runtime(instance)

    # ------------------------------------------------------------------
    # external stimulus + execution
    # ------------------------------------------------------------------

    def send(self, part_name: str, signal: str, delay: float = 0.0,
             **arguments: Any) -> None:
        """Inject an external signal into a named part."""
        if part_name not in self.parts:
            raise SimulationError(f"unknown part {part_name!r}")
        self._schedule_delivery(part_name, signal, arguments, delay)

    def send_to_port(self, port_name: str, signal: str, delay: float = 0.0,
                     **arguments: Any) -> None:
        """Inject a signal through one of the top component's own ports."""
        routes = self._inward.get(port_name)
        if not routes:
            raise SimulationError(
                f"top component has no delegated port {port_name!r}")
        for part_name, _inner_port, latency, _conn in routes:
            self._schedule_delivery(part_name, signal, arguments,
                                    delay + latency)

    def run(self, until: float,
            timeout: Optional[float] = None,
            max_events: int = 10_000_000,
            max_events_at_instant: Optional[int] = None,
            detect_deadlock: bool = False) -> "SystemSimulation":
        """Run the cosimulation up to simulated time ``until`` (chainable).

        ``timeout`` arms the kernel's wall-clock watchdog;
        ``max_events_at_instant`` arms the livelock (zero-delay storm)
        heuristic.  Kernel incidents are recorded in :attr:`resilience`
        before the exception propagates.
        """
        start = _time.perf_counter()
        events_before = self.simulator.events_processed
        self.simulator.every(self.quantum, self._sync_all, until=until)
        if self.checkpoint_interval is not None:
            # armed after the quantum sync at equal timestamps, so a
            # snapshot always captures the parts *after* they advanced
            # to the tick's time
            self.simulator.every(self.checkpoint_interval,
                                 self.take_part_checkpoints, until=until)
        try:
            self.simulator.run(until=until, max_events=max_events,
                               timeout=timeout,
                               max_events_at_instant=max_events_at_instant,
                               detect_deadlock=detect_deadlock)
            if self._injector is not None:
                # deliver reorder-held messages that never found a partner
                leftovers = self._injector.flush()
                if leftovers:
                    for peer, signal, arguments in leftovers:
                        self._schedule_delivery(peer, signal, arguments,
                                                0.0, sender="fault-flush")
                    self.simulator.run(until=until)
            for instance in self.parts.values():
                if instance.runtime is not None \
                        and instance.runtime.time < until:
                    self._final_advance(instance, until)
        except ReproError as error:
            # kernel incidents land in the resilience report; part
            # behavior errors under the raise policy are not kernel
            # incidents, but the black box should still hit the ground
            if isinstance(error, SimulationError):
                self.resilience.record_kernel_incident(
                    self.simulator.now, type(error).__name__, str(error))
            self._fire_incident("simulation_error",
                                f"{type(error).__name__}: {error}")
            raise
        finally:
            elapsed = _time.perf_counter() - start
            self.wall_time_s += elapsed
            PERF.observe("cosim.run_wall_s", elapsed)
            PERF.hist("cosim.run_hist_s", elapsed)
            PERF.incr("cosim.kernel_events",
                      self.simulator.events_processed - events_before)
        return self

    def _final_advance(self, instance: PartInstance, until: float) -> None:
        if instance.name in self._quarantined:
            instance.runtime.time = until
            return
        bus = self._bus
        if bus is not None and bus.causal:
            bus.cause = None
        try:
            instance.runtime.step(until)
        except Exception as error:  # noqa: BLE001 - policy decides
            self._part_failed(instance.name, error)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Capture the complete simulation state.

        Kernel clock and event queue, every part's engine checkpoint
        (configuration, context, timers/markings — every engine kind),
        the message log, the trace-bus ordinal, degradation state,
        the resilience report and, when attached, the fault injector's
        RNG and budgets.  Restore with :meth:`restore`; a checkpoint →
        inject → restore cycle returns to the exact pre-injection state.
        """
        parts: Dict[str, Any] = {}
        for name, instance in self.parts.items():
            parts[name] = {
                "runtime": (instance.runtime.checkpoint()
                            if instance.runtime is not None else None),
                "received": instance.received,
                "sent": instance.sent,
            }
        return {
            "kernel": self.simulator.checkpoint(),
            "parts": parts,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "message_log_len": len(self.message_log),
            "bus": self._bus.checkpoint() if self._bus is not None else None,
            "quarantined": set(self._quarantined),
            "supervisor": self.supervisor.snapshot(),
            "part_snapshots": dict(self._part_snapshots),
            "resilience": self.resilience.snapshot(),
            "injector": (self._injector.snapshot()
                         if self._injector is not None else None),
            "observability": (self.observability.checkpoint()
                              if self.observability is not None else None),
            "properties": (self.property_checker.checkpoint()
                           if self.property_checker is not None else None),
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        """Return to a state captured by :meth:`checkpoint`."""
        self.simulator.restore(snap["kernel"])
        for name, part_snap in snap["parts"].items():
            instance = self.parts[name]
            if part_snap["runtime"] is not None:
                instance.runtime.restore(part_snap["runtime"])
            instance.received = part_snap["received"]
            instance.sent = part_snap["sent"]
        self.messages_delivered = snap["messages_delivered"]
        self.messages_dropped = snap["messages_dropped"]
        del self.message_log[snap["message_log_len"]:]
        if self._bus is not None and snap.get("bus") is not None:
            self._bus.restore(snap["bus"])
        self._quarantined = set(snap["quarantined"])
        self.supervisor.restore_state(snap["supervisor"])
        self._part_snapshots = dict(snap["part_snapshots"])
        self.resilience.restore(snap["resilience"])
        if self._injector is not None and snap["injector"] is not None:
            self._injector.restore(snap["injector"])
        if self.observability is not None \
                and snap.get("observability") is not None:
            self.observability.restore(snap["observability"])
        if self.property_checker is not None \
                and snap.get("properties") is not None:
            self.property_checker.restore(snap["properties"])

    # ------------------------------------------------------------------
    # property verdicts
    # ------------------------------------------------------------------

    def property_report(self):
        """Finalize the property checker at the current simulated time
        and return the per-run
        :class:`~repro.properties.PropertyReport` (None when no
        properties are attached).  Finalization is idempotent, so the
        report can be requested repeatedly after a run."""
        if self.property_checker is None:
            return None
        self.property_checker.finalize(self.simulator.now)
        return self.property_checker.report()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear down the kernel (cancels recurrences; idempotent)."""
        self.simulator.close()

    def __enter__(self) -> "SystemSimulation":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def state_snapshot(self) -> Dict[str, Tuple[str, ...]]:
        """Active configuration of every part."""
        return {name: instance.state()
                for name, instance in sorted(self.parts.items())}

    def context_of(self, part_name: str) -> Dict[str, Any]:
        """The variable context of a part's engine."""
        runtime = self.parts[part_name].runtime
        if runtime is None:
            raise SimulationError(f"part {part_name!r} has no behavior")
        return runtime.context

    def stats(self) -> Dict[str, Any]:
        """Execution statistics: engine mix, traffic, and throughput."""
        compiled = sum(1 for report in self.compile_report.values()
                       if report == "compiled")
        events = self.simulator.events_processed
        return {
            "mode": self.engine_mode,
            "parts": len(self.parts),
            "compiled_parts": compiled,
            "kernel_events": events,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "faults_injected": self.resilience.total_injections,
            "quarantined_parts": len(self._quarantined),
            "restarts": sum(self.supervisor.restart_counts.values()),
            "restores": sum(self.supervisor.restore_counts.values()),
            "kernel_events_dropped": self.simulator.events_dropped,
            "trace_events": (self._bus.events_emitted
                             if self._bus is not None else 0),
            "wall_s": self.wall_time_s,
            "events_per_s": (round(events / self.wall_time_s)
                             if self.wall_time_s > 0 else 0),
        }

    def __repr__(self) -> str:
        return (f"<SystemSimulation {self.top.name!r} parts="
                f"{len(self.parts)} t={self.simulator.now}>")
