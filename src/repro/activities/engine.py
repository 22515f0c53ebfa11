"""The token-game execution engine for UML 2.0 activities.

UML 2.0 "introduces token semantics for these Activity Diagrams that
move them semantically close to high-level Petri Nets" (the paper).
This engine implements that semantics operationally:

* tokens (control or object-valued) live on edges and in object-node
  pools;
* each node kind has a firing rule (actions implicitly join their
  inputs and fork their outputs; decision routes one token; join
  synchronizes; fork duplicates; final nodes sink);
* a *firing* is (node, variant): nodes with a genuine nondeterministic
  choice (decision branch, merge input, buffer routing) expose one
  variant per alternative, which both the deterministic scheduler and
  the exhaustive :func:`explore` build on — the same rules drive
  execution and state-space enumeration, so the Petri-net equivalence
  benchmark (D3) compares real semantics, not a re-implementation.

Action behaviors are ASL source or callables; input pin values are
bound to ASL variables named after the pins, and output pin variables
are collected after the behavior runs.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ActivityError, ReproError
from .graph import Activity, ActivityEdge
from .nodes import (
    AcceptEventAction,
    Action,
    ActivityFinalNode,
    ActivityNode,
    ActivityParameterNode,
    DecisionNode,
    FlowFinalNode,
    ForkNode,
    InitialNode,
    JoinNode,
    MergeNode,
    ObjectNode,
    SendSignalAction,
)

#: Marker value for a control token.
CONTROL = object()


class Firing:
    """One enabled (node, variant) choice."""

    __slots__ = ("node", "variant", "order")

    def __init__(self, node: ActivityNode, variant: int, order: int):
        self.node = node
        self.variant = variant
        self.order = order

    def __repr__(self) -> str:
        return f"<Firing {self.node.name!r}#{self.variant}>"


class TokenEngine:
    """Executes one activity instance by playing the token game."""

    def __init__(self, activity: Activity,
                 env: Optional[Dict[str, Any]] = None,
                 signal_sink=None,
                 inputs: Optional[Dict[str, List[Any]]] = None,
                 seed: Optional[int] = None):
        activity.validate()
        self.activity = activity
        self.env: Dict[str, Any] = dict(env or {})
        self.signal_sink = signal_sink
        self.finished = False
        self.steps = 0
        self.fired_nodes: List[str] = []
        self.outputs: Dict[str, List[Any]] = {}
        # Trace plumbing (set by the cosim harness / ActivityRuntime).
        # Kinds are literal strings so this module never imports
        # repro.engine; test_trace_bus pins them to the constants.
        self.trace_bus = None
        self.trace_part = ""
        self.time = 0.0
        self._rng = random.Random(seed) if seed is not None else None
        self._edge_tokens: Dict[str, deque] = {
            edge.xmi_id: deque() for edge in activity.edges}
        self._pool: Dict[str, deque] = {}
        self._events: List[Tuple[str, Dict[str, Any]]] = []
        self._node_order: Dict[str, int] = {
            node.xmi_id: index for index, node in enumerate(activity.nodes)}
        self._in: Dict[str, Tuple[ActivityEdge, ...]] = {}
        self._out: Dict[str, Tuple[ActivityEdge, ...]] = {}
        for a_node in activity.all_nodes:
            self._in[a_node.xmi_id] = ()
            self._out[a_node.xmi_id] = ()
        for edge in activity.edges:
            self._in[edge.target.xmi_id] += (edge,)
            self._out[edge.source.xmi_id] += (edge,)
        # initial marking
        for node in activity.nodes:
            if isinstance(node, InitialNode):
                self._pool[node.xmi_id] = deque([CONTROL])
            elif isinstance(node, ObjectNode):
                self._pool[node.xmi_id] = deque()
                if isinstance(node, ActivityParameterNode) and node.is_input:
                    for value in (inputs or {}).get(node.name, ()):
                        self._pool[node.xmi_id].append(value)
                if isinstance(node, ActivityParameterNode) and not node.is_input:
                    self.outputs[node.name] = []

    def _incoming(self, node: ActivityNode) -> Tuple[ActivityEdge, ...]:
        return self._in[node.xmi_id]

    def _outgoing(self, node: ActivityNode) -> Tuple[ActivityEdge, ...]:
        return self._out[node.xmi_id]

    # ------------------------------------------------------------------
    # marking access
    # ------------------------------------------------------------------

    def tokens_on(self, edge: ActivityEdge) -> int:
        """Number of tokens currently on an edge."""
        return len(self._edge_tokens[edge.xmi_id])

    def tokens_in(self, node: ActivityNode) -> int:
        """Number of tokens pooled in an object/initial node."""
        return len(self._pool.get(node.xmi_id, ()))

    def marking_counts(self) -> Tuple[Tuple[str, int], ...]:
        """Canonical marking: sorted (location id, token count), nonzero only."""
        counts = [(edge_id, len(tokens))
                  for edge_id, tokens in self._edge_tokens.items() if tokens]
        counts += [(node_id, len(tokens))
                   for node_id, tokens in self._pool.items() if tokens]
        return tuple(sorted(counts))

    def set_marking(self, counts: Tuple[Tuple[str, int], ...]) -> None:
        """Overwrite the marking with control tokens (exploration use)."""
        for tokens in self._edge_tokens.values():
            tokens.clear()
        for tokens in self._pool.values():
            tokens.clear()
        for location, count in counts:
            store = self._edge_tokens.get(location)
            if store is None:
                store = self._pool.setdefault(location, deque())
            store.extend([CONTROL] * count)

    # ------------------------------------------------------------------
    # events (accept-event actions)
    # ------------------------------------------------------------------

    def deliver(self, event_name: str, **payload: Any) -> None:
        """Deliver an external event to waiting accept-event actions."""
        self._events.append((event_name, payload))

    # ------------------------------------------------------------------
    # enabling
    # ------------------------------------------------------------------

    def enabled_firings(self) -> List[Firing]:
        """All enabled (node, variant) firings, in deterministic order."""
        firings: List[Firing] = []
        if self.finished:
            return firings
        for node in self.activity.nodes:
            firings.extend(self._variants(node))
        firings.sort(key=lambda f: (f.order, f.variant))
        return firings

    def _variants(self, node: ActivityNode) -> List[Firing]:
        order = self._node_order[node.xmi_id]
        make = lambda variant: Firing(node, variant, order)

        if isinstance(node, InitialNode):
            if self.tokens_in(node):
                return [make(0)]
            return []

        if isinstance(node, (ActivityFinalNode, FlowFinalNode)):
            return [make(index)
                    for index, edge in enumerate(self._incoming(node))
                    if self.tokens_on(edge) >= edge.weight]

        if isinstance(node, ForkNode):
            edge = self._incoming(node)[0]
            return [make(0)] if self.tokens_on(edge) >= edge.weight else []

        if isinstance(node, JoinNode):
            if all(self.tokens_on(e) >= e.weight for e in self._incoming(node)):
                return [make(0)]
            return []

        if isinstance(node, DecisionNode):
            edge = self._incoming(node)[0]
            if self.tokens_on(edge) < edge.weight:
                return []
            token = self._edge_tokens[edge.xmi_id][0]
            branches = self._decision_branches(node, token)
            return [make(index) for index in branches]

        if isinstance(node, MergeNode):
            return [make(index)
                    for index, edge in enumerate(self._incoming(node))
                    if self.tokens_on(edge) >= edge.weight]

        if isinstance(node, ObjectNode) and not isinstance(node, Action):
            firings = []
            # variant encoding: 0..k-1 absorb from incoming edge i;
            # k..k+m-1 emit pooled token to outgoing edge j
            incoming = self._incoming(node)
            outgoing = self._outgoing(node)
            for index, edge in enumerate(incoming):
                if self.tokens_on(edge) >= edge.weight and self._has_capacity(node):
                    firings.append(make(index))
            if self.tokens_in(node):
                for index, _edge in enumerate(outgoing):
                    firings.append(make(len(incoming) + index))
            return firings

        if isinstance(node, Action):
            for edge in self._action_input_edges(node):
                if self.tokens_on(edge) < edge.weight:
                    return []
            if isinstance(node, AcceptEventAction):
                if not any(name == node.event for name, _ in self._events):
                    return []
            return [make(0)]

        return []

    def _decision_branches(self, node: DecisionNode, token: Any) -> List[int]:
        """Indices of outgoing edges whose guard accepts ``token``."""
        accepted: List[int] = []
        else_index: Optional[int] = None
        unguarded: List[int] = []
        for index, edge in enumerate(self._outgoing(node)):
            guard = edge.guard
            if guard is None:
                unguarded.append(index)
                continue
            if isinstance(guard, str) and guard.strip() == "else":
                else_index = index
                continue
            if self._guard_passes(guard, token):
                accepted.append(index)
        if accepted:
            return accepted
        if unguarded:
            return unguarded
        if else_index is not None:
            return [else_index]
        return []

    # An ASL failure that is no ReproError leaves the guard and the
    # action as asl.action_error, as on the state-machine engines.

    def _guard_passes(self, guard, token: Any) -> bool:
        if callable(guard):
            return bool(guard(self.env, token))
        from .. import asl

        scope = dict(self.env)
        scope["token"] = None if token is CONTROL else token
        try:
            return bool(asl.evaluate(guard, scope))
        except ReproError:
            raise
        except Exception as exc:
            raise asl.action_error(guard, exc) from exc

    def _has_capacity(self, node: ObjectNode) -> bool:
        if node.upper_bound is None:
            return True
        return self.tokens_in(node) < node.upper_bound

    def _action_input_edges(self, action: Action) -> List[ActivityEdge]:
        edges = list(self._incoming(action))
        for pin in action.input_pins:
            edges.extend(self._incoming(pin))
        return edges

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------

    def fire(self, firing: Firing) -> None:
        """Execute one firing (must come from :meth:`enabled_firings`)."""
        node, variant = firing.node, firing.variant
        self.steps += 1
        self.fired_nodes.append(node.name)
        bus = self.trace_bus
        if bus is not None and bus.engine_active:
            bus.emit("token", self.time, self.trace_part,
                     {"node": node.name, "variant": variant})

        if isinstance(node, InitialNode):
            self._pool[node.xmi_id].popleft()
            self._emit(self._outgoing(node)[0], CONTROL)
        elif isinstance(node, ActivityFinalNode):
            edge = self._incoming(node)[variant]
            self._consume(edge)
            self._terminate()
        elif isinstance(node, FlowFinalNode):
            self._consume(self._incoming(node)[variant])
        elif isinstance(node, ForkNode):
            token = self._consume(self._incoming(node)[0])
            for edge in self._outgoing(node):
                self._emit(edge, token)
        elif isinstance(node, JoinNode):
            value = CONTROL
            for edge in self._incoming(node):
                token = self._consume(edge)
                if token is not CONTROL:
                    value = token  # object token wins over control
            self._emit(self._outgoing(node)[0], value)
        elif isinstance(node, DecisionNode):
            token = self._consume(self._incoming(node)[0])
            self._emit(self._outgoing(node)[variant], token)
        elif isinstance(node, MergeNode):
            token = self._consume(self._incoming(node)[variant])
            self._emit(self._outgoing(node)[0], token)
        elif isinstance(node, Action):
            self._fire_action(node)
        elif isinstance(node, ObjectNode):
            incoming = self._incoming(node)
            if variant < len(incoming):
                token = self._consume(incoming[variant])
                self._pool[node.xmi_id].append(token)
                if isinstance(node, ActivityParameterNode) and not node.is_input:
                    self.outputs[node.name].append(
                        None if token is CONTROL else token)
            else:
                edge = self._outgoing(node)[variant - len(incoming)]
                token = self._pool[node.xmi_id].popleft()
                self._emit(edge, token)
        else:
            raise ActivityError(f"cannot fire node {node!r}")

    def _fire_action(self, action: Action) -> None:
        consumed: Dict[str, Any] = {}
        for edge in self._incoming(action):
            self._consume(edge)
        for pin in action.input_pins:
            for edge in self._incoming(pin):
                token = self._consume(edge)
                consumed[pin.name] = None if token is CONTROL else token

        if isinstance(action, AcceptEventAction):
            for index, (name, payload) in enumerate(self._events):
                if name == action.event:
                    del self._events[index]
                    consumed["event"] = payload
                    break

        produced = self._run_behavior(action, consumed)

        if isinstance(action, SendSignalAction) and self.signal_sink is not None:
            from ..asl import SentSignal

            self.signal_sink(SentSignal(action.signal, dict(consumed),
                                        action.target or None))

        for edge in self._outgoing(action):
            self._emit(edge, CONTROL)
        for pin in action.output_pins:
            value = produced.get(pin.name)
            for edge in self._outgoing(pin):
                self._emit(edge, value)

    def _run_behavior(self, action: Action,
                      consumed: Dict[str, Any]) -> Dict[str, Any]:
        behavior = action.behavior
        if behavior is None:
            # default: pass the first input through to every output pin
            first = next(iter(consumed.values()), None)
            return {pin.name: first for pin in action.output_pins}
        if callable(behavior):
            scope = dict(self.env)
            scope.update(consumed)
            result = behavior(scope)
            self._writeback(scope, consumed)
            if isinstance(result, dict):
                return result
            return {pin.name: scope.get(pin.name)
                    for pin in action.output_pins}
        from .. import asl

        scope = dict(self.env)
        scope.update(consumed)
        interpreter = asl.Interpreter(scope, signal_sink=self.signal_sink)
        try:
            interpreter.execute(behavior)
        except ReproError:
            raise
        except Exception as exc:
            raise asl.action_error(behavior, exc) from exc
        self._writeback(scope, consumed)
        return {pin.name: scope.get(pin.name) for pin in action.output_pins}

    def _writeback(self, scope: Dict[str, Any],
                   consumed: Dict[str, Any]) -> None:
        for key, value in scope.items():
            if key in consumed:
                continue
            self.env[key] = value

    def _consume(self, edge: ActivityEdge) -> Any:
        tokens = self._edge_tokens[edge.xmi_id]
        if not tokens:
            raise ActivityError(f"no token to consume on {edge!r}")
        token = None
        for _ in range(edge.weight):
            token = tokens.popleft()
        return token

    def _emit(self, edge: ActivityEdge, token: Any) -> None:
        self._edge_tokens[edge.xmi_id].append(token)

    def _terminate(self) -> None:
        self.finished = True
        for tokens in self._edge_tokens.values():
            tokens.clear()
        for node_id, tokens in self._pool.items():
            tokens.clear()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def step(self) -> Optional[Firing]:
        """Fire one enabled firing (deterministic or seeded-random pick)."""
        firings = self.enabled_firings()
        if not firings:
            return None
        chosen = (self._rng.choice(firings) if self._rng is not None
                  else firings[0])
        self.fire(chosen)
        return chosen

    def run(self, max_steps: int = 100_000) -> int:
        """Fire until quiescence or termination; returns steps fired."""
        start = self.steps
        while not self.finished:
            if self.steps - start >= max_steps:
                raise ActivityError(
                    f"activity {self.activity.name!r} exceeded {max_steps} "
                    "steps (livelock?)")
            if self.step() is None:
                break
        return self.steps - start

    @property
    def is_quiescent(self) -> bool:
        """True when no firing is enabled."""
        return not self.enabled_firings()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Capture the complete token-game state (in-process snapshot).

        Token values are kept by reference (the :data:`CONTROL` marker
        included), so a snapshot round-trips exactly but is not a JSON
        document — same contract as the state-machine runtimes.
        """
        return {
            "edges": {edge_id: list(tokens)
                      for edge_id, tokens in self._edge_tokens.items()
                      if tokens},
            "pool": {node_id: list(tokens)
                     for node_id, tokens in self._pool.items() if tokens},
            "env": dict(self.env),
            "events": [(name, dict(payload))
                       for name, payload in self._events],
            "steps": self.steps,
            "fired_nodes": list(self.fired_nodes),
            "outputs": {name: list(values)
                        for name, values in self.outputs.items()},
            "finished": self.finished,
            "time": self.time,
            "rng": self._rng.getstate() if self._rng is not None else None,
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        """Reinstate a state captured by :meth:`snapshot` (exact replay)."""
        for tokens in self._edge_tokens.values():
            tokens.clear()
        for edge_id, tokens in snap["edges"].items():
            self._edge_tokens[edge_id].extend(tokens)
        for tokens in self._pool.values():
            tokens.clear()
        for node_id, tokens in snap["pool"].items():
            self._pool.setdefault(node_id, deque()).extend(tokens)
        self.env.clear()
        self.env.update(snap["env"])
        self._events = [(name, dict(payload))
                        for name, payload in snap["events"]]
        self.steps = snap["steps"]
        self.fired_nodes = list(snap["fired_nodes"])
        self.outputs = {name: list(values)
                        for name, values in snap["outputs"].items()}
        self.finished = snap["finished"]
        self.time = snap["time"]
        if snap["rng"] is not None:
            if self._rng is None:
                self._rng = random.Random()
            self._rng.setstate(snap["rng"])


def explore(activity: Activity, max_markings: int = 50_000,
            env: Optional[Dict[str, Any]] = None) -> set:
    """Exhaustively enumerate reachable markings of the token game.

    Fires every enabled (node, variant) alternative from every reachable
    marking — the activity-side state space compared against the Petri
    net reachability set in experiment D3.  Object values are abstracted
    to token counts, so this is exact for control-only activities.
    """
    engine = TokenEngine(activity, env=dict(env or {}))
    initial = engine.marking_counts()
    seen = {initial}
    frontier = [initial]
    while frontier:
        marking = frontier.pop()
        engine.finished = False
        engine.set_marking(marking)
        for firing in engine.enabled_firings():
            engine.finished = False
            engine.set_marking(marking)
            engine.fire(firing)
            successor = engine.marking_counts()
            if successor not in seen:
                if len(seen) >= max_markings:
                    raise ActivityError(
                        f"exploration exceeded {max_markings} markings")
                seen.add(successor)
                frontier.append(successor)
    return seen
