"""Shared code-generation infrastructure.

Common pieces used by all four backends (VHDL, Verilog, SystemC,
Python): an indentation-aware :class:`CodeWriter`, identifier
sanitization per target language, the *machine analysis* that
reduces a UML state machine to the synthesizable view the HDL backends
emit — states, triggers (input strobes), sends (output strobes with
payloads), timed transitions (cycle counters) and integer context
registers — and the one *RTL lowering* of that view: a component's
port list (:func:`rtl_ports`) and the ``if`` arm of each transition
row (:func:`emit_rows`), which the HDL backends and the testbenches
render with their own syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from .. import asl
from ..asl.transpile import simple_int_assignments
from ..errors import CodegenError
from ..metamodel.classifiers import UmlClass
from ..metamodel.components import Component, Port
from ..statemachines.events import ChangeEvent, TimeEvent
from ..statemachines.kernel import (
    FinalState,
    Pseudostate,
    PseudostateKind,
    State,
    StateMachine,
)


class CodeWriter:
    """Emit indented source text."""

    def __init__(self, indent_unit: str = "    "):
        self._lines: List[str] = []
        self._level = 0
        self._unit = indent_unit

    def line(self, text: str = "") -> "CodeWriter":
        """Append one line at the current indent (chainable)."""
        if text:
            self._lines.append(self._unit * self._level + text)
        else:
            self._lines.append("")
        return self

    def lines(self, *texts: str) -> "CodeWriter":
        """Append several lines (chainable)."""
        for text in texts:
            self.line(text)
        return self

    def indent(self) -> "CodeWriter":
        """Increase the indent level (chainable)."""
        self._level += 1
        return self

    def dedent(self) -> "CodeWriter":
        """Decrease the indent level (chainable)."""
        if self._level == 0:
            raise CodegenError("cannot dedent below zero")
        self._level -= 1
        return self

    def block(self, raw: str) -> "CodeWriter":
        """Append a pre-formatted block, re-indented to the current level."""
        for text in raw.splitlines():
            self.line(text)
        return self

    def text(self) -> str:
        """The accumulated source text."""
        return "\n".join(self._lines) + "\n"


_KEYWORD_SUFFIX = "_x"

_VHDL_KEYWORDS = frozenset("""
abs access after alias all and architecture array assert attribute begin
block body buffer bus case component configuration constant disconnect
downto else elsif end entity exit file for function generate generic group
guarded if impure in inertial inout is label library linkage literal loop
map mod nand new next nor not null of on open or others out package port
postponed procedure process pure range record register reject rem report
return rol ror select severity shared signal sla sll sra srl subtype then
to transport type unaffected units until use variable wait when while with
xnor xor
""".split())

_VERILOG_KEYWORDS = frozenset("""
always and assign begin buf case casex casez default define else end
endcase endfunction endmodule endtask for forever function if initial
inout input integer module nand negedge nor not or output parameter
posedge reg repeat task time tri wire while localparam logic
""".split())

_PYTHON_KEYWORDS = frozenset("""
False None True and as assert async await break class continue def del
elif else except finally for from global if import in is lambda nonlocal
not or pass raise return try while with yield
""".split())


_KEYWORDS = {"vhdl": _VHDL_KEYWORDS, "verilog": _VERILOG_KEYWORDS,
             "systemc": _PYTHON_KEYWORDS, "python": _PYTHON_KEYWORDS}


def sanitize(name: str, language: str = "python") -> str:
    """Make a model name a legal identifier in the target language."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_"
                      for c in name) or "unnamed"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    if cleaned.lower() in _KEYWORDS.get(language, frozenset()):
        cleaned += _KEYWORD_SUFFIX
    return cleaned


# ---------------------------------------------------------------------------
# ASL inspection helpers
# ---------------------------------------------------------------------------

def _statements(source) -> List[asl.Stmt]:
    """Every statement of an ASL snippet, nested ones too, in source
    order; none for a callable or text that does not parse."""
    if not isinstance(source, str):
        return []
    try:
        pending = list(reversed(asl.parse(source).body))
    except Exception:
        return []
    statements = []
    while pending:
        statement = pending.pop()
        statements.append(statement)
        if isinstance(statement, asl.If):
            pending += reversed(statement.then_body + statement.else_body)
        elif isinstance(statement, (asl.While, asl.For)):
            pending += reversed(statement.body)
    return statements


def collect_sends(source: Optional[str]) -> List[Tuple[str, Tuple[str, ...], Optional[str]]]:
    """All ``send`` statements in an ASL snippet.

    Returns ``(signal, argument names, target port or None)`` tuples;
    unparseable / callable actions yield nothing.
    """
    return [(node.signal, tuple(key for key, _ in node.arguments),
             node.target.value if isinstance(node.target, asl.Literal)
             and isinstance(node.target.value, str) else None)
            for node in _statements(source) if isinstance(node, asl.Send)]


def collect_assigned_names(source: Optional[str]) -> Set[str]:
    """Plain variable names assigned anywhere in an ASL snippet."""
    return {node.target.identifier for node in _statements(source)
            if isinstance(node, asl.Assign)
            and isinstance(node.target, asl.Name)}


# ---------------------------------------------------------------------------
# machine analysis (the synthesizable view)
# ---------------------------------------------------------------------------

@dataclass
class TransitionView:
    """One transition as the HDL backends see it."""

    source: str
    target: str
    trigger: Optional[str]        # input event name, None for completion
    after_cycles: Optional[int]   # timed transition, in cycles
    guard: Optional[str]          # ASL guard text (None or untranslated)
    effect: Optional[str]         # ASL effect text
    is_internal: bool = False


@dataclass
class MachineView:
    """A state machine reduced to what RTL needs."""

    name: str
    states: List[str]
    initial: str
    transitions: List[TransitionView]
    triggers: List[str]                         # input event names
    outputs: List[Tuple[str, str]]              # (port, signal) strobes
    registers: List[Tuple[str, int]]            # (context var, reset value)
    has_hierarchy: bool = False
    notes: List[str] = field(default_factory=list)
    event_fields: List[str] = field(default_factory=list)  # event.<f> reads
    has_timer: bool = False                     # some row waits after(n)


def analyze_machine(machine: StateMachine,
                    owner: Optional[UmlClass] = None) -> MachineView:
    """Reduce a machine to a :class:`MachineView`.

    Hierarchical machines are handled by listing leaf states and
    treating transitions at composite level as transitions from each of
    the composite's leaves (a standard flattening approximation noted in
    ``notes``).  Pseudostate routing other than initial is recorded as a
    note — RTL for choice trees is emitted by the backends as guard
    chains where possible.
    """
    machine.validate()
    view = MachineView(name=machine.name or "machine", states=[],
                       initial="", transitions=[], triggers=[], outputs=[],
                       registers=[])

    leaf_states = [s for s in machine.all_states()
                   if s.is_simple and not isinstance(s, FinalState)]
    final_states = [s for s in machine.all_states()
                    if isinstance(s, FinalState)]
    view.states = [s.name for s in leaf_states] \
        + [s.name for s in final_states]
    view.has_hierarchy = any(s.is_composite for s in machine.all_states())
    if view.has_hierarchy:
        view.notes.append(
            "hierarchical machine: composite-level transitions apply to "
            "each nested leaf state")

    # initial state: follow the initial pseudostate chain to a state
    region = machine.regions[0]
    entry = region.initial
    if entry is None:
        raise CodegenError(f"machine {machine.name!r} has no initial state")
    target = entry.outgoing[0].target
    seen = 0
    while not isinstance(target, State):
        outgoing = target.outgoing
        if not outgoing or seen > 64:
            raise CodegenError(
                f"machine {machine.name!r}: cannot resolve initial state")
        target = outgoing[0].target
        seen += 1
    while isinstance(target, State) and target.is_composite:
        nested_initial = target.regions[0].initial
        if nested_initial is None:
            break
        target = nested_initial.outgoing[0].target
    view.initial = target.name

    def leaves_of(state: State) -> List[str]:
        if state.is_simple:
            return [state.name]
        collected: List[str] = []
        for nested_region in state.regions:
            for nested in nested_region.states:
                collected.extend(leaves_of(nested))
        return collected

    triggers: Set[str] = set()
    outputs: Set[Tuple[str, str]] = set()
    event_fields: Set[str] = set()
    register_names: Dict[str, int] = {}

    if owner is not None:
        for attribute in owner.all_attributes():
            if isinstance(attribute, Port):
                continue
            default = attribute.default_value
            if isinstance(default, bool):
                default = int(default)
            if isinstance(default, int):
                register_names[attribute.name] = default

    for transition in machine.all_transitions():
        source, target_vertex = transition.source, transition.target
        if isinstance(source, Pseudostate):
            if source.kind is not PseudostateKind.INITIAL:
                view.notes.append(
                    f"pseudostate routing via {source.kind.value} "
                    f"{source.name!r} approximated")
            continue
        if isinstance(target_vertex, Pseudostate):
            view.notes.append(
                f"transition into {target_vertex.kind.value} "
                f"{target_vertex.name!r} approximated")
            continue
        if not isinstance(source, State) or not isinstance(target_vertex,
                                                           State):
            continue
        source_leaves = leaves_of(source)
        target_name = target_vertex.name
        if isinstance(target_vertex, State) and target_vertex.is_composite:
            nested = leaves_of(target_vertex)
            target_name = nested[0] if nested else target_vertex.name

        trigger_name: Optional[str] = None
        after_cycles: Optional[int] = None
        for event in transition.triggers:
            if isinstance(event, TimeEvent):
                after_cycles = max(int(round(event.after)), 1)
            elif isinstance(event, ChangeEvent):
                view.notes.append(
                    f"change trigger {event.name!r} approximated as "
                    "a guard")
            else:
                trigger_name = event.name
                triggers.add(event.name)

        guard = transition.guard if isinstance(transition.guard, str) \
            else None
        effect = transition.effect if isinstance(transition.effect, str) \
            else None
        if callable(transition.guard) or callable(transition.effect):
            view.notes.append(
                f"callable guard/effect on {transition!r} cannot be "
                "translated; emitted as comment")

        for signal, args, port in collect_sends(effect):
            outputs.add((port or "self", signal))
        for name in collect_assigned_names(effect):
            register_names.setdefault(name, 0)
        event_fields |= _event_fields(guard, asl.parse_expression) \
            | _event_fields(effect, asl.parse)

        for leaf in source_leaves:
            view.transitions.append(TransitionView(
                source=leaf, target=target_name, trigger=trigger_name,
                after_cycles=after_cycles, guard=guard, effect=effect,
                is_internal=(transition.kind.name == "INTERNAL")))

    for state in machine.all_states():
        for action in (state.entry, state.exit, state.do_activity):
            for signal, args, port in collect_sends(action):
                outputs.add((port or "self", signal))
            for name in collect_assigned_names(action):
                register_names.setdefault(name, 0)

    view.triggers = sorted(triggers)
    view.outputs = sorted(outputs)
    view.registers = sorted(register_names.items())
    view.event_fields = sorted(event_fields)
    view.has_timer = any(t.after_cycles for t in view.transitions)
    return view


def _event_fields(source: Optional[str],
                  parse: Callable[[str], asl.Node]) -> Set[str]:
    """Every ``event.<field>`` an ASL guard (``parse`` is
    ``asl.parse_expression``) or effect (``asl.parse``) reads."""
    if not source:
        return set()
    try:
        tree = parse(source)
    except Exception:
        return set()
    return {node.name for node in asl.walk(tree)
            if isinstance(node, asl.Attribute)
            and node.target == asl.Name("event")}


def component_view(component: UmlClass) -> Optional[MachineView]:
    """The analysed machine a component's RTL comes from: its classifier
    behavior, else its first owned state machine; None when it has
    neither (a structural component)."""
    machine = component.classifier_behavior
    if not isinstance(machine, StateMachine):
        machines = component.owned_of_type(StateMachine)
        machine = machines[0] if machines else None
    return analyze_machine(machine, component) if machine else None


# ---------------------------------------------------------------------------
# RTL lowering (the HDL backends and the testbenches)
# ---------------------------------------------------------------------------

def _trigger_port(trigger: str, language: str) -> str:
    return f"ev_{sanitize(trigger, language).lower()}"


def _strobe_port(port: str, signal: str, language: str) -> str:
    return f"{sanitize(port, language)}_{sanitize(signal, language)}".lower()


def state_constant(state: str, language: str) -> str:
    """The encoding constant of a state: ``S_<STATE>``."""
    return f"S_{sanitize(state, language).upper()}"


def rtl_ports(component: UmlClass, view: Optional[MachineView],
              language: str) -> Dict[str, str]:
    """A component's RTL ports as ``{name: kind}`` in declaration order,
    names sanitized for ``language``; a name repeated with the same kind
    is declared once, with another kind it raises :class:`CodegenError`:

    * ``clk`` and ``rst_n`` (kind ``control``);
    * ``<port>_data`` for each other model port, kind its direction
      (``in``, ``out`` or ``inout``), in attribute order (a model port
      named ``clk`` or ``rst_n`` is that control port);
    * ``ev_<trigger>`` input strobes (``trigger``);
    * ``ev_<field>`` integer payloads the guards and effects read as
      ``event.<field>`` (``field``);
    * ``<port>_<signal>`` output strobes, one per sent signal
      (``strobe``).
    """
    ports = {"clk": "control", "rst_n": "control"}

    def add(name: str, kind: str) -> None:
        if ports.setdefault(name, kind) != kind:
            raise CodegenError(
                f"component {component.name!r}: RTL port {name!r} would be "
                f"both {ports[name]} and {kind}")

    for port in component.attributes:
        if isinstance(port, Port):
            name = sanitize(port.name, language)
            if name not in ("clk", "rst_n"):
                add(f"{name}_data", port.direction.value)
    if view is not None:
        for trigger in view.triggers:
            add(_trigger_port(trigger, language), "trigger")
        for name in view.event_fields:
            add(sanitize(f"ev_{name}", language), "field")
        for port_name, signal in view.outputs:
            add(_strobe_port(port_name, signal, language), "strobe")
    return ports


class RtlSyntax(NamedTuple):
    """How one HDL spells a transition row: format strings whose ``{}``
    holes :func:`emit_rows` fills, and the ASL expression translator."""

    language: str                   # the :func:`sanitize` language
    translate: Callable[[str], str]  # ASL expression -> HDL; may raise
    row_open: str                   # {condition}
    row_close: str
    conjunction: str
    always: str                     # the condition of an unconditional row
    strobe_test: str                # {input strobe}
    timer_test: str                 # {cycles}
    untranslated_guard: str         # {guard text}, a comment
    behavioural: str                # {effect text}, a comment
    assign: str                     # {register} {value}
    untranslated_assign: str        # {variable} {ASL value}, a comment
    pulse: str                      # {output strobe}
    timer_reset: str


def emit_rows(writer: CodeWriter, view: MachineView, state: str,
              syntax: RtlSyntax) -> bool:
    """Write one ``if`` arm per row leaving ``state``, in row order;
    False when no row leaves it.

    An arm's condition joins the trigger strobe, the timer compare and
    the translated guard; a guard that does not translate is written as
    a comment above the arm and left out.  Its body assigns the
    effect's integer registers (an effect that is not only integer
    assignments and sends is written as a comment), pulses the
    effect's send strobes and, for an external row, assigns the target
    state and resets the timer.
    """
    emitted = False
    for transition in view.transitions:
        if transition.source != state:
            continue
        emitted = True
        conditions: List[str] = []
        if transition.trigger:
            conditions.append(syntax.strobe_test.format(
                _trigger_port(transition.trigger, syntax.language)))
        if transition.after_cycles:
            conditions.append(
                syntax.timer_test.format(transition.after_cycles))
        if transition.guard:
            try:
                conditions.append(syntax.translate(transition.guard))
            except Exception:
                writer.line(
                    syntax.untranslated_guard.format(transition.guard))
        writer.line(syntax.row_open.format(
            syntax.conjunction.join(conditions) or syntax.always))
        writer.indent()
        effect = transition.effect
        if effect:
            assignments = simple_int_assignments(effect)
            if assignments is None:
                writer.line(
                    syntax.behavioural.format(" ".join(effect.split())))
            else:
                for name, value in assignments:
                    source = asl.unparse_expression(value)
                    try:
                        writer.line(syntax.assign.format(
                            sanitize(name, syntax.language),
                            syntax.translate(source)))
                    except Exception:
                        writer.line(syntax.untranslated_assign.format(
                            name, source))
            for signal, _args, port in collect_sends(effect):
                writer.line(syntax.pulse.format(
                    _strobe_port(port or "self", signal, syntax.language)))
        if not transition.is_internal:
            writer.line(syntax.assign.format(
                "state", state_constant(transition.target, syntax.language)))
            if view.has_timer:
                writer.line(syntax.timer_reset)
        writer.dedent()
        writer.line(syntax.row_close)
    return emitted


def per_component(scope, language: str, generate_component,
                  file_name) -> Dict[str, str]:
    """``{file_name(c): generate_component(c)}`` over every component
    ``c`` under ``scope``, in :func:`hardware_components` order."""
    files = {file_name(component): generate_component(component)
             for component in hardware_components(scope)}
    if not files:
        raise CodegenError(f"no components found to generate {language} for")
    return files


def hardware_components(scope) -> List[Component]:
    """All components under a scope, in qualified-name order."""
    components = list(scope.descendants_of_type(Component)) \
        if not isinstance(scope, Component) else [scope]
    return sorted(components, key=lambda c: c.qualified_name)
