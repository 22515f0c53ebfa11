"""Executable Python code generation from PSM classes.

Each class becomes a plain Python class: operations with ASL bodies
become methods, ``send`` calls ``self._send`` (which appends to
``self.outbox`` and calls the optional ``on_send`` hook), and the
classifier state machine becomes ``dispatch(event_name, **event)``
(``call`` for call events) and ``advance(cycles)``.  There is one
model compiler: the machine is emitted by walking the dispatch tables
of :func:`~repro.statemachines.compiled.compile_machine_cached`, under
:class:`~repro.statemachines.compiled.CompiledRuntime`'s rules, so the
backend emits exactly the machines the compiler compiles, and the
generated-Python stratum of the differential test checks it against
both engines.  Any other class is skipped with the compiler's reason.
"""

from __future__ import annotations

import unicodedata
from typing import Dict, List, Optional, Set, Tuple

from .. import asl
from ..asl.transpile import (
    ACTION_NAMES,
    BUILTIN_NAMES,
    PYTHON_ATTR_HELPER,
    PYTHON_PRELUDE,
    to_python_expression,
    to_python_statements,
)
from ..errors import AslSyntaxError, CodegenError
from ..metamodel.classifiers import UmlClass
from ..metamodel.components import Port
from ..metamodel.element import Element
from ..statemachines.compiled import (
    CompiledMachine,
    CompiledState,
    CompiledTransition,
    NotCompilable,
    compile_machine_cached,
)
from ..statemachines.events import EventKind
from ..statemachines.kernel import StateMachine
from ..statemachines.runtime import ELSE_GUARD
from .base import CodeWriter, hardware_components, sanitize


def _py_name(name: str) -> str:
    return sanitize(name, "python")


#: Members of every generated class, and of one with a state machine
#: (which also defines ``_enter_<state>`` per state).
_MEMBERS = frozenset({"outbox", "on_send", "_send"})
_MACHINE_MEMBERS = frozenset({"state", "now", "dispatch", "call",
                              "advance", "_timeout", "_timers",
                              "_timer_seq"})


def _trees(compiled: CompiledMachine) -> List[asl.Node]:
    """The parsed ASL of every guard and action in the tables."""
    actions = [compiled.initial_transition.effect]
    guards = []
    for cstate in compiled.states.values():
        element = cstate.element
        actions += (element.entry, element.do_activity, element.exit)
        for rows in (*cstate.by_key.values(), *cstate.by_timer.values()):
            actions += (row.element.effect for row in rows)
            guards += (row.element.guard for row in rows)
    return [asl.parse(text) for text in actions if text is not None] \
        + [asl.parse_expression(text) for text in guards
           if text is not None and text.strip() != ELSE_GUARD]


def _emit_action(writer: CodeWriter, action, self_names: Set[str]) -> None:
    if action is not None:
        for line in to_python_statements(action, self_names):
            writer.line(line)


def generate_class(classifier: UmlClass) -> str:
    """Generate one Python class (source text) for a UML class.

    Raises :class:`CodegenError` with the compiler's reason when the
    model compiler refuses the class's state machine, naming the
    operation when an operation body does not parse, and naming the
    attribute, operation or machine variable that is named like a
    member of the generated class (``state``, ``outbox``, ``now``, ...)
    or that differs from its NFKC form (``ﬁ``); reading ``now`` reads
    the clock, as on the engines.
    """
    compiled = None
    if isinstance(classifier.classifier_behavior, StateMachine):
        try:
            compiled = compile_machine_cached(classifier.classifier_behavior)
        except NotCompilable as refusal:
            raise CodegenError(str(refusal)) from None

    attributes = [attribute for attribute in classifier.all_attributes()
                  if not isinstance(attribute, Port)]
    self_names = {attribute.name for attribute in attributes}
    if compiled is not None:
        # every variable of the machine, loop variables too, is an
        # attribute: reading one never bound raises, as on the engines
        for tree in _trees(compiled):
            for node in asl.walk(tree):
                if isinstance(node, asl.Name):
                    self_names.add(node.identifier)
                elif isinstance(node, asl.For):
                    self_names.add(node.variable)
        self_names = self_names.difference(BUILTIN_NAMES, ACTION_NAMES) \
            | {"now"}
    _check_members(classifier, attributes, self_names - {"now"}, compiled)

    writer = CodeWriter()
    writer.line(f"class {_py_name(classifier.name or 'Generated')}:")
    writer.indent()
    doc = (classifier.comments[0].body if classifier.comments
           else f"Generated from UML class {classifier.name!r}.")
    writer.line(f'"""{doc}"""')
    writer.line("")
    writer.line("def __init__(self, on_send=None):")
    writer.indent()
    writer.lines("self.on_send = on_send", "self.outbox = []")
    for attribute in attributes:
        writer.line(f"self.{_py_name(attribute.name)} = "
                    f"{attribute.default_value!r}")
    if compiled is not None:
        writer.lines("self.now = 0.0", "self._timers = []",
                     "self._timer_seq = 0")
        initial_effect = compiled.initial_transition.effect
        if initial_effect is not None:
            writer.line("event_name, event = '', {}")
            _emit_action(writer, initial_effect, self_names)
        writer.line(f"self._enter_{_py_name(compiled.initial_state.name)}"
                    "('', {})")
    writer.dedent()
    writer.line("")
    writer.block(_SEND)
    writer.line("")

    # operations with ASL bodies
    for operation in classifier.operations:
        if operation.body is None:
            continue
        params = ["self"] + [_py_name(p.name)
                             for p in operation.in_parameters]
        writer.line(f"def {_py_name(operation.name)}({', '.join(params)}):")
        writer.indent()
        local_names = self_names - {p.name
                                    for p in operation.in_parameters}
        try:
            body = to_python_statements(operation.body, local_names)
        except AslSyntaxError as error:
            raise CodegenError(f"operation {operation.name!r} does not "
                               f"parse: {error}") from None
        writer.lines(*body)
        writer.dedent()
        writer.line("")

    if compiled is not None:
        _emit_machine(writer, compiled, self_names)
    writer.dedent()
    return writer.text()


def _check_members(classifier: UmlClass, attributes: list,
                   variables: Set[str],
                   compiled: Optional[CompiledMachine]) -> None:
    """Refuse a model name that would overwrite a generated member, or
    that Python would read as another: Python normalizes identifiers
    to NFKC, so ``self.ﬁ`` is ``self.fi``, while the engines keep the
    two ASL names apart."""
    members = set(_MEMBERS)
    if compiled is not None:
        members |= _MACHINE_MEMBERS | {
            f"_enter_{_py_name(cstate.name)}"
            for cstate in compiled.states.values()}
    named = [("attribute", attribute.name) for attribute in attributes] \
        + [("operation", operation.name)
           for operation in classifier.operations
           if operation.body is not None] \
        + [("variable", name) for name in sorted(variables)]
    for kind, name in named:
        if _py_name(name) in members:
            raise CodegenError(f"{kind} {name!r} clashes with a member "
                               "of the generated class")
        normalized = unicodedata.normalize("NFKC", name)
        if normalized != name:
            raise CodegenError(f"{kind} {name!r} is not in NFKC form: "
                               f"Python reads it as {normalized!r}")


_SEND = '''\
def _send(self, signal, target=None, **arguments):
    self.outbox.append((signal, target, arguments))
    if self.on_send is not None:
        self.on_send(signal, target, arguments)
'''


def _emit_machine(writer: CodeWriter, compiled: CompiledMachine,
                  self_names: Set[str]) -> None:
    """``_enter_<state>``, the step methods and ``advance``."""
    states = list(compiled.states.values())
    for cstate in states:
        writer.line(f"def _enter_{_py_name(cstate.name)}"
                    "(self, event_name, event):")
        writer.indent()
        writer.line(f"self.state = {cstate.name!r}")
        _emit_action(writer, cstate.element.entry, self_names)
        _emit_action(writer, cstate.element.do_activity, self_names)
        for index, (after, event) in enumerate(cstate.timer_specs):
            writer.line("self._timer_seq += 1")
            writer.line(f"self._timers.append((self.now + {after!r}, "
                        f"self._timer_seq, {index}, {event.name!r}))")
        writer.dedent()
        writer.line("")

    def keyed(kind: EventKind) -> list:
        return [(cstate, [(f"event_name == {name!r}", rows)
                          for (key_kind, name), rows
                          in cstate.by_key.items() if key_kind is kind])
                for cstate in states]

    _emit_step(writer, "dispatch(self, event_name, **event)",
               "Run-to-completion step for one signal event; True when "
               "a transition fired.", keyed(EventKind.SIGNAL), self_names)
    calls = keyed(EventKind.CALL)
    if any(arms for _cstate, arms in calls):
        _emit_step(writer, "call(self, event_name, **event)",
                   "Run-to-completion step for one call event; True "
                   "when a transition fired.", calls, self_names)
    _emit_step(writer, "_timeout(self, timer, event_name, event)",
               "Run-to-completion step for the current state's due "
               "timer number ``timer``.",
               [(cstate, [(f"timer == {index}", cstate.by_timer[id(event)])
                          for index, (_after, event)
                          in enumerate(cstate.timer_specs)])
                for cstate in states], self_names)

    writer.block(_ADVANCE)


_ADVANCE = '''\
def advance(self, cycles=1):
    """Advance the clock by ``cycles``, firing each due timer once, in
    (due, registration) order."""
    deadline = self.now + cycles
    while self._timers and min(self._timers)[0] <= deadline:
        timer = min(self._timers)
        self._timers.remove(timer)
        self.now = timer[0]
        self._timeout(timer[2], timer[3], {})
    self.now = deadline
'''


def _emit_step(writer: CodeWriter, signature: str, doc: str,
               arms: list, self_names: Set[str]) -> None:
    """One run-to-completion method; ``arms`` holds per state its
    (condition on the step's arguments, the rows it selects) pairs."""
    writer.line(f"def {signature}:")
    writer.indent()
    writer.line(f'"""{doc}"""')
    keyword = "if"
    for cstate, state_arms in arms:
        if not state_arms:
            continue
        writer.line(f"{keyword} self.state == {cstate.name!r}:")
        keyword = "elif"
        writer.indent()
        for index, (condition, rows) in enumerate(state_arms):
            writer.line(f"{'elif' if index else 'if'} {condition}:")
            writer.indent()
            _emit_rows(writer, cstate, rows, self_names)
            writer.dedent()
        writer.dedent()
    writer.line("return False")
    writer.dedent()
    writer.line("")


def _emit_rows(writer: CodeWriter, cstate: CompiledState,
               rows: Tuple[CompiledTransition, ...],
               self_names: Set[str]) -> None:
    """The candidate rows of one key, as ``CompiledRuntime._rtc`` runs
    them: every guard first, then internal rows in order, until the
    first enabled external row; an ``else`` guard never fires."""
    live = [row for row in rows
            if row.element.guard is None
            or row.element.guard.strip() != ELSE_GUARD]
    flags = []
    for index, row in enumerate(live):
        flag = None
        if row.element.guard is not None:
            flag = f"_asl_guard{index}"
            guard = asl.parse_expression(row.element.guard)
            writer.line(f"{flag} = "
                        f"bool({to_python_expression(guard, self_names)})")
        flags.append(flag)
    internal_flags = []
    for row, flag in zip(live, flags):
        if row.internal:
            internal_flags.append(flag)
            if row.element.effect is None:
                continue
        if flag is not None:
            writer.line(f"if {flag}:")
            writer.indent()
        if row.internal:
            _emit_action(writer, row.element.effect, self_names)
        else:
            _emit_action(writer, cstate.element.exit, self_names)
            writer.line("self._timers.clear()")
            _emit_action(writer, row.element.effect, self_names)
            writer.line(f"self._enter_{_py_name(row.target.name)}"
                        "(event_name, event)")
            writer.line("return True")
        if flag is not None:
            writer.dedent()
        elif not row.internal:
            return  # an unguarded external row ends every step
    fired = "True" if None in internal_flags \
        else " or ".join(internal_flags) or "False"
    writer.line(f"return {fired}")


def generate_module(scope: Element) -> str:
    """Generate one Python module containing every class under scope."""
    classes = [scope]
    if not isinstance(scope, UmlClass):
        # the components, then the plain classes
        classes = hardware_components(scope)
        classes += [element for element
                    in scope.descendants_of_type(UmlClass)
                    if element not in classes]
    if not classes:
        raise CodegenError("no classes found to generate Python for")

    writer = CodeWriter()
    writer.line('"""Generated by repro.codegen.python_gen — executable '
                'model code."""')
    writer.line("")
    writer.block(PYTHON_PRELUDE)
    writer.line("")
    writer.block(PYTHON_ATTR_HELPER)
    writer.line("")
    for classifier in classes:
        machine = classifier.classifier_behavior
        if machine is not None and not isinstance(machine, StateMachine):
            continue
        try:
            writer.block(generate_class(classifier))
        except CodegenError as error:
            writer.line(f"# skipped {classifier.name}: {error}")
        writer.line("")
    return writer.text()


def compile_module(scope: Element) -> Dict[str, type]:
    """Generate, exec and return the classes keyed by class name."""
    source = generate_module(scope)
    namespace: Dict[str, object] = {}
    exec(compile(source, "<repro-generated>", "exec"), namespace)
    return {name: obj for name, obj in namespace.items()
            if isinstance(obj, type)}
