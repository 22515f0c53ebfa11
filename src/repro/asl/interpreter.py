"""Tree-walking interpreter for ASL.

The interpreter executes against a flat variable *environment* (a
dict), matching the xUML picture where actions read and write the
owning object's attributes.  Two extension points connect ASL to the
rest of the library:

* ``call_handler(name, args)`` resolves operation calls that are not
  built-ins — the xUML runtime plugs class operations in here.
* ``signal_sink(signal, arguments, target)`` receives ``send``
  statements — the state machine / simulation runtimes route these to
  event queues.

Parsing dominates evaluation cost for the short guard/effect snippets
state machines run thousands of times; :func:`~repro.asl.parser.parse`
and :func:`~repro.asl.parser.parse_expression` memoize their trees per
source text, so :meth:`Interpreter.execute` and
:meth:`Interpreter.evaluate` parse each text once per process.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import AslRuntimeError
from .ast_nodes import (
    Assign,
    Attribute,
    Binary,
    Break,
    Call,
    Continue,
    DictLiteral,
    Expr,
    ExprStmt,
    For,
    If,
    Index,
    ListLiteral,
    Literal,
    Name,
    Program,
    Return,
    Send,
    Stmt,
    Unary,
    While,
)
from .parser import parse, parse_expression


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


class SentSignal:
    """Record of a ``send`` executed by a program."""

    __slots__ = ("signal", "arguments", "target")

    def __init__(self, signal: str, arguments: Dict[str, Any], target: Any):
        self.signal = signal
        self.arguments = arguments
        self.target = target

    def __repr__(self) -> str:
        return f"<SentSignal {self.signal} {self.arguments!r}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SentSignal):
            return NotImplemented
        return (self.signal, self.arguments, self.target) == \
               (other.signal, other.arguments, other.target)


def _default_builtins() -> Dict[str, Callable]:
    return {
        "abs": abs,
        "min": min,
        "max": max,
        "len": len,
        "int": int,
        "float": float,
        "str": str,
        "bool": bool,
        "range": lambda *args: list(range(*args)),
        "append": lambda seq, item: (seq.append(item), seq)[1],
        "pop": lambda seq: seq.pop(0),
        "contains": lambda seq, item: item in seq,
        "sum": sum,
        "sorted": sorted,
    }


def _print_to(output: List[str], *args: Any) -> None:
    output.append(" ".join(str(a) for a in args))


class Interpreter:
    """Executes ASL programs against an environment dict."""

    def __init__(self, environment: Optional[Dict[str, Any]] = None,
                 call_handler: Optional[Callable[[str, List[Any]], Any]] = None,
                 signal_sink: Optional[Callable[[SentSignal], None]] = None,
                 max_steps: int = 1_000_000):
        self.environment: Dict[str, Any] = environment if environment is not None else {}
        self.call_handler = call_handler
        self.signal_sink = signal_sink
        self.sent_signals: List[SentSignal] = []
        self.output: List[str] = []
        self.max_steps = max_steps
        self._steps = 0
        self._builtins = _default_builtins()
        # bound to the output list, not to self: a bound method here
        # made every interpreter a reference cycle, which kept its
        # signal sink (and a whole simulation) alive until a GC pass
        self._builtins["print"] = partial(_print_to, self.output)

    # -- program execution -----------------------------------------------

    def execute(self, source: str) -> Any:
        """Parse (through the shared parse cache) and run statements;
        returns the ``return`` value."""
        return self.run_program(parse(source))

    def run_program(self, program: Program) -> Any:
        """Run an already-parsed program; returns the ``return`` value."""
        try:
            for statement in program.body:
                self._exec(statement)
        except _ReturnSignal as ret:
            return ret.value
        except (_BreakSignal, _ContinueSignal):
            raise AslRuntimeError("break/continue outside a loop")
        return None

    def evaluate(self, source: str) -> Any:
        """Parse (through the shared parse cache) and evaluate a single
        expression."""
        return self._eval(parse_expression(source))

    # -- statements ------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise AslRuntimeError(
                f"execution exceeded {self.max_steps} steps (runaway loop?)"
            )

    def _exec(self, statement: Stmt) -> None:
        self._tick()
        if isinstance(statement, Assign):
            self._assign(statement.target, self._eval(statement.value))
        elif isinstance(statement, ExprStmt):
            self._eval(statement.expression)
        elif isinstance(statement, If):
            branch = statement.then_body if self._truthy(
                self._eval(statement.condition)) else statement.else_body
            for nested in branch:
                self._exec(nested)
        elif isinstance(statement, While):
            while self._truthy(self._eval(statement.condition)):
                try:
                    for nested in statement.body:
                        self._exec(nested)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(statement, For):
            iterable = self._eval(statement.iterable)
            try:
                iterator = iter(iterable)
            except TypeError:
                raise AslRuntimeError(
                    f"for-loop target is not iterable: {iterable!r}")
            for item in iterator:
                self.environment[statement.variable] = item
                try:
                    for nested in statement.body:
                        self._exec(nested)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(statement, Return):
            value = self._eval(statement.value) if statement.value is not None \
                else None
            raise _ReturnSignal(value)
        elif isinstance(statement, Break):
            raise _BreakSignal()
        elif isinstance(statement, Continue):
            raise _ContinueSignal()
        elif isinstance(statement, Send):
            arguments = {key: self._eval(value)
                         for key, value in statement.arguments}
            target = self._eval(statement.target) \
                if statement.target is not None else None
            sent = SentSignal(statement.signal, arguments, target)
            self.sent_signals.append(sent)
            if self.signal_sink is not None:
                self.signal_sink(sent)
        else:
            raise AslRuntimeError(
                f"unknown statement {type(statement).__name__}")

    def _assign(self, target: Expr, value: Any) -> None:
        if isinstance(target, Name):
            self.environment[target.identifier] = value
        elif isinstance(target, Attribute):
            obj = self._eval(target.target)
            if isinstance(obj, dict):
                obj[target.name] = value
            else:
                setattr(obj, target.name, value)
        elif isinstance(target, Index):
            obj = self._eval(target.target)
            obj[self._eval(target.key)] = value
        else:
            raise AslRuntimeError(
                f"invalid assignment target {type(target).__name__}")

    # -- expressions -------------------------------------------------------

    def _eval(self, expression: Expr) -> Any:
        self._tick()
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, Name):
            name = expression.identifier
            if name in self.environment:
                return self.environment[name]
            if name in self._builtins:
                return self._builtins[name]
            raise AslRuntimeError(f"undefined variable {name!r}")
        if isinstance(expression, Attribute):
            obj = self._eval(expression.target)
            if isinstance(obj, dict):
                if expression.name in obj:
                    return obj[expression.name]
                raise AslRuntimeError(
                    f"object has no attribute {expression.name!r}")
            try:
                return getattr(obj, expression.name)
            except AttributeError as exc:
                raise AslRuntimeError(str(exc))
        if isinstance(expression, Index):
            obj = self._eval(expression.target)
            key = self._eval(expression.key)
            try:
                return obj[key]
            except (KeyError, IndexError, TypeError) as exc:
                raise AslRuntimeError(f"bad index {key!r}: {exc}")
        if isinstance(expression, ListLiteral):
            return [self._eval(item) for item in expression.items]
        if isinstance(expression, DictLiteral):
            return {self._eval(key): self._eval(value)
                    for key, value in expression.items}
        if isinstance(expression, Unary):
            operand = self._eval(expression.operand)
            if expression.op == "-":
                return -operand
            if expression.op == "not":
                return not self._truthy(operand)
            raise AslRuntimeError(f"unknown unary operator {expression.op!r}")
        if isinstance(expression, Binary):
            return self._binary(expression)
        if isinstance(expression, Call):
            return self._call(expression)
        raise AslRuntimeError(
            f"unknown expression {type(expression).__name__}")

    def _binary(self, expression: Binary) -> Any:
        op = expression.op
        if op == "and":
            left = self._eval(expression.left)
            return self._eval(expression.right) if self._truthy(left) else left
        if op == "or":
            left = self._eval(expression.left)
            return left if self._truthy(left) else self._eval(expression.right)
        left = self._eval(expression.left)
        right = self._eval(expression.right)
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    return left // right  # ASL '/' is integer division on ints
                return left / right
            if op == "%":
                return left % right
            if op == "==":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
            if op == "in":
                return left in right
        except (TypeError, ZeroDivisionError) as exc:
            raise AslRuntimeError(f"operator {op!r} failed: {exc}")
        raise AslRuntimeError(f"unknown operator {op!r}")

    def _call(self, expression: Call) -> Any:
        arguments = [self._eval(arg) for arg in expression.arguments]
        callee = expression.callee
        if isinstance(callee, Name):
            name = callee.identifier
            if name in self.environment and callable(self.environment[name]):
                return self.environment[name](*arguments)
            if name in self._builtins:
                return self._builtins[name](*arguments)
            if self.call_handler is not None:
                return self.call_handler(name, arguments)
            raise AslRuntimeError(f"unknown operation {name!r}")
        # method-style call: evaluate target, then dispatch
        if isinstance(callee, Attribute):
            target = self._eval(callee.target)
            if isinstance(target, dict) and callable(target.get(callee.name)):
                return target[callee.name](*arguments)
            method = getattr(target, callee.name, None)
            if callable(method):
                return method(*arguments)
            if self.call_handler is not None:
                return self.call_handler(callee.name, [target] + arguments)
            raise AslRuntimeError(
                f"no such method {callee.name!r} on {type(target).__name__}")
        func = self._eval(callee)
        if callable(func):
            return func(*arguments)
        raise AslRuntimeError(f"{func!r} is not callable")

    @staticmethod
    def _truthy(value: Any) -> bool:
        return bool(value)


def action_error(source: str, exc: Exception) -> AslRuntimeError:
    """The error an engine raises when the ASL guard or action
    ``source`` fails with ``exc``, an exception that is no
    :class:`~repro.errors.ReproError` (``pop`` of an empty list, an
    operator on the wrong types, ...): one text on every engine.
    Raise it ``from exc``."""
    return AslRuntimeError(f"action failed: {exc} (in {source!r})")


# ---------------------------------------------------------------------------
# module-level convenience API
# ---------------------------------------------------------------------------

def evaluate(source: str, environment: Optional[Dict[str, Any]] = None) -> Any:
    """Evaluate one ASL expression against ``environment``."""
    return Interpreter(dict(environment or {})).evaluate(source)


def execute(source: str, environment: Optional[Dict[str, Any]] = None,
            call_handler: Optional[Callable[[str, List[Any]], Any]] = None,
            signal_sink: Optional[Callable[[SentSignal], None]] = None,
            ) -> Dict[str, Any]:
    """Run ASL statements; returns the (mutated) environment."""
    interpreter = Interpreter(
        environment if environment is not None else {},
        call_handler=call_handler, signal_sink=signal_sink)
    interpreter.execute(source)
    return interpreter.environment


def run(source: str, environment: Optional[Dict[str, Any]] = None,
        **kwargs: Any) -> Any:
    """Run ASL statements; returns the program's ``return`` value."""
    interpreter = Interpreter(
        environment if environment is not None else {}, **kwargs)
    return interpreter.execute(source)
