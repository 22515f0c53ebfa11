"""Abstract syntax tree for the Action Specification Language (ASL).

The paper singles ASL out as the piece that "closes the last gap to
complete system specification": a notation and semantics for single
actions — operation calls, assignments — inside UML models.  This ASL
dialect covers the constructs named by the paper plus the control flow
needed for realistic method bodies and transition effects:

* assignments (plain, attribute, index targets)
* operation calls and built-in function calls
* ``if``/``elif``/``else``, ``while``, ``for .. in``
* ``return``, ``break``, ``continue``
* ``send Signal(arg=..., ...) to target`` — the xUML signal send

Nodes are frozen dataclasses, so structural equality works and the
``parse(unparse(ast)) == ast`` round-trip property can be tested
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


class Node:
    """Base class for all AST nodes."""

    __slots__ = ()


class Expr(Node):
    """Base class for expressions."""

    __slots__ = ()


class Stmt(Node):
    """Base class for statements."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal(Expr):
    """A literal: integer, float, string, boolean or null (None)."""

    value: object


@dataclass(frozen=True)
class Name(Expr):
    """A variable reference."""

    identifier: str


@dataclass(frozen=True)
class Attribute(Expr):
    """Attribute access: ``target.name``."""

    target: Expr
    name: str


@dataclass(frozen=True)
class Index(Expr):
    """Subscript access: ``target[key]``."""

    target: Expr
    key: Expr


@dataclass(frozen=True)
class Unary(Expr):
    """Unary operation: ``-x`` or ``not x``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operation with C-like precedence."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    """A call: ``callee(arg, ...)``; callee may be a Name or Attribute."""

    callee: Expr
    arguments: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class ListLiteral(Expr):
    """A list display: ``[a, b, c]``."""

    items: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class DictLiteral(Expr):
    """A dict display: ``{key: value, ...}`` (keys are expressions)."""

    items: Tuple[Tuple[Expr, Expr], ...] = ()


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assign(Stmt):
    """Assignment to a name, attribute or index target."""

    target: Expr
    value: Expr


@dataclass(frozen=True)
class ExprStmt(Stmt):
    """An expression evaluated for effect (typically a call)."""

    expression: Expr


@dataclass(frozen=True)
class If(Stmt):
    """Conditional with optional else branch (elif chains nest here)."""

    condition: Expr
    then_body: Tuple[Stmt, ...]
    else_body: Tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class While(Stmt):
    """Pre-tested loop."""

    condition: Expr
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class For(Stmt):
    """Iteration over a sequence: ``for v in expr { ... }``."""

    variable: str
    iterable: Expr
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Return(Stmt):
    """Return from the enclosing operation (value optional)."""

    value: Optional[Expr] = None


@dataclass(frozen=True)
class Break(Stmt):
    """Exit the innermost loop."""


@dataclass(frozen=True)
class Continue(Stmt):
    """Jump to the next iteration of the innermost loop."""


@dataclass(frozen=True)
class Send(Stmt):
    """xUML signal send: ``send Name(k=v, ...) to target;``

    ``target`` is optional (broadcast / environment-directed send).
    """

    signal: str
    arguments: Tuple[Tuple[str, Expr], ...] = ()
    target: Optional[Expr] = None


@dataclass(frozen=True)
class Program(Node):
    """A sequence of statements (an ASL method body or effect)."""

    body: Tuple[Stmt, ...] = ()


def walk(tree: Node):
    """Every node of ``tree``, ``tree`` first, in source order."""
    pending: list = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, tuple):  # a field that holds several
            pending.extend(reversed(node))
        elif isinstance(node, Node):
            yield node
            pending.extend(reversed(list(vars(node).values())))


# ---------------------------------------------------------------------------
# unparser — source text from an AST (used for round-trip tests and
# as the base of the code generators' expression translation)
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    "or": 1, "and": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3, "in": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}


def unparse_expression(expr: Expr) -> str:
    """Render an expression back to canonical ASL source."""
    return _render(expr, 0)


def _render(expr: Expr, parent_precedence: int) -> str:
    if isinstance(expr, Literal):
        value = expr.value
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, str):
            escaped = value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return repr(value)
    if isinstance(expr, Name):
        return expr.identifier
    if isinstance(expr, Attribute):
        return f"{_render(expr.target, 9)}.{expr.name}"
    if isinstance(expr, Index):
        return f"{_render(expr.target, 9)}[{_render(expr.key, 0)}]"
    if isinstance(expr, Call):
        args = ", ".join(_render(a, 0) for a in expr.arguments)
        return f"{_render(expr.callee, 9)}({args})"
    if isinstance(expr, ListLiteral):
        return "[" + ", ".join(_render(i, 0) for i in expr.items) + "]"
    if isinstance(expr, DictLiteral):
        pairs = ", ".join(f"{_render(k, 0)}: {_render(v, 0)}"
                          for k, v in expr.items)
        return "{" + pairs + "}"
    if isinstance(expr, Unary):
        operand = _render(expr.operand, 8)
        text = f"{expr.op} {operand}" if expr.op == "not" else f"{expr.op}{operand}"
        return f"({text})" if parent_precedence > 7 else text
    if isinstance(expr, Binary):
        precedence = _PRECEDENCE[expr.op]
        # comparisons are non-associative in the grammar: parenthesize
        # comparison operands of comparisons on both sides
        left_precedence = precedence + 1 if precedence == 3 else precedence
        left = _render(expr.left, left_precedence)
        right = _render(expr.right, precedence + 1)  # left-assoc
        text = f"{left} {expr.op} {right}"
        return f"({text})" if precedence < parent_precedence else text
    raise TypeError(f"cannot unparse {type(expr).__name__}")


def unparse(node: Node, indent: int = 0) -> str:
    """Render a program/statement back to canonical ASL source."""
    pad = "    " * indent
    if isinstance(node, Program):
        return "\n".join(unparse(s, indent) for s in node.body)
    if isinstance(node, Assign):
        return f"{pad}{unparse_expression(node.target)} = " \
               f"{unparse_expression(node.value)};"
    if isinstance(node, ExprStmt):
        return f"{pad}{unparse_expression(node.expression)};"
    if isinstance(node, Return):
        if node.value is None:
            return f"{pad}return;"
        return f"{pad}return {unparse_expression(node.value)};"
    if isinstance(node, Break):
        return f"{pad}break;"
    if isinstance(node, Continue):
        return f"{pad}continue;"
    if isinstance(node, Send):
        args = ", ".join(f"{k}={unparse_expression(v)}"
                         for k, v in node.arguments)
        text = f"{pad}send {node.signal}({args})"
        if node.target is not None:
            text += f" to {unparse_expression(node.target)}"
        return text + ";"
    if isinstance(node, If):
        text = (f"{pad}if ({unparse_expression(node.condition)}) {{\n"
                + "\n".join(unparse(s, indent + 1) for s in node.then_body)
                + f"\n{pad}}}")
        if node.else_body:
            text += (" else {\n"
                     + "\n".join(unparse(s, indent + 1) for s in node.else_body)
                     + f"\n{pad}}}")
        return text
    if isinstance(node, While):
        return (f"{pad}while ({unparse_expression(node.condition)}) {{\n"
                + "\n".join(unparse(s, indent + 1) for s in node.body)
                + f"\n{pad}}}")
    if isinstance(node, For):
        return (f"{pad}for {node.variable} in "
                f"{unparse_expression(node.iterable)} {{\n"
                + "\n".join(unparse(s, indent + 1) for s in node.body)
                + f"\n{pad}}}")
    raise TypeError(f"cannot unparse {type(node).__name__}")
