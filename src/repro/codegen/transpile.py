"""ASL-to-target-language transpilers.

The Python transpiler is complete (every ASL construct has a Python
equivalent — generated code behaves exactly like the interpreter,
including integer division and ``send`` routing through a callback).

The expression transpilers for C-family targets (SystemC) and the HDLs
translate the integer/boolean expression subset RTL can synthesize and
raise :class:`Untranslatable` for the rest; backends catch that and
emit an explanatory comment instead of broken code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from .. import asl
from ..errors import CodegenError


class Untranslatable(CodegenError):
    """The construct has no equivalent in the target language subset."""


# ---------------------------------------------------------------------------
# Python (complete)
# ---------------------------------------------------------------------------

_PY_BINARY = {
    "and": "and", "or": "or", "==": "==", "!=": "!=", "<": "<", "<=": "<=",
    ">": ">", ">=": ">=", "+": "+", "-": "-", "*": "*", "%": "%",
    "in": "in",
}

#: Runtime helpers prepended to every generated Python module so the
#: generated code matches interpreter semantics exactly.
PYTHON_PRELUDE = '''\
def _asl_div(a, b):
    """ASL '/' floors on integer operands, divides otherwise."""
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    return a / b


def _asl_pop(seq):
    return seq.pop(0)


def _asl_append(seq, item):
    seq.append(item)
    return seq


def _asl_contains(seq, item):
    return item in seq
'''

_PY_BUILTIN_MAP = {
    "append": "_asl_append", "pop": "_asl_pop", "contains": "_asl_contains",
    "range": "list(range", "abs": "abs", "min": "min", "max": "max",
    "len": "len", "int": "int", "float": "float", "str": "str",
    "bool": "bool", "sum": "sum", "sorted": "sorted",
}


def to_python_expression(expr: asl.Expr, self_names: Optional[set] = None
                         ) -> str:
    """Translate an ASL expression to Python source.

    ``self_names`` maps bare variable reads onto ``self.<name>`` —
    used when generating methods whose context variables are instance
    attributes.
    """
    return _py_expr(expr, self_names or set())


def _py_expr(expr: asl.Expr, self_names: set) -> str:
    if isinstance(expr, asl.Literal):
        return repr(expr.value)
    if isinstance(expr, asl.Name):
        name = expr.identifier
        if name in self_names:
            return f"self.{name}"
        return name
    if isinstance(expr, asl.Attribute):
        target = _py_expr(expr.target, self_names)
        # dict-style objects dominate ASL usage; getattr-with-dict-fallback
        return f"_asl_attr({target}, {expr.name!r})"
    if isinstance(expr, asl.Index):
        return (f"{_py_expr(expr.target, self_names)}"
                f"[{_py_expr(expr.key, self_names)}]")
    if isinstance(expr, asl.ListLiteral):
        return "[" + ", ".join(_py_expr(i, self_names)
                               for i in expr.items) + "]"
    if isinstance(expr, asl.DictLiteral):
        pairs = ", ".join(f"{_py_expr(k, self_names)}: "
                          f"{_py_expr(v, self_names)}"
                          for k, v in expr.items)
        return "{" + pairs + "}"
    if isinstance(expr, asl.Unary):
        operand = _py_expr(expr.operand, self_names)
        return f"(not {operand})" if expr.op == "not" else f"(-{operand})"
    if isinstance(expr, asl.Binary):
        left = _py_expr(expr.left, self_names)
        right = _py_expr(expr.right, self_names)
        if expr.op == "/":
            return f"_asl_div({left}, {right})"
        return f"({left} {_PY_BINARY[expr.op]} {right})"
    if isinstance(expr, asl.Call):
        args = ", ".join(_py_expr(a, self_names) for a in expr.arguments)
        callee = expr.callee
        if isinstance(callee, asl.Name):
            mapped = _PY_BUILTIN_MAP.get(callee.identifier)
            if mapped == "list(range":
                return f"list(range({args}))"
            if mapped is not None:
                return f"{mapped}({args})"
            if callee.identifier in self_names:
                return f"self.{callee.identifier}({args})"
            return f"self.{callee.identifier}({args})"  # operation call
        return f"{_py_expr(callee, self_names)}({args})"
    raise CodegenError(f"cannot translate {type(expr).__name__} to Python")


#: Every name the interpreter resolves as a builtin, plus ``list``,
#: which ``range`` is emitted with.  Python code resolves them as
#: globals, so a variable of one of these names shadows the builtin
#: there, while the interpreter keeps calls apart from values; and a
#: builtin read as a value is another object in Python, or none.
BUILTIN_NAMES = frozenset(_PY_BUILTIN_MAP) | {"list", "print"}

#: A text :func:`interpreter_only` answers for holds ``while`` or one
#: of :data:`ENGINE_NAME_MARKS`, or its Python translation loads one of
#: these names.
REFUSABLE_NAMES = BUILTIN_NAMES | {"self", "_asl_attr", "_asl_append"}

#: Every name of the compiled engine's own globals holds one of these:
#: the send callback ``_send`` and the prelude's ``_asl_*`` helpers.
ENGINE_NAME_MARKS = ("_send", "_asl_")


def is_engine_name(name: str) -> bool:
    """True for ``_send`` and every ``_asl_*`` name: compiled actions
    resolve them as globals, so a variable so named shadows them there,
    while the interpreter has no such names."""
    return name == "_send" or name.startswith("_asl_")


def _variable_reason(name: str) -> Optional[str]:
    """Why a variable named ``name`` runs only on the interpreter."""
    if name in BUILTIN_NAMES:
        return f"uses builtin name {name!r} as a variable"
    if is_engine_name(name):
        return f"uses engine name {name!r} as a variable"
    return None


def interpreter_only(tree: asl.Node) -> Optional[str]:
    """The first construct in the ASL ``tree`` (in source order) that
    its Python translation, run as a free-standing action, would run
    differently from the interpreter, or None.  The answer completes
    a sentence about the text:

    * ``"calls operation 'f'"``: a call of a bare name that is no ASL
      builtin is emitted as a method call on ``self``, so it runs only
      where the generated code has a receiver;
    * ``"calls method 'get'"``: ``obj.name(...)`` is emitted through
      ``_asl_attr``, which reads a dict's *item* ``name`` where the
      interpreter calls the dict's method;
    * ``"uses builtin name 'len' as a variable"``: reading, assigning
      or looping over a name in :data:`BUILTIN_NAMES`;
    * ``"uses engine name '_send' as a variable"``: the same for
      ``_send`` or an ``_asl_*`` name (:func:`is_engine_name`);
    * ``"has a while loop"``, ``"appends in a for loop"``: a loop whose
      trip count is not fixed when it starts (``append`` may grow the
      list a ``for`` walks).  Python runs it without the interpreter's
      step bound, so a runaway loop hangs instead of raising.
    """
    pending: list = [(tree, False)]  # (node, inside a for body)
    while pending:
        node, in_for = pending.pop()
        if isinstance(node, tuple):
            pending.extend((item, in_for) for item in reversed(node))
            continue
        if not isinstance(node, asl.Node):
            continue  # a field that is no node: an operator, a literal
        if isinstance(node, asl.While):
            return "has a while loop"
        if isinstance(node, asl.Call):
            callee = node.callee
            if isinstance(callee, asl.Attribute):
                return f"calls method {callee.name!r}"
            if isinstance(callee, asl.Name):
                if callee.identifier not in _PY_BUILTIN_MAP:
                    return f"calls operation {callee.identifier!r}"
                if in_for and callee.identifier == "append":
                    return "appends in a for loop"
                # a builtin's name as the callee is no variable
                pending.append((node.arguments, in_for))
                continue
        elif isinstance(node, asl.Name):
            reason = _variable_reason(node.identifier)
            if reason is not None:
                return reason
        elif isinstance(node, asl.For):
            reason = _variable_reason(node.variable)
            if reason is not None:
                return reason
            pending.append((node.body, True))
            pending.append((node.iterable, in_for))
            continue
        # the dataclass fields, first field on top: source order
        pending.extend((field, in_for)
                       for field in reversed(list(vars(node).values())))
    return None


#: Attribute-access helper injected alongside the prelude.
PYTHON_ATTR_HELPER = '''\
def _asl_attr(obj, name):
    if isinstance(obj, dict):
        return obj[name]
    return getattr(obj, name)
'''


def to_python_statements(source: Union[str, asl.Program], self_names: set,
                         send_call: str = "self._send") -> List[str]:
    """Translate an ASL statement block (text or parsed) to Python
    source lines."""
    program = source if isinstance(source, asl.Program) \
        else asl.parse(source)
    lines: List[str] = []
    _py_block(program.body, lines, 0, self_names, send_call)
    return lines or ["pass"]


def _py_block(statements, lines: List[str], level: int, self_names: set,
              send_call: str) -> None:
    pad = "    " * level
    if not statements:
        lines.append(pad + "pass")
        return
    for statement in statements:
        if isinstance(statement, asl.Assign):
            target = _py_assign_target(statement.target, self_names)
            lines.append(f"{pad}{target} = "
                         f"{_py_expr(statement.value, self_names)}")
        elif isinstance(statement, asl.ExprStmt):
            lines.append(pad + _py_expr(statement.expression, self_names))
        elif isinstance(statement, asl.If):
            lines.append(f"{pad}if "
                         f"{_py_expr(statement.condition, self_names)}:")
            _py_block(statement.then_body, lines, level + 1, self_names,
                      send_call)
            if statement.else_body:
                lines.append(f"{pad}else:")
                _py_block(statement.else_body, lines, level + 1,
                          self_names, send_call)
        elif isinstance(statement, asl.While):
            lines.append(f"{pad}while "
                         f"{_py_expr(statement.condition, self_names)}:")
            _py_block(statement.body, lines, level + 1, self_names,
                      send_call)
        elif isinstance(statement, asl.For):
            variable = statement.variable
            lines.append(f"{pad}for {variable} in "
                         f"{_py_expr(statement.iterable, self_names)}:")
            inner_names = self_names - {variable}
            _py_block(statement.body, lines, level + 1, inner_names,
                      send_call)
        elif isinstance(statement, asl.Return):
            if statement.value is None:
                lines.append(pad + "return None")
            else:
                lines.append(f"{pad}return "
                             f"{_py_expr(statement.value, self_names)}")
        elif isinstance(statement, asl.Break):
            lines.append(pad + "break")
        elif isinstance(statement, asl.Continue):
            lines.append(pad + "continue")
        elif isinstance(statement, asl.Send):
            arguments = ", ".join(
                f"{key}={_py_expr(value, self_names)}"
                for key, value in statement.arguments)
            target = "None" if statement.target is None \
                else _py_expr(statement.target, self_names)
            call_args = f"{statement.signal!r}, {target}"
            if arguments:
                call_args += f", {arguments}"
            lines.append(f"{pad}{send_call}({call_args})")
        else:
            raise CodegenError(
                f"cannot translate {type(statement).__name__} to Python")


def _py_assign_target(target: asl.Expr, self_names: set) -> str:
    if isinstance(target, asl.Name):
        if target.identifier in self_names:
            return f"self.{target.identifier}"
        return target.identifier
    if isinstance(target, asl.Attribute):
        base = _py_expr(target.target, self_names)
        return f"{base}[{target.name!r}]"  # ASL attr-assign targets dicts
    if isinstance(target, asl.Index):
        return (f"{_py_expr(target.target, self_names)}"
                f"[{_py_expr(target.key, self_names)}]")
    raise CodegenError("invalid assignment target")


# ---------------------------------------------------------------------------
# C-family / HDL expressions (synthesizable subset)
# ---------------------------------------------------------------------------

_C_BINARY = {
    "and": "&&", "or": "||", "==": "==", "!=": "!=", "<": "<", "<=": "<=",
    ">": ">", ">=": ">=", "+": "+", "-": "-", "*": "*", "/": "/",
    "%": "%",
}

_VHDL_BINARY = {
    "and": "and", "or": "or", "==": "=", "!=": "/=", "<": "<", "<=": "<=",
    ">": ">", ">=": ">=", "+": "+", "-": "-", "*": "*", "/": "/",
    "%": "mod",
}


def _subset_expr(expr: asl.Expr, binary: Dict[str, str],
                 rename: Callable[[str], str],
                 not_op: str, event_prefix: str) -> str:
    if isinstance(expr, asl.Literal):
        value = expr.value
        if value is True:
            return "true" if not_op == "not" else "true"
        if value is False:
            return "false"
        if isinstance(value, (int, float)):
            return str(value)
        raise Untranslatable(f"literal {value!r} is not synthesizable")
    if isinstance(expr, asl.Name):
        return rename(expr.identifier)
    if isinstance(expr, asl.Attribute):
        if isinstance(expr.target, asl.Name) \
                and expr.target.identifier == "event":
            return rename(f"{event_prefix}{expr.name}")
        raise Untranslatable("attribute access is not synthesizable")
    if isinstance(expr, asl.Unary):
        operand = _subset_expr(expr.operand, binary, rename, not_op,
                               event_prefix)
        if expr.op == "not":
            return f"({not_op} {operand})"
        return f"(-{operand})"
    if isinstance(expr, asl.Binary):
        if expr.op == "in":
            raise Untranslatable("'in' is not synthesizable")
        left = _subset_expr(expr.left, binary, rename, not_op, event_prefix)
        right = _subset_expr(expr.right, binary, rename, not_op,
                             event_prefix)
        return f"({left} {binary[expr.op]} {right})"
    raise Untranslatable(
        f"{type(expr).__name__} is outside the synthesizable subset")


def to_c_expression(source: str,
                    rename: Callable[[str], str] = lambda n: n) -> str:
    """Translate an ASL expression to C/SystemC (synthesizable subset)."""
    expr = asl.parse_expression(source)
    return _subset_expr(expr, _C_BINARY, rename, "!", "ev_")


def to_vhdl_expression(source: str,
                       rename: Callable[[str], str] = lambda n: n) -> str:
    """Translate an ASL expression to VHDL (synthesizable subset)."""
    expr = asl.parse_expression(source)
    return _subset_expr(expr, _VHDL_BINARY, rename, "not", "ev_")


def to_verilog_expression(source: str,
                          rename: Callable[[str], str] = lambda n: n) -> str:
    """Translate an ASL expression to Verilog (synthesizable subset)."""
    expr = asl.parse_expression(source)
    return _subset_expr(expr, _C_BINARY, rename, "!", "ev_")


def simple_int_assignments(source: str) -> Optional[List[tuple]]:
    """Extract ``name = <int expr>`` assignments from an effect.

    Returns ``[(name, asl expr)]`` when the whole effect consists only
    of plain-name integer-expression assignments and ``send``
    statements (sends are returned separately by ``collect_sends``);
    None when anything else appears — the HDL backends then emit the
    effect as a comment.
    """
    try:
        program = asl.parse(source)
    except Exception:
        return None
    out: List[tuple] = []
    for statement in program.body:
        if isinstance(statement, asl.Send):
            continue
        if isinstance(statement, asl.Assign) \
                and isinstance(statement.target, asl.Name):
            out.append((statement.target.identifier, statement.value))
            continue
        return None
    return out
