"""ASL-to-target-language transpilers.

The Python transpiler translates every ASL construct (integer
division and ``send`` routing through a callback included) in one of
two scopes: a method of a generated class, whose variables are
attributes of ``self`` (:func:`to_python_statements`), or a function
of the compiled engine, whose variables are items of a scope dict
(:func:`to_python_function`).  The function scope is the one place
that decides the ASL half of the compilable subset: while it renders
a guard or an action, it raises :class:`Untranslatable` at the first
construct that the function would run differently from the
interpreter.  The generated-class scope refuses nothing.

The expression transpilers for C-family targets (SystemC) and the HDLs
translate the integer/boolean expression subset RTL can synthesize and
raise :class:`Untranslatable` for the rest; backends catch that and
emit an explanatory comment instead of broken code.

The module sits beside the parser it translates from, so the compiled
engine reaches it without loading a code generator; the backends of
:mod:`repro.codegen` import it from here.
"""

from __future__ import annotations

import keyword
from typing import Callable, Dict, List, Optional, Set, Union

from .. import asl
from ..errors import CodegenError

#: Names every action binds afresh: the interpreter's environment never
#: copies them back, and a compiled function takes them as parameters.
ACTION_NAMES = ("event", "event_name", "now")


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


#: Every name the interpreter resolves as a builtin, plus ``list``,
#: which ``range`` is emitted with.  Python code resolves them as
#: globals, so a variable of one of these names shadows the builtin
#: there, while the interpreter keeps calls apart from values; and a
#: builtin read as a value is another object in Python, or none.
BUILTIN_NAMES = frozenset(_PY_BUILTIN_MAP) | {"list", "print"}


class _Scope:
    """Where the Python emitter puts ASL variables, and what it refuses.

    In a method of a generated class (``function`` false) a name in
    ``self_names`` is the attribute ``self.<name>``, any other name
    stays bare, ``send`` calls ``self._send``, and nothing is refused.
    In a compiled function every variable is an item of the scope dict
    ``_c``, :data:`ACTION_NAMES` are parameters, ``event.f`` is
    ``event['f']``, ``send`` calls the parameter ``_send``, and the
    emitter raises at the first construct that the function would run
    differently from the interpreter (:func:`to_python_function`).
    ``for_depth`` counts the ``for`` bodies being rendered.
    """

    __slots__ = ("self_names", "function", "send_call", "for_depth")

    def __init__(self, self_names: Set[str] = frozenset(),
                 function: bool = False):
        self.self_names = self_names
        self.function = function
        self.send_call = "_send" if function else "self._send"
        self.for_depth = 0

    def variable(self, name: str, bound: bool = False) -> str:
        """The Python of the variable ``name``: read, or ``bound`` (by
        an assignment or a loop, or assigned through: ``name.f = v``)."""
        if not self.function:
            return f"self.{name}" if name in self.self_names else name
        if name in ACTION_NAMES:
            if bound:
                raise Untranslatable(f"assigns {name!r}")
            if name == "event":
                raise Untranslatable("uses 'event' as a value")
            return name
        if name in BUILTIN_NAMES:
            raise Untranslatable(f"uses builtin name {name!r} as a variable")
        if not name.isidentifier() or keyword.iskeyword(name):
            raise CodegenError(f"variable {name!r} is no Python name")
        return f"_c[{name!r}]"


def to_python_expression(expr: asl.Expr, self_names: Optional[set] = None
                         ) -> str:
    """Translate an ASL expression to Python source.

    ``self_names`` maps bare variable reads onto ``self.<name>`` —
    used when generating methods whose context variables are instance
    attributes.
    """
    return _py_expr(expr, _Scope(self_names or set()))


def to_python_function(tree: asl.Node) -> str:
    """The source of ``def _asl_fn(_c, event, event_name, now, _send)``,
    which runs a parsed guard (an expression, whose value it returns)
    or action (a :class:`~repro.asl.Program`) on the scope dict ``_c``
    as the interpreter runs it.

    Raises :class:`Untranslatable` at the first construct, in source
    order, that the function would run differently from the
    interpreter.  The message completes a sentence about the text:

    * ``"calls operation 'f'"``: a call of a bare name that is no ASL
      builtin is emitted as a method call on ``self``, so it runs only
      where the generated code has a receiver;
    * ``"calls method 'get'"``: ``obj.name(...)`` is emitted through
      ``_asl_attr``, which reads a dict's *item* ``name`` where the
      interpreter calls the dict's method;
    * ``"uses builtin name 'len' as a variable"``: reading, assigning
      or looping over a name in :data:`BUILTIN_NAMES`: the interpreter
      reads ``x = pop;`` as its builtin, where the function reads the
      missing variable, and in a generated class the variable would
      shadow the global;
    * ``"has a while loop"``, ``"appends in a for loop"``: a loop whose
      trip count is not fixed when it starts (``append`` may grow the
      list a ``for`` walks).  Python runs it without the interpreter's
      step bound, so a runaway loop hangs instead of raising;
    * ``"assigns 'now'"``, ``"uses 'event' as a value"``: binding a
      name of :data:`ACTION_NAMES` or assigning through it, or
      ``event`` other than in ``event.f`` or ``event[k]``: generated
      Python shares them across one step (``now`` is its clock).

    Raises :class:`CodegenError` for what a function body would run
    but the subset leaves out: a ``return`` in an action and a
    variable Python cannot spell (``x²``, ``class``).
    """
    scope = _Scope(function=True)
    lines = ["def _asl_fn(_c, event, event_name, now, _send):"]
    if isinstance(tree, asl.Program):
        _py_block(tree.body, lines, 1, scope)
    else:
        lines.append(f"    return {_py_expr(tree, scope)}")
    return "\n".join(lines)


def _reads_event_field(expr: asl.Expr, scope: _Scope) -> bool:
    """``expr`` is ``event.f`` or ``event[k]`` in a compiled function,
    which reads one field of the parameter dict ``event``."""
    target = expr.target
    return scope.function and isinstance(target, asl.Name) \
        and target.identifier == "event"


def _py_expr(expr: asl.Expr, scope: _Scope) -> str:
    if isinstance(expr, asl.Literal):
        return repr(expr.value)
    if isinstance(expr, asl.Name):
        return scope.variable(expr.identifier)
    if isinstance(expr, asl.Attribute):
        if _reads_event_field(expr, scope):
            return f"event[{expr.name!r}]"
        # dict-style objects dominate ASL usage; getattr-with-dict-fallback
        return f"_asl_attr({_py_expr(expr.target, scope)}, {expr.name!r})"
    if isinstance(expr, asl.Index):
        target = "event" if _reads_event_field(expr, scope) \
            else _py_expr(expr.target, scope)
        return f"{target}[{_py_expr(expr.key, scope)}]"
    if isinstance(expr, asl.ListLiteral):
        return "[" + ", ".join(_py_expr(i, scope) for i in expr.items) + "]"
    if isinstance(expr, asl.DictLiteral):
        pairs = ", ".join(f"{_py_expr(k, scope)}: {_py_expr(v, scope)}"
                          for k, v in expr.items)
        return "{" + pairs + "}"
    if isinstance(expr, asl.Unary):
        operand = _py_expr(expr.operand, scope)
        return f"(not {operand})" if expr.op == "not" else f"(-{operand})"
    if isinstance(expr, asl.Binary):
        left = _py_expr(expr.left, scope)
        right = _py_expr(expr.right, scope)
        if expr.op == "/":
            return f"_asl_div({left}, {right})"
        return f"({left} {_PY_BINARY[expr.op]} {right})"
    if isinstance(expr, asl.Call):
        return _py_call(expr, scope)
    raise CodegenError(f"cannot translate {type(expr).__name__} to Python")


def _py_call(expr: asl.Call, scope: _Scope) -> str:
    # the callee before the arguments: source order
    callee = expr.callee
    if isinstance(callee, asl.Name):
        name = callee.identifier
        mapped = _PY_BUILTIN_MAP.get(name)
        if scope.function:
            if mapped is None:
                raise Untranslatable(f"calls operation {name!r}")
            if name == "append" and scope.for_depth:
                raise Untranslatable("appends in a for loop")
        # a builtin's name as the callee is no variable
        function = f"self.{name}" if mapped is None else mapped
    elif isinstance(callee, asl.Attribute) and scope.function:
        raise Untranslatable(f"calls method {callee.name!r}")
    else:
        function = _py_expr(callee, scope)
    args = ", ".join(_py_expr(a, scope) for a in expr.arguments)
    if function == "list(range":
        return f"list(range({args}))"
    return f"{function}({args})"


#: Attribute-access helper injected alongside the prelude.
PYTHON_ATTR_HELPER = '''\
def _asl_attr(obj, name):
    if isinstance(obj, dict):
        return obj[name]
    return getattr(obj, name)
'''


def to_python_statements(source: Union[str, asl.Program], self_names: set
                         ) -> List[str]:
    """Translate an ASL statement block (text or parsed) to the Python
    source lines of a generated method (see :func:`to_python_expression`
    for ``self_names``)."""
    program = source if isinstance(source, asl.Program) \
        else asl.parse(source)
    lines: List[str] = []
    _py_block(program.body, lines, 0, _Scope(self_names))
    return lines or ["pass"]


def _py_block(statements, lines: List[str], level: int,
              scope: _Scope) -> None:
    pad = "    " * level
    if not statements:
        lines.append(pad + "pass")
        return
    for statement in statements:
        if isinstance(statement, asl.Assign):
            target = _py_assign_target(statement.target, scope)
            lines.append(f"{pad}{target} = "
                         f"{_py_expr(statement.value, scope)}")
        elif isinstance(statement, asl.ExprStmt):
            lines.append(pad + _py_expr(statement.expression, scope))
        elif isinstance(statement, asl.If):
            lines.append(f"{pad}if {_py_expr(statement.condition, scope)}:")
            _py_block(statement.then_body, lines, level + 1, scope)
            if statement.else_body:
                lines.append(f"{pad}else:")
                _py_block(statement.else_body, lines, level + 1, scope)
        elif isinstance(statement, asl.While):
            if scope.function:
                raise Untranslatable("has a while loop")
            lines.append(f"{pad}while "
                         f"{_py_expr(statement.condition, scope)}:")
            _py_block(statement.body, lines, level + 1, scope)
        elif isinstance(statement, asl.For):
            # the loop variable stays bound after the loop, as in ASL
            variable = scope.variable(statement.variable, bound=True)
            lines.append(f"{pad}for {variable} "
                         f"in {_py_expr(statement.iterable, scope)}:")
            scope.for_depth += 1
            _py_block(statement.body, lines, level + 1, scope)
            scope.for_depth -= 1
        elif isinstance(statement, asl.Return):
            if scope.function:
                raise CodegenError("'return' in an action")
            if statement.value is None:
                lines.append(pad + "return None")
            else:
                lines.append(f"{pad}return "
                             f"{_py_expr(statement.value, scope)}")
        elif isinstance(statement, asl.Break):
            lines.append(pad + "break")
        elif isinstance(statement, asl.Continue):
            lines.append(pad + "continue")
        elif isinstance(statement, asl.Send):
            arguments = ", ".join(
                f"{key}={_py_expr(value, scope)}"
                for key, value in statement.arguments)
            target = "None" if statement.target is None \
                else _py_expr(statement.target, scope)
            call_args = f"{statement.signal!r}, {target}"
            if arguments:
                call_args += f", {arguments}"
            lines.append(f"{pad}{scope.send_call}({call_args})")
        else:
            raise CodegenError(
                f"cannot translate {type(statement).__name__} to Python")


def _py_assign_target(target: asl.Expr, scope: _Scope) -> str:
    if isinstance(target, asl.Name):
        return scope.variable(target.identifier, bound=True)
    if isinstance(target, (asl.Attribute, asl.Index)):
        # assigning through a name binds it: ``event.f = v`` changes
        # the event each action copies
        base = target.target
        base = _py_assign_target(base, scope) \
            if isinstance(base, asl.Name) else _py_expr(base, scope)
        if isinstance(target, asl.Attribute):
            return f"{base}[{target.name!r}]"  # ASL attr-assign targets dicts
        return f"{base}[{_py_expr(target.key, scope)}]"
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
