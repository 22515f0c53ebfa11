"""ASL — the Action Specification Language (subsystem S6).

The paper: ASL "describes notation and semantics for single actions
like operation calls and assignments in UML models and thus closes the
last gap to complete system specification".  This package provides that
action language for the library: a lexer, a recursive-descent parser
producing frozen dataclass ASTs, an unparser (round-trip capable), and
a tree-walking interpreter with pluggable operation-call and
signal-send hooks.  :func:`parse` and :func:`parse_expression` keep the
one parse cache of the process (per source text, successful parses
only); :func:`clear_caches` empties it.

ASL source appears in: operation bodies (``Operation.set_body``), state
machine guards/effects/entry/exit actions, activity node behaviors, and
opaque expressions — and the code generators translate the same ASTs
into VHDL/Verilog/SystemC/Python.
"""

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
    Node,
    Program,
    Return,
    Send,
    Stmt,
    Unary,
    While,
    unparse,
    unparse_expression,
    walk,
)
from .lexer import KEYWORDS, Token, tokenize
from .parser import clear_caches, parse, parse_expression
from .interpreter import (
    Interpreter,
    SentSignal,
    action_error,
    evaluate,
    execute,
    run,
)

__all__ = [
    "Assign", "Attribute", "Binary", "Break", "Call", "Continue", "Expr",
    "DictLiteral", "ExprStmt", "For", "If", "Index", "ListLiteral", "Literal", "Name",
    "Node", "Program", "Return", "Send", "Stmt", "Unary", "While",
    "unparse", "unparse_expression", "walk",
    "KEYWORDS", "Token", "tokenize",
    "parse", "parse_expression",
    "Interpreter", "SentSignal", "action_error", "clear_caches",
    "evaluate", "execute", "run",
]
