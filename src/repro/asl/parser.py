"""Recursive-descent parser for the Action Specification Language.

Grammar (EBNF, ``{}`` = repetition, ``[]`` = optional)::

    program     = { statement } ;
    statement   = assign | exprstmt | if | while | for
                | return | break | continue | send | "var" assign ;
    assign      = postfix "=" expression ";" ;
    if          = "if" "(" expression ")" block
                  { "elif" "(" expression ")" block }
                  [ "else" block ] ;
    while       = "while" "(" expression ")" block ;
    for         = "for" NAME "in" expression block ;
    send        = "send" NAME "(" [ NAME "=" expression
                  { "," NAME "=" expression } ] ")" [ "to" expression ] ";" ;
    block       = "{" { statement } "}" ;
    expression  = or ;  or = and {"or" and} ; and = cmp {"and" cmp} ;
    cmp         = add [ ("=="|"!="|"<"|"<="|">"|">="|"in") add ] ;
    add         = mul { ("+"|"-") mul } ;  mul = unary { ("*"|"/"|"%") unary } ;
    unary       = ("-"|"not") unary | postfix ;
    postfix     = primary { "." NAME | "[" expression "]"
                          | "(" [ expression {"," expression} ] ")" } ;
    primary     = INT | FLOAT | STRING | "true" | "false" | "null"
                | NAME | "(" expression ")" | "[" [ expr {"," expr} ] "]" ;

Parse caching: every caller of :func:`parse` and :func:`parse_expression`
-- the interpreter, the model compiler, the code generators and the
validators -- shares one bounded LRU per entry point, keyed on the
source text.  ASTs are frozen dataclasses over tuples, so handing one
tree to every caller is safe.  Only successful parses are kept: a text
with a syntax error is parsed (and raises) again on every call.  Each
miss, failed or not, counts ``asl.parses`` in :data:`repro.perf.PERF`;
a hit counts nothing, so the interpreter's hot path stays one dict
lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..errors import AslSyntaxError
from ..perf import PERF
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
from .lexer import Token, tokenize


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0

    # -- token plumbing ---------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def error(self, message: str) -> AslSyntaxError:
        token = self.current
        return AslSyntaxError(message, token.line, token.column)

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.position += 1
        return token

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.current
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.check(kind, text):
            wanted = text or kind
            raise self.error(
                f"expected {wanted!r}, found {self.current.text or 'end of input'!r}"
            )
        return self.advance()

    # -- statements ---------------------------------------------------------

    def parse_program(self) -> Program:
        body: List[Stmt] = []
        while not self.check("eof"):
            body.append(self.parse_statement())
        return Program(tuple(body))

    def parse_block(self) -> Tuple[Stmt, ...]:
        self.expect("op", "{")
        body: List[Stmt] = []
        while not self.check("op", "}"):
            if self.check("eof"):
                raise self.error("unterminated block: missing '}'")
            body.append(self.parse_statement())
        self.expect("op", "}")
        return tuple(body)

    def parse_statement(self) -> Stmt:
        if self.accept("keyword", "var"):
            return self._finish_assignment(self.parse_postfix())
        if self.check("keyword", "if"):
            return self.parse_if()
        if self.check("keyword", "while"):
            return self.parse_while()
        if self.check("keyword", "for"):
            return self.parse_for()
        if self.accept("keyword", "return"):
            if self.accept("op", ";"):
                return Return(None)
            value = self.parse_expression()
            self.expect("op", ";")
            return Return(value)
        if self.accept("keyword", "break"):
            self.expect("op", ";")
            return Break()
        if self.accept("keyword", "continue"):
            self.expect("op", ";")
            return Continue()
        if self.check("keyword", "send"):
            return self.parse_send()
        # assignment or expression statement
        expression = self.parse_expression()
        if self.check("op", "="):
            return self._finish_assignment(expression)
        self.expect("op", ";")
        return ExprStmt(expression)

    def _finish_assignment(self, target: Expr) -> Assign:
        if not isinstance(target, (Name, Attribute, Index)):
            raise self.error("invalid assignment target")
        self.expect("op", "=")
        value = self.parse_expression()
        self.expect("op", ";")
        return Assign(target, value)

    def parse_if(self) -> If:
        self.expect("keyword", "if")
        self.expect("op", "(")
        condition = self.parse_expression()
        self.expect("op", ")")
        then_body = self.parse_block()
        else_body: Tuple[Stmt, ...] = ()
        if self.check("keyword", "elif"):
            # desugar: elif chain becomes a nested If in the else branch
            self.tokens[self.position] = Token(
                "keyword", "if", self.current.line, self.current.column)
            else_body = (self.parse_if(),)
        elif self.accept("keyword", "else"):
            else_body = self.parse_block()
        return If(condition, then_body, else_body)

    def parse_while(self) -> While:
        self.expect("keyword", "while")
        self.expect("op", "(")
        condition = self.parse_expression()
        self.expect("op", ")")
        return While(condition, self.parse_block())

    def parse_for(self) -> For:
        self.expect("keyword", "for")
        variable = self.expect("name").text
        self.expect("keyword", "in")
        iterable = self.parse_expression()
        return For(variable, iterable, self.parse_block())

    def parse_send(self) -> Send:
        self.expect("keyword", "send")
        signal = self.expect("name").text
        self.expect("op", "(")
        arguments: List[Tuple[str, Expr]] = []
        if not self.check("op", ")"):
            while True:
                key = self.expect("name").text
                self.expect("op", "=")
                arguments.append((key, self.parse_expression()))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        target: Optional[Expr] = None
        if self.accept("keyword", "to"):
            target = self.parse_expression()
        self.expect("op", ";")
        return Send(signal, tuple(arguments), target)

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept("keyword", "or"):
            left = Binary("or", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_comparison()
        while self.accept("keyword", "and"):
            left = Binary("and", left, self.parse_comparison())
        return left

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.check("op", op):
                self.advance()
                return Binary(op, left, self.parse_additive())
        if self.accept("keyword", "in"):
            return Binary("in", left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.check("op", "+") or self.check("op", "-"):
            op = self.advance().text
            left = Binary(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.check("op", "*") or self.check("op", "/") \
                or self.check("op", "%"):
            op = self.advance().text
            left = Binary(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.accept("op", "-"):
            return Unary("-", self.parse_unary())
        if self.accept("keyword", "not"):
            return Unary("not", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expression = self.parse_primary()
        while True:
            if self.accept("op", "."):
                name = self.expect("name").text
                expression = Attribute(expression, name)
            elif self.accept("op", "["):
                key = self.parse_expression()
                self.expect("op", "]")
                expression = Index(expression, key)
            elif self.accept("op", "("):
                arguments: List[Expr] = []
                if not self.check("op", ")"):
                    while True:
                        arguments.append(self.parse_expression())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                expression = Call(expression, tuple(arguments))
            else:
                return expression

    def parse_primary(self) -> Expr:
        token = self.current
        if token.kind == "int":
            self.advance()
            return Literal(int(token.text))
        if token.kind == "float":
            self.advance()
            return Literal(float(token.text))
        if token.kind == "string":
            self.advance()
            return Literal(token.text)
        if self.accept("keyword", "true"):
            return Literal(True)
        if self.accept("keyword", "false"):
            return Literal(False)
        if self.accept("keyword", "null"):
            return Literal(None)
        if token.kind == "name":
            self.advance()
            return Name(token.text)
        if self.accept("op", "("):
            inner = self.parse_expression()
            self.expect("op", ")")
            return inner
        if self.accept("op", "["):
            items: List[Expr] = []
            if not self.check("op", "]"):
                while True:
                    items.append(self.parse_expression())
                    if not self.accept("op", ","):
                        break
            self.expect("op", "]")
            return ListLiteral(tuple(items))
        if self.accept("op", "{"):
            pairs: List = []
            if not self.check("op", "}"):
                while True:
                    key = self.parse_expression()
                    self.expect("op", ":")
                    pairs.append((key, self.parse_expression()))
                    if not self.accept("op", ","):
                        break
            self.expect("op", "}")
            return DictLiteral(tuple(pairs))
        raise self.error(f"unexpected token {token.text or 'end of input'!r}")


_MAX_CACHED_PROGRAMS = 4096
_program_cache: "OrderedDict[str, Program]" = OrderedDict()
_expression_cache: "OrderedDict[str, Expr]" = OrderedDict()


def _remember(cache: OrderedDict, source: str, tree) -> None:
    cache[source] = tree
    if len(cache) > _MAX_CACHED_PROGRAMS:
        cache.popitem(last=False)


def parse(source: str) -> Program:
    """Parse ASL statements into a :class:`Program` (cached per text)."""
    hit = _program_cache.get(source)
    if hit is not None:
        _program_cache.move_to_end(source)
        return hit
    PERF.incr("asl.parses")
    program = _Parser(tokenize(source)).parse_program()
    _remember(_program_cache, source, program)
    return program


def parse_expression(source: str) -> Expr:
    """Parse a single ASL expression, which must consume all input
    (cached per text)."""
    hit = _expression_cache.get(source)
    if hit is not None:
        _expression_cache.move_to_end(source)
        return hit
    PERF.incr("asl.parses")
    parser = _Parser(tokenize(source))
    expression = parser.parse_expression()
    parser.expect("eof")
    _remember(_expression_cache, source, expression)
    return expression


def clear_caches() -> None:
    """Drop the memoized parse results (mainly for benchmarks)."""
    _program_cache.clear()
    _expression_cache.clear()
