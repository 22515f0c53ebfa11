"""Tokenizer for the Action Specification Language.

A conventional hand-written scanner: single pass, tracks line/column
for error messages, supports ``//`` line comments and ``/* */`` block
comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..errors import AslSyntaxError

KEYWORDS = frozenset({
    "if", "else", "elif", "while", "for", "in", "return", "break",
    "continue", "send", "to", "and", "or", "not", "true", "false", "null",
    "var",
})

#: Multi-character operators, longest first so scanning is greedy.
_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_ONE_CHAR_OPS = "+-*/%<>=()[]{},.;:"
#: The digits of a number: ASCII only.  ``str.isdigit`` also takes
#: ``²``, which ``int()`` refuses, and other scripts' digits.
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class Token:
    """A lexical token with its source position (1-based)."""

    kind: str       # 'int' | 'float' | 'string' | 'name' | 'keyword' | 'op' | 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def tokenize(source: str) -> List[Token]:
    """Scan ASL source into a token list (ending with an ``eof`` token)."""
    tokens: List[Token] = []
    index, line, column = 0, 1, 1
    length = len(source)

    def error(message: str) -> AslSyntaxError:
        return AslSyntaxError(message, line, column)

    while index < length:
        char = source[index]

        if char == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue

        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end < 0:
                raise error("unterminated block comment")
            for skipped in source[index:end + 2]:
                if skipped == "\n":
                    line += 1
                    column = 1
                else:
                    column += 1
            index = end + 2
            continue

        start_line, start_column = line, column

        if char in _DIGITS:
            end = index
            while end < length and source[end] in _DIGITS:
                end += 1
            is_float = False
            if end < length and source[end] == "." and end + 1 < length \
                    and source[end + 1] in _DIGITS:
                is_float = True
                end += 1
                while end < length and source[end] in _DIGITS:
                    end += 1
            text = source[index:end]
            tokens.append(Token("float" if is_float else "int", text,
                                start_line, start_column))
            column += end - index
            index = end
            continue

        if char.isalpha() or char == "_":
            end = index
            while end < length and (source[end].isalnum() or source[end] == "_"):
                end += 1
            text = source[index:end]
            kind = "keyword" if text in KEYWORDS else "name"
            tokens.append(Token(kind, text, start_line, start_column))
            column += end - index
            index = end
            continue

        if char == '"':
            end = index + 1
            parts: List[str] = []
            while True:
                if end >= length:
                    raise error("unterminated string literal")
                current = source[end]
                if current == "\n":
                    raise error("newline inside string literal")
                if current == "\\":
                    if end + 1 >= length:
                        raise error("dangling escape in string literal")
                    escape = source[end + 1]
                    mapped = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(escape)
                    if mapped is None:
                        raise error(f"unknown escape \\{escape}")
                    parts.append(mapped)
                    end += 2
                    continue
                if current == '"':
                    end += 1
                    break
                parts.append(current)
                end += 1
            tokens.append(Token("string", "".join(parts),
                                start_line, start_column))
            column += end - index
            index = end
            continue

        matched_two = next((op for op in _TWO_CHAR_OPS
                            if source.startswith(op, index)), None)
        if matched_two is not None:
            tokens.append(Token("op", matched_two, start_line, start_column))
            index += 2
            column += 2
            continue

        if char in _ONE_CHAR_OPS:
            tokens.append(Token("op", char, start_line, start_column))
            index += 1
            column += 1
            continue

        raise error(f"unexpected character {char!r}")

    tokens.append(Token("eof", "", line, column))
    return tokens
