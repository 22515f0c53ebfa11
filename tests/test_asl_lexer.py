"""Tests for the ASL tokenizer."""

import pytest

from repro import asl
from repro.errors import AslSyntaxError


def kinds(source):
    return [t.kind for t in asl.tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in asl.tokenize(source)[:-1]]


class TestTokens:
    def test_numbers(self):
        tokens = asl.tokenize("1 23 4.5 0.25")[:-1]
        assert [t.kind for t in tokens] == ["int", "int", "float", "float"]

    def test_integer_followed_by_dot_method(self):
        # '1.' without a digit after must stay an int plus an op
        assert kinds("x = 1.") == ["name", "op", "int", "op"]

    def test_names_and_keywords(self):
        assert kinds("if foo while bar_2") == \
            ["keyword", "name", "keyword", "name"]

    def test_string_escapes(self):
        token = asl.tokenize(r'"a\nb\t\"q\\"')[0]
        assert token.text == 'a\nb\t"q\\'

    def test_unterminated_string(self):
        with pytest.raises(AslSyntaxError):
            asl.tokenize('"abc')

    def test_unknown_escape(self):
        with pytest.raises(AslSyntaxError):
            asl.tokenize(r'"\q"')

    def test_two_char_operators(self):
        assert texts("a == b != c <= d >= e") == \
            ["a", "==", "b", "!=", "c", "<=", "d", ">=", "e"]

    def test_line_comments_skipped(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comments_skipped(self):
        assert texts("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(AslSyntaxError):
            asl.tokenize("/* never closed")

    def test_positions_tracked(self):
        tokens = asl.tokenize("x\n  y")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(AslSyntaxError) as info:
            asl.tokenize("a $ b")
        assert info.value.line == 1

    @pytest.mark.parametrize("source, column", [
        ("x < 10\u00b2", 7),       # a superscript two
        ("x < \u0661\u0662", 5),   # Arabic-Indic one, two
    ], ids=["superscript", "arabic-indic"])
    def test_only_ascii_digits_make_a_number(self, source, column):
        # str.isdigit() takes both; int() would refuse the first, and
        # read the second as 12
        for scan in (asl.tokenize, asl.parse_expression):
            with pytest.raises(AslSyntaxError) as info:
                scan(source)
            assert (info.value.line, info.value.column) == (1, column)
            assert "unexpected character" in str(info.value)

    def test_eof_token_terminates(self):
        tokens = asl.tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_dict_tokens(self):
        assert texts("{1: 2}") == ["{", "1", ":", "2", "}"]
