"""Lexer unit tests."""

import sys

import pytest

from repro.lang.errors import LexError
from repro.lang.tokens import Token, tokenize


def kinds(source):
    return [token.kind for token in tokenize(source)]


def test_keywords_and_identifiers():
    tokens = tokenize("int foo while whilex input ref")
    assert [t.kind for t in tokens[:-1]] == [
        "int",
        "ident",
        "while",
        "ident",
        "input",
        "ref",
    ]
    assert tokens[1].value == "foo"
    assert tokens[3].value == "whilex"


def test_numbers():
    tokens = tokenize("0 42 007")
    assert [t.value for t in tokens[:-1]] == [0, 42, 7]
    assert all(t.kind == "num" for t in tokens[:-1])


def test_operators_longest_match():
    assert kinds("== = <= < !=")[:-1] == ["==", "=", "<=", "<", "!="]
    assert kinds("&& &")[:-1] == ["&&", "&"]


def test_line_comment():
    assert kinds("1 // comment here\n2")[:-1] == ["num", "num"]


def test_block_comment():
    assert kinds("1 /* a\nb*c */ 2")[:-1] == ["num", "num"]


def lex_error(source):
    """The ``(message, line, col)`` of the LexError ``source`` raises."""
    with pytest.raises(LexError) as info:
        tokenize(source)
    return (info.value.message, info.value.line, info.value.col)


def test_unterminated_block_comment():
    # Reported at its ``/*``, not where the text runs out.
    assert lex_error("a\nb\n  /* never\nclosed") == (
        "unterminated block comment", 3, 3,
    )
    assert lex_error("/*/") == ("unterminated block comment", 1, 1)


def test_string_literal_with_escapes():
    tokens = tokenize(r'"a\nb\t\"q\\"')
    assert tokens[0].kind == "string"
    assert tokens[0].value == 'a\nb\t"q\\'


def test_unterminated_string():
    # Reported at the opening quote.
    assert lex_error('x = "oops') == ("unterminated string literal", 1, 5)
    assert lex_error('x;\n  "a\\n') == ("unterminated string literal", 2, 3)


def test_bad_escape():
    assert lex_error(r'"\x"') == ("bad escape \\x", 1, 1)
    assert lex_error('y = 1;\nprint("ok\\q");') == ("bad escape \\q", 2, 7)


def test_backslash_at_end_of_input():
    assert lex_error('"abc\\') == ("bad escape \\", 1, 1)


def test_unexpected_character():
    # Only ASCII whitespace, digits and letters are TinyC's.
    assert lex_error("a $ b") == ("unexpected character '$'", 1, 3)
    assert lex_error("x\n é") == ("unexpected character 'é'", 2, 2)
    assert lex_error("1 + ¹") == ("unexpected character '¹'", 1, 5)
    assert lex_error("int\fx") == ("unexpected character '\\x0c'", 1, 4)
    assert lex_error("x = ٣;") == ("unexpected character '٣'", 1, 5)


def test_number_literal_too_long():
    # CPython converts at most 4,300 digits by default; past that the
    # literal is an error at its first digit, not a ValueError.
    limit = sys.get_int_max_str_digits()
    assert tokenize("x = " + "9" * limit)[2].value == int("9" * limit)
    assert lex_error("x;\n  y = " + "1" * (limit + 1)) == (
        "number literal of %d digits is too long" % (limit + 1), 2, 7,
    )


def positions(source):
    return [(t.kind, t.line, t.col) for t in tokenize(source)]


def test_positions():
    tokens = tokenize("a\n  b")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert (tokens[1].line, tokens[1].col) == (2, 3)


def test_positions_after_a_multi_line_block_comment():
    assert positions("a /* one\ntwo\n  three */ b\nc") == [
        ("ident", 1, 1), ("ident", 3, 12), ("ident", 4, 1), ("eof", 4, 2),
    ]


def test_positions_after_a_string_containing_a_newline():
    tokens = tokenize('print("a\nb", x);\ny')
    assert tokens[2].value == "a\nb"
    assert [(t.kind, t.line, t.col) for t in tokens[2:]] == [
        ("string", 1, 7), (",", 2, 3), ("ident", 2, 5), (")", 2, 6),
        (";", 2, 7), ("ident", 3, 1), ("eof", 3, 2),
    ]


def test_positions_with_crlf_line_ends_and_tabs():
    # A tab and a carriage return are one column each; only \n ends a line.
    assert positions("int\tx;\r\n\tx = 1;\r\n") == [
        ("int", 1, 1), ("ident", 1, 5), (";", 1, 6),
        ("ident", 2, 2), ("=", 2, 4), ("num", 2, 6), (";", 2, 7),
        ("eof", 3, 1),
    ]


def test_eof_token_always_present():
    assert tokenize("")[-1].kind == "eof"
    assert tokenize("x")[-1].kind == "eof"


def test_token_equality_and_hash():
    a = Token("num", 3, 1, 1)
    b = Token("num", 3, 9, 9)  # position-insensitive equality
    assert a == b
    assert hash(a) == hash(b)
    assert a != Token("num", 4, 1, 1)
