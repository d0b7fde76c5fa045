"""Token definitions and the lexer for TinyC.

:func:`tokenize` scans the whole text with one compiled regular
expression, :data:`_SCANNER`, whose alternatives are the token classes
in priority order: the regex engine walks the characters, and Python
runs once per token or run of trivia.  Tokens carry their line and
column so later phases can produce positioned diagnostics.  A
per-character scanner, ``tests/reference_lexer.py``, is the test
oracle: ``tests/test_lexer_differential.py`` pins the two to the same
tokens and the same errors.
"""

import re

from repro.lang.errors import LexError

# Token kinds.  Keywords get their own kind so the parser can match on
# ``kind`` alone.
KEYWORDS = frozenset(
    [
        "int",
        "void",
        "ref",
        "fnptr",
        "if",
        "else",
        "while",
        "return",
        "print",
        "input",
        "exit",
    ]
)

# Multi-character operators must be listed before their prefixes.
OPERATORS = [
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "(",
    ")",
    "{",
    "}",
    ",",
    ";",
    "&",
]


class Token(object):
    """A single lexical token.

    ``kind`` is one of: a keyword string, an operator string, ``"ident"``,
    ``"num"``, ``"string"``, or ``"eof"``.  ``value`` holds the identifier
    name, the integer value, or the string contents.
    """

    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%r, %r, %d:%d)" % (self.kind, self.value, self.line, self.col)

    def __eq__(self, other):
        if not isinstance(other, Token):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, self.value))


# The whole scanner is one compiled pattern.  Its alternatives are
# tried in order at each position: trivia and comments first, with
# ``/*`` before the ``/`` operator (an unterminated block comment is
# reported at its opener); then numbers, words, string literals (one
# that does not close properly is reported at its opening quote) and
# operators (OPERATORS lists each before its prefixes); last, any
# other character, which is an error.  The character classes are
# spelled out in ASCII because ``\s``, ``\d`` and ``\w`` also accept
# Unicode whitespace, digits and letters that TinyC rejects.
_SCANNER = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*[\s\S]*?\*/)
    | (?P<open_comment>/\*)
    | (?P<num>[0-9]+)
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?P<body>(?:[^"\\]|\\[nt\\"])*)")
    | (?P<bad_string>"(?:[^"\\]|\\[nt\\"])*(?P<bad_escape>\\[\s\S]?)?)
    | (?P<op>%s)
    | (?P<other>[\s\S])
    """
    % "|".join(re.escape(op) for op in OPERATORS),
    re.VERBOSE,
)

# Operator tokens take their kind from OPERATORS itself, so every ``==``
# of a program is one string object: pickle memoizes strings by
# identity, so this keeps the pickled AST (a ``Bin``'s ``op`` is its
# token's kind) as small as it has always been.
_OPERATOR_KINDS = {op: op for op in OPERATORS}

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}
_ESCAPE = re.compile(r"\\(.)")


def _unescape(match):
    return _ESCAPES[match.group(1)]


def tokenize(source):
    """Lex ``source`` into a token list ending with an ``eof`` token.

    One pass of :data:`_SCANNER` over the text.  Lines and columns count
    from 1, a column is a character offset (a tab is one column) and
    only ``\n`` ends a line.  Raises :class:`LexError` at an
    unterminated block comment's ``/*``, at a bad string literal's
    opening quote, or at an unexpected character.
    """
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _SCANNER.finditer(source):
        group = match.lastgroup
        start = match.start()
        if group == "word":
            name = match.group()
            kind = name if name in KEYWORDS else "ident"
            append(Token(kind, name, line, start - line_start + 1))
            continue
        if group == "op":
            op = _OPERATOR_KINDS[match.group()]
            append(Token(op, op, line, start - line_start + 1))
            continue
        if group == "num":
            append(Token("num", int(match.group()), line, start - line_start + 1))
            continue
        if group == "string":
            body = match.group("body")
            if "\\" in body:
                body = _ESCAPE.sub(_unescape, body)
            append(Token("string", body, line, start - line_start + 1))
        elif group == "open_comment":
            raise LexError("unterminated block comment", line, start - line_start + 1)
        elif group == "bad_string":
            # The longest well-formed prefix, then the first bad escape
            # (a backslash and what follows it, if anything) or the end.
            escape = match.group("bad_escape")
            message = "bad escape %s" % escape if escape else "unterminated string literal"
            raise LexError(message, line, start - line_start + 1)
        elif group == "other":
            raise LexError(
                "unexpected character %r" % match.group(), line, start - line_start + 1
            )
        # Trivia, comments and string literals are what may span lines.
        text = match.group()
        breaks = text.count("\n")
        if breaks:
            line += breaks
            line_start = start + text.rindex("\n") + 1
    append(Token("eof", None, line, len(source) - line_start + 1))
    return tokens
