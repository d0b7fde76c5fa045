"""The per-character TinyC scanner, kept as the test oracle for
:func:`repro.lang.tokens.tokenize`.

This is the lexer the front end ran before the one-regex scanner: it
walks the text one character at a time, tracking line and column as it
goes.  ``tests/test_lexer_differential.py`` checks that the runtime
scanner returns the same tokens (kind, value, line, column) and raises
the same :class:`LexError` (message, line, column) on every input it
tries, as ``pds/reference.py`` is kept for the saturation kernel.
"""

from repro.lang.errors import LexError
from repro.lang.tokens import KEYWORDS, OPERATORS, Token


class Lexer(object):
    """Scans TinyC source text into a list of tokens.

    Supports ``//`` line comments and ``/* ... */`` block comments.
    String literals (used only as ``print`` format strings) support the
    escapes ``\\n``, ``\\t``, ``\\\\`` and ``\\"``.
    """

    def __init__(self, source):
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def _peek(self, offset=0):
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def _advance(self):
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _skip_trivia(self):
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance()
                self._advance()
                while True:
                    if self.pos >= len(self.source):
                        raise LexError("unterminated block comment", start_line, start_col)
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
            else:
                return

    def _lex_string(self):
        line, col = self.line, self.col
        self._advance()  # opening quote
        chars = []
        while True:
            if self.pos >= len(self.source):
                raise LexError("unterminated string literal", line, col)
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\\":
                esc = self._advance() if self.pos < len(self.source) else ""
                mapping = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}
                if esc not in mapping:
                    raise LexError("bad escape \\%s" % esc, line, col)
                chars.append(mapping[esc])
            else:
                chars.append(ch)
        return Token("string", "".join(chars), line, col)

    def tokens(self):
        """Return the full token list, ending with an ``eof`` token."""
        result = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                result.append(Token("eof", None, self.line, self.col))
                return result
            ch = self._peek()
            line, col = self.line, self.col
            # ASCII-only classes: unicode "digits" like '¹' satisfy
            # str.isdigit() but are not valid int() literals.
            if ch in "0123456789":
                start = self.pos
                while self.pos < len(self.source) and self._peek() in "0123456789":
                    self._advance()
                result.append(Token("num", int(self.source[start : self.pos]), line, col))
            elif ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ch == "_":
                start = self.pos
                while self.pos < len(self.source) and (
                    ("a" <= self._peek() <= "z")
                    or ("A" <= self._peek() <= "Z")
                    or self._peek() in "0123456789_"
                ):
                    self._advance()
                name = self.source[start : self.pos]
                if name in KEYWORDS:
                    result.append(Token(name, name, line, col))
                else:
                    result.append(Token("ident", name, line, col))
            elif ch == '"':
                result.append(self._lex_string())
            else:
                for op in OPERATORS:
                    if self.source.startswith(op, self.pos):
                        for _ in op:
                            self._advance()
                        result.append(Token(op, op, line, col))
                        break
                else:
                    raise LexError("unexpected character %r" % ch, line, col)


def reference_tokenize(source):
    """Lex ``source`` with the per-character scanner."""
    return Lexer(source).tokens()
