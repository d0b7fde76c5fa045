"""The one-regex scanner against the per-character oracle.

:func:`repro.lang.tokens.tokenize` must return exactly the tokens the
old scanner (``tests/reference_lexer.py``) returns — kind, value, line
and column — and raise the same :class:`LexError` (message, line,
column) wherever it raises.  The inputs are every program the other
differential suites use (the SDG golden programs, the 26-program
baseline corpus, both revisions of every mutation-corpus edit and
``examples/wc.tc``) plus a hypothesis property over TinyC-like text
mixed with the characters TinyC rejects.

Equal tokens are not quite enough: pickle memoizes strings by identity,
so the pickled AST (what the store writes) depends on which token
kinds are one shared object.  On the golden programs the AST parsed
from the scanner's tokens must pickle to the same bytes as the AST
parsed from the oracle's.
"""

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import pretty
from repro.lang.errors import LexError
from repro.lang.parser import Parser, parse
from repro.lang.tokens import tokenize
from repro.workloads.generator import GenConfig, generate_program
from tests.reference_lexer import reference_tokenize
from tests.test_differential_baselines import N_PROGRAMS
from tests.test_incremental_differential import CORPUS
from tests.test_sdg_golden import golden_sources

WC_EXAMPLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "wc.tc"
)


def stream(lex, text):
    """Every token as ``(kind, value, line, col)``, or the LexError as
    ``("LexError", message, line, col)``."""
    try:
        return [(t.kind, t.value, t.line, t.col) for t in lex(text)]
    except LexError as error:
        return ("LexError", error.message, error.line, error.col)


def _sources():
    sources = {"golden/" + name: text for name, text in golden_sources().items()}
    for seed in range(N_PROGRAMS):
        program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
        sources["baseline/%d" % seed] = pretty(program)
    for label, base, edited in CORPUS:
        sources["mutation/%s/base" % label] = base
        sources["mutation/%s/edited" % label] = edited
    with open(WC_EXAMPLE) as handle:
        sources["examples/wc.tc"] = handle.read()
    return sources


SOURCES = _sources()


def test_corpus_covers_every_suite():
    kinds = [name.split("/", 1)[0] for name in SOURCES]
    assert kinds.count("golden") == 44
    assert kinds.count("baseline") == 26
    assert kinds.count("mutation") == 2 * len(CORPUS)
    assert "examples/wc.tc" in SOURCES


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_same_tokens_as_the_oracle(name):
    text = SOURCES[name]
    tokens = stream(tokenize, text)
    assert isinstance(tokens, list)  # every corpus program lexes
    assert tokens == stream(reference_tokenize, text)


@pytest.mark.parametrize("extra", [0, 1])
def test_same_error_on_a_number_literal_past_the_digit_limit(extra):
    """The interpreter's digit limit on ``int()`` is a LexError at the
    literal in both, from one digit past it."""
    import sys

    text = "int g = %s;\nint main() { return g; }\n" % (
        "7" * (sys.get_int_max_str_digits() + extra)
    )
    tokens = stream(tokenize, text)
    assert isinstance(tokens, list) == (extra == 0)
    assert tokens == stream(reference_tokenize, text)


@pytest.mark.parametrize(
    "name", sorted(name for name in SOURCES if name.startswith("golden/"))
)
def test_same_pickled_ast_as_the_oracle(name):
    text = SOURCES[name]
    oracle = Parser(reference_tokenize(text)).parse_program()
    assert pickle.dumps(parse(text)) == pickle.dumps(oracle)


# TinyC fragments mixed with what TinyC rejects or treats specially:
# characters outside the ASCII classes (among them a Unicode digit and a
# no-break space, which ``\d`` and ``\s`` would accept), a lone quote or
# backslash, and comment openers, joined with no separator so they run
# together.
fragments = st.sampled_from(
    [
        "int", "void", "while", "if", "else", "print", "x", "g_1", "_",
        "0", "42", "007", "(", ")", "{", "}", ";", ",", "=", "==", "!=",
        "<", "<=", ">", ">=", "&", "&&", "||", "!", "+", "-", "*", "/",
        "%", '"', '"s"', '"a\\nb"', "\\", "\\q", "/*", "*/", "//", " ",
        "\t", "\n", "\r\n", "$", "é", "¹", "\f", "\v", "٣", "\u00a0",
    ]
)
mixed = st.lists(st.one_of(fragments, st.text(max_size=3)), max_size=40).map(
    "".join
)


@settings(max_examples=500, deadline=None)
@given(mixed)
def test_same_tokens_and_errors_on_mixed_text(text):
    assert stream(tokenize, text) == stream(reference_tokenize, text)
