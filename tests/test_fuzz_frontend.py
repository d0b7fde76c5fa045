"""Front-end robustness fuzzing: arbitrary input must produce a clean
TinyC diagnostic or a successful parse — never an internal error.

A second lane fuzzes the back end's kernel equivalence: on generated
(well-typed) programs, the int-kernel saturations and the reference
worklists of :mod:`repro.pds.reference` must produce payload-identical
Prestar/Poststar automata for randomized criteria — the same contract :mod:`tests.test_kernel_differential` pins
on the fixed corpus, here driven by hypothesis over generator seeds and
criterion choices."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import check, parse, pretty
from repro.lang.errors import TinyCError
from repro.lang.tokens import tokenize

# Text biased toward TinyC-looking fragments so the parser gets past
# the lexer often enough to be exercised.
fragments = st.sampled_from(
    [
        "int", "void", "ref", "fnptr", "main", "g", "x", "f", "(", ")",
        "{", "}", ";", ",", "=", "==", "+", "-", "*", "/", "%", "<",
        "while", "if", "else", "return", "print", "input", "exit",
        "0", "1", "42", '"s"', "&", "&&", "||", "!", " ", "\n",
    ]
)
soup = st.lists(fragments, max_size=60).map(" ".join)
raw = st.text(max_size=80)


@settings(max_examples=300, deadline=None)
@given(soup)
def test_parser_total_on_token_soup(source):
    try:
        program = parse(source)
        check(program)
    except TinyCError:
        pass


@settings(max_examples=200, deadline=None)
@given(raw)
def test_lexer_total_on_raw_text(source):
    try:
        tokenize(source)
    except TinyCError:
        pass


@settings(max_examples=200, deadline=None)
@given(raw)
def test_parser_total_on_raw_text(source):
    try:
        program = parse(source)
        check(program)
    except TinyCError:
        pass


@settings(max_examples=100, deadline=None)
@given(soup)
def test_successful_parses_roundtrip(source):
    try:
        program = parse(source)
        check(program)
    except TinyCError:
        return
    text = pretty(program)
    reparsed = parse(text)
    check(reparsed)
    assert pretty(reparsed) == text


# -- kernel-equivalence fuzzing ----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_procs=st.integers(min_value=2, max_value=4),
    criterion_salt=st.integers(min_value=0, max_value=1_000_000),
)
def test_fuzz_saturation_kernels_agree(seed, n_procs, criterion_salt):
    """The int-kernel saturations agree payload-for-payload with the
    reference worklists on generated programs with randomized vertex
    criteria."""
    import random

    from repro.core.criteria import empty_stack_criterion
    from repro.engine import SlicingSession
    from repro.fsa.serialize import automaton_to_payload
    from repro.pds import poststar, prestar
    from repro.pds.reference import poststar_reference, prestar_reference
    from repro.workloads.generator import GenConfig, generate_program

    program, _info = generate_program(GenConfig(seed=seed, n_procs=n_procs))
    session = SlicingSession(pretty(program))
    encoding = session.encoding
    rng = random.Random(criterion_salt)
    vids = sorted(rng.sample(sorted(session.sdg.vertices), rng.randint(1, 3)))
    query = empty_stack_criterion(encoding, vids)
    pairs = ((prestar, prestar_reference), (poststar, poststar_reference))
    for saturation, reference in pairs:
        for trim in (False, True):
            expected = reference(encoding.pds, query, trim=trim)
            actual = saturation(encoding.pds, query, trim=trim)
            assert automaton_to_payload(expected) == automaton_to_payload(actual), (
                reference.__name__,
                trim,
            )
