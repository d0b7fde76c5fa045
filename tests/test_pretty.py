"""Pretty-printer tests, including the parse/pretty round-trip property."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import check, parse, pretty
from repro.workloads.generator import GenConfig, generate_program


def roundtrip(source):
    program = parse(source)
    check(program)
    text = pretty(program)
    program2 = parse(text)
    check(program2)
    assert pretty(program2) == text  # fixpoint after one round
    return text


def test_simple_roundtrip():
    roundtrip("int g; int main() { g = 1; print(\"%d\", g); return 0; }")


def test_precedence_preserved():
    text = roundtrip("int main() { int x = (1 + 2) * 3; int y = 1 + 2 * 3; return 0; }")
    assert "(1 + 2) * 3" in text
    assert "1 + 2 * 3" in text


def test_nested_control_flow():
    text = roundtrip(
        """
        int main() {
          int x = 0;
          while (x < 3) {
            if (x == 1) { x = x + 2; } else { x = x + 1; }
          }
          return x;
        }
        """
    )
    assert "while (x < 3)" in text


def test_string_escapes_roundtrip():
    text = roundtrip('int main() { print("a\\n\\tb \\"q\\"", 1); return 0; }')
    assert '\\n' in text


def test_ref_and_fnptr_params():
    text = roundtrip(
        "void f(ref int a, fnptr p) { a = 1; } int main() { int x; f(x, &main); return 0; }"
    )
    assert "ref int a" in text
    assert "fnptr p" in text


def test_unary_printing():
    text = roundtrip("int main() { int x = -(1 + 2); int y = !x; return 0; }")
    assert "-(1 + 2)" in text


def test_parentheses_down_a_left_spine():
    # Several left operands down one chain need parentheses: they all
    # open before the chain's first operand.
    text = roundtrip(
        "int main() { int x = ((1 + 2) * 3 - 4) * 5 % 6; "
        "int y = (1 < 2) == (3 > 4); return 0; }"
    )
    assert "x = ((1 + 2) * 3 - 4) * 5 % 6;" in text
    assert "y = (1 < 2) == (3 > 4);" in text


def test_associativity_parens():
    # 1 - (2 - 3) must keep its parentheses; (1 - 2) - 3 must not.
    text = roundtrip("int main() { int x = 1 - (2 - 3); int y = 1 - 2 - 3; return 0; }")
    assert "1 - (2 - 3)" in text
    assert "y = 1 - 2 - 3" in text


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_programs_roundtrip(seed):
    program, _info = generate_program(GenConfig(seed=seed, n_procs=4))
    text = pretty(program)
    program2 = parse(text)
    check(program2)
    assert pretty(program2) == text
