"""Parser unit tests."""

import pytest

from repro.lang import ast_nodes as A
from repro.lang.errors import ParseError
from repro.lang.parser import parse


pytestmark = pytest.mark.smoke


def first_stmt(source_body):
    program = parse("int main() { %s }" % source_body)
    return program.proc("main").body.stmts[0]


def test_global_declarations():
    program = parse("int g; int h = 4; fnptr p;")
    assert [d.name for d in program.globals] == ["g", "h", "p"]
    assert program.globals[1].init.value == 4
    assert program.globals[2].is_fnptr


def test_procedure_parameters():
    program = parse("void f(int a, ref int b, fnptr c) {}")
    kinds = [p.kind for p in program.proc("f").params]
    assert kinds == ["value", "ref", "fnptr"]


def test_precedence():
    stmt = first_stmt("x = 1 + 2 * 3;")
    assert isinstance(stmt.expr, A.Bin) and stmt.expr.op == "+"
    assert stmt.expr.right.op == "*"


def test_left_associativity():
    stmt = first_stmt("x = 1 - 2 - 3;")
    # (1 - 2) - 3
    assert stmt.expr.op == "-"
    assert stmt.expr.left.op == "-"
    assert stmt.expr.right.value == 3


def test_parentheses_override():
    stmt = first_stmt("x = (1 + 2) * 3;")
    assert stmt.expr.op == "*"
    assert stmt.expr.left.op == "+"


def test_logical_operators():
    stmt = first_stmt("x = a && b || c;")
    assert stmt.expr.op == "||"
    assert stmt.expr.left.op == "&&"


def shape(expr):
    """``expr`` with every operator application parenthesized."""
    if isinstance(expr, A.Bin):
        return "(%s %s %s)" % (shape(expr.left), expr.op, shape(expr.right))
    if isinstance(expr, A.Un):
        return "(%s%s)" % (expr.op, shape(expr.operand))
    if isinstance(expr, A.Num):
        return str(expr.value)
    return expr.name


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a || b && c == d + e * f", "(a || (b && (c == (d + (e * f)))))"),
        ("a * b + c == d && e || f", "(((((a * b) + c) == d) && e) || f)"),
        ("a - b + c % d / e * f", "((a - b) + (((c % d) / e) * f))"),
        ("a < b && c >= d || e != f", "(((a < b) && (c >= d)) || (e != f))"),
        ("-a * !(b || c) - -d", "(((-a) * (!(b || c))) - (-d))"),
        ("a + b < c + d", "((a + b) < (c + d))"),
    ],
)
def test_operator_levels(text, expected):
    assert shape(first_stmt("x = %s;" % text).expr) == expected


@pytest.mark.parametrize(
    "text,op",
    [
        ("x = a < b < c;", "<"),
        ("x = a + b == c - d != e;", "!="),
        ("x = a < b && c < d < e;", "<"),
        ("x = a || b == c <= d;", "<="),
    ],
)
def test_comparisons_do_not_chain(text, op):
    # Reported at the second comparison, by the statement it ends early.
    prefix = "int main() { "
    with pytest.raises(ParseError) as info:
        parse(prefix + text + " }")
    assert info.value.message == "expected ';' but found %r" % op
    assert (info.value.line, info.value.col) == (1, len(prefix) + 1 + text.rindex(op))


def test_unary():
    stmt = first_stmt("x = -a + !b;")
    assert stmt.expr.left.op == "-"
    assert stmt.expr.right.op == "!"


def test_else_if_chain_desugars():
    stmt = first_stmt("if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; }")
    assert isinstance(stmt, A.If)
    nested = stmt.els.stmts[0]
    assert isinstance(nested, A.If)
    assert nested.els is not None


def test_while_and_return():
    program = parse("int f() { while (1) { return 5; } return 0; }")
    loop = program.proc("f").body.stmts[0]
    assert isinstance(loop, A.While)
    assert isinstance(loop.body.stmts[0], A.Return)


def test_call_statement_and_assignment():
    program = parse("void f() {} int main() { f(); int x = input(); x = f(); }")
    stmts = program.proc("main").body.stmts
    assert isinstance(stmts[0], A.CallStmt)
    assert isinstance(stmts[1].init, A.InputExpr)
    assert isinstance(stmts[2].expr, A.CallExpr)


def test_print_with_format():
    stmt = first_stmt('print("%d and %d\\n", a, b);')
    assert isinstance(stmt, A.Print)
    assert stmt.fmt == "%d and %d\n"
    assert len(stmt.args) == 2


def test_print_without_format():
    stmt = first_stmt("print(a);")
    assert stmt.fmt is None
    assert len(stmt.args) == 1


def test_exit_forms():
    assert first_stmt("exit();").arg is None
    assert first_stmt("exit(2);").arg.value == 2


def test_funcref_address_syntax():
    stmt = first_stmt("p = &f;")
    assert isinstance(stmt.expr, A.FuncRef)
    assert stmt.expr.name == "f"


def test_statement_uids_unique():
    program = parse("int main() { x = 1; x = 2; if (x) { x = 3; } }")
    uids = [s.uid for s in A.walk_stmts(program.proc("main").body)]
    assert len(uids) == len(set(uids))


@pytest.mark.parametrize(
    "bad",
    [
        "int main() { x = ; }",
        "int main() { if x { } }",
        "int main() { return 1 }",
        "int 3() {}",
        "void f(int) {}",
        "int main() { print(; }",
        "garbage",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("int main() {\n  x = ;\n}")
    assert info.value.line == 2


def test_nesting_limit():
    from repro.lang.parser import MAX_NESTING

    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert isinstance(first_stmt("x = %s;" % deepest).expr, A.Var)
    mixed = "-(" * (MAX_NESTING // 2) + "a" + ")" * (MAX_NESTING // 2)
    assert first_stmt("x = %s;" % mixed).expr.op == "-"
    # One level deeper is a ParseError at the opener of level 101 (the
    # last character of the 101st opener) for grouping, unary operators
    # and call arguments alike, instead of exhausting the interpreter
    # stack.
    for opener, closer in (("(", ")"), ("-", ""), ("f(", ")")):
        prefix = "int main() { x = " + opener * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as info:
            parse(prefix + "a" + closer * (MAX_NESTING + 1) + "; }")
        assert info.value.message == "expression nested deeper than 100 levels"
        assert (info.value.line, info.value.col) == (1, len(prefix)), opener
    # ``if``/``while`` bodies count against the same budget: level 101
    # is a ParseError at its keyword, and an ``else if`` nests inside
    # its ``if``.
    for opener, tail in (
        ("if (a) { ", "x = a;" + " }" * MAX_NESTING),
        ("while (a) { ", "x = a;" + " }" * MAX_NESTING),
        ("if (a) { } else ", "{ x = a; }"),
    ):
        prefix = "int main() { " + opener * MAX_NESTING
        parse(prefix + tail + " }")  # level 100 is fine
        with pytest.raises(ParseError) as info:
            parse(prefix + opener + tail + " } }")
        assert info.value.message == "statement nested deeper than 100 levels"
        assert (info.value.line, info.value.col) == (1, len(prefix) + 1), opener

