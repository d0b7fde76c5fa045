"""Semantic-analysis unit tests."""

import pytest

from repro.lang import ast_nodes as A
from repro.lang.errors import SemanticError
from repro.lang.parser import parse
from repro.lang.sema import check


def check_source(source):
    program = parse(source)
    return program, check(program)


def expect_error(source, fragment):
    with pytest.raises(SemanticError) as info:
        check_source(source)
    assert fragment in str(info.value)


def test_minimal_valid_program():
    _program, info = check_source("int main() { return 0; }")
    assert "main" in info.procs


def test_missing_main():
    expect_error("void f() {}", "main")


def test_main_with_params_rejected():
    expect_error("int main(int a) { return 0; }", "main")


def test_undeclared_variable():
    expect_error("int main() { x = 1; }", "undeclared")


def test_undeclared_in_expression():
    expect_error("int main() { int x = y; }", "undeclared")


def test_duplicate_global():
    expect_error("int g; int g; int main() {}", "duplicate")


def test_duplicate_local():
    expect_error("int main() { int x; int x; }", "duplicate")


def test_duplicate_param():
    expect_error("void f(int a, int a) {} int main() {}", "duplicate")


def test_local_shadows_global_rejected():
    expect_error("int g; int main() { int g; }", "shadows")


def test_param_shadows_global_rejected():
    expect_error("int g; void f(int g) {} int main() {}", "shadows")


def test_call_arity_checked():
    expect_error("void f(int a) {} int main() { f(); }", "argument")


def test_nested_call_rejected():
    expect_error(
        "int f() { return 1; } int main() { int x = f() + 1; }",
        "statement or entire RHS",
    )


def test_nested_input_rejected():
    expect_error("int main() { int x = input() + 1; }", "entire RHS")


def test_void_used_as_value():
    expect_error("void f() {} int main() { int x = f(); }", "void")


def test_void_return_with_value():
    expect_error("void f() { return 3; } int main() {}", "returns a value")


def test_int_return_without_value():
    expect_error("int f() { return; } int main() {}", "returns no value")


def test_ref_argument_must_be_variable():
    expect_error(
        "void f(ref int a) {} int main() { f(1 + 2); }", "must be a variable"
    )


def test_ref_argument_global_rejected():
    expect_error(
        "int g; void f(ref int a) {} int main() { f(g); }", "passed by reference"
    )


def test_ref_argument_aliasing_rejected():
    expect_error(
        "void f(ref int a, ref int b) {} int main() { int x; f(x, x); }",
        "twice",
    )


def test_ref_argument_locals_ok():
    check_source("void f(ref int a, ref int b) { a = b; } int main() { int x; int y; f(x, y); }")


def test_procedure_name_as_value_becomes_funcref():
    program, info = check_source(
        "void f() {} int main() { fnptr p; p = f; }"
    )
    assign = program.proc("main").body.stmts[1]
    assert isinstance(assign.expr, A.FuncRef)


def test_indirect_call_marked():
    program, info = check_source(
        "void f(int a) {} int main() { fnptr p; p = f; p(1); }"
    )
    call = program.proc("main").body.stmts[2].call
    assert call.is_indirect
    assert info.has_indirect_calls


def test_fnptr_points_to_direct():
    _program, info = check_source(
        "void f() {} void g() {} int main() { fnptr p; p = f; p = g; p(); }"
    )
    assert info.may_point_to("main", "p") == {"f", "g"}


def test_fnptr_points_to_through_copy():
    _program, info = check_source(
        "void f() {} int main() { fnptr p; fnptr q; p = f; q = p; q(); }"
    )
    assert info.may_point_to("main", "q") == {"f"}


def test_fnptr_points_to_through_param():
    _program, info = check_source(
        """
        void f() {}
        void g() {}
        void call_it(fnptr h) { h(); }
        int main() { call_it(f); call_it(g); }
        """
    )
    assert info.may_point_to("call_it", "h") == {"f", "g"}


def test_fnptr_global_initializer():
    _program, info = check_source(
        "void f() {} fnptr p = &f; int main() { p(); }"
    )
    assert info.may_point_to("main", "p") == {"f"}


def test_unknown_procedure_called():
    expect_error("int main() { nosuch(); }", "unknown")


def test_unknown_funcref():
    expect_error("int main() { fnptr p; p = &nosuch; }", "unknown procedure")
    expect_error("fnptr fp = &nosuch;\nint main() { return 0; }", "unknown procedure")
