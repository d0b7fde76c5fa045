"""Function-pointer lowering and slicing tests (§6.2, Fig. 15)."""

import pytest

from repro.cli import main
from repro.core import (
    binkley_slice,
    executable_program,
    lower_indirect_calls,
    monovariant_program,
    specialization_slice,
)
from repro.core.funcptr import LoweringError
from repro.engine import SlicingSession
from repro.lang import ast_nodes as A
from repro.lang import check, parse, pretty
from repro.lang.interp import run_program
from repro.sdg import build_sdg
from repro.workloads.paper_figures import load_fig15


def test_lowering_introduces_dispatcher():
    _orig, lowered, info, _sdg = load_fig15()
    names = lowered.proc_names()
    assert any(name.startswith("indirect_") for name in names)
    dispatcher = lowered.proc("indirect_1")
    assert dispatcher.params[0].kind == "fnptr"
    # dispatch tests p == f
    conditions = [
        s.cond for s in A.walk_stmts(dispatcher.body) if isinstance(s, A.If)
    ]
    assert conditions and isinstance(conditions[0].right, A.FuncRef)


def test_lowering_preserves_semantics():
    original, lowered, _info, _sdg = load_fig15()
    for inputs in ([1], [0], [-3]):
        assert (
            run_program(original, inputs).values
            == run_program(lowered, inputs).values
        )


def test_lowering_idempotent_on_direct_programs():
    program = parse("void f() {} int main() { f(); }")
    info = check(program)
    lowered, lowered_info = lower_indirect_calls(program, info)
    assert lowered is program  # unchanged object


def test_fig15_specialization():
    """Slicing w.r.t. print(x): g specializes to one parameter, f keeps
    both, and the dispatcher forwards accordingly (§6.2's output)."""
    original, lowered, info, sdg = load_fig15()
    result = specialization_slice(sdg, sdg.print_criterion(), contexts="empty")
    executable = executable_program(result)
    text = pretty(executable.program)
    procs = {proc.name: proc for proc in executable.program.procs}

    g_spec = result.specializations_of("g")[0]
    assert len(procs[g_spec.name].params) == 1
    f_spec = result.specializations_of("f")[0]
    assert len(procs[f_spec.name].params) == 2

    for inputs in ([1], [0], [-3]):
        assert (
            run_program(original, inputs).values
            == run_program(executable.program, inputs).values
        )


def test_empty_points_to_rejected():
    program = parse("int main() { fnptr p; p(); }")
    info = check(program)
    with pytest.raises(LoweringError):
        lower_indirect_calls(program, info)


def test_incompatible_signatures_rejected():
    program = parse(
        """
        void one(int a) {}
        void two(int a, int b) {}
        int main() {
          fnptr p;
          int c = input();
          if (c > 0) { p = one; } else { p = two; }
          p(1);
        }
        """
    )
    info = check(program)
    with pytest.raises(LoweringError):
        lower_indirect_calls(program, info)


def test_void_targets_dispatch():
    program = parse(
        """
        int g;
        void set1(int v) { g = v; }
        void set2(int v) { g = v * 2; }
        int main() {
          fnptr p;
          int c = input();
          if (c > 0) { p = set1; } else { p = set2; }
          p(5);
          print("%d", g);
        }
        """
    )
    info = check(program)
    lowered, lowered_info = lower_indirect_calls(program, info)
    for inputs in ([1], [0]):
        assert run_program(program, inputs).values == run_program(lowered, inputs).values
    sdg = build_sdg(lowered, lowered_info)
    result = specialization_slice(sdg, sdg.print_criterion(), contexts="empty")
    executable = executable_program(result)
    for inputs in ([1], [0]):
        assert (
            run_program(program, inputs).values
            == run_program(executable.program, inputs).values
        )


def test_stub_retained_for_address_space():
    """A target procedure whose body is entirely sliced away must remain
    as a stub so the dispatch comparisons still work (§6.2)."""
    program = parse(
        """
        int g;
        void noop(int v) {}
        void store(int v) { g = v; }
        int main() {
          fnptr p;
          int c = input();
          if (c > 0) { p = noop; } else { p = store; }
          p(5);
          print("%d", g);
        }
        """
    )
    info = check(program)
    lowered, lowered_info = lower_indirect_calls(program, info)
    sdg = build_sdg(lowered, lowered_info)
    result = specialization_slice(sdg, sdg.print_criterion(), contexts="empty")
    executable = executable_program(result)
    names = executable.program.proc_names()
    assert "noop" in names  # stub or full; the FuncRef must resolve
    for inputs in ([1], [0]):
        assert (
            run_program(program, inputs).values
            == run_program(executable.program, inputs).values
        )


#: Slices of print #2 (the ``print 3`` in ``main``) that keep no
#: statement of ``a`` or ``b`` but still owe one of them a §6.2 stub:
#: for a ``FuncRef`` in an ``if`` condition, and for one in the
#: initializer of a kept global.  name -> (source, procedure stubbed).
FUNCREF_STUB_CASES = {
    "condition": (
        """
        fnptr fp;
        void a() { print("%d\\n", 1); }
        void b() { print("%d\\n", 2); }
        int main() {
          int x = input();
          fp = &a;
          if (x > 0) { fp = &a; }
          if (fp == &b) { print("%d\\n", 3); }
          return 0;
        }
        """,
        "b",
    ),
    "global-initializer": (
        """
        fnptr fp = &a;
        void a() { print("%d\\n", 1); }
        void b() { print("%d\\n", 2); }
        int main() {
          int x = input();
          if (x > 0) { fp = &b; }
          if (fp == &b) { print("%d\\n", 3); }
          print("%d\\n", x);
          return 0;
        }
        """,
        "a",
    ),
}


@pytest.mark.parametrize("command", ["slice", "mono"])
@pytest.mark.parametrize("case", sorted(FUNCREF_STUB_CASES))
def test_funcref_stub_rendered_by_both_commands(tmp_path, capsys, case, command):
    source, stub = FUNCREF_STUB_CASES[case]
    path = tmp_path / "fp.tc"
    path.write_text(source)
    assert main([command, str(path), "--print", "2"]) == 0
    assert "void %s() {\n}" % stub in capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(FUNCREF_STUB_CASES))
def test_funcref_stub_slices_print_what_the_original_prints(case):
    source, _stub = FUNCREF_STUB_CASES[case]
    session = SlicingSession(source)
    sdg = session.sdg
    print_vid = sdg.print_call_vertices()[2]
    criterion_uid = sdg.vertices[print_vid].stmt_uid
    binkley = binkley_slice(sdg, sdg.print_criterion([print_vid]))
    for executable in (
        session.executable(("print", 2)),
        monovariant_program(sdg, binkley.slice_set),
    ):
        for inputs in ([0], [1]):
            original = run_program(sdg.program, inputs)
            sliced = run_program(executable.program, inputs)
            assert [
                (executable.stmt_map[uid], values) for uid, _fmt, values in sliced.prints
            ] == [
                (uid, values) for uid, _fmt, values in original.prints
                if uid == criterion_uid
            ]
