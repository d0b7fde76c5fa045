"""CLI tests (``python -m repro``)."""

import sys

import pytest

from repro.cli import build_parser, main
from repro.workloads.paper_figures import FIG1_SOURCE, FIG16_SOURCE


pytestmark = pytest.mark.smoke


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.tc"
    path.write_text(FIG1_SOURCE)
    return str(path)


@pytest.fixture()
def fig16_file(tmp_path):
    path = tmp_path / "fig16.tc"
    path.write_text(FIG16_SOURCE)
    return str(path)


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def test_info(fig1_file):
    output = run_cli(["info", fig1_file])
    assert "procedures:   2" in output
    assert "vertices:" in output


def test_slice(fig1_file):
    output = run_cli(["slice", fig1_file])
    assert "versions" in output
    assert "p_1" in output and "p_2" in output


def test_slice_print_index_out_of_range(fig1_file):
    with pytest.raises(SystemExit) as info:
        run_cli(["slice", fig1_file, "--print", "9"])
    assert str(info.value) == "error: print index 9 out of range (program has 1 prints)"


def test_mono_print_index_out_of_range(fig1_file):
    with pytest.raises(SystemExit) as info:
        run_cli(["mono", fig1_file, "--print", "9"])
    assert str(info.value) == "error: print index 9 out of range (program has 1 prints)"


def test_slice_batch(fig16_file):
    output = run_cli(["slice-batch", fig16_file])
    assert "print #0:" in output and "print #1:" in output
    assert "batch: 2 criteria" in output
    assert "slice hits/misses" in output


def test_slice_batch_explicit_indices(fig1_file):
    output = run_cli(["slice-batch", fig1_file, "--prints", "0"])
    assert "print #0:" in output
    assert "batch: 1 criteria" in output


def test_slice_batch_bad_indices(fig1_file):
    with pytest.raises(SystemExit):
        run_cli(["slice-batch", fig1_file, "--prints", "9"])
    with pytest.raises(SystemExit):
        run_cli(["slice-batch", fig1_file, "--prints", "zero"])


@pytest.mark.parametrize("prints", [",", ""])
def test_slice_batch_empty_selection_is_a_usage_error(fig1_file, prints):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["slice-batch", fig1_file, "--prints", prints])
    assert str(excinfo.value) == "error: --prints expects 'all' or e.g. '0,2,5'"


def test_mono(fig1_file):
    output = run_cli(["mono", fig1_file])
    assert "g2 = 100" in output  # the Binkley add-back
    assert "void p(int a, int b)" in output


def test_remove(fig16_file):
    output = run_cli(["remove", fig16_file, "--feature", "int prod = 1"])
    assert "removed" in output
    assert "prod = mult" not in output.replace("int prod", "")


def test_remove_no_match(fig16_file):
    with pytest.raises(SystemExit):
        run_cli(["remove", fig16_file, "--feature", "no such stmt"])


def test_remove_empty_feature_is_a_usage_error(fig16_file):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        run_cli(["remove", fig16_file, "--feature", ""])
    assert str(excinfo.value) == "error: feature text must not be empty"
    with pytest.raises(ValueError):
        repro.remove_feature_source(FIG16_SOURCE, "")
    with pytest.raises(ValueError):
        repro.open_session(FIG16_SOURCE).remove_feature("")


def test_run(fig1_file):
    output = run_cli(["run", fig1_file])
    assert "5" in output
    assert "steps" in output


def test_run_with_inputs(tmp_path):
    path = tmp_path / "echo.tc"
    path.write_text('int main() { int x = input(); print("%d", x); }')
    output = run_cli(["run", str(path), "--inputs", "42"])
    assert "42" in output


def test_run_bad_options(fig1_file, capsys):
    with pytest.raises(SystemExit):
        run_cli(["run", fig1_file, "--inputs", "a,b"])
    with pytest.raises(SystemExit):
        run_cli(["run", fig1_file, "--inputs", "1,,2"])
    with pytest.raises(SystemExit):
        run_cli(["run", fig1_file, "--max-steps", "0"])
    # Usage errors are one "error: ..." line and exit 1, not a traceback.
    for option in (["--inputs", "a,b"], ["--max-steps", "0"]):
        with pytest.raises(SystemExit) as info:
            main(["run", fig1_file] + option)
        assert str(info.value).startswith("error: "), option


def test_bta(tmp_path):
    path = tmp_path / "bta.tc"
    path.write_text(
        """
        int g;
        void f(int a) { g = a; }
        int main() { int d = input(); f(d); print("%d", g); }
        """
    )
    output = run_cli(["bta", str(path)])
    assert "f:" in output


def test_bta_static(fig1_file):
    output = run_cli(["bta", fig1_file])
    assert "fully static" in output


def test_main_entry(fig1_file, capsys):
    assert main(["info", fig1_file]) == 0
    captured = capsys.readouterr()
    assert "procedures" in captured.out


def test_cli_handles_funcptr_files(tmp_path):
    from repro.workloads.paper_figures import FIG15_SOURCE

    path = tmp_path / "fig15.tc"
    path.write_text(FIG15_SOURCE)
    output = run_cli(["slice", str(path)])
    assert "indirect_1" in output


def test_cache_stats_reports_no_pds_entries(fig16_file, tmp_path):
    import json

    cache = str(tmp_path / "cache")
    run_cli(["slice-batch", fig16_file, "--cache-dir", cache])
    stats = json.loads(run_cli(["cache", "stats", "--cache-dir", cache, "--json"]))
    # The batch compiled its PDS in process and filed nothing in the
    # legacy __pds__ table.
    assert stats["tables"].get("pds") is None
    plain = run_cli(["cache", "stats", "--cache-dir", cache])
    assert "__pds__" not in plain


def test_slice_batch_reports_the_fused_pass(tmp_path):
    from repro.workloads.wc import scaled_wc_source

    path = tmp_path / "scaledwc.tc"
    path.write_text(scaled_wc_source(3))
    output = run_cli(["slice-batch", str(path)])
    assert "fused: 6 criteria saturated in 1 batch pass" in output
    assert "worklist pops" in output
    # A lone cold criterion is a batch of one.
    other = tmp_path / "scaledwc2.tc"
    other.write_text(scaled_wc_source(2))
    single = run_cli(["slice-batch", str(other), "--prints", "0"])
    assert "fused: 1 criteria saturated in 1 batch pass" in single


#: A procedure whose name starts with "print" is not a print statement.
PRINTER_SOURCE = """int g;
void printer(int x) { g = x; }
int main() {
  printer(5);
  print("%d", g);
  return 0;
}
"""


@pytest.fixture()
def printer_file(tmp_path):
    path = tmp_path / "printer.tc"
    path.write_text(PRINTER_SOURCE)
    return str(path)


def test_info_counts_only_print_statements(printer_file):
    assert "prints:       1" in run_cli(["info", printer_file])


def test_slice_of_a_print_next_to_a_printer_procedure(printer_file):
    output = run_cli(["slice", printer_file, "--print", "0"])
    assert "// versions: {'printer': 1, 'main': 1}" in output
    assert 'print("%d", g);' in output
    with pytest.raises(SystemExit):
        run_cli(["slice", printer_file, "--print", "1"])


def test_slice_batch_answers_one_criterion_per_print(printer_file):
    output = run_cli(["slice-batch", printer_file, "--prints", "all"])
    assert "print #0: 10 vertices" in output
    assert "print #1" not in output
    assert "batch: 1 criteria" in output


# -- user errors: one line on stderr, exit code 2 ------------------------------------


@pytest.mark.parametrize(
    "text,message",
    [
        ("int main() { int x = ; }", "1:22: expected an expression, found ';'"),
        ("int main() { x = 1; }", "1:14: assignment to undeclared variable 'x'"),
        ("int main() { int x = 1 @ 2; }", "1:24: unexpected character '@'"),
        (
            "int main() { print(%s1%s); }" % ("(" * 101, ")" * 101),
            "1:120: expression nested deeper than 100 levels",
        ),
        (
            "int main() {\n%s  print(\"%%d\", 1);\n%s}\n"
            % ("  if (1) {\n" * 101, "  }\n" * 101),
            "102:3: statement nested deeper than 100 levels",
        ),
        (
            "int main() {\n%s  print(\"%%d\", 1);\n%s}\n"
            % ("  while (0) {\n" * 101, "  }\n" * 101),
            "102:3: statement nested deeper than 100 levels",
        ),
        (
            "fnptr fp = &nosuch;\nint main() { fp(); return 0; }",
            "1:12: unknown procedure 'nosuch'",
        ),
    ],
    ids=[
        "parse", "semantic", "lex", "nesting", "if-nesting", "while-nesting",
        "global-funcref",
    ],
)
def test_tinyc_errors_are_one_line_and_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.tc"
    path.write_text(text)
    good = tmp_path / "good.tc"
    good.write_text(FIG1_SOURCE)
    for command in (
        ["info"],
        ["slice"],
        ["slice-batch"],
        ["run"],
        ["slice-batch", "--reuse-from", str(good)],
        ["slice-batch", str(good), "--reuse-from"],
    ):
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "%s:%s\n" % (path, message), command


@pytest.mark.parametrize("keyword", ["if", "while"])
def test_deepest_statement_nesting_runs_end_to_end(tmp_path, keyword):
    """100 nested ``if``/``while`` bodies (the most the parser accepts)
    go through every command without hitting the recursion limit."""
    from repro.lang.parser import MAX_NESTING

    path = tmp_path / "deep.tc"
    path.write_text(
        "int g;\nint main() {\n  int x = input();\n%s"
        "  x = x - 1;\n  g = g + 1;\n%s  print(\"%%d\", g);\n  return 0;\n}\n"
        % ("  %s (x > 0) {\n" % keyword * MAX_NESTING, "  }\n" * MAX_NESTING)
    )
    file = str(path)
    assert "procedures:   1" in run_cli(["info", file])
    assert "g = g + 1" in run_cli(["slice", file])
    assert "print #0" in run_cli(["slice-batch", file])
    assert run_cli(["mono", file])
    assert run_cli(["bta", file])
    removed = run_cli(["remove", file, "--feature", "g = g + 1"])
    assert "g = g + 1" not in removed.split("\n", 1)[1]  # below the header
    # The if chain steps in once; the innermost loop counts x down.
    expected = "1[" if keyword == "if" else "3["
    assert run_cli(["run", file, "--inputs", "3"]).startswith(expected)


@pytest.fixture()
def default_recursion_limit():
    """Run the test under CPython's default recursion limit."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)


@pytest.mark.parametrize("terms", [1000, 10000])
def test_flat_sum_runs_end_to_end(tmp_path, capsys, default_recursion_limit, terms):
    """A flat ``g + g + … + g`` is as long as the programmer makes it
    (``MAX_NESTING`` bounds nesting, not length): every command takes
    it, since each tree walk loops down a chain's left spine."""
    path = tmp_path / "flat.tc"
    path.write_text(
        "int g;\nint main() {\n  g = input();\n  int s = %s;\n"
        "  print(\"%%d\", s);\n  return 0;\n}\n" % " + ".join(["g"] * terms)
    )
    file = str(path)

    def run(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    assert "procedures:   1" in run("info", file)
    sliced = tmp_path / "slice.tc"
    sliced.write_text(run("slice", file))
    printed = "%d[" % (3 * terms)
    assert run("run", file, "--inputs", "3").startswith(printed)
    assert run("run", str(sliced), "--inputs", "3").startswith(printed)
    assert "print #0" in run("slice-batch", file)
    assert "int s = g + g + g" in run("mono", file)
    removed = run("remove", file, "--feature", "int s = ")
    assert "int s = " not in removed.split("\n", 1)[1]  # below the header
    assert "main:" in run("bta", file)


@pytest.mark.parametrize("terms", [1000, 10000])
def test_flat_sum_pickles(tmp_path, capsys, default_recursion_limit, terms):
    """The store and a process pool pickle what they hold: a flat
    ``g + g + … + g`` goes through ``slice-batch --cache-dir`` cold and
    then from the front-half bundle, and through a two-worker
    ``slice_many_programs``, with the storeless answers."""
    import shutil

    from repro.engine import SlicingSession, slice_many_programs

    source = (
        "int g;\nint main() {\n  g = input();\n  int s = %s;\n"
        "  print(\"%%d\", s);\n  return 0;\n}\n" % " + ".join(["g"] * terms)
    )
    path = tmp_path / "flat.tc"
    path.write_text(source)
    file = str(path)

    def answers(*argv):
        assert main(["slice-batch", file] + list(argv)) == 0
        out = capsys.readouterr().out
        return out, [line for line in out.splitlines() if line.startswith("print #")]

    _out, storeless = answers()
    cache = str(tmp_path / "cache")
    out, cold = answers("--cache-dir", cache)
    assert "front half cold" in out and cold == storeless
    warm_cache = str(tmp_path / "warm")  # another cache dir: a fresh session
    shutil.copytree(cache, warm_cache)
    out, warm = answers("--cache-dir", warm_cache)
    assert "front half warm" in out and warm == storeless

    reference = SlicingSession(source).slice(("print", 0))
    jobs = [(source, [("print", 0)]), (source, ["prints"])]
    for batch in slice_many_programs(jobs, max_workers=2):
        (result,) = batch
        assert result.version_counts() == reference.version_counts()
        assert result.closure_elems() == reference.closure_elems()


def test_long_number_literal_is_one_line_and_exit_2(tmp_path, capsys):
    """CPython's ``int()`` refuses more than 4,300 digits: a longer
    literal is a LexError at the literal, for every command."""
    path = tmp_path / "long.tc"
    path.write_text("int g = %s;\nint main() { return 0; }\n" % ("1" * 5000))
    for command in (["info"], ["slice"], ["slice-batch"], ["run"]):
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "%s:1:9: number literal of 5000 digits is too long\n" % (
            path
        ), command


def test_missing_file_is_one_line_and_exit_2(tmp_path, capsys, fig1_file):
    missing = str(tmp_path / "nope.tc")
    for command in (
        ["info"],
        ["slice-batch"],
        ["slice-batch", "--reuse-from", fig1_file],
        ["slice-batch", fig1_file, "--reuse-from"],
    ):
        assert main(command + [missing]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["%s: cannot read: No such file or directory" % missing]


@pytest.mark.parametrize(
    "text,argv,steps",
    [
        ("int main() { while (1) { } return 0; }", [], 1000000),
        (FIG1_SOURCE, ["--max-steps", "3"], 3),
        (FIG1_SOURCE, ["--max-steps", "1"], 1),
    ],
    ids=["loop", "small-budget", "one-step"],
)
def test_run_over_budget_is_one_line_and_exit_2(tmp_path, capsys, text, argv, steps):
    path = tmp_path / "spin.tc"
    path.write_text(text)
    assert main(["run", str(path)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "%s: exceeded %d interpreter steps\n" % (path, steps)


def test_internal_errors_keep_their_traceback(fig1_file, monkeypatch):
    import repro.sdg

    def broken(*_args):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(repro.sdg, "build_sdg", broken)
    with pytest.raises(RuntimeError):
        main(["info", fig1_file])


def test_reuse_from_reports_kept_results_across_a_structural_edit(tmp_path):
    """``--reuse-from`` updates the previous revision's session in
    place: after a structural edit in one category, every other print's
    result is renamed into the new revision, and the reuse line says
    so."""
    from repro.workloads.wc import scaled_wc_source

    text = scaled_wc_source(4) + "// reuse-line test\n"
    header = "void count_cat_1(int c) {"
    previous = tmp_path / "prev.tc"
    current = tmp_path / "cur.tc"
    previous.write_text(text)
    current.write_text(text.replace(header, header + "\n  int z = 1;"))
    run_cli(["slice-batch", str(previous), "--prints", "all"])
    out = run_cli(
        ["slice-batch", str(current), "--reuse-from", str(previous), "--prints", "all"]
    )
    assert (
        "reuse: 9/10 procedures kept, 6 saturations kept / 2 dropped, "
        "6 results kept / 1 dropped (slow path)"
    ) in out


def test_reuse_from_internal_errors_keep_their_traceback(fig1_file, monkeypatch):
    from repro.engine import SlicingSession

    def broken(*_args):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(SlicingSession, "update_source", broken)
    with pytest.raises(RuntimeError):
        main(["slice-batch", fig1_file, "--reuse-from", fig1_file])


def test_module_entry_exits_2_without_traceback(tmp_path):
    import os
    import subprocess
    import sys

    path = tmp_path / "bad.tc"
    path.write_text("int main() {\n  int x = ;\n}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "slice", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("%s:2:" % path)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
