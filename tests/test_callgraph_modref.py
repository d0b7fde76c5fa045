"""Call-graph and mod/ref analysis unit tests."""

import pytest

from repro.analysis.callgraph import build_call_graph
from repro.analysis.modref import INPUT, compute_modref
from repro.lang import check, parse


def load(source):
    program = parse(source)
    info = check(program)
    return program, info, build_call_graph(program)


def test_call_graph_basic():
    _p, _i, graph = load(
        """
        void a() { b(); b(); }
        void b() { c(); }
        void c() {}
        int main() { a(); }
        """
    )
    assert graph.callees("a") == {"b"}
    assert graph.callers("b") == {"a"}
    assert len(graph.calls_from["a"]) == 2
    assert graph.reachable_from("main") == {"main", "a", "b", "c"}


def test_call_graph_captures():
    _p, _i, graph = load(
        "int f() { return 1; } int main() { int x = f(); f(); }"
    )
    sites = graph.calls_from["main"]
    assert [s.captures_return for s in sites] == [True, False]
    assert sites[0].target_var == "x"


def test_may_exit_transitive():
    _p, _i, graph = load(
        """
        void deep() { exit(1); }
        void mid() { deep(); }
        void clean() {}
        int main() { mid(); clean(); }
        """
    )
    assert graph.may_exit() == {"deep", "mid", "main"}


def test_indirect_call_rejected():
    program = parse("void f() {} int main() { fnptr p; p = f; p(); }")
    info = check(program)
    with pytest.raises(ValueError):
        build_call_graph(program)


def modref(source):
    program, info, graph = load(source)
    return compute_modref(program, info, graph)


def test_direct_mod_ref():
    result = modref(
        "int g; int h; void f() { g = h; } int main() { f(); }"
    )
    assert "g" in result.may_mod["f"]
    assert "h" in result.may_ref["f"]
    assert "g" in result.must_mod["f"]


def test_transitive_mod():
    result = modref(
        """
        int g;
        void leaf() { g = 1; }
        void mid() { leaf(); }
        int main() { mid(); }
        """
    )
    assert "g" in result.may_mod["mid"]
    assert "g" in result.may_mod["main"]
    assert "g" in result.must_mod["mid"]


def test_conditional_mod_not_must():
    result = modref(
        """
        int g;
        void f(int c) { if (c > 0) { g = 1; } }
        int main() { f(3); }
        """
    )
    assert "g" in result.may_mod["f"]
    assert "g" not in result.must_mod["f"]


def test_both_branches_is_must():
    result = modref(
        """
        int g;
        void f(int c) { if (c > 0) { g = 1; } else { g = 2; } }
        int main() { f(3); }
        """
    )
    assert "g" in result.must_mod["f"]


def test_early_return_breaks_must():
    result = modref(
        """
        int g;
        void f(int c) {
          if (c > 0) { return; }
          g = 1;
        }
        int main() { f(3); }
        """
    )
    assert "g" in result.may_mod["f"]
    assert "g" not in result.must_mod["f"]


def test_ref_param_effects():
    result = modref(
        """
        void f(ref int x) { x = 1; }
        int main() { int v; f(v); }
        """
    )
    assert "x" in result.may_mod["f"]
    assert "x" in result.must_mod["f"]


def test_ref_param_translated_to_caller_ref_param():
    result = modref(
        """
        void inner(ref int x) { x = 1; }
        void outer(ref int y) { inner(y); }
        int main() { int v; outer(v); }
        """
    )
    assert "y" in result.may_mod["outer"]


def test_ref_param_to_local_stays_internal():
    result = modref(
        """
        void inner(ref int x) { x = 1; }
        void outer() { int local; inner(local); }
        int main() { outer(); }
        """
    )
    # outer's write lands in its own local: no caller-visible mod.
    assert result.may_mod["outer"] == set()


def test_input_is_tracked_as_state():
    result = modref(
        """
        void reader() { int x = input(); }
        int main() { reader(); }
        """
    )
    assert INPUT in result.may_mod["reader"]
    assert INPUT in result.may_ref["reader"]
    assert INPUT in result.may_mod["main"]
    assert INPUT in result.must_mod["reader"]


def test_conditional_input_not_must():
    result = modref(
        """
        void reader(int c) { if (c > 0) { int x = input(); } }
        int main() { reader(1); }
        """
    )
    assert INPUT in result.may_mod["reader"]
    assert INPUT not in result.must_mod["reader"]


def test_ref_in_and_mod_out_sets():
    result = modref(
        """
        int a; int b; int c;
        void f(int p) {
          b = a;
          if (p > 0) { c = 1; }
        }
        int main() { f(1); }
        """
    )
    globals_ = {"a", "b", "c"}
    # a read; c weakly modified -> both need a formal-in; b must-modified.
    assert result.ref_in_globals("f", globals_) == {"a", "c"}
    assert result.mod_out_globals("f", globals_) == {"b", "c"}


def test_recursive_must_mod_greatest_fixpoint():
    result = modref(
        """
        int g;
        void r(int k) {
          g = 1;
          if (k > 0) { r(k - 1); }
        }
        int main() { r(3); }
        """
    )
    assert "g" in result.must_mod["r"]


def test_may_exit_long_chain():
    """An 800-link chain whose last link calls exit(): every link, and
    main, may exit."""
    links = 800
    parts = ["void p%d() { p%d(); }" % (index, index + 1) for index in range(links - 1)]
    parts.append("void p%d() { exit(1); }" % (links - 1))
    parts.append("void clean() {}")
    parts.append("int main() { p0(); clean(); }")
    _p, _i, graph = load("\n".join(parts))
    assert graph.may_exit() == {"p%d" % index for index in range(links)} | {"main"}


# -- mutual recursion: call-graph SCCs of two and three procedures ---------------

TWO_CYCLE = """
int g;
int h;
int k;

void even(ref int x, int n) {
  if (n > 0) {
    odd(x, n - 1);
  }
  x = h + k;
  g = 1;
}

void odd(ref int y, int n) {
  k = y;
  if (n > 0) {
    even(y, n - 1);
    return;
  }
  g = 2;
}

int main() {
  int v = input();
  even(v, 3);
  print("%d", g + v);
  return 0;
}
"""


def test_two_cycle_must_mod_translates_ref_params():
    result = modref(TWO_CYCLE)
    # even: both paths end with x = ...; g = ...; only the n > 0 path
    # runs odd, so odd's k is not a must-def of even.
    assert result.must_mod["even"] == {"g", "x"}
    # odd: the early-return path gets even's {x -> y, g} and the
    # fall-through path only g = 2; both run k = y first.
    assert result.must_mod["odd"] == {"g", "k"}
    # main: even's x lands in the local v and drops out.
    assert result.must_mod["main"] == {INPUT, "g"}
    assert result.may_mod["even"] == {"g", "k", "x"}
    assert result.may_mod["odd"] == {"g", "k", "y"}
    assert result.may_mod["main"] == {INPUT, "g", "k"}


def test_two_cycle_exposed_refs():
    result = modref(TWO_CYCLE)
    assert result.may_ref["even"] == {"h", "k", "x"}
    assert result.may_ref["odd"] == {"h", "k", "y"}
    # even reads k exposed (its n <= 0 path never assigns it) and y's
    # read in odd comes back through the ref parameter as x.
    assert result.exposed_ref["even"] == {"h", "k", "x"}
    # odd assigns k before calling even, which hides even's read of k.
    assert result.exposed_ref["odd"] == {"h", "y"}
    assert result.exposed_ref["main"] == {INPUT, "h", "k"}
    assert result.ref_in_globals("odd", {"g", "h", "k"}) == {"h"}
    assert result.ref_in_globals("even", {"g", "h", "k"}) == {"h", "k"}


THREE_CYCLE = """
int g1;
int g2;
int g3;

void a(int n) {
  if (n > 0) {
    b(n - 1);
  }
  g1 = 1;
}

void b(int n) {
  g2 = g1;
  if (n == 0) {
    return;
  }
  c(n - 1);
  g3 = 1;
}

void c(int n) {
  g3 = 7;
  a(n);
  g2 = g3;
}

int main() {
  a(5);
  print("%d", g2);
  return 0;
}
"""


def test_three_cycle_must_mod_with_early_return():
    result = modref(THREE_CYCLE)
    everything = {"g1", "g2", "g3"}
    for name in ("a", "b", "c"):
        assert result.may_mod[name] == everything
        assert result.may_ref[name] == {"g1", "g3"}
    assert result.must_mod["a"] == {"g1"}
    # b's early return skips c(...) and g3 = 1.
    assert result.must_mod["b"] == {"g2"}
    assert result.must_mod["c"] == everything
    assert result.must_mod["main"] == {"g1"}


def test_three_cycle_exposed_refs():
    result = modref(THREE_CYCLE)
    # c assigns g3 before every read of it, so only b's read of g1 is
    # exposed, and it travels around the whole cycle.
    for name in ("a", "b", "c"):
        assert result.exposed_ref[name] == {"g1"}
    assert result.exposed_ref["main"] == {"g1", "g2"}
    assert result.ref_in_globals("b", {"g1", "g2", "g3"}) == {"g1", "g3"}
