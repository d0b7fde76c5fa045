"""SDG-to-PDS encoding (Fig. 8) and criterion-automaton tests."""

from repro.core.criteria import (
    all_contexts_criterion,
    configs_criterion,
    empty_stack_criterion,
    reachable_configs_automaton,
    reachable_contexts_criterion,
)
from repro.pds import encode_sdg, prestar
from repro.sdg import CALL, CONTROL, FLOW, PARAM_IN, PARAM_OUT, SUMMARY
from repro.workloads.paper_figures import load_fig1, load_fig2


def test_rule_kinds_follow_edge_kinds():
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    pds = encoding.pds
    intra_edges = sdg.edge_count((CONTROL, FLOW, "library"))
    call_edges = sdg.edge_count((CALL,))
    param_in_edges = sdg.edge_count((PARAM_IN,))
    param_out_edges = sdg.edge_count((PARAM_OUT,))
    pops = [r for r in pds.rules if r.kind == "pop"]
    pushes = [r for r in pds.rules if r.kind == "push"]
    internals = [r for r in pds.rules if r.kind == "internal"]
    # One pop per formal-out with outgoing param-out edges; one internal
    # per param-out edge; pushes = call + param-in edges.
    assert len(pushes) == call_edges + param_in_edges
    assert len(internals) == intra_edges + param_out_edges
    assert len(pops) == len(encoding.fo_location)


def test_summary_edges_not_encoded():
    _p, _i, sdg = load_fig1()
    summary_count = sdg.edge_count((SUMMARY,))
    assert summary_count > 0  # suite builds summaries by default
    encoding = encode_sdg(sdg)
    # Rule count must be independent of summary edges.
    assert all(
        r.kind in ("pop", "internal", "push") for r in encoding.pds.rules
    )
    intra = sdg.edge_count((CONTROL, FLOW, "library"))
    internals = [r for r in encoding.pds.rules if r.kind == "internal"]
    param_out = sdg.edge_count((PARAM_OUT,))
    assert len(internals) == intra + param_out


def test_encoding_cached():
    _p, _i, sdg = load_fig1()
    assert encode_sdg(sdg) is encode_sdg(sdg)


def test_symbols_partitioned():
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    assert encoding.vertex_symbols.isdisjoint(encoding.site_symbols)
    assert encoding.is_vertex_symbol(next(iter(sdg.vertices)))
    assert encoding.is_site_symbol("C1")


def test_empty_stack_criterion_language():
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    criterion = sdg.print_criterion()
    auto = empty_stack_criterion(encoding, criterion)
    (vid,) = criterion
    assert auto.accepts([vid])
    assert not auto.accepts([vid, "C1"])


def test_all_contexts_criterion_language():
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    (vid,) = sdg.print_criterion()
    auto = all_contexts_criterion(encoding, [vid])
    assert auto.accepts([vid])
    assert auto.accepts([vid, "C1", "C2"])


def test_configs_criterion_language():
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    fi = sdg.formal_ins["p"][("param", 1)]
    auto = configs_criterion(encoding, [(fi, ("C1",)), (fi, ("C2",))])
    assert auto.accepts([fi, "C1"])
    assert auto.accepts([fi, "C2"])
    assert not auto.accepts([fi, "C3"])
    assert not auto.accepts([fi])


def test_reachable_configs_fig1():
    """In the non-recursive Fig. 1, the reachable configurations are the
    finite set of Eqn. (1): p's vertices under C1/C2/C3 only."""
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    reachable = reachable_configs_automaton(encoding)
    entry_p = sdg.entry_vertex["p"]
    assert reachable.accepts_from("p", (entry_p, "C1"))
    assert reachable.accepts_from("p", (entry_p, "C2"))
    assert not reachable.accepts_from("p", (entry_p,))
    assert not reachable.accepts_from("p", (entry_p, "C1", "C1"))
    entry_main = sdg.entry_vertex["main"]
    assert reachable.accepts_from("p", (entry_main,))


def test_reachable_configs_recursive():
    """Fig. 2: r's entry is reachable under (C3)^n C1 for every n."""
    _p, _i, sdg = load_fig2()
    encoding = encode_sdg(sdg)
    reachable = reachable_configs_automaton(encoding)
    entry_r = sdg.entry_vertex["r"]
    recursive_site = next(
        s.label for s in sdg.call_sites.values() if s.caller == "r" and s.callee == "r"
    )
    main_site = next(
        s.label for s in sdg.call_sites.values() if s.caller == "main" and s.callee == "r"
    )
    for depth in range(4):
        stack = (entry_r,) + (recursive_site,) * depth + (main_site,)
        assert reachable.accepts_from("p", stack)
    assert not reachable.accepts_from("p", (entry_r, main_site, main_site))


def test_reachable_contexts_criterion():
    _p, _i, sdg = load_fig2()
    encoding = encode_sdg(sdg)
    entry_s = sdg.entry_vertex["s"]
    auto = reachable_contexts_criterion(encoding, [entry_s])
    # s is only called from r, which is called from main (possibly
    # through recursion).
    s_sites = [s.label for s in sdg.call_sites.values() if s.callee == "s"]
    r_rec = next(
        s.label for s in sdg.call_sites.values() if s.caller == "r" and s.callee == "r"
    )
    r_main = next(
        s.label for s in sdg.call_sites.values() if s.caller == "main" and s.callee == "r"
    )
    assert auto.accepts([entry_s, s_sites[0], r_main])
    assert auto.accepts([entry_s, s_sites[0], r_rec, r_main])
    assert not auto.accepts([entry_s])
    assert not auto.accepts([entry_s, r_main])


def _restriction_programs():
    from repro.lang import pretty
    from repro.workloads.generator import GenConfig, generate_program
    from repro.workloads.wc import WC_SOURCE, scaled_wc_source

    for seed in range(26):
        program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
        yield "seed%d" % seed, pretty(program)
    yield "wc", WC_SOURCE
    yield "wc32", scaled_wc_source(32)


def test_reachable_contexts_criterion_is_the_product():
    """The criterion is built as a restriction of the reachable query
    view; it must be structurally equal — states, initials, finals,
    transitions — to the reference oracle's product of the reference
    Poststar's view with ``vids · Γ_c*``, rebased onto ``p``."""
    import repro
    from tests.reference_oracle import query_automaton, reachable_view

    checked = 0
    for name, source in _restriction_programs():
        _program, _info, sdg = repro.load_source(source)
        encoding = encode_sdg(sdg)
        view = reachable_view(encoding)
        criteria = [sdg.print_criterion([vid]) for vid in sdg.print_call_vertices()]
        criteria.append(sdg.print_criterion())
        criteria.extend([vid] for vid in sorted(sdg.vertices)[:40])
        for vids in criteria:
            built = reachable_contexts_criterion(encoding, vids)
            product = query_automaton(encoding, vids, "reachable", view=view)
            tag = (name, sorted(vids))
            assert built.states == product.states, tag
            assert built.initials == product.initials, tag
            assert built.finals == product.finals, tag
            assert set(built.transitions()) == set(product.transitions()), tag
            checked += 1
    assert checked >= 1000


def test_elems_matches_closure(subtests=None):
    from repro.core.criteria import FINAL
    from repro.fsa import FiniteAutomaton
    from repro.sdg import backward_closure_slice

    _p, _i, sdg = load_fig2()
    encoding = encode_sdg(sdg)
    criterion = sdg.print_criterion()
    query = empty_stack_criterion(encoding, criterion)
    saturated = prestar(encoding.pds, query)
    assert encoding.elems(saturated) == backward_closure_slice(sdg, criterion)
