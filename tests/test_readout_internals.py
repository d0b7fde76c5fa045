"""Read-out internals: invariant enforcement and result accessors."""

import pytest

from repro.core import specialization_slice
from repro.core.readout import ReadoutError, read_out_sdg, specialized_sdg
from repro.fsa import FiniteAutomaton
from repro.pds import encode_sdg
from repro.workloads.paper_figures import load_fig1


def fig1_result():
    _p, _i, sdg = load_fig1()
    return sdg, specialization_slice(sdg, sdg.print_criterion(), contexts="empty")


def test_stats_fields_present():
    _sdg, result = fig1_result()
    for key in (
        "prestar_seconds",
        "automaton_seconds",
        "readout_seconds",
        "total_seconds",
        "a1_states",
        "a6_states",
        "determinize_input_states",
        "determinize_output_states",
    ):
        assert key in result.stats


def test_specializations_of_unknown_proc_empty():
    _sdg, result = fig1_result()
    assert result.specializations_of("nonexistent") == []


def test_callee_name_for_unbound_site():
    _sdg, result = fig1_result()
    main_spec = result.specializations_of("main")[0]
    assert result.callee_name(main_spec, "C999") is None


def test_readout_rejects_multi_initial():
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    bogus = FiniteAutomaton(initials=["a", "b"], finals=["f"])
    vid = next(iter(sdg.vertices))
    bogus.add_transition("a", vid, "f")
    bogus.add_transition("b", vid, "f")
    with pytest.raises(ReadoutError):
        read_out_sdg(sdg, bogus, encoding)


def test_readout_rejects_mixed_procedures():
    """A (tampered) partition element containing vertices of two
    procedures must be rejected."""
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    bogus = FiniteAutomaton(initials=["q0"], finals=["f"])
    main_vid = sdg.entry_vertex["main"]
    p_vid = sdg.entry_vertex["p"]
    bogus.add_transition("q0", main_vid, "f")
    bogus.add_transition("q0", p_vid, "f")
    with pytest.raises(ReadoutError):
        read_out_sdg(sdg, bogus, encoding)


def test_readout_rejects_site_symbol_from_initial():
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    bogus = FiniteAutomaton(initials=["q0"], finals=["f"])
    bogus.add_transition("q0", "C1", "f")
    with pytest.raises(ReadoutError):
        read_out_sdg(sdg, bogus, encoding)


def test_readout_of_empty_automaton():
    _p, _i, sdg = load_fig1()
    encoding = encode_sdg(sdg)
    empty = FiniteAutomaton()
    pdgs, bindings = read_out_sdg(sdg, empty, encoding)
    assert pdgs == {} and bindings == {}
    r_sdg, _mapv, _maps = specialized_sdg(sdg, pdgs, bindings)
    assert r_sdg.vertex_count() == 0


def test_result_sdg_has_site_bookkeeping():
    _sdg, result = fig1_result()
    r = result.sdg
    # Every specialized call site is registered on both ends.
    for label, site in r.call_sites.items():
        assert label in r.sites_in_proc[site.caller]
        assert label in r.sites_on_proc[site.callee]
        assert r.vertices[site.call_vertex].site_label == label


def test_map_back_is_injective_per_spec():
    _sdg, result = fig1_result()
    result.sdg  # the vertex maps are filled when R is built
    for spec in result.pdgs.values():
        new_vids = list(spec.vertex_map.values())
        assert len(new_vids) == len(spec.orig_vertices)
        assert len(new_vids) == len(set(new_vids))


def test_specialized_names_deterministic():
    _p, _i, sdg1 = load_fig1()
    result1 = specialization_slice(sdg1, sdg1.print_criterion(), contexts="empty")
    _p2, _i2, sdg2 = load_fig1()
    result2 = specialization_slice(sdg2, sdg2.print_criterion(), contexts="empty")
    names1 = sorted(spec.name for spec in result1.pdgs.values())
    names2 = sorted(spec.name for spec in result2.pdgs.values())
    assert names1 == names2
