"""Minimality (Defn. 2.10(3) / Thm. 3.16): the partition is the
*coarsest* — two variants of a procedure are merged iff their element
sets are equal, so distinct specializations must have distinct element
sets, and the MRD automaton has no redundant states."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import specialization_slice
from repro.fsa import determinize, language_equal, minimize, remove_epsilon, reverse
from repro.sdg import build_sdg
from repro.workloads.exponential import exponential_program
from repro.workloads.generator import GenConfig, generate_program
from repro.workloads.paper_figures import load_fig1, load_fig2


def assert_minimal(result):
    # (a) distinct specializations of one procedure have distinct
    # element sets (otherwise the partition would not be coarsest);
    by_proc = {}
    for spec in result.pdgs.values():
        by_proc.setdefault(spec.proc, []).append(spec)
    for specs in by_proc.values():
        element_sets = [frozenset(spec.orig_vertices) for spec in specs]
        assert len(element_sets) == len(set(element_sets))
    # (b) A6 is state-minimal for its reversed language: re-minimizing
    # cannot shrink it.
    a6 = result.a6.trim()
    if not a6.states:
        return
    reminimized = minimize(determinize(remove_epsilon(reverse(a6))))
    assert len(reminimized.states) == len(a6.states)
    assert language_equal(reverse(reminimized), a6)


def test_fig1_minimal():
    _p, _i, sdg = load_fig1()
    assert_minimal(specialization_slice(sdg, sdg.print_criterion(), contexts="empty"))


def test_fig2_minimal():
    _p, _i, sdg = load_fig2()
    assert_minimal(specialization_slice(sdg, sdg.print_criterion(), contexts="empty"))


def test_exponential_minimal():
    _p, _i, sdg = exponential_program(4)
    assert_minimal(specialization_slice(sdg, sdg.print_criterion(), contexts="empty"))


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_programs_minimal(seed):
    program, info = generate_program(GenConfig(seed=seed, n_procs=5))
    sdg = build_sdg(program, info)
    criterion = sdg.print_criterion()
    if not criterion:
        return
    assert_minimal(specialization_slice(sdg, criterion))
