"""Property tests for the CSR saturation kernel's int codec and ops.

The ``csr`` kernel (:mod:`repro.fsa.intcodec`, :mod:`repro.fsa.intops`,
:mod:`repro.pds.kernel`) promises *structural identity* with the object
reference implementations (:mod:`repro.fsa.reference`,
:mod:`repro.pds.reference`) — not just language equality — because
byte-identical slices, store entries, and ``__sats__`` digests
downstream all hang off the exact state objects and transition sets.
These tests pin the three layers of that promise:

* the codec: encode -> decode is the identity (as
  :func:`repro.fsa.serialize.structurally_equal` sees it), the bitset
  primitives agree with Python set semantics, and the object
  ``FiniteAutomaton.trim`` keeps exactly what the codec's ``trim_bits``
  keeps;
* the FSA ops: each ``*_int`` operation is structurally equal to its
  reference, on epsilon-free and epsilon-heavy inputs, mixed int/string
  alphabets included;
* the saturations: ``poststar_csr``/``prestar_csr`` (batches of one)
  and batches of 2-5 queries through ``poststar_many_csr`` /
  ``prestar_many_csr`` match the reference worklists
  payload-for-payload — duplicated members and members whose trimmed
  projection is empty included — and their output is independent of
  the order rules were inserted into the :class:`PushdownSystem` (the
  fixpoint is canonical; the worklist order must not leak).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fsa import FiniteAutomaton, reverse
from repro.fsa.automaton import EPSILON
from repro.fsa.intcodec import (
    bits_of,
    decode_automaton,
    encode_automaton,
    iter_bits,
    trim_bits,
)
from repro.fsa.intops import (
    determinize_int,
    minimize_int,
    mrd_int,
    remove_epsilon_int,
)
from repro.fsa.reference import (
    determinize_reference,
    minimize_reference,
    remove_epsilon_reference,
)
from repro.fsa.serialize import automaton_to_payload, structurally_equal
from repro.pds import PushdownSystem
from repro.pds.kernel import (
    poststar_csr,
    poststar_many_csr,
    prestar_csr,
    prestar_many_csr,
)
from repro.pds.reference import poststar_reference, prestar_reference

from tests.reference_oracle import mrd as reference_mrd

# -- generators --------------------------------------------------------------------


def random_automaton(seed, n_states=8, n_symbols=4, density=0.3, eps=0.0):
    """A random NFA over a mixed int/string alphabet (the SDG automata
    mix vertex-id ints with call-site label strings, so symbol ordering
    by ``repr`` is load-bearing)."""
    rng = random.Random(seed)
    states = ["s%d" % i for i in range(n_states)]
    symbols = [i for i in range(n_symbols // 2)] + [
        "g%d" % i for i in range(n_symbols - n_symbols // 2)
    ]
    automaton = FiniteAutomaton(
        initials=rng.sample(states, rng.randint(1, 2)),
        finals=rng.sample(states, rng.randint(1, 3)),
    )
    for state in states:
        automaton.add_state(state)
    for src in states:
        for symbol in symbols:
            for dst in states:
                if rng.random() < density / n_states * 4:
                    automaton.add_transition(src, symbol, dst)
        if eps and rng.random() < eps:
            automaton.add_transition(src, EPSILON, rng.choice(states))
    return automaton


def random_pds(seed, n_locs=3, n_syms=5, n_rules=14):
    """A random PDS plus a random query automaton rooted at its control
    locations, with one foreign symbol the PDS has never heard of (query
    automata routinely carry criterion symbols outside the rule
    alphabet)."""
    rng = random.Random(seed)
    locs = ["p%d" % i for i in range(n_locs)]
    syms = list(range(n_syms))
    rules = []
    for _ in range(n_rules):
        w_len = rng.choice((0, 1, 1, 2))
        rules.append(
            (
                rng.choice(locs),
                rng.choice(syms),
                rng.choice(locs),
                tuple(rng.choice(syms) for _ in range(w_len)),
            )
        )
    pds = build_pds(rules)
    query = FiniteAutomaton(initials=[locs[0]], finals=["f"])
    query.add_transition(locs[0], rng.choice(syms), "f")
    query.add_transition(locs[0], "foreign", "f")
    query.add_transition("f", rng.choice(syms), "f")
    return pds, query, rules


def random_queries(seed, locs, syms):
    """2-5 random epsilon-free query automata for one PDS: each accepts
    along a path from a random control location through its own states
    to a shared final ``f`` (criteria in a batch share states, which is
    what the fused worklist exploits), plus random extra transitions
    and an occasional foreign symbol; no transition enters a control
    location, as the saturation contract requires."""
    rng = random.Random(seed)

    def symbol():
        return "foreign" if rng.random() < 0.15 else rng.choice(syms)

    queries = []
    for i in range(rng.randint(2, 5)):
        own = ["q%d_%d" % (i, k) for k in range(rng.randint(0, 3))]
        starts = rng.sample(locs, rng.randint(1, len(locs)))
        query = FiniteAutomaton(initials=starts, finals=["f"])
        path = [rng.choice(starts)] + own + ["f"]
        for src, dst in zip(path, path[1:]):
            query.add_transition(src, symbol(), dst)
        for _ in range(rng.randint(0, 4)):
            query.add_transition(
                rng.choice(starts + own + ["f"]), symbol(), rng.choice(own + ["f"])
            )
        queries.append(query)
    return queries


def build_pds(rules):
    pds = PushdownSystem()
    for p, gamma, p2, w in rules:
        pds.add_rule(p, gamma, p2, w)
    return pds


# -- the int codec -----------------------------------------------------------------


@pytest.mark.smoke
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200)), st.lists(st.integers(min_value=0, max_value=200)))
def test_bitsets_match_set_semantics(left, right):
    lbits, rbits = bits_of(left), bits_of(right)
    lset, rset = set(left), set(right)
    assert set(iter_bits(lbits)) == lset
    assert set(iter_bits(lbits | rbits)) == lset | rset
    assert set(iter_bits(lbits & rbits)) == lset & rset
    assert set(iter_bits(lbits & ~rbits)) == lset - rset
    assert (lbits & rbits == lbits) == (lset <= rset)
    assert sorted(iter_bits(lbits)) == sorted(lset)


@pytest.mark.smoke
@pytest.mark.parametrize("seed", range(12))
def test_encode_decode_roundtrip(seed):
    automaton = random_automaton(seed, eps=0.4 if seed % 3 == 0 else 0.0)
    decoded = decode_automaton(encode_automaton(automaton))
    assert structurally_equal(automaton, decoded)
    assert automaton_to_payload(automaton) == automaton_to_payload(decoded)


@pytest.mark.smoke
def test_encode_decode_empty_and_degenerate():
    empty = FiniteAutomaton()
    assert structurally_equal(empty, decode_automaton(encode_automaton(empty)))
    lonely = FiniteAutomaton(initials=["a"], finals=["a"])
    assert structurally_equal(lonely, decode_automaton(encode_automaton(lonely)))


@pytest.mark.parametrize("seed", range(40))
def test_object_trim_matches_codec_trim(seed):
    """``FiniteAutomaton.trim`` (predecessors built per call) keeps the
    states ``trim_bits`` keeps, with the same initials, finals and
    transitions, on random NFAs with epsilons and several initial
    states, grown by states no initial reaches and states that reach
    no final."""
    rng = random.Random(seed)
    automaton = random_automaton(
        seed, n_states=rng.randint(3, 9), density=0.15, eps=0.5
    )
    states = sorted(automaton.states)
    for state in rng.sample(states, 2):
        automaton.add_initial(state)
    labels = [0, "g0", EPSILON]
    for i in range(rng.randint(1, 3)):
        unreachable = "u%d" % i
        automaton.add_transition(unreachable, rng.choice(labels), rng.choice(states))
        automaton.add_transition(unreachable, rng.choice(labels), unreachable)
    for i in range(rng.randint(1, 3)):
        dead = "d%d" % i
        automaton.add_transition(rng.choice(states), rng.choice(labels), dead)
        automaton.add_transition(dead, rng.choice(labels), "d%d" % rng.randint(0, 2))

    trimmed = automaton.trim()
    enc = encode_automaton(automaton)
    keep = trim_bits(enc)
    assert trimmed.states == {enc.states[sid] for sid in iter_bits(keep)}
    assert structurally_equal(trimmed, decode_automaton(enc, keep_bits=keep))
    assert not any(str(state)[0] in "ud" for state in trimmed.states)


# -- int FSA ops vs the references -------------------------------------------------


@pytest.mark.smoke
@pytest.mark.parametrize("seed", range(12))
def test_int_ops_match_reference_ops(seed):
    automaton = random_automaton(seed)
    assert structurally_equal(
        remove_epsilon_int(automaton), remove_epsilon_reference(automaton)
    )
    det_reference = determinize_reference(automaton)
    assert structurally_equal(determinize_int(automaton), det_reference)
    assert structurally_equal(
        minimize_int(det_reference), minimize_reference(det_reference)
    )


@pytest.mark.parametrize("seed", range(8))
def test_int_ops_match_reference_ops_with_epsilon(seed):
    automaton = random_automaton(seed, eps=0.6)
    assert structurally_equal(
        remove_epsilon_int(automaton), remove_epsilon_reference(automaton)
    )
    # determinize_int applies epsilon-closure semantics directly.
    assert structurally_equal(
        determinize_int(automaton), determinize_reference(automaton)
    )


@pytest.mark.parametrize("seed", range(8))
def test_fused_mrd_matches_reference_chain(seed):
    view = random_automaton(seed)  # epsilon-free: the saturation-view shape
    fused = mrd_int(view)
    assert fused is not None
    a6, _a3_states, _a4_states = fused
    assert structurally_equal(a6, reference_mrd(view))


def test_fused_mrd_matches_reference_on_epsilon_views():
    # The one MRD chain removes epsilons from the reversal itself: a6
    # and the a3/a4 stage sizes equal the object chain's.
    for seed in range(16):
        view = random_automaton(seed, eps=0.3 + 0.6 * (seed % 2))
        if not view.has_epsilon():
            view.add_transition("s0", EPSILON, "s1")
        a6, a3_states, a4_states = mrd_int(view)
        assert structurally_equal(a6, reference_mrd(view)), seed
        a3 = determinize_reference(remove_epsilon_reference(reverse(view)))
        assert a3_states == len(a3.states), seed
        assert a4_states == len(minimize_reference(a3).states), seed


# -- the saturations ---------------------------------------------------------------


@pytest.mark.smoke
@pytest.mark.parametrize("seed", range(10))
def test_saturations_match_reference_worklists(seed):
    pds, query, _rules = random_pds(seed)
    for trim in (False, True):
        stats = {}
        csr_post = poststar_csr(pds, query, trim=trim, stats=stats)
        obj_post = poststar_reference(pds, query, trim=trim)
        assert automaton_to_payload(csr_post) == automaton_to_payload(obj_post)
        assert stats["kernel_worklist_pops"] > 0
        csr_pre = prestar_csr(pds, query, trim=trim)
        obj_pre = prestar_reference(pds, query, trim=trim)
        assert automaton_to_payload(csr_pre) == automaton_to_payload(obj_pre)


@pytest.mark.parametrize("seed", range(40))
def test_batched_saturations_match_reference_worklists(seed):
    """The one worklist loop per direction, over a batch of queries
    sharing states: every projection equals the reference saturation of
    its own query."""
    pds, _query, _rules = random_pds(seed)
    locs = sorted(pds.control_locations)
    queries = random_queries(seed, locs, sorted(pds.stack_symbols))
    for trim in (False, True):
        tag = (seed, trim)
        fused = prestar_many_csr(pds, queries, trim=trim)
        assert [automaton_to_payload(a) for a in fused] == [
            automaton_to_payload(prestar_reference(pds, q, trim=trim))
            for q in queries
        ], tag
        fused = poststar_many_csr(pds, queries, trim=trim)
        assert [automaton_to_payload(a) for a in fused] == [
            automaton_to_payload(poststar_reference(pds, q, trim=trim))
            for q in queries
        ], tag


@pytest.mark.parametrize("seed", range(30))
def test_degenerate_batch_members_match_reference_worklists(seed):
    """Batches that also hold a duplicated query and a query whose only
    final state nothing reaches: the duplicate projects like its twin,
    and the dead query's trimmed projection is empty in both
    directions."""
    pds, _query, _rules = random_pds(seed)
    locs = sorted(pds.control_locations)
    syms = sorted(pds.stack_symbols)
    queries = random_queries(seed, locs, syms)
    rng = random.Random(seed)
    dead = FiniteAutomaton(initials=[rng.choice(locs)], finals=["dead"])
    dead.add_transition(rng.choice(locs), rng.choice(syms), "stray")
    batch = list(queries)
    batch.insert(rng.randint(0, len(batch)), rng.choice(queries))
    batch.insert(rng.randint(0, len(batch)), dead)
    for trim in (False, True):
        tag = (seed, trim)
        for many, reference in (
            (prestar_many_csr, prestar_reference),
            (poststar_many_csr, poststar_reference),
        ):
            fused = many(pds, batch, trim=trim)
            assert [automaton_to_payload(a) for a in fused] == [
                automaton_to_payload(reference(pds, q, trim=trim)) for q in batch
            ], tag
            if trim:
                assert not fused[batch.index(dead)].states, tag


@pytest.mark.smoke
def test_saturations_handcrafted_push_pop_chain():
    # <p,a> -> <p,b c>; <p,b> -> <q,ε>; <q,c> -> <q,ε>: poststar from
    # (p, a) must accept (q, ε) through the epsilon-skip machinery.
    pds = build_pds(
        [("p", "a", "p", ("b", "c")), ("p", "b", "q", ()), ("q", "c", "q", ())]
    )
    query = FiniteAutomaton(initials=["p", "q"], finals=["f"])
    query.add_transition("p", "a", "f")
    post_csr = poststar_csr(pds, query)
    post_obj = poststar_reference(pds, query)
    assert automaton_to_payload(post_csr) == automaton_to_payload(post_obj)
    assert post_csr.accepts_from("q", ())
    # Prestar of (q, ε)-accepting query reaches back to (p, a).
    back_query = FiniteAutomaton(initials=["p", "q"], finals=["q"])
    pre_csr = prestar_csr(pds, back_query)
    pre_obj = prestar_reference(pds, back_query)
    assert automaton_to_payload(pre_csr) == automaton_to_payload(pre_obj)
    assert pre_csr.accepts_from("p", ("a",))


@pytest.mark.parametrize("seed", range(10))
def test_saturation_independent_of_rule_insertion_order(seed):
    pds, query, rules = random_pds(seed)
    baseline_post = automaton_to_payload(poststar_csr(pds, query))
    baseline_pre = automaton_to_payload(prestar_csr(pds, query))
    rng = random.Random(seed + 1000)
    for _ in range(3):
        shuffled = list(rules)
        rng.shuffle(shuffled)
        reordered = build_pds(shuffled)
        assert automaton_to_payload(poststar_csr(reordered, query)) == baseline_post
        assert automaton_to_payload(prestar_csr(reordered, query)) == baseline_pre
        # The reference worklists make the same promise; hold them to it.
        post_reference = poststar_reference(reordered, query)
        assert automaton_to_payload(post_reference) == baseline_post
        assert automaton_to_payload(prestar_reference(reordered, query)) == baseline_pre


@pytest.mark.smoke
def test_poststar_csr_rejects_epsilon_queries():
    pds = build_pds([("p", "a", "p", ("a",))])
    query = FiniteAutomaton(initials=["p"], finals=["f"])
    query.add_transition("p", EPSILON, "f")
    with pytest.raises(ValueError):
        poststar_csr(pds, query)


@pytest.mark.smoke
def test_compiled_pds_cached_per_system():
    from repro.pds.kernel import compiled_pds

    pds = build_pds([("p", "a", "q", ()), ("q", "b", "p", ("a", "b"))])
    stats = {}
    first = compiled_pds(pds, stats=stats)
    assert stats["kernel_rules_compiled"] == 2
    again = compiled_pds(pds, stats=stats)
    assert again is first
    # A cache hit compiles nothing.
    assert stats["kernel_rules_compiled"] == 2
