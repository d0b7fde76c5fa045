"""Automaton operations: reverse, product intersection, complement,
union, emptiness, language equality, and the MRD pipeline of
Algorithm 1 (lines 4–8).

Determinize, minimize, and epsilon removal are the integer-codec
implementations of :mod:`repro.fsa.intops`, re-exported here under
their plain names (the object loops they replaced live on as the test
oracle in :mod:`repro.fsa.reference`).  :func:`mrd` is the fused int
chain, the one MRD implementation, on any input, epsilon or not."""

from collections import deque

from repro.fsa.automaton import FiniteAutomaton
from repro.fsa.intops import determinize_int as determinize
from repro.fsa.intops import minimize_int as minimize
from repro.fsa.intops import mrd_int
from repro.fsa.intops import remove_epsilon_int as remove_epsilon


def reverse(automaton):
    """The reversal: L(reverse(A)) = { w^R : w in L(A) }.

    Implemented by flipping every transition and swapping initial/final
    state sets — no epsilon transitions are introduced (multiple initial
    states are allowed in our representation, unlike OpenFST's, which is
    why the paper's implementation needed an epsilon-removal step)."""
    result = FiniteAutomaton(initials=automaton.finals, finals=automaton.initials)
    for state in automaton.states:
        result.add_state(state)
    for src, symbol, dst in automaton.transitions():
        result.add_transition(dst, symbol, src)
    return result


def intersection(left, right):
    """Product construction: L = L(left) ∩ L(right).

    Requires epsilon-free inputs (apply :func:`remove_epsilon` first);
    handles nondeterminism and multiple initial states."""
    if left.has_epsilon() or right.has_epsilon():
        raise ValueError("intersection requires epsilon-free automata")
    result = FiniteAutomaton()
    queue = deque()
    for a in left.initials:
        for b in right.initials:
            pair = (a, b)
            result.add_initial(pair)
            queue.append(pair)
    seen = set(result.states)
    while queue:
        a, b = queue.popleft()
        if a in left.finals and b in right.finals:
            result.add_final((a, b))
        for symbol in left.out_symbols(a) & right.out_symbols(b):
            for da in left.targets(a, symbol):
                for db in right.targets(b, symbol):
                    pair = (da, db)
                    result.add_transition((a, b), symbol, pair)
                    if pair not in seen:
                        seen.add(pair)
                        queue.append(pair)
    return result


def complement(automaton, alphabet):
    """The complement with respect to ``alphabet``* .

    The input is determinized, completed with a dead state, and its
    final/non-final states are swapped."""
    dfa = determinize(remove_epsilon(automaton)) if automaton.has_epsilon() else determinize(automaton)
    dead = ("__dead__",)
    result = FiniteAutomaton()
    if not dfa.initials:
        # Empty-language DFA: complement accepts everything.
        result.add_initial(dead)
        result.add_final(dead)
        for symbol in alphabet:
            result.add_transition(dead, symbol, dead)
        return result
    initial = next(iter(dfa.initials))
    result.add_initial(initial)
    result.add_state(dead)
    for state in list(dfa.states) + [dead]:
        missing = set(alphabet)
        if state is not dead:
            for symbol in dfa.out_symbols(state):
                targets = dfa.targets(state, symbol)
                result.add_transition(state, symbol, next(iter(targets)))
                missing.discard(symbol)
        for symbol in missing:
            result.add_transition(state, symbol, dead)
        if state is dead or state not in dfa.finals:
            result.add_final(state)
    return result


def union(left, right):
    """Disjoint union (tags states to avoid collisions)."""
    result = FiniteAutomaton()
    for tag, automaton in (("L", left), ("R", right)):
        for state in automaton.initials:
            result.add_initial((tag, state))
        for state in automaton.finals:
            result.add_final((tag, state))
        for state in automaton.states:
            result.add_state((tag, state))
        for src, symbol, dst in automaton.transitions():
            result.add_transition((tag, src), symbol, (tag, dst))
    return result


def is_empty(automaton):
    """True iff L(A) is empty."""
    return not automaton.trim().finals


def language_equal(left, right):
    """Language equality via minimal-DFA isomorphism.

    Both automata are brought to minimal trim DFA form; minimal DFAs
    accepting the same language are unique up to renaming, so a
    structural isomorphism check decides equality.
    """
    a = minimize(determinize(remove_epsilon(left)))
    b = minimize(determinize(remove_epsilon(right)))
    if len(a.states) != len(b.states):
        return False
    if not a.states:
        return True
    if a.transition_count() != b.transition_count():
        return False
    # Parallel walk from the initial states.
    start_a = next(iter(a.initials))
    start_b = next(iter(b.initials))
    mapping = {start_a: start_b}
    queue = deque([start_a])
    while queue:
        sa = queue.popleft()
        sb = mapping[sa]
        if (sa in a.finals) != (sb in b.finals):
            return False
        if a.out_symbols(sa) != b.out_symbols(sb):
            return False
        for symbol in a.out_symbols(sa):
            da = next(iter(a.targets(sa, symbol)))
            db = next(iter(b.targets(sb, symbol)))
            if da in mapping:
                if mapping[da] != db:
                    return False
            else:
                mapping[da] = db
                queue.append(da)
    return True


def mrd(automaton):
    """The minimal reverse-deterministic automaton for L(A): Algorithm 1,
    lines 4–8 (reverse; remove-epsilon; determinize; minimize; reverse),
    as the fused int chain (:func:`repro.fsa.intops.mrd_int`)."""
    return mrd_int(automaton)[0]


def is_reverse_deterministic(automaton):
    """True iff reverse(A) is deterministic (at most one *source* per
    (state, symbol) pair, a single final state, no epsilon)."""
    if len(automaton.finals) != 1 or automaton.has_epsilon():
        return False
    seen = {}
    for src, symbol, dst in automaton.transitions():
        key = (dst, symbol)
        if key in seen and seen[key] != src:
            return False
        seen[key] = src
    return True
