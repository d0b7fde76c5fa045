"""Deterministic automaton serialization and structural equality.

Saturation automata outlive the process that computed them: they are
pickled into the persistent store's ``__sats__`` table and compared
across interpreter runs by the differential harnesses.  ``FiniteAutomaton``'s in-memory representation
(dicts of sets) pickles fine but not *deterministically* — iteration
order depends on insertion history — so this module defines a canonical
payload form:

* :func:`automaton_to_payload` renders an automaton as nested tuples
  with states and transitions in a stable order (sorted by
  :func:`stable_render`, the same deterministic rendering the store's
  key digests use), so equal automata serialize to equal bytes in any
  process;
* :func:`automaton_from_payload` is the exact inverse;
* :func:`structurally_equal` is identity of the state/transition sets
  (the round-trip guarantee, strictly stronger than language equality);
* :func:`canonical_dfa` brings any automaton to its minimal trim DFA
  with states renamed in BFS discovery order over stably-sorted
  symbols — two automata accept the same language **iff** their
  canonical DFAs are structurally equal, which is how the artifact
  property tests check language preservation without a graph-
  isomorphism search.

States and symbols must be built from ints, strings, bytes, bools,
None, and (frozen)sets/tuples thereof — true for every automaton the
PDS machinery produces (control locations, ``__post__`` mid-states,
intersection pairs).
"""

from collections import deque

from repro.fsa.automaton import EPSILON, FiniteAutomaton
from repro.fsa.ops import determinize, minimize, remove_epsilon


def stable_render(value):
    """A process-independent total order key for states and symbols
    (``repr`` is deterministic for the value types above; sets are
    ordered by their elements' renderings)."""
    if isinstance(value, (frozenset, set)):
        return "{%s}" % ",".join(sorted(stable_render(item) for item in value))
    if isinstance(value, tuple):
        return "(%s)" % ",".join(stable_render(item) for item in value)
    return repr(value)


def automaton_to_payload(automaton):
    """The canonical tuple form ``(states, initials, finals,
    transitions)``: states in stable order, initials/finals as sorted
    index tuples, transitions as ``(src_index, symbol, dst_index)``
    sorted by (src, symbol rendering, dst)."""
    states = sorted(automaton.states, key=stable_render)
    index = {state: position for position, state in enumerate(states)}
    transitions = sorted(
        (
            (index[src], symbol, index[dst])
            for (src, symbol, dst) in automaton.transitions()
        ),
        key=lambda entry: (entry[0], stable_render(entry[1]), entry[2]),
    )
    return (
        tuple(states),
        tuple(sorted(index[state] for state in automaton.initials)),
        tuple(sorted(index[state] for state in automaton.finals)),
        tuple(transitions),
    )


def automaton_from_payload(payload):
    """Rebuild the exact automaton :func:`automaton_to_payload` came
    from (same states, same transitions — structural identity, not just
    language equality)."""
    states, initials, finals, transitions = payload
    automaton = FiniteAutomaton()
    for state in states:
        automaton.add_state(state)
    for position in initials:
        automaton.add_initial(states[position])
    for position in finals:
        automaton.add_final(states[position])
    for (src, symbol, dst) in transitions:
        automaton.add_transition(states[src], symbol, states[dst])
    return automaton


def structurally_equal(left, right):
    """Exact equality of the two automata's state, initial, final, and
    transition sets (what a serialization round trip must preserve)."""
    return (
        left.states == right.states
        and left.initials == right.initials
        and left.finals == right.finals
        and set(left.transitions()) == set(right.transitions())
    )


def canonical_dfa(automaton):
    """The minimal trim DFA with states renamed ``0, 1, ...`` in BFS
    discovery order (symbols visited in stable order), so that language
    equality becomes structural equality of canonical forms."""
    minimal = minimize(determinize(remove_epsilon(automaton)))
    result = FiniteAutomaton()
    if not minimal.states:
        return result
    start = next(iter(minimal.initials))
    numbering = {start: 0}
    result.add_initial(0)
    if start in minimal.finals:
        result.add_final(0)
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for symbol in sorted(minimal.out_symbols(state), key=stable_render):
            if symbol is EPSILON:
                continue
            (target,) = minimal.targets(state, symbol)
            if target not in numbering:
                numbering[target] = len(numbering)
                if target in minimal.finals:
                    result.add_final(numbering[target])
                queue.append(target)
            result.add_transition(numbering[state], symbol, numbering[target])
    return result
