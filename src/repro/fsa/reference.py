"""Reference automaton operations: the paper-faithful object loops.

The runtime determinize, minimize, and epsilon removal are the integer
twins of :mod:`repro.fsa.intops` (exported as
:func:`repro.fsa.determinize`, :func:`repro.fsa.minimize`, and
:func:`repro.fsa.remove_epsilon`).  The object implementations below
build the same result automata — same state objects, including the
frozenset subset states of determinize and the frozenset-of-frozensets
quotient states of minimize — and the differential and property suites
run them as the oracle the int twins must match structurally.

Minimization is Moore's refinement — repeatedly split blocks by the
successor-block signature until stable — which is O(n^2 |Σ|) in the
worst case, versus Hopcroft's O(n log n); the automata arising from
Prestar on SDGs are small enough (a few states per procedure
specialization) that the simpler algorithm is the better engineering
choice, and ``benchmarks/test_determinize_shrink.py`` confirms minimize
is never the bottleneck.  :func:`repro.fsa.intops.minimize_int` runs the
same refinement over int ids.
"""

from collections import deque

from repro.fsa.automaton import EPSILON, FiniteAutomaton

_DEAD = ("__dead__",)


def remove_epsilon_reference(automaton):
    """An equivalent automaton with no epsilon transitions: every state
    kept, a state final iff its epsilon closure meets the finals, its
    transitions the union over the closure."""
    result = FiniteAutomaton()
    for state in automaton.initials:
        result.add_initial(state)
    for state in automaton.states:
        result.add_state(state)
    for state in automaton.states:
        closure = automaton.epsilon_closure([state])
        if closure & automaton.finals:
            result.add_final(state)
        for mid in closure:
            for symbol in automaton.out_symbols(mid):
                if symbol is EPSILON:
                    continue
                for dst in automaton.targets(mid, symbol):
                    result.add_transition(state, symbol, dst)
    return result



def determinize_reference(automaton):
    """Subset construction: an equivalent deterministic automaton whose
    states are frozensets of input states.  Input may have several
    initial states and epsilon transitions; only reachable subsets are
    built and the dead state is left implicit (the result may be
    partial)."""
    start = frozenset(automaton.epsilon_closure(automaton.initials))
    result = FiniteAutomaton(initials=[start])
    if start & automaton.finals:
        result.add_final(start)
    queue = deque([start])
    seen = {start}
    while queue:
        subset = queue.popleft()
        symbols = set()
        for state in subset:
            symbols |= {s for s in automaton.out_symbols(state) if s is not EPSILON}
        for symbol in symbols:
            targets = set()
            for state in subset:
                targets |= automaton.targets(state, symbol)
            closure = frozenset(automaton.epsilon_closure(targets))
            if not closure:
                continue
            result.add_transition(subset, symbol, closure)
            if closure not in seen:
                seen.add(closure)
                if closure & automaton.finals:
                    result.add_final(closure)
                queue.append(closure)
    return result


def minimize_reference(automaton):
    """The minimal trim DFA equivalent to the deterministic
    ``automaton`` (possibly partial); the minimal automaton of the empty
    language has no states."""
    if not automaton.is_deterministic():
        raise ValueError("minimize requires a deterministic automaton")
    trimmed = automaton.trim()
    if not trimmed.states or not trimmed.finals:
        return FiniteAutomaton()

    states = list(trimmed.states) + [_DEAD]

    # Sparse successor lists: a missing transition is equivalent to a
    # transition into the dead state, so signatures only record
    # transitions whose target block differs from the dead state's —
    # avoiding an O(|states| * |alphabet|) signature per round (SDG
    # alphabets contain every vertex id, so dense signatures are huge).
    out_transitions = {state: [] for state in states}
    for src, symbol, dst in trimmed.transitions():
        out_transitions[src].append((symbol, dst))
    for transitions in out_transitions.values():
        transitions.sort(key=lambda item: repr(item[0]))

    # Initial partition: finals vs non-finals (dead state is non-final).
    block_of = {}
    for state in states:
        block_of[state] = 0 if (state is not _DEAD and state in trimmed.finals) else 1

    # Refinement only ever splits blocks, so iterate until the block
    # count stabilizes.
    while True:
        block_count = len(set(block_of.values()))
        dead_block = block_of[_DEAD]
        signatures = {}
        new_block_of = {}
        for state in states:
            sparse = tuple(
                (symbol, block_of[dst])
                for symbol, dst in out_transitions[state]
                if block_of[dst] != dead_block
            )
            signature = (block_of[state], sparse)
            if signature not in signatures:
                signatures[signature] = len(signatures)
            new_block_of[state] = signatures[signature]
        block_of = new_block_of
        if len(signatures) == block_count:
            break

    # Build the quotient automaton, dropping the dead state's block.
    blocks = {}
    for state in states:
        blocks.setdefault(block_of[state], set()).add(state)
    dead_block = block_of[_DEAD]

    result = FiniteAutomaton()
    representative = {
        index: frozenset(members - {_DEAD}) for index, members in blocks.items()
    }
    initial = next(iter(trimmed.initials))
    result.add_initial(representative[block_of[initial]])
    for state in trimmed.finals:
        result.add_final(representative[block_of[state]])
    for src, symbol, dst in trimmed.transitions():
        if block_of[dst] == dead_block:
            continue
        result.add_transition(
            representative[block_of[src]], symbol, representative[block_of[dst]]
        )
    return result.trim()
