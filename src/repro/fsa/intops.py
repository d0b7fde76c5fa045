"""Integer-kernel implementations of the hot FSA operations.

Each function here runs an automaton operation over the
:mod:`repro.fsa.intcodec` representation and decodes back to exactly the
result automaton its object reference in :mod:`repro.fsa.reference`
builds: same state objects (including the frozenset subset states of
determinize and the frozenset-of-frozensets quotient states of
minimize), same transitions, same initials and finals.  The property
suite asserts that structural identity.  :func:`remove_epsilon_int`,
:func:`determinize_int`, and :func:`minimize_int` are the runtime
``repro.fsa.remove_epsilon`` / ``determinize`` / ``minimize``.

:func:`mrd_int` is the one MRD chain, Algorithm 1 lines 4–8 (reverse;
remove-epsilon; determinize; minimize; reverse) fused, that
:func:`repro.core.specialize.specialization_slice` and
:func:`repro.fsa.mrd` (feature removal, binding-time analysis) run: one
encode, the whole chain over bitsets, one decode — no intermediate
object automata at all, which is where the kernel's speedup on
determinize-heavy workloads (Fig. 13) comes from.
"""

from repro.fsa.automaton import FiniteAutomaton
from repro.fsa.intcodec import (
    assemble_automaton,
    decode_automaton,
    encode_automaton,
    iter_bits,
    trim_bits,
)


def query_view_int(automaton, initial):
    """The query view behind :func:`repro.core.criteria.as_query_view`:
    the same transitions read from a single ``initial`` state, trimmed —
    one encode, one bitset trim, one decode, instead of copying the
    whole P-automaton object-by-object and trimming the copy (measured
    1.3-1.8x faster)."""
    enc = encode_automaton(automaton)
    enc.initials_bits = 1 << enc.state_id(initial)
    return decode_automaton(enc, keep_bits=trim_bits(enc))


def remove_epsilon_int(automaton):
    """Epsilon removal (reference: :func:`repro.fsa.reference
    .remove_epsilon_reference`): every input state is kept (even
    isolated ones), a state is final iff its epsilon closure meets the
    finals, and its non-epsilon transitions are the union over the
    closure."""
    enc = encode_automaton(automaton)
    n = len(enc.states)
    out = enc.out
    finals_bits = enc.finals_bits
    states = enc.states
    syms = enc.syms
    new_finals = 0
    triples = []
    for sid in range(n):
        closure = enc.closure_bits(1 << sid)
        if closure & finals_bits:
            new_finals |= 1 << sid
        row = {}
        for mid in iter_bits(closure):
            for sym, bits in out[mid]:
                row[sym] = row.get(sym, 0) | bits
        src = states[sid]
        for sym, bits in row.items():
            symbol = syms[sym]
            for dst in iter_bits(bits):
                triples.append((src, symbol, states[dst]))
    return assemble_automaton(
        states,
        [states[sid] for sid in iter_bits(enc.initials_bits)],
        [states[sid] for sid in iter_bits(new_finals)],
        triples,
    )


def determinize_int(automaton):
    """Determinization (reference: :func:`repro.fsa.reference
    .determinize_reference`): subset construction with epsilon-closure
    semantics, subsets carried as bitsets and decoded to the same
    frozenset states the object construction builds."""
    enc = encode_automaton(automaton)
    out = enc.out
    start = enc.closure_bits(enc.initials_bits)
    subsets = [start]
    index = {start: 0}
    rows = []
    position = 0
    while position < len(subsets):
        bits = subsets[position]
        row = {}
        for sid in iter_bits(bits):
            for sym, tbits in out[sid]:
                row[sym] = row.get(sym, 0) | tbits
        entries = []
        for sym, tbits in row.items():
            closure = enc.closure_bits(tbits)
            j = index.get(closure)
            if j is None:
                j = index[closure] = len(subsets)
                subsets.append(closure)
            entries.append((sym, j))
        rows.append(entries)
        position += 1
    states = enc.states
    syms = enc.syms
    subset_obj = [
        frozenset(states[sid] for sid in iter_bits(bits)) for bits in subsets
    ]
    finals_bits = enc.finals_bits
    triples = []
    for position, entries in enumerate(rows):
        src = subset_obj[position]
        for sym, j in entries:
            triples.append((src, syms[sym], subset_obj[j]))
    return assemble_automaton(
        subset_obj,
        [subset_obj[0]],
        [
            subset_obj[position]
            for position, bits in enumerate(subsets)
            if bits & finals_bits
        ],
        triples,
    )


def _symbol_ranks(syms):
    """Dense ranks replicating the object minimize's per-state
    transition sort key ``repr(symbol)`` (repr is injective over the
    int/string symbol universe the PDS machinery produces; ties — which
    cannot arise there — break by symbol id)."""
    order = sorted(range(len(syms)), key=lambda sym: (repr(syms[sym]), sym))
    ranks = [0] * len(syms)
    for rank, sym in enumerate(order):
        ranks[sym] = rank
    return ranks


def _refine(kept, rows, finals_bits):
    """Moore partition refinement, mirroring the object implementation:
    initial split finals / non-finals (the implicit dead state sits with
    the non-finals), then resplit by sparse successor-block signatures
    (transitions into the dead block omitted) until the block count is
    stable.  ``rows[sid]`` lists ``(symbol id, target)`` sorted in
    repr-rank order; a target outside ``kept`` is the dead state.
    Returns ``(block_of, dead_block)``."""
    block_of = {}
    for sid in kept:
        block_of[sid] = 0 if (finals_bits >> sid) & 1 else 1
    dead_block = 1
    while True:
        block_count = len(set(block_of.values()) | {dead_block})
        signatures = {}
        new_block_of = {}
        for sid in kept:
            sparse = []
            for sym, dst in rows[sid]:
                dst_block = block_of.get(dst, dead_block)
                if dst_block != dead_block:
                    sparse.append((sym, dst_block))
            signature = (block_of[sid], tuple(sparse))
            new_block_of[sid] = signatures.setdefault(signature, len(signatures))
        new_dead = signatures.setdefault((dead_block, ()), len(signatures))
        block_of, dead_block = new_block_of, new_dead
        if len(signatures) == block_count:
            return block_of, dead_block


def minimize_int(automaton):
    """Minimization (reference: :func:`repro.fsa.reference
    .minimize_reference`): trim, Moore refinement over int ids,
    quotient states decoded as the same ``frozenset(block members)``
    the object implementation builds.

    The object version ends with a ``trim()`` of the quotient; that trim
    is a no-op — every DFA state the refinement sees is reachable from
    the initial state and co-reachable to a final one (the input was
    trimmed), and quotienting preserves both along the very same paths —
    so the kernel builds the quotient directly.
    """
    if not automaton.is_deterministic():
        raise ValueError("minimize requires a deterministic automaton")
    enc = encode_automaton(automaton)
    keep = trim_bits(enc)
    if not keep or not (keep & enc.finals_bits):
        return FiniteAutomaton()
    kept = list(iter_bits(keep))
    ranks = _symbol_ranks(enc.syms)
    rows = {}
    for sid in kept:
        # Deterministic input: every target bitset is a single bit.
        row = sorted(
            (ranks[sym], sym, bits.bit_length() - 1) for sym, bits in enc.out[sid]
        )
        rows[sid] = [(sym, dst) for _rank, sym, dst in row]
    block_of, dead_block = _refine(kept, rows, enc.finals_bits)

    states = enc.states
    members = {}
    for sid in kept:
        members.setdefault(block_of[sid], []).append(sid)
    representative = {
        block: frozenset(states[sid] for sid in sids)
        for block, sids in members.items()
        if block != dead_block
    }
    syms = enc.syms
    triples = []
    for sid in kept:
        src = representative[block_of[sid]]
        for sym, dst in rows[sid]:
            dst_block = block_of.get(dst, dead_block)
            if dst_block != dead_block:
                triples.append((src, syms[sym], representative[dst_block]))
    initial_sid = next(iter_bits(enc.initials_bits & keep))
    return assemble_automaton(
        list(representative.values()),
        [representative[block_of[initial_sid]]],
        [
            representative[block_of[sid]]
            for sid in iter_bits(enc.finals_bits & keep)
        ],
        triples,
    )


def mrd_int(view):
    """The fused int MRD chain over a query view: reverse,
    remove-epsilon, determinize, Moore-minimize, reverse — all over
    bitsets, decoding only the final automaton (``a6``).  Structurally
    identical to running the chain stage by stage, and 2-3x faster.

    Returns ``(a6, a3_states, a4_states)``.
    """
    enc = encode_automaton(view)
    n = len(enc.states)

    # Reversed adjacency: rev[t] maps each symbol to the bitset of the
    # sources of the view's transitions src -symbol-> t.
    rev = [{} for _ in range(n)]
    for sid in range(n):
        bit = 1 << sid
        for sym, bits in enc.out[sid]:
            for dst in iter_bits(bits):
                row = rev[dst]
                row[sym] = row.get(sym, 0) | bit
    rev_finals = enc.initials_bits
    if enc.has_eps:
        # Remove epsilons from the reversal: each state takes the moves
        # of its reversed epsilon closure (the states with an epsilon
        # path to it in the view) and accepts iff that closure meets
        # the view's initials.
        closure = [1 << sid for sid in range(n)]
        for sid in range(n):
            for dst in iter_bits(enc.closure_bits(1 << sid)):
                closure[dst] |= 1 << sid
        rev_finals = 0
        merged = []
        for sid in range(n):
            if closure[sid] & enc.initials_bits:
                rev_finals |= 1 << sid
            row = {}
            for mid in iter_bits(closure[sid]):
                for sym, bits in rev[mid].items():
                    row[sym] = row.get(sym, 0) | bits
            merged.append(row)
        rev = merged
    rev_rows = [list(row.items()) for row in rev]

    # Subset construction over the reversal: initials are the view's
    # finals, accepting subsets meet the reversal's finals.
    start = enc.finals_bits
    subsets = [start]
    index = {start: 0}
    dfa_rows = []
    position = 0
    while position < len(subsets):
        bits = subsets[position]
        row = {}
        for sid in iter_bits(bits):
            for sym, sbits in rev_rows[sid]:
                row[sym] = row.get(sym, 0) | sbits
        entries = []
        for sym, tbits in row.items():
            j = index.get(tbits)
            if j is None:
                j = index[tbits] = len(subsets)
                subsets.append(tbits)
            entries.append((sym, j))
        dfa_rows.append(entries)
        position += 1
    a3_states = len(subsets)

    dfa_finals = [
        position for position, bits in enumerate(subsets) if bits & rev_finals
    ]
    if not dfa_finals:
        return FiniteAutomaton(), a3_states, 0

    # Minimize's trim: every subset is reachable by construction, keep
    # the ones co-reachable to an accepting subset.
    dfa_rin = [[] for _ in range(len(subsets))]
    for position, entries in enumerate(dfa_rows):
        for _sym, j in entries:
            dfa_rin[j].append(position)
    keep = set()
    stack = list(dfa_finals)
    while stack:
        position = stack.pop()
        if position in keep:
            continue
        keep.add(position)
        stack.extend(dfa_rin[position])

    ranks = _symbol_ranks(enc.syms)
    rows = {}
    finals_bits_dfa = 0
    for position in dfa_finals:
        finals_bits_dfa |= 1 << position
    kept = sorted(keep)
    for position in kept:
        row = sorted((ranks[sym], sym, j) for sym, j in dfa_rows[position])
        rows[position] = [(sym, j) for _rank, sym, j in row]
    block_of, dead_block = _refine(kept, rows, finals_bits_dfa)

    # Quotient and final reversal, fused: a quotient transition
    # block(i) -sym-> block(j) becomes rep(j) -sym-> rep(i) in a6, the
    # quotient's finals become a6's initials and vice versa.  The
    # object chain's closing trims (minimize's and any a5 one) are
    # no-ops here for the same reachability argument as in
    # :func:`minimize_int`.
    states = enc.states
    members = {}
    for position in kept:
        members.setdefault(block_of[position], []).append(position)
    subset_obj = {
        position: frozenset(
            states[sid] for sid in iter_bits(subsets[position])
        )
        for position in kept
    }
    representative = {
        block: frozenset(subset_obj[position] for position in positions)
        for block, positions in members.items()
        if block != dead_block
    }
    a4_states = len(representative)
    syms = enc.syms
    triples = []
    for position in kept:
        dst = representative[block_of[position]]
        for sym, j in rows[position]:
            j_block = block_of.get(j, dead_block)
            if j_block != dead_block:
                triples.append((representative[j_block], syms[sym], dst))
    a6 = assemble_automaton(
        list(representative.values()),
        {representative[block_of[position]] for position in dfa_finals},
        [representative[block_of[0]]],
        triples,
    )
    return a6, a3_states, a4_states
