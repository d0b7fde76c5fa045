"""The integer codec behind the ``csr`` kernel: automata as int arrays
and bitsets.

The object representation (:class:`repro.fsa.automaton.FiniteAutomaton`)
keys everything by arbitrary hashable states and symbols; the hot loops
of saturation, subset construction, and partition refinement then spend
most of their time hashing tuples and frozensets.  The codec flattens an
automaton to

* ``states`` — a list giving each state a dense id (index -> object),
* ``syms`` — the same for non-epsilon symbols,
* ``out`` — per state, a list of ``(symbol id, target bitset)`` pairs,
* ``eps_out`` — per state, the epsilon-successor bitset,
* ``initials_bits`` / ``finals_bits`` — state-set bitsets,

where every *set of states* is a Python int bitset (bit ``i`` = state
``i``).  Kernel loops then run over machine ints; the codec decodes the
final result back into the exact state/symbol objects it was built
from, so an encode -> compute -> decode round trip is *structurally
identical* to the object computation (pinned by the property suite in
``tests/test_kernel_properties.py``).
"""

from repro.fsa.automaton import EPSILON, FiniteAutomaton


def bits_of(ids):
    """The bitset with exactly the given bit positions set."""
    bits = 0
    for index in ids:
        bits |= 1 << index
    return bits


def iter_bits(bits):
    """The set bit positions of a bitset, ascending.  The ``m &= m-1``
    trick visits each set bit once; ``bit_length`` turns the isolated
    low bit back into its position."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1


class IntAutomaton(object):
    """An automaton flattened to dense int ids and bitsets (see the
    module docstring for the field layout)."""

    __slots__ = (
        "states",
        "index",
        "syms",
        "symidx",
        "out",
        "eps_out",
        "initials_bits",
        "finals_bits",
        "has_eps",
    )

    def __init__(self):
        self.states = []
        self.index = {}
        self.syms = []
        self.symidx = {}
        self.out = []
        self.eps_out = []
        self.initials_bits = 0
        self.finals_bits = 0
        self.has_eps = False

    def state_id(self, state):
        """The dense id for ``state``, allocating one if new."""
        sid = self.index.get(state)
        if sid is None:
            sid = self.index[state] = len(self.states)
            self.states.append(state)
            self.out.append([])
            self.eps_out.append(0)
        return sid

    def sym_id(self, symbol):
        """The dense id for a (non-epsilon) ``symbol``."""
        sym = self.symidx.get(symbol)
        if sym is None:
            sym = self.symidx[symbol] = len(self.syms)
            self.syms.append(symbol)
        return sym

    def closure_bits(self, bits):
        """Epsilon closure of a state bitset."""
        if not self.has_eps:
            return bits
        eps_out = self.eps_out
        todo = bits
        while todo:
            low = todo & -todo
            todo ^= low
            new = eps_out[low.bit_length() - 1] & ~bits
            bits |= new
            todo |= new
        return bits


def encode_automaton(automaton):
    """Flatten a :class:`FiniteAutomaton` into an :class:`IntAutomaton`.

    States are numbered in the automaton's insertion order (the order is
    internal to one kernel call and never observable — decode restores
    the original objects)."""
    enc = IntAutomaton()
    for state in automaton.states:
        enc.state_id(state)
    # Group targets per (state, symbol) into one bitset, reading the
    # representation directly: the per-bucket sets are exactly what
    # bitsets replace.
    index = enc.index
    for src, buckets in automaton._out.items():
        sid = index[src]
        row = enc.out[sid]
        for symbol, dsts in buckets.items():
            bits = 0
            for dst in dsts:
                bits |= 1 << index[dst]
            if symbol is EPSILON:
                enc.eps_out[sid] = bits
                if bits:
                    enc.has_eps = True
            else:
                row.append((enc.sym_id(symbol), bits))
    for state in automaton.initials:
        enc.initials_bits |= 1 << index[state]
    for state in automaton.finals:
        enc.finals_bits |= 1 << index[state]
    return enc


def decode_automaton(enc, keep_bits=None):
    """The inverse of :func:`encode_automaton`: rebuild the
    :class:`FiniteAutomaton` (same state objects, same transitions).
    With ``keep_bits`` the result is restricted to that state bitset —
    states, initials, finals, and transitions whose endpoints both
    survive — which is how the kernel's int-side trim reaches the
    object world without an intermediate full-size automaton."""
    states = enc.states
    triples = []
    for sid, row in enumerate(enc.out):
        if keep_bits is not None and not (keep_bits >> sid) & 1:
            continue
        src = states[sid]
        for sym, bits in row:
            if keep_bits is not None:
                bits &= keep_bits
            symbol = enc.syms[sym]
            for dst in iter_bits(bits):
                triples.append((src, symbol, states[dst]))
        eps = enc.eps_out[sid]
        if eps:
            if keep_bits is not None:
                eps &= keep_bits
            for dst in iter_bits(eps):
                triples.append((src, EPSILON, states[dst]))
    initials = enc.initials_bits
    finals = enc.finals_bits
    kept_states = range(len(states))
    if keep_bits is not None:
        initials &= keep_bits
        finals &= keep_bits
        kept_states = iter_bits(keep_bits)
    return assemble_automaton(
        [states[sid] for sid in kept_states],
        [states[sid] for sid in iter_bits(initials)],
        [states[sid] for sid in iter_bits(finals)],
        triples,
    )


def assemble_automaton(states, initials, finals, triples):
    """Bulk-build a :class:`FiniteAutomaton` without the per-call
    bookkeeping of :meth:`add_transition` (which re-checks state
    membership on every edge).  ``initials``/``finals`` must be subsets
    of ``states`` and every triple endpoint must be listed in
    ``states`` — true for all codec callers, which enumerate states
    first.  Keeps the class invariant that ``_out``/``_in`` carry an
    entry for every state."""
    automaton = FiniteAutomaton()
    state_set = set(states)
    automaton.states = state_set
    automaton.initials = set(initials)
    automaton.finals = set(finals)
    out = automaton._out = {state: {} for state in state_set}
    into = automaton._in = {state: {} for state in state_set}
    for src, symbol, dst in triples:
        bucket = out[src].get(symbol)
        if bucket is None:
            bucket = out[src][symbol] = set()
        bucket.add(dst)
        bucket = into[dst].get(symbol)
        if bucket is None:
            bucket = into[dst][symbol] = set()
        bucket.add(src)
    return automaton


def trim_bits(enc):
    """The useful-part bitset of an encoded automaton: states reachable
    from an initial state and co-reachable to a final one — the int
    form of :meth:`FiniteAutomaton.trim`."""
    out = enc.out
    eps_out = enc.eps_out
    n = len(enc.states)

    forward = 0
    todo = enc.initials_bits
    while todo:
        low = todo & -todo
        todo ^= low
        sid = low.bit_length() - 1
        if (forward >> sid) & 1:
            continue
        forward |= low
        succ = eps_out[sid]
        for _sym, bits in out[sid]:
            succ |= bits
        todo |= succ & ~forward

    # Reverse adjacency, restricted to forward-reachable states.
    rin = [0] * n
    for sid in iter_bits(forward):
        succ = eps_out[sid]
        for _sym, bits in out[sid]:
            succ |= bits
        low = 1 << sid
        for dst in iter_bits(succ & forward):
            rin[dst] |= low

    backward = 0
    todo = enc.finals_bits & forward
    while todo:
        low = todo & -todo
        todo ^= low
        sid = low.bit_length() - 1
        if (backward >> sid) & 1:
            continue
        backward |= low
        todo |= rin[sid] & ~backward

    return forward & backward
