"""The finite-automaton data structure.

States and symbols are arbitrary hashable values; the symbol ``None`` is
reserved for epsilon transitions.  Automata may be nondeterministic and
may have several initial states (reversal produces those).
Transitions are stored once, by source state; the one pass that needs
predecessors (:meth:`FiniteAutomaton.trim`) builds them itself.
"""

EPSILON = None


class FiniteAutomaton(object):
    """A (nondeterministic) finite automaton."""

    def __init__(self, initials=(), finals=()):
        self.states = set()
        self.initials = set()
        self.finals = set()
        self._out = {}  # state -> {symbol -> set(states)}
        for state in initials:
            self.add_initial(state)
        for state in finals:
            self.add_final(state)

    # -- construction ---------------------------------------------------------

    def add_state(self, state):
        if state not in self.states:
            self.states.add(state)
            self._out[state] = {}
        return state

    def add_initial(self, state):
        self.add_state(state)
        self.initials.add(state)

    def add_final(self, state):
        self.add_state(state)
        self.finals.add(state)

    def add_transition(self, src, symbol, dst):
        """Add ``src --symbol--> dst``; returns True if new."""
        self.add_state(src)
        self.add_state(dst)
        bucket = self._out[src].setdefault(symbol, set())
        if dst in bucket:
            return False
        bucket.add(dst)
        return True

    def has_transition(self, src, symbol, dst):
        return dst in self._out.get(src, {}).get(symbol, ())

    # -- queries -----------------------------------------------------------------

    def targets(self, src, symbol):
        return set(self._out.get(src, {}).get(symbol, ()))

    def out_symbols(self, src):
        return set(self._out.get(src, {}))

    def transitions(self):
        """Iterate all ``(src, symbol, dst)`` triples."""
        for src, buckets in self._out.items():
            for symbol, dsts in buckets.items():
                for dst in dsts:
                    yield (src, symbol, dst)

    def transition_count(self):
        return sum(len(dsts) for buckets in self._out.values() for dsts in buckets.values())

    def alphabet(self):
        """All symbols appearing on transitions (excluding epsilon)."""
        symbols = set()
        for _src, symbol, _dst in self.transitions():
            if symbol is not EPSILON:
                symbols.add(symbol)
        return symbols

    def has_epsilon(self):
        return any(symbol is EPSILON for _s, symbol, _d in self.transitions())

    # -- acceptance -----------------------------------------------------------------

    def epsilon_closure(self, states):
        closure = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for nxt in self.targets(state, EPSILON):
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return closure

    def accepts(self, word):
        """Membership test (handles nondeterminism and epsilon)."""
        current = self.epsilon_closure(self.initials)
        for symbol in word:
            nxt = set()
            for state in current:
                nxt |= self.targets(state, symbol)
            current = self.epsilon_closure(nxt)
            if not current:
                return False
        return bool(current & self.finals)

    def accepts_from(self, state, word):
        """Membership test starting from a specific state."""
        current = self.epsilon_closure([state])
        for symbol in word:
            nxt = set()
            for src in current:
                nxt |= self.targets(src, symbol)
            current = self.epsilon_closure(nxt)
            if not current:
                return False
        return bool(current & self.finals)

    # -- language enumeration (tests / readout aids) ----------------------------------

    def enumerate_words(self, max_length, limit=None):
        """All accepted words up to ``max_length``, in length-lexicographic
        order of discovery (BFS).  ``limit`` caps the result count."""
        from collections import deque

        words = []
        start = frozenset(self.epsilon_closure(self.initials))
        queue = deque([(start, ())])
        while queue:
            states, word = queue.popleft()
            if states & self.finals:
                words.append(word)
                if limit is not None and len(words) >= limit:
                    return words
            if len(word) == max_length:
                continue
            symbols = set()
            for state in states:
                symbols |= {s for s in self.out_symbols(state) if s is not EPSILON}
            for symbol in sorted(symbols, key=repr):
                nxt = set()
                for state in states:
                    nxt |= self.targets(state, symbol)
                nxt = frozenset(self.epsilon_closure(nxt))
                if nxt:
                    queue.append((nxt, word + (symbol,)))
        return words

    def is_deterministic(self):
        """Single initial state, no epsilon, at most one target per
        (state, symbol)."""
        if len(self.initials) != 1 or self.has_epsilon():
            return False
        for _src, _symbol, _dst in self.transitions():
            pass
        for src, buckets in self._out.items():
            for symbol, dsts in buckets.items():
                if len(dsts) > 1:
                    return False
        return True

    # -- trimming -----------------------------------------------------------------

    def trim(self):
        """A copy restricted to states both reachable from an initial
        state and co-reachable to a final state.  The backward pass
        walks predecessor lists built here for the forward-reachable
        states only, as :func:`repro.fsa.intcodec.trim_bits` does."""
        out = self._out
        forward = set()
        stack = list(self.initials)
        while stack:
            state = stack.pop()
            if state in forward:
                continue
            forward.add(state)
            for dsts in out[state].values():
                stack.extend(dsts - forward)
        # Forward reachability is closed under successors, so every
        # target of a forward state has a list here.
        preds = {state: [] for state in forward}
        for src in forward:
            for dsts in out[src].values():
                for dst in dsts:
                    preds[dst].append(src)
        backward = set()
        stack = [s for s in self.finals if s in forward]
        while stack:
            state = stack.pop()
            if state in backward:
                continue
            backward.add(state)
            stack.extend(preds[state])
        keep = forward & backward
        result = FiniteAutomaton()
        for state in self.initials & keep:
            result.add_initial(state)
        for state in self.finals & keep:
            result.add_final(state)
        for src, symbol, dst in self.transitions():
            if src in keep and dst in keep:
                result.add_transition(src, symbol, dst)
        return result

    def copy(self):
        result = FiniteAutomaton(self.initials, self.finals)
        for state in self.states:
            result.add_state(state)
        for src, symbol, dst in self.transitions():
            result.add_transition(src, symbol, dst)
        return result

    def renumber(self):
        """A copy with states renamed to consecutive integers (stable
        under repr-sorting; useful after subset construction)."""
        mapping = {state: index for index, state in enumerate(sorted(self.states, key=repr))}
        result = FiniteAutomaton()
        for state in self.initials:
            result.add_initial(mapping[state])
        for state in self.finals:
            result.add_final(mapping[state])
        for state in self.states:
            result.add_state(mapping[state])
        for src, symbol, dst in self.transitions():
            result.add_transition(mapping[src], symbol, mapping[dst])
        return result

    def __repr__(self):
        return "FiniteAutomaton(%d states, %d transitions, %d initial, %d final)" % (
            len(self.states),
            self.transition_count(),
            len(self.initials),
            len(self.finals),
        )
