"""Pushdown-system data structures (Defn. 3.1).

A rule ``<p, γ> ↪ <p', w>`` with ``|w| ≤ 2`` is a *pop* rule (``w = ε``),
an *internal* rule (``|w| = 1``), or a *push* rule (``|w| = 2``).
"""


class Rule(object):
    """One PDS rule ``<p, gamma> -> <p2, w>`` with ``w`` a tuple of 0-2
    stack symbols."""

    __slots__ = ("p", "gamma", "p2", "w")

    def __init__(self, p, gamma, p2, w):
        w = tuple(w)
        if len(w) > 2:
            raise ValueError("PDS rules are restricted to |w| <= 2")
        self.p = p
        self.gamma = gamma
        self.p2 = p2
        self.w = w

    @property
    def kind(self):
        return ("pop", "internal", "push")[len(self.w)]

    def __repr__(self):
        return "<%r, %r> -> <%r, %r>" % (self.p, self.gamma, self.p2, self.w)

    def __eq__(self, other):
        if not isinstance(other, Rule):
            return NotImplemented
        return (self.p, self.gamma, self.p2, self.w) == (
            other.p,
            other.gamma,
            other.p2,
            other.w,
        )

    def __hash__(self):
        return hash((self.p, self.gamma, self.p2, self.w))


class PushdownSystem(object):
    """A PDS: control locations, stack symbols and rules, nothing else.
    The runtime kernel compiles the rules into its own int indexes
    (:class:`repro.pds.kernel.CompiledPDS`), and the reference oracle
    (:mod:`repro.pds.reference`) indexes them when a saturation starts,
    so a live session keeps no per-rule lists for the collector to
    scan."""

    def __init__(self):
        self.control_locations = set()
        self.stack_symbols = set()
        self.rules = []

    def add_rule(self, p, gamma, p2, w):
        rule = Rule(p, gamma, p2, w)
        self.rules.append(rule)
        self.control_locations.add(p)
        self.control_locations.add(p2)
        self.stack_symbols.add(gamma)
        self.stack_symbols.update(rule.w)
        return rule

    def rule_count(self):
        return len(self.rules)

    def step(self, config):
        """All one-step successors of a configuration ``(p, stack)``
        where ``stack`` is a tuple with the top at index 0, in rule
        order.  Used by tests to cross-check saturation results against
        brute-force reachability."""
        p, stack = config
        if not stack:
            return []
        gamma, rest = stack[0], stack[1:]
        return [
            (rule.p2, rule.w + rest)
            for rule in self.rules
            if rule.p == p and rule.gamma == gamma
        ]

    def __repr__(self):
        return "PushdownSystem(%d locations, %d symbols, %d rules)" % (
            len(self.control_locations),
            len(self.stack_symbols),
            len(self.rules),
        )
