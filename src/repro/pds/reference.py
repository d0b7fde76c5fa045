"""Reference saturations: the paper-faithful object loops.

The runtime saturations are the flat integer kernels of
:mod:`repro.pds.kernel` (exported as :func:`repro.pds.prestar` /
:func:`repro.pds.poststar`).  The two dict-of-sets loops below compute
the same least fixpoints over arbitrary hashable states and symbols;
the differential suites run them as the oracle the kernels must match
structurally (same state objects, same transition sets).

Prestar (Defn. 3.6)
-------------------

Given a PDS ``P`` and a P-automaton ``A`` accepting a regular set of
configurations ``C``, produces a P-automaton accepting ``pre*(C)`` — for
an SDG-encoding PDS, the *stack-configuration slice* (the closure slice
of the unrolled SDG).

This is the efficient worklist algorithm of Esparza–Hansel–Rossmanith–
Schwoon (2000), O(|Q|^2 |Δ|) time: transitions are added according to

    Pre1:  t ∈ A                            =>  t ∈ A_pre*
    Pre2:  <p,γ> ↪ <p',w> ∈ Δ, p' -w->* q   =>  (p,γ,q) ∈ A_pre*

Push rules ``<p,γ> ↪ <p',γ'γ''>`` are matched incrementally: when a
transition ``(p',γ',q1)`` appears, a *pending* entry ``(q1,γ'') ->
(p,γ)`` is recorded; when ``(q1,γ'',q2)`` appears (before or after), the
transition ``(p,γ,q2)`` is emitted.

Poststar (Defn. 3.7)
--------------------

Given a PDS ``P`` and a P-automaton ``A`` accepting configurations
``C``, produces a P-automaton accepting ``post*(C)`` — for an
SDG-encoding PDS, the *forward* stack-configuration slice (used by the
feature-removal algorithm, Alg. 2, and by reachable-context criteria).

Efficient formulation (Schwoon 2002, Alg. 3.4): a fresh state
``q_{p',γ'}`` is created for each push-rule right-hand-side head; the
saturation rules are

    Post1: t ∈ A                               => t ∈ A_post*
    Post2: <p,γ> ↪ <p',ε>,   p -γ->> q         => (p', ε, q)
    Post3: <p,γ> ↪ <p',γ'>,  p -γ->> q         => (p', γ', q)
    Post4: <p,γ> ↪ <p',γ'γ''>, p -γ->> q       => (p', γ', q_{p'γ'}),
                                                  (q_{p'γ'}, γ'', q)

where ``->>`` allows skipping epsilon transitions.  The returned
automaton has had its epsilon transitions eliminated.
"""

from collections import deque

from repro.fsa.automaton import EPSILON, FiniteAutomaton
from repro.fsa.reference import remove_epsilon_reference


def _prestar_indexes(pds):
    """Prestar matches rules by their right-hand side: the pop rules,
    and the internal and push rules keyed by ``(p', w[0])``.  Built
    from ``pds.rules`` per saturation; the PDS keeps no indexes."""
    pop_rules = []
    internal_by_rhs = {}  # (p2, w0) -> [rule]
    push_by_rhs_head = {}  # (p2, w0) -> [rule]
    for rule in pds.rules:
        if not rule.w:
            pop_rules.append(rule)
        elif len(rule.w) == 1:
            internal_by_rhs.setdefault((rule.p2, rule.w[0]), []).append(rule)
        else:
            push_by_rhs_head.setdefault((rule.p2, rule.w[0]), []).append(rule)
    return pop_rules, internal_by_rhs, push_by_rhs_head


def _poststar_index(pds):
    """Poststar matches rules by their left-hand side ``(p, γ)``."""
    by_lhs = {}  # (p, gamma) -> [rule]
    for rule in pds.rules:
        by_lhs.setdefault((rule.p, rule.gamma), []).append(rule)
    return by_lhs


def prestar_reference(pds, automaton, trim=False, stats=None):
    """Saturate ``automaton`` with pre* transitions; returns a new
    :class:`FiniteAutomaton` (the input is not modified).  Same contract
    as :func:`repro.pds.kernel.prestar_csr`: the input must be
    epsilon-free with no transitions into control locations; ``trim``
    restricts the result to its useful part; ``stats`` accumulates
    ``kernel_worklist_pops``."""
    pop_rules, internal_by_rhs, push_by_rhs_head = _prestar_indexes(pds)
    rel = set()
    by_source_symbol = {}  # (q, γ) -> set of q2 with (q, γ, q2) ∈ rel
    pending = {}  # (q, γ) -> list of (p, γp) waiting for (q, γ, ·)
    trans = deque()

    for triple in automaton.transitions():
        trans.append(triple)
    for rule in pop_rules:
        # <p,γ> ↪ <p',ε>:  p' -ε->* p'  =>  (p, γ, p')
        trans.append((rule.p, rule.gamma, rule.p2))

    pops = 0
    while trans:
        pops += 1
        q, gamma, q1 = trans.popleft()
        if (q, gamma, q1) in rel:
            continue
        rel.add((q, gamma, q1))
        by_source_symbol.setdefault((q, gamma), set()).add(q1)

        # Internal rules <p,γp> ↪ <q,γ>: new transition (p, γp, q1).
        for rule in internal_by_rhs.get((q, gamma), ()):
            trans.append((rule.p, rule.gamma, q1))

        # Push rules <p,γp> ↪ <q, γ γ2>: need q1 -γ2-> q2.
        for rule in push_by_rhs_head.get((q, gamma), ()):
            gamma2 = rule.w[1]
            pending.setdefault((q1, gamma2), []).append((rule.p, rule.gamma))
            for q2 in by_source_symbol.get((q1, gamma2), ()):
                trans.append((rule.p, rule.gamma, q2))

        # This transition may complete earlier partial push matches.
        for (p, gamma_p) in pending.get((q, gamma), ()):
            trans.append((p, gamma_p, q1))

    if stats is not None:
        stats["kernel_worklist_pops"] = (
            stats.get("kernel_worklist_pops", 0) + pops
        )

    result = FiniteAutomaton()
    for state in pds.control_locations:
        result.add_initial(state)
    for state in automaton.initials:
        result.add_initial(state)
    for state in automaton.finals:
        result.add_final(state)
    for state in automaton.states:
        result.add_state(state)
    for (q, gamma, q1) in rel:
        result.add_transition(q, gamma, q1)
    return result.trim() if trim else result



def poststar_reference(pds, automaton, trim=False, stats=None):
    """Saturate ``automaton`` with post* transitions; returns a new,
    epsilon-free :class:`FiniteAutomaton`.  Same contract as
    :func:`repro.pds.kernel.poststar_csr`."""
    by_lhs = _poststar_index(pds)
    mid_state = {}

    def mid(p2, gamma1):
        key = ("__post__", p2, gamma1)
        mid_state[(p2, gamma1)] = key
        return key

    rel = set()  # non-epsilon transitions
    eps_rel = set()  # (p, q) epsilon transitions
    by_source = {}  # q -> set of (γ, q2) for rel
    eps_into = {}  # q -> set of p with (p, ε, q)
    trans = deque()

    for triple in automaton.transitions():
        if triple[1] is EPSILON:
            raise ValueError("poststar requires an epsilon-free query automaton")
        trans.append(triple)

    def add_rel(p, gamma, q):
        if (p, gamma, q) in rel:
            return False
        rel.add((p, gamma, q))
        by_source.setdefault(p, set()).add((gamma, q))
        # Epsilon transitions already pointing at ``p`` skip over it:
        # (p1, ε, p) and (p, γ, q) combine to (p1, γ, q).
        for p1 in eps_into.get(p, ()):
            trans.append((p1, gamma, q))
        return True

    pops = 0
    while trans:
        pops += 1
        p, gamma, q = trans.popleft()
        if gamma is not EPSILON:
            if not add_rel(p, gamma, q):
                continue
            for rule in by_lhs.get((p, gamma), ()):
                if rule.kind == "pop":
                    trans.append((rule.p2, EPSILON, q))
                elif rule.kind == "internal":
                    trans.append((rule.p2, rule.w[0], q))
                else:
                    gamma1, gamma2 = rule.w
                    qmid = mid(rule.p2, gamma1)
                    trans.append((rule.p2, gamma1, qmid))
                    add_rel(qmid, gamma2, q)
        else:
            if (p, q) in eps_rel:
                continue
            eps_rel.add((p, q))
            eps_into.setdefault(q, set()).add(p)
            for (gamma1, q2) in by_source.get(q, set()).copy():
                trans.append((p, gamma1, q2))

    if stats is not None:
        stats["kernel_worklist_pops"] = (
            stats.get("kernel_worklist_pops", 0) + pops
        )

    result = FiniteAutomaton()
    for state in pds.control_locations:
        result.add_initial(state)
    for state in automaton.initials:
        result.add_initial(state)
    for state in automaton.finals:
        result.add_final(state)
    for state in automaton.states:
        result.add_state(state)
    for (p, gamma, q) in rel:
        result.add_transition(p, gamma, q)
    for (p, q) in eps_rel:
        result.add_transition(p, EPSILON, q)
    result = remove_epsilon_reference(result)
    return result.trim() if trim else result

