"""The ``csr`` saturation kernel: flat, integer-indexed ``post*`` /
``pre*`` — the only runtime saturation (:func:`repro.pds.prestar` and
friends are the functions below).

The paper-faithful object loops (:mod:`repro.pds.reference`) spend
their inner loops hashing tuples: every worklist item is a ``(state,
symbol, state)`` triple of arbitrary objects, every rule lookup a dict
probe on an object pair.  This module runs the same algorithms over
machine ints:

* the PDS is *compiled* once per :class:`~repro.pds.system
  .PushdownSystem` — rules sorted into CSR-style parallel arrays
  (``rule_kind`` / ``rule_p2`` / ``rule_w0`` / ``rule_w1`` /
  ``rule_mid``) indexed by a row table keyed on the packed
  ``control-state * nsyms + stack-symbol`` left-hand-side code, plus
  packed right-hand-side indexes for Prestar and a precomputed table of
  Poststar mid states;
* per call, automaton states and any symbols the queries introduce
  beyond the PDS alphabet get dense ids after the compiled ones, and
  every transition becomes one int ``(src * NS + sym) * NQ + dst``
  (epsilon transitions ride as negative codes), with successor sets as
  int bitsets;
* the saturation worklists then push, pop, dedup, and index nothing
  but ints; only the final fixpoint is decoded back into
  :class:`~repro.fsa.automaton.FiniteAutomaton` objects.

Each direction has exactly one worklist loop, the multi-criterion one
(:func:`prestar_many_csr` / :func:`poststar_many_csr`, see the section
comment below); the single-query entry points :func:`prestar_csr` /
:func:`poststar_csr` are singleton batches of it.

Both saturations compute least fixpoints, so each decoded result is
*structurally identical* to the reference loops' — same state objects
(control locations, query states, ``("__post__", p, γ)`` mid states),
same transition sets — and everything downstream (serialization, store
digests, artifact footprints) is byte-for-byte unchanged.  That
contract is pinned by ``tests/test_kernel_differential.py``,
``tests/test_kernel_properties.py`` and
``tests/test_fused_saturation.py``.

:func:`compiled_pds` is the one place a compiled form is built: once
per PDS object, under a module lock, so threads racing into their
first saturation of one PDS compile it once.  It is cached in a
:class:`weakref.WeakKeyDictionary` keyed by the PDS object —
deliberately *not* as a PDS attribute, because the PDS travels inside
pickled SDG store bundles (``SDG.__getstate__`` keeps the encoding)
and the compiled arrays must never leak into store bytes.  A compiled
form never leaves its process; a fresh process compiles again, which
measured faster than loading any persisted form.
"""

import threading
import weakref
from collections import deque

from repro.fsa.automaton import EPSILON
from repro.fsa.intcodec import assemble_automaton, iter_bits

class CompiledPDS(object):
    """A :class:`PushdownSystem` flattened to int arrays (see the
    module docstring).  State ids: control locations first
    (``[0, nlocs)``), then the Poststar mid states
    (``[nlocs, nlocs + nmids)``); per-call query states are appended
    after these.  Symbol ids: the PDS stack symbols ``[0, nsyms)``;
    query-only symbols are appended per call."""

    __slots__ = (
        "nlocs",
        "nsyms",
        "nmids",
        "rule_count",
        "loc_list",
        "loc_index",
        "sym_list",
        "sym_index",
        "mid_states",
        "post_rows",
        "rule_kind",
        "rule_p2",
        "rule_w0",
        "rule_w1",
        "rule_mid",
        "internal_rows",
        "push_rows",
        "pop_rules",
    )

    def __init__(self, pds):
        loc_index = self.loc_index = {}
        loc_list = self.loc_list = []
        sym_index = self.sym_index = {}
        sym_list = self.sym_list = []

        def loc_id(location):
            lid = loc_index.get(location)
            if lid is None:
                lid = loc_index[location] = len(loc_list)
                loc_list.append(location)
            return lid

        def sym_id(symbol):
            sid = sym_index.get(symbol)
            if sid is None:
                sid = sym_index[symbol] = len(sym_list)
                sym_list.append(symbol)
            return sid

        # Rules name every control location and stack symbol the PDS
        # has (``add_rule`` is the only way either set grows).
        encoded = []
        for rule in pds.rules:
            p = loc_id(rule.p)
            gamma = sym_id(rule.gamma)
            p2 = loc_id(rule.p2)
            w = tuple(sym_id(symbol) for symbol in rule.w)
            encoded.append((p, gamma, p2, w))
        nlocs = self.nlocs = len(loc_list)
        nsyms = self.nsyms = len(sym_list)
        self.rule_count = len(encoded)

        # Poststar mid states, precomputed per distinct push right-hand
        # side head so the saturation allocates nothing: the reference
        # loop's ``("__post__", p2, gamma1)`` keys, ids after the
        # control locations.
        mid_states = self.mid_states = []
        mid_of = {}
        for p, gamma, p2, w in encoded:
            if len(w) == 2 and (p2, w[0]) not in mid_of:
                mid_of[(p2, w[0])] = nlocs + len(mid_states)
                mid_states.append(
                    ("__post__", loc_list[p2], sym_list[w[0]])
                )
        self.nmids = len(mid_states)

        # Poststar index: rules in CSR layout, sorted by packed
        # left-hand side, with a row table mapping each occupied
        # ``p * nsyms + gamma`` code to its [start, end) slice.
        order = sorted(
            range(len(encoded)),
            key=lambda i: encoded[i][0] * nsyms + encoded[i][1],
        )
        kind = self.rule_kind = []
        rp2 = self.rule_p2 = []
        rw0 = self.rule_w0 = []
        rw1 = self.rule_w1 = []
        rmid = self.rule_mid = []
        rows = self.post_rows = {}
        for position, i in enumerate(order):
            p, gamma, p2, w = encoded[i]
            code = p * nsyms + gamma
            start, _end = rows.get(code, (position, position))
            rows[code] = (start, position + 1)
            kind.append(len(w))
            rp2.append(p2)
            rw0.append(w[0] if w else -1)
            rw1.append(w[1] if len(w) == 2 else -1)
            rmid.append(mid_of[(p2, w[0])] if len(w) == 2 else -1)

        # Prestar indexes: left-hand sides to fire, keyed by the packed
        # right-hand-side (head) code.
        internal_rows = self.internal_rows = {}
        push_rows = self.push_rows = {}
        pop_rules = self.pop_rules = []
        for p, gamma, p2, w in encoded:
            lhs = p * nsyms + gamma
            if not w:
                pop_rules.append((lhs, p2))
            elif len(w) == 1:
                internal_rows.setdefault(p2 * nsyms + w[0], []).append(lhs)
            else:
                push_rows.setdefault(p2 * nsyms + w[0], []).append((lhs, w[1]))


_COMPILED = weakref.WeakKeyDictionary()
_COMPILE_LOCK = threading.Lock()


def compiled_pds(pds, stats=None):
    """The compiled form of ``pds``, built on first use and cached for
    the PDS object's lifetime.  A miss compiles under a module lock
    and looks again first, so threads racing into their first
    saturation of one PDS compile it once.  With a ``stats`` sink every
    lookup is counted (``kernel_compile_hits``/``kernel_compile_misses``),
    so the one-compile-per-PDS economics are observable end to end."""
    comp = _COMPILED.get(pds)
    if comp is None:
        with _COMPILE_LOCK:
            comp = _COMPILED.get(pds)
            if comp is None:
                comp = _COMPILED[pds] = CompiledPDS(pds)
                if stats is not None:
                    stats["kernel_rules_compiled"] = (
                        stats.get("kernel_rules_compiled", 0) + comp.rule_count
                    )
                    stats["kernel_compile_misses"] = (
                        stats.get("kernel_compile_misses", 0) + 1
                    )
                return comp
    if stats is not None:
        stats["kernel_compile_hits"] = stats.get("kernel_compile_hits", 0) + 1
    return comp


def _batch_tables(comp, automata, with_mids):
    """Shared per-call state/symbol tables over a *batch* of query
    automata: the compiled ids extended with every automaton's states
    and any symbols outside the PDS alphabet (foreign symbols never
    match a rule — the packed lookups are gated on ``sym < nsyms`` —
    but flow through the fixpoint like any other).  Criteria that share
    state objects (the common final state, Poststar-view product
    states) share ids, which is exactly the overlap the fused
    saturations exploit."""
    state_index = dict(comp.loc_index)
    state_list = list(comp.loc_list)
    if with_mids:
        for mid in comp.mid_states:
            state_index[mid] = len(state_list)
            state_list.append(mid)
    sym_index = dict(comp.sym_index)
    sym_list = list(comp.sym_list)
    for automaton in automata:
        for state in automaton.states:
            if state not in state_index:
                state_index[state] = len(state_list)
                state_list.append(state)
        for _src, symbol, _dst in automaton.transitions():
            if symbol not in sym_index:
                sym_index[symbol] = len(sym_list)
                sym_list.append(symbol)
    return state_index, state_list, sym_index, sym_list


def _count(stats, name, amount):
    """Add to a ``kernel_*`` counter: ``kernel_worklist_pops``, or
    ``kernel_projection_visits`` — memberships handed to single
    criteria plus transitions their projections visit, the
    per-criterion work of projecting a fused pass."""
    if stats is not None:
        stats[name] = stats.get(name, 0) + amount


# -- the saturations: one multi-criterion worklist per direction ---------
#
# A batch of N criteria saturates against ONE pushdown system, and N
# separate runs would repeat almost all of each other's work — the rule
# lookups and the worklist churn — wherever the criteria's automata
# overlap (and they overlap a lot: every criterion shares the control
# locations, the common final state, and — in reachable-contexts mode —
# the Poststar-view product states).  So each direction has one
# worklist, run over the whole batch: every transition carries a
# *criterion-membership bitset* (bit i set ⟺ the transition belongs to
# criterion i's fixpoint), seeded from each criterion's query automaton
# with its own bit (and, for Prestar's pop-rule seeds, with the full
# mask — pop seeds start every criterion's saturation).  Rule firing
# intersects the memberships of its premise transitions, so a
# conclusion is derived for exactly the criteria whose own saturations
# would derive it; the worklist is semi-naive (items are ``(transition,
# new bits)`` deltas, a transition re-enters only when its membership
# grows), so the pass does the work of the *union* of the N fixpoints
# instead of their sum.  A single query is a batch of one
# (:func:`prestar_csr`, :func:`poststar_csr`).
#
# Correctness (why projecting bit i is criterion i's own fixpoint): by
# induction over derivations, a transition has bit i iff the
# single-query saturation of criterion i (the Esparza et al. / Schwoon
# worklists of :mod:`repro.pds.reference`) derives it — seeds
# trivially, and every rule firing intersects premise bits exactly as
# the single-query saturation requires both premises to exist.  Every
# bit-i transition's endpoints lie in ``control locations ∪
# A_i.states`` (∪ the touched mid states for Poststar), which is
# precisely the single-query state table, so restricting decode to
# those states loses nothing.  Each projection then trims and decodes
# through :func:`_project` (closing epsilons first with
# :func:`_close_epsilons` for Poststar; see the projection section
# below) — pinned against the reference worklists by
# ``tests/test_fused_saturation.py`` and
# ``tests/test_kernel_properties.py``.


def prestar_many_csr(pds, automata, trim=False, stats=None):
    """Int-kernel ``pre*`` (Esparza et al. 2000) for a batch of query
    automata: one worklist pass over one :class:`CompiledPDS`,
    membership bitsets per transition (see the section comment above).
    Returns one automaton per input, each structurally identical to
    :func:`repro.pds.reference.prestar_reference` of that input
    alone."""
    automata = list(automata)
    if not automata:
        return []
    comp = compiled_pds(pds, stats)
    nlocs = comp.nlocs
    nsyms = comp.nsyms
    state_index, state_list, sym_index, sym_list = _batch_tables(
        comp, automata, with_mids=False
    )
    nq = len(state_list)
    ns = len(sym_list)
    n = len(automata)
    full = (1 << n) - 1

    trans = deque()
    for i, automaton in enumerate(automata):
        bit = 1 << i
        for src, symbol, dst in automaton.transitions():
            trans.append(
                (
                    (state_index[src] * ns + sym_index[symbol]) * nq
                    + state_index[dst],
                    bit,
                )
            )
    for lhs, p2 in comp.pop_rules:
        # <p,γ> ↪ <p',ε> seeds every sequential run: full mask.
        p, gamma = divmod(lhs, nsyms)
        trans.append(((p * ns + gamma) * nq + p2, full))

    done = {}  # packed transition code -> processed criterion bitset
    by_head = {}  # packed (q * ns + γ) -> {target: processed bits}
    pending = {}  # packed (q1 * ns + γ2) -> {lhs head: premise-1 bits}
    internal_rows = comp.internal_rows
    push_rows = comp.push_rows
    pops = 0

    while trans:
        pops += 1
        code, bits = trans.popleft()
        have = done.get(code, 0)
        new = bits & ~have
        if not new:
            continue
        done[code] = have | new
        q1 = code % nq
        head = code // nq
        row = by_head.get(head)
        if row is None:
            row = by_head[head] = {}
        row[q1] = row.get(q1, 0) | new
        q = head // ns
        if q < nlocs:
            sym = head - q * ns
            if sym < nsyms:
                rhs = q * nsyms + sym
                # Internal rules <p,γp> ↪ <q,γ>: (p, γp, q1) inherits
                # exactly the delta bits.
                for lhs in internal_rows.get(rhs, ()):
                    p, gamma = divmod(lhs, nsyms)
                    trans.append(((p * ns + gamma) * nq + q1, new))
                # Push rules <p,γp> ↪ <q,γ γ2>: need q1 -γ2-> q2 *in
                # the same criterion* — the conclusion's membership is
                # the intersection of the two premises'.
                for lhs, gamma2 in push_rows.get(rhs, ()):
                    p, gamma = divmod(lhs, nsyms)
                    lhs_head = p * ns + gamma
                    key = q1 * ns + gamma2
                    partial = pending.get(key)
                    if partial is None:
                        partial = pending[key] = {}
                    partial[lhs_head] = partial.get(lhs_head, 0) | new
                    partner = by_head.get(key)
                    if partner:
                        lhs_base = lhs_head * nq
                        for q2, m2 in partner.items():
                            m = new & m2
                            if m:
                                trans.append((lhs_base + q2, m))
        # This delta may complete earlier partial push matches.
        partial = pending.get(head)
        if partial:
            for lhs_head, m1 in partial.items():
                m = m1 & new
                if m:
                    trans.append((lhs_head * nq + q1, m))
    _count(stats, "kernel_worklist_pops", pops)

    shared, own = _hand_out(done, n, full, stats)
    tables = (state_list, sym_list, nq, ns, nlocs)
    shared_into = _by_target(shared, nq)
    results = []
    for i, automaton in enumerate(automata):
        # Criterion i's state table is the sequential run's: control
        # locations plus its own query states.
        states, initials, finals = _query_ids(automaton, state_index, nlocs)
        results.append(
            _project(
                tables, shared_into, own[i], states, initials, finals, trim, stats
            )
        )
    return results


def poststar_many_csr(pds, automata, trim=False, stats=None):
    """Int-kernel ``post*`` (Schwoon Alg. 3.4) for a batch of query
    automata (the sibling of :func:`prestar_many_csr`): one worklist,
    membership bitsets on both the ordinary and the epsilon
    transitions.  Returns one epsilon-free automaton per input, each
    structurally identical to
    :func:`repro.pds.reference.poststar_reference` of that input
    alone."""
    automata = list(automata)
    if not automata:
        return []
    comp = compiled_pds(pds, stats)
    nlocs = comp.nlocs
    nsyms = comp.nsyms
    state_index, state_list, sym_index, sym_list = _batch_tables(
        comp, automata, with_mids=True
    )
    nq = len(state_list)
    ns = len(sym_list)
    base = ns * nq
    n = len(automata)
    full = (1 << n) - 1

    trans = deque()
    for i, automaton in enumerate(automata):
        bit = 1 << i
        for src, symbol, dst in automaton.transitions():
            if symbol is EPSILON:
                raise ValueError(
                    "poststar requires an epsilon-free query automaton"
                )
            trans.append(
                (
                    (state_index[src] * ns + sym_index[symbol]) * nq
                    + state_index[dst],
                    bit,
                )
            )

    done = {}  # packed transition code -> processed criterion bitset
    eps_done = {}  # packed (p1 * nq + q) epsilon code -> processed bits
    by_source = {}  # src id -> {tail (sym * nq + dst): bits}
    eps_into = {}  # dst id -> {eps source: bits}
    post_rows = comp.post_rows
    rule_kind = comp.rule_kind
    rule_p2 = comp.rule_p2
    rule_w0 = comp.rule_w0
    rule_w1 = comp.rule_w1
    rule_mid = comp.rule_mid
    pops = 0

    while trans:
        pops += 1
        code, bits = trans.popleft()
        if code >= 0:
            have = done.get(code, 0)
            new = bits & ~have
            if not new:
                continue
            done[code] = have | new
            q = code % nq
            head = code // nq
            p = head // ns
            tail = code - p * base
            bucket = by_source.get(p)
            if bucket is None:
                bucket = by_source[p] = {}
            bucket[tail] = bucket.get(tail, 0) | new
            # Epsilon transitions already pointing at ``p`` skip over
            # it — for the criteria both premises belong to.
            sources = eps_into.get(p)
            if sources:
                for p1, m1 in sources.items():
                    m = m1 & new
                    if m:
                        trans.append((p1 * base + tail, m))
            if p < nlocs:
                sym = head - p * ns
                if sym < nsyms:
                    row = post_rows.get(p * nsyms + sym)
                    if row is not None:
                        for r in range(row[0], row[1]):
                            kind = rule_kind[r]
                            p2 = rule_p2[r]
                            if kind == 0:  # pop: (p2, ε, q)
                                trans.append((-(p2 * nq + q) - 1, new))
                            elif kind == 1:  # internal: (p2, w0, q)
                                trans.append(
                                    (p2 * base + rule_w0[r] * nq + q, new)
                                )
                            else:  # push: via the mid state
                                qmid = rule_mid[r]
                                trans.append(
                                    (p2 * base + rule_w0[r] * nq + qmid, new)
                                )
                                trans.append(
                                    (qmid * base + rule_w1[r] * nq + q, new)
                                )
        else:
            ecode = -code - 1
            have = eps_done.get(ecode, 0)
            new = bits & ~have
            if not new:
                continue
            eps_done[ecode] = have | new
            q = ecode % nq
            p1 = ecode // nq
            sources = eps_into.get(q)
            if sources is None:
                sources = eps_into[q] = {}
            sources[p1] = sources.get(p1, 0) | new
            bucket = by_source.get(q)
            if bucket:
                for tail, m2 in bucket.items():
                    m = new & m2
                    if m:
                        trans.append((p1 * base + tail, m))
    _count(stats, "kernel_worklist_pops", pops)

    # Project: a mid state belongs to criterion i's state table only if
    # one of its transitions touches it — exactly the sequential
    # state-set rule.  Epsilons are closed per criterion, then the one
    # projection routine trims and decodes.
    shared, own = _hand_out(done, n, full, stats)
    eps_shared, eps_own = _hand_out(eps_done, n, full, stats)
    tables = (state_list, sym_list, nq, ns, nlocs)
    results = []
    for i, automaton in enumerate(automata):
        states, initials, finals = _query_ids(automaton, state_index, nlocs)
        codes = shared + own[i]
        eps = eps_shared + eps_own[i]
        for code in codes:
            states.add(code // base)
            states.add(code % nq)
        for ecode in eps:
            states.add(ecode // nq)
            states.add(ecode % nq)
        if eps:
            codes, finals = _close_epsilons(codes, eps, finals, nq, base)
        results.append(
            _project(tables, {}, codes, states, initials, finals, trim, stats)
        )
    return results


# -- the projection: criterion i's automaton out of the fused fixpoint ----
#
# A fused fixpoint is mostly criterion-independent: Prestar's pop-rule
# seeds carry the full mask, and so does everything derived from them
# alone (on scaled wc, about three quarters of the transitions).  The
# projection therefore never walks the whole fixpoint per criterion.
# :func:`_hand_out` splits it once per batch into the full-mask
# transitions and, per criterion, its remaining memberships;
# :func:`_project` decodes one criterion from the shared set plus its
# own, and trims by walking backward from the criterion's finals (every
# transition into a co-reachable state) and then forward from its
# initials over just the transitions that walk collected.  A trimmed
# criterion therefore costs its own memberships plus its kept part, at
# any program size.  Both walks are the reference trim's: a state
# reachable from an initial and co-reachable to a final lies on an
# initial-to-final path whose every state is co-reachable, so the
# forward walk over the collected transitions finds exactly the
# reachable co-reachable states.


def _hand_out(done, n, full, stats):
    """Split a fused fixpoint (packed code -> membership bitset) into
    the full-mask codes, shared by every criterion, and each
    criterion's list of its other codes."""
    shared = []
    own = [[] for _ in range(n)]
    handed = 0
    for code, bits in done.items():
        if bits == full:
            shared.append(code)
            continue
        for i in iter_bits(bits):
            own[i].append(code)
            handed += 1
    _count(stats, "kernel_projection_visits", handed)
    return shared, own


def _by_target(codes, nq):
    """Packed transition codes indexed by target state id."""
    into = {}
    for code in codes:
        into.setdefault(code % nq, []).append(code)
    return into


def _query_ids(automaton, state_index, nlocs):
    """A query automaton's states, initials and finals as state ids,
    leaving out the control locations (in every criterion's state table,
    and initial in every saturation result)."""
    return (
        {sid for sid in map(state_index.get, automaton.states) if sid >= nlocs},
        {state_index[state] for state in automaton.initials},
        {state_index[state] for state in automaton.finals},
    )


def _close_epsilons(codes, eps, finals, nq, base):
    """Epsilon elimination over one criterion's packed transitions (the
    reference's ``remove_epsilon``): a state becomes final iff its
    epsilon closure meets the finals, and gains the transitions of every
    state in its closure.  ``eps`` holds ``p * nq + q`` codes; returns
    ``(closed codes, closed finals)``."""
    eps_out = {}
    for ecode in eps:
        p, q = divmod(ecode, nq)
        eps_out.setdefault(p, []).append(q)
    out = {}
    for code in codes:
        out.setdefault(code // base, []).append(code)
    closed = set(codes)
    closed_finals = set(finals)
    for sid in eps_out:
        closure = {sid}
        stack = [sid]
        while stack:
            for q in eps_out.get(stack.pop(), ()):
                if q not in closure:
                    closure.add(q)
                    stack.append(q)
        if not closure.isdisjoint(finals):
            closed_finals.add(sid)
        shift = sid * base
        for mid in closure:
            if mid != sid:
                for code in out.get(mid, ()):
                    closed.add(code - mid * base + shift)
    return closed, closed_finals


def _project(tables, shared_into, own, states, initials, finals, trim, stats):
    """Decode one batch member: its transitions are the batch's shared
    full-mask codes (``shared_into``, indexed by target) plus ``own``;
    ``states``/``initials``/``finals`` are its state ids beyond the
    control locations, which every member has and which are always
    initial.  With ``trim``, only the useful part is visited (see the
    section comment); otherwise every transition is kept."""
    state_list, sym_list, nq, ns, nlocs = tables
    base = nq * ns
    if trim:
        own_into = _by_target(own, nq)
        coreach = set(finals)
        stack = list(coreach)
        collected = []
        while stack:
            dst = stack.pop()
            for into in (shared_into, own_into):
                for code in into.get(dst, ()):
                    collected.append(code)
                    src = code // base
                    if src not in coreach:
                        coreach.add(src)
                        stack.append(src)
        succ = {}
        for code in collected:
            succ.setdefault(code // base, []).append(code % nq)
        keep = {sid for sid in coreach if sid < nlocs or sid in initials}
        stack = list(keep)
        while stack:
            for dst in succ.get(stack.pop(), ()):
                if dst not in keep:
                    keep.add(dst)
                    stack.append(dst)
        codes = [code for code in collected if code // base in keep]
        _count(stats, "kernel_projection_visits", len(collected))
    else:
        keep = set(range(nlocs)) | states
        codes = [code for row in shared_into.values() for code in row]
        codes.extend(own)
        _count(stats, "kernel_projection_visits", len(codes))
    triples = []
    for code in codes:
        head, dst = divmod(code, nq)
        src, sym = divmod(head, ns)
        triples.append((state_list[src], sym_list[sym], state_list[dst]))
    kept = sorted(keep)
    return assemble_automaton(
        [state_list[sid] for sid in kept],
        [state_list[sid] for sid in kept if sid < nlocs or sid in initials],
        [state_list[sid] for sid in kept if sid in finals],
        triples,
    )


def prestar_csr(pds, automaton, trim=False, stats=None):
    """``pre*`` of one query automaton: a singleton
    :func:`prestar_many_csr` pass."""
    return prestar_many_csr(pds, (automaton,), trim, stats)[0]


def poststar_csr(pds, automaton, trim=False, stats=None):
    """``post*`` of one query automaton: a singleton
    :func:`poststar_many_csr` pass."""
    return poststar_many_csr(pds, (automaton,), trim, stats)[0]
