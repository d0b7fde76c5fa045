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

The compiled form is cached in a :class:`weakref.WeakKeyDictionary`
keyed by the PDS object — deliberately *not* as a PDS attribute,
because the PDS travels inside pickled SDG store bundles
(``SDG.__getstate__`` keeps the encoding) and the compiled arrays must
never leak into store bytes.
"""

import hashlib
import weakref
from collections import deque

from repro.fsa.automaton import EPSILON
from repro.fsa.intcodec import decode_packed_rows, iter_bits, trim_packed_rows
from repro.fsa.intops import eliminate_epsilon_rows

#: Layout version of the relocatable payload tuple
#: (:func:`compiled_payload`).  Bump on any shape change — persisted
#: payloads from other versions then fail decode and degrade to a
#: recompile.
PAYLOAD_VERSION = 1


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
        "_encoded",
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
        self._derive(tuple(encoded))

    @classmethod
    def _from_tables(cls, loc_list, sym_list, encoded):
        """Rebuild from the id tables and encoded rules alone (the
        relocatable-payload path — no PDS object on this side of the
        process boundary).  The derived tables are a pure function of
        these inputs, so the result is indistinguishable from a fresh
        compile of the originating PDS."""
        comp = cls.__new__(cls)
        comp.loc_list = list(loc_list)
        comp.loc_index = {loc: i for i, loc in enumerate(comp.loc_list)}
        comp.sym_list = list(sym_list)
        comp.sym_index = {sym: i for i, sym in enumerate(comp.sym_list)}
        comp._derive(tuple(encoded))
        return comp

    def _derive(self, encoded):
        loc_list = self.loc_list
        sym_list = self.sym_list
        self._encoded = encoded
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


def compiled_pds(pds, stats=None):
    """The compiled form of ``pds``, built on first use and cached for
    the PDS object's lifetime.  With a ``stats`` sink every lookup is
    counted (``kernel_compile_hits``/``kernel_compile_misses``), so the
    one-compile-per-PDS economics are observable end to end."""
    comp = _COMPILED.get(pds)
    if comp is None:
        comp = CompiledPDS(pds)
        _COMPILED[pds] = comp
        if stats is not None:
            stats["kernel_rules_compiled"] = (
                stats.get("kernel_rules_compiled", 0) + comp.rule_count
            )
            stats["kernel_compile_misses"] = (
                stats.get("kernel_compile_misses", 0) + 1
            )
    elif stats is not None:
        stats["kernel_compile_hits"] = stats.get("kernel_compile_hits", 0) + 1
    return comp


# -- relocatable payload form ------------------------------------------------
#
# The compiled form never crosses a process boundary as an object graph
# (the WeakKeyDictionary cache above is process-local by construction,
# and the derived tables reference live location/symbol objects).  The
# payload form below is the portable twin: a flat tuple of ints and
# strings — deterministic for a given PDS, picklable, checksummable —
# from which ``compiled_from_payload`` rebuilds a CompiledPDS without
# ever seeing the PDS, the SDG, or the source.  The engine persists it
# in the store's ``__pds__`` table keyed by front-half hash.
#
# The universe it covers is exactly the Fig. 8 encoding's
# (:mod:`repro.pds.encode`): control locations are strings (``"p"``)
# or ``("p_fo", vid)`` pairs; stack symbols are vertex ids (ints ≥ 0)
# or site-label strings.  Anything else — arbitrary test PDSs — raises
# :class:`ValueError` and the caller simply skips persistence.
#
# Layout (PAYLOAD_VERSION 1)::
#
#     ("cpds", version, loc_codes, loc_strs, sym_codes, sym_strs, rule_ints)
#
# ``loc_codes[i]``: ``v >= 0`` ⇔ ``("p_fo", v)``; ``-(k+1)`` ⇔
# ``loc_strs[k]``.  ``sym_codes[i]``: ``v >= 0`` ⇔ vertex id ``v``;
# ``-(k+1)`` ⇔ ``sym_strs[k]``.  ``rule_ints`` is the encoded rule
# list at stride 6: ``p, gamma, p2, |w|, w0, w1`` with ``-1`` fillers.


def compiled_payload(comp):
    """The relocatable flat-tuple form of a :class:`CompiledPDS` (see
    the section comment above).  Deterministic: equal compiled forms
    yield equal payloads, across processes and machines.  Raises
    :class:`ValueError` for location/symbol shapes outside the SDG
    encoding's universe."""
    loc_codes = []
    loc_strs = []
    loc_str_index = {}
    for location in comp.loc_list:
        if (
            type(location) is tuple
            and len(location) == 2
            and location[0] == "p_fo"
            and type(location[1]) is int
            and location[1] >= 0
        ):
            loc_codes.append(location[1])
        elif type(location) is str:
            k = loc_str_index.setdefault(location, len(loc_strs))
            if k == len(loc_strs):
                loc_strs.append(location)
            loc_codes.append(-(k + 1))
        else:
            raise ValueError(
                "control location %r has no payload form" % (location,)
            )
    sym_codes = []
    sym_strs = []
    sym_str_index = {}
    for symbol in comp.sym_list:
        if type(symbol) is int and symbol >= 0:
            sym_codes.append(symbol)
        elif type(symbol) is str:
            k = sym_str_index.setdefault(symbol, len(sym_strs))
            if k == len(sym_strs):
                sym_strs.append(symbol)
            sym_codes.append(-(k + 1))
        else:
            raise ValueError(
                "stack symbol %r has no payload form" % (symbol,)
            )
    rule_ints = []
    for p, gamma, p2, w in comp._encoded:
        rule_ints.extend(
            (
                p,
                gamma,
                p2,
                len(w),
                w[0] if w else -1,
                w[1] if len(w) == 2 else -1,
            )
        )
    return (
        "cpds",
        PAYLOAD_VERSION,
        tuple(loc_codes),
        tuple(loc_strs),
        tuple(sym_codes),
        tuple(sym_strs),
        tuple(rule_ints),
    )


def payload_digest(payload):
    """A stable hex digest of a payload tuple — equal across processes
    for equal payloads (everything in the tuple has a deterministic
    ``repr``)."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def compiled_from_payload(payload):
    """Rebuild a :class:`CompiledPDS` from :func:`compiled_payload`'s
    tuple.  Strict: any malformed shape — wrong tag or version, codes
    out of range, duplicate table entries, torn rule stride — raises
    :class:`ValueError` so callers degrade to a recompile instead of
    saturating over garbage."""
    return CompiledPDS._from_tables(*_payload_tables(payload))


def _payload_tables(payload):
    """Decode and validate a payload into ``(loc_list, sym_list,
    encoded)`` — the raw tables :meth:`CompiledPDS._from_tables`
    derives from.  Raises :class:`ValueError` on any malformation."""
    if type(payload) is not tuple or len(payload) != 7:
        raise ValueError("not a compiled-PDS payload")
    tag, version, loc_codes, loc_strs, sym_codes, sym_strs, rule_ints = payload
    if tag != "cpds" or version != PAYLOAD_VERSION:
        raise ValueError("unknown compiled-PDS payload version")
    for part in (loc_codes, loc_strs, sym_codes, sym_strs, rule_ints):
        if type(part) is not tuple:
            raise ValueError("malformed compiled-PDS payload")
    if not all(type(s) is str for s in loc_strs) or not all(
        type(s) is str for s in sym_strs
    ):
        raise ValueError("malformed compiled-PDS string table")

    loc_list = []
    for code in loc_codes:
        if type(code) is not int:
            raise ValueError("malformed location code %r" % (code,))
        if code >= 0:
            loc_list.append(("p_fo", code))
        elif -code - 1 < len(loc_strs):
            loc_list.append(loc_strs[-code - 1])
        else:
            raise ValueError("location code %d out of range" % code)
    sym_list = []
    for code in sym_codes:
        if type(code) is not int:
            raise ValueError("malformed symbol code %r" % (code,))
        if code >= 0:
            sym_list.append(code)
        elif -code - 1 < len(sym_strs):
            sym_list.append(sym_strs[-code - 1])
        else:
            raise ValueError("symbol code %d out of range" % code)
    if len(set(loc_list)) != len(loc_list) or len(set(sym_list)) != len(sym_list):
        raise ValueError("duplicate entries in compiled-PDS id tables")

    nlocs = len(loc_list)
    nsyms = len(sym_list)
    if len(rule_ints) % 6:
        raise ValueError("torn compiled-PDS rule array")
    encoded = []
    for r in range(0, len(rule_ints), 6):
        p, gamma, p2, wlen, w0, w1 = rule_ints[r : r + 6]
        if not all(type(v) is int for v in (p, gamma, p2, wlen, w0, w1)):
            raise ValueError("malformed compiled-PDS rule")
        if not (0 <= p < nlocs and 0 <= p2 < nlocs and 0 <= gamma < nsyms):
            raise ValueError("compiled-PDS rule indexes out of range")
        if wlen == 0:
            w = ()
        elif wlen == 1 and 0 <= w0 < nsyms:
            w = (w0,)
        elif wlen == 2 and 0 <= w0 < nsyms and 0 <= w1 < nsyms:
            w = (w0, w1)
        else:
            raise ValueError("malformed compiled-PDS rule right-hand side")
        encoded.append((p, gamma, p2, w))
    return loc_list, sym_list, encoded


def adopt_compiled(pds, comp):
    """Install a rebuilt compiled form as ``pds``'s cached compilation.
    Verifies first that ``comp`` really encodes ``pds`` — every rule is
    re-encoded through ``comp``'s id tables and compared — and returns
    ``False`` (cache untouched) on any mismatch, so a wrong-but-
    well-formed payload degrades to a recompile rather than corrupting
    results."""
    if comp.rule_count != len(pds.rules):
        return False
    loc_index = comp.loc_index
    sym_index = comp.sym_index
    encoded = comp._encoded
    try:
        for i, rule in enumerate(pds.rules):
            p, gamma, p2, w = encoded[i]
            if (
                loc_index[rule.p] != p
                or sym_index[rule.gamma] != gamma
                or loc_index[rule.p2] != p2
                or tuple(sym_index[s] for s in rule.w) != w
            ):
                return False
    except KeyError:
        return False
    _COMPILED[pds] = comp
    return True


def count_payload(stats, hit):
    """Bump a ``stats`` sink's payload-adoption counters
    (``pds_payload_hits``/``pds_payload_misses``)."""
    if stats is not None:
        key = "pds_payload_hits" if hit else "pds_payload_misses"
        stats[key] = stats.get(key, 0) + 1


def adopt_payload(pds, payload, stats=None):
    """Decode ``payload`` and adopt it for ``pds``; returns ``True`` on
    success.  Corrupt, stale-version, or mismatched payloads return
    ``False`` — never raise — and both outcomes are counted
    (:func:`count_payload`), so degrade-to-recompile is observable.

    Before deriving, the decoded tables are re-anchored onto ``pds``'s
    own location/symbol objects (equal values, but the identities a
    local compile would have used).  This keeps everything the adopted
    compile decodes — saturation automata and the artifacts pickled
    from them — *byte*-identical to a locally compiled session's:
    pickle memoizes by object identity, so payload-unpickled copies of
    the same strings would serialize the same value to different
    bytes."""
    comp = None
    try:
        loc_list, sym_list, encoded = _payload_tables(payload)
        canonical = {loc: loc for loc in pds.control_locations}
        canonical.update((sym, sym) for sym in pds.stack_symbols)
        comp = CompiledPDS._from_tables(
            [canonical[loc] for loc in loc_list],
            [canonical[sym] for sym in sym_list],
            encoded,
        )
    except (KeyError, ValueError):
        # KeyError: a well-formed payload naming locations/symbols this
        # PDS does not have — some other program's compile.
        comp = None
    ok = comp is not None and adopt_compiled(pds, comp)
    count_payload(stats, ok)
    return ok


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


def _count_pops(stats, pops):
    if stats is not None:
        stats["kernel_worklist_pops"] = (
            stats.get("kernel_worklist_pops", 0) + pops
        )


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
# through :func:`repro.fsa.intcodec.trim_packed_rows` /
# :func:`decode_packed_rows` (closing epsilons first with
# :func:`repro.fsa.intops.eliminate_epsilon_rows` for Poststar) —
# pinned against the reference worklists by
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
    _count_pops(stats, pops)

    # Project: distribute the fused fixpoint into per-criterion rows.
    rows_all = [[{} for _ in range(nq)] for _ in range(n)]
    for code, bits in done.items():
        q1 = code % nq
        head = code // nq
        q = head // ns
        sym = head - q * ns
        target = 1 << q1
        for i in iter_bits(bits):
            row = rows_all[i][q]
            row[sym] = row.get(sym, 0) | target
    locs_bits = (1 << nlocs) - 1 if nlocs else 0
    results = []
    for i, automaton in enumerate(automata):
        # Criterion i's state table is the sequential run's: control
        # locations plus its own query states.
        present = locs_bits
        initials_bits = locs_bits
        finals_bits = 0
        for state in automaton.states:
            present |= 1 << state_index[state]
        for state in automaton.initials:
            initials_bits |= 1 << state_index[state]
        for state in automaton.finals:
            finals_bits |= 1 << state_index[state]
        out_rows = rows_all[i]
        keep = present
        if trim:
            keep = trim_packed_rows(out_rows, initials_bits, finals_bits, present)
        results.append(
            decode_packed_rows(
                state_list, sym_list, out_rows, None,
                initials_bits, finals_bits, keep,
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
    _count_pops(stats, pops)

    # Project: per-criterion rows, epsilon rows, and present sets (a
    # mid state is present for criterion i only if run i touched it —
    # exactly the sequential state-set rule).
    locs_bits = (1 << nlocs) - 1 if nlocs else 0
    rows_all = [[{} for _ in range(nq)] for _ in range(n)]
    eps_all = [[0] * nq for _ in range(n)]
    present_all = [locs_bits] * n
    has_eps = [False] * n
    for code, bits in done.items():
        q = code % nq
        head = code // nq
        p = head // ns
        sym = head - p * ns
        endpoints = (1 << p) | (1 << q)
        target = 1 << q
        for i in iter_bits(bits):
            row = rows_all[i][p]
            row[sym] = row.get(sym, 0) | target
            present_all[i] |= endpoints
    for ecode, bits in eps_done.items():
        q = ecode % nq
        p = ecode // nq
        endpoints = (1 << p) | (1 << q)
        target = 1 << q
        for i in iter_bits(bits):
            eps_all[i][p] |= target
            present_all[i] |= endpoints
            has_eps[i] = True

    results = []
    for i, automaton in enumerate(automata):
        present = present_all[i]
        initials_bits = locs_bits
        finals_bits = 0
        for state in automaton.states:
            present |= 1 << state_index[state]
        for state in automaton.initials:
            initials_bits |= 1 << state_index[state]
        for state in automaton.finals:
            finals_bits |= 1 << state_index[state]
        out_rows = rows_all[i]
        if has_eps[i]:
            out_rows, finals_bits = eliminate_epsilon_rows(
                out_rows, eps_all[i], present, finals_bits
            )
        keep = present
        if trim:
            keep = trim_packed_rows(out_rows, initials_bits, finals_bits, present)
        results.append(
            decode_packed_rows(
                state_list, sym_list, out_rows, None,
                initials_bits, finals_bits, keep,
            )
        )
    return results


def prestar_csr(pds, automaton, trim=False, stats=None):
    """``pre*`` of one query automaton: a singleton
    :func:`prestar_many_csr` pass."""
    return prestar_many_csr(pds, (automaton,), trim, stats)[0]


def poststar_csr(pds, automaton, trim=False, stats=None):
    """``post*`` of one query automaton: a singleton
    :func:`poststar_many_csr` pass."""
    return poststar_many_csr(pds, (automaton,), trim, stats)[0]
