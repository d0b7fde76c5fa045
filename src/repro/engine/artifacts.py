"""Relocatable saturation artifacts: the one representation every
saturation consumer shares.

A PDS saturation (``Poststar(entry_main)``, a per-criterion Prestar,
a feature's forward-cone Poststar) used to live only as a raw automaton
inside one session's memo; the store could not persist it, process-pool
workers re-saturated it, and the incremental layer re-derived its
procedure ownership by trimming at every update.  A
:class:`SaturationArtifact` packages the saturation once, in the form
all three consumers — memo, store, and ``update_source`` survival —
need:

* ``automaton`` — the *trimmed* saturation automaton (the useful part
  only; trimming preserves the configuration language read from every
  initial state, which is all any consumer reads).  Slim by
  construction: symbols are vertex ids and call-site labels, states
  are small tuples — no SDG or encoding references.
* ``key`` — the canonical memo/store key: :data:`REACHABLE_KEY` for the
  shared Poststar, ``(SAT_PRESTAR | SAT_POSTSTAR, criterion_key)`` for
  per-criterion saturations (see :mod:`repro.engine.canonical`).
* ``footprint`` — the *ownership footprint*: the frozenset of
  per-procedure content keys (:func:`repro.engine.incremental
  .procedure_keys` digests) whose PDS rules the automaton touches.  A
  symbol is owned by the procedure containing it — and, for a call-site
  label, by the callee as well — exactly mirroring which procedures
  contribute PDS rules mentioning it.  It is ``None`` only in the form
  the store files (see below).

The footprint is what makes the artifact *relocatable*.  Whether an
artifact outlives a live edit is decided in one place,
:func:`repro.engine.incremental.carry_over`: across a structural edit
it survives iff its footprint is a subset of the new revision's
content keys (an empty footprint always is) and, for a criterion
restricted from the shared Poststar, the criterion itself did not
change.  Any PDS rule the edit added or removed mentions a changed
procedure's vertex or call site, and the first changed rule usable in
a new derivation needs a configuration the old automaton already
accepted that mentions such a symbol; so an unchanged query saturates
to the same automaton, up to the :class:`Relocation` that renames its
symbols *and* the states built from them (docs/ARCHITECTURE.md §8
gives the whole argument).  A carried artifact is therefore the very
bytes a cold session would compute.  Content keys, not names, so the
check composes with the store's content-addressed tables and stays
meaningful across processes.

The store files an artifact *without* its footprint
(:meth:`SaturationArtifact.without_footprint`), named by the digest of
those bytes, and records it in the index of its pushdown system
(:func:`repro.engine.incremental.layout_signature`) with the footprint
as procedure names (:func:`index_record`).  Every revision of one
pushdown system has the same procedures, so each resolves the names to
its own content keys (:func:`load_filed` puts the two halves back
together): a label edit changes content keys but no automaton, and the
edited revision loads the very files the index names.

Artifacts pickle deterministically: ``__getstate__`` renders the
automaton through :func:`repro.fsa.serialize.automaton_to_payload` and
then collapses equal values to one representative object
(:func:`_intern_values`), so equal artifacts serialize to equal bytes
in any interpreter — the property the ``__sats__`` store table, shared
by every process opening the same cache directory, relies on.  The interning pass matters because pickle
memoizes by object *identity*: a product state like ``('m', 'm')``
pairs the criterion module's ``'m'`` with an ``'m'`` that may have been
unpickled from a store-loaded Poststar, and whether those are one
object or two depends on which worker persisted the Poststar first.
"""

from repro.core.criteria import FINAL
from repro.fsa.serialize import automaton_from_payload, automaton_to_payload


def _intern_values(value, memo):
    """Rebuild a payload-shaped value (ints, strings, bytes, bools,
    None, nested tuples/frozensets thereof) with every equal sub-value
    collapsed to a single representative object, so pickle's
    identity-keyed memo sees the same sharing structure for equal
    values regardless of where each object came from.  Only the kinds
    pickle stores by reference need interning; ints, bools, and None
    are serialized inline at every occurrence, so they pass through
    untouched (payloads are mostly ints — skipping them keeps this
    pass off the warm-query profile)."""
    if isinstance(value, tuple):
        value = tuple(_intern_values(item, memo) for item in value)
    elif isinstance(value, frozenset):
        value = frozenset(_intern_values(item, memo) for item in value)
    elif not isinstance(value, (str, bytes)):
        return value
    # Keyed by (class, value) so equal-comparing values of different
    # types (e.g. a str-subclass) stay distinct.
    return memo.setdefault((value.__class__, value), value)


class SaturationArtifact(object):
    """One saturation result, relocatable across sessions, processes,
    the persistent store, and source edits.

    Attributes:
        kind: ``"poststar"`` or ``"prestar"`` (which saturation
            procedure produced the automaton).
        key: the canonical memo/store key.
        automaton: the trimmed saturation :class:`FiniteAutomaton`.
        footprint: frozenset of procedure content keys the automaton's
            useful part touches (None in the filed form,
            :meth:`without_footprint`).
    """

    __slots__ = ("kind", "key", "automaton", "footprint")

    def __init__(self, kind, key, automaton, footprint):
        self.kind = kind
        self.key = key
        self.automaton = automaton
        self.footprint = footprint

    def __getstate__(self):
        memo = {}
        return _intern_values(
            (
                self.kind,
                self.key,
                automaton_to_payload(self.automaton),
                None if self.footprint is None else tuple(sorted(self.footprint)),
            ),
            memo,
        )

    def __setstate__(self, state):
        kind, key, payload, footprint = state
        self.kind = kind
        self.key = key
        self.automaton = automaton_from_payload(payload)
        self.footprint = None if footprint is None else frozenset(footprint)

    def __repr__(self):
        return "SaturationArtifact(%s, %r, %d procs)" % (
            self.kind,
            self.key,
            -1 if self.footprint is None else len(self.footprint),
        )

    def without_footprint(self):
        """This artifact with footprint None: the form the store files,
        whose bytes depend only on kind, key, and automaton."""
        return SaturationArtifact(self.kind, self.key, self.automaton, None)

    # -- renaming across revisions -------------------------------------------------

    def translated(self, key_translation):
        """This artifact with its footprint re-addressed through
        ``{old content key -> new content key}`` — the label-only edit
        case, where a procedure's text (and therefore key) changed but
        its PDS rules did not, so the automaton itself is still exact."""
        if not key_translation:
            return self
        footprint = frozenset(
            key_translation.get(content_key, content_key)
            for content_key in self.footprint
        )
        if footprint == self.footprint:
            return self
        return SaturationArtifact(self.kind, self.key, self.automaton, footprint)


def index_record(artifact, file_name, names):
    """The record a saturation index keeps for an artifact filed as
    ``__sats__`` file ``file_name``: ``(memo key, kind, footprint,
    file name)``, the footprint as the sorted names of its procedures
    (``names`` maps the filing revision's content keys to procedure
    names), so every revision of the pushdown system can read it."""
    footprint = tuple(sorted(names[content_key] for content_key in artifact.footprint))
    return (artifact.key, artifact.kind, footprint, file_name)


def load_filed(store, record, proc_keys):
    """The artifact an index record names, its footprint resolved from
    the record's procedure names through ``proc_keys`` (name -> content
    key of the loading revision), or None when the record is malformed
    or its file is missing, corrupt, or holds another key."""
    try:
        key, _kind, names, file_name = record
        footprint = frozenset(proc_keys[name] for name in names)
    except (TypeError, ValueError, KeyError):
        return None
    artifact = store.get_sat(file_name, key)
    if not isinstance(artifact, SaturationArtifact):
        return None
    artifact.footprint = footprint
    return artifact


def symbol_owner_procs(sdg, automaton):
    """The procedures whose PDS rules the automaton's useful part can
    mention: the owner of each vertex symbol, plus — for call-site
    symbols — both the caller (the rule pushing the site) and the
    callee (the param-out rules popping it)."""
    procs = set()
    vertices = sdg.vertices
    call_sites = sdg.call_sites
    for (_src, symbol, _dst) in automaton.transitions():
        if symbol is None:
            continue
        if isinstance(symbol, int):
            vertex = vertices.get(symbol)
            if vertex is not None:
                procs.add(vertex.proc)
        else:
            site = call_sites.get(symbol)
            if site is not None:
                procs.add(site.caller)
                procs.add(site.callee)
    return procs


def artifact_footprint(sdg, proc_keys, automaton):
    """The ownership footprint of a trimmed automaton over a front half:
    the content keys of every procedure owning one of its symbols.
    ``proc_keys`` is the ``name -> content key`` map of the front half.
    Every saturation is computed with ``trim=True``, so its whole
    automaton is the useful part."""
    return frozenset(
        proc_keys[name]
        for name in symbol_owner_procs(sdg, automaton)
        if name in proc_keys
    )


def make_artifact(kind, key, automaton, sdg, proc_keys):
    """Package a trimmed saturation automaton as an artifact over the
    given front half (see :func:`artifact_footprint` for the
    arguments)."""
    return SaturationArtifact(
        kind, key, automaton, artifact_footprint(sdg, proc_keys, automaton)
    )


class Relocation(object):
    """The renaming a structural edit applies to what it keeps (ρ in
    docs/ARCHITECTURE.md §8): ``vid_map`` and ``site_map`` pair the
    vertex ids and call-site labels of the procedures both revisions
    share, and :meth:`state` extends them to the states that embed ids —
    control locations ``("p_fo", fo)`` (:mod:`repro.pds.encode`),
    Poststar mid states ``("__post__", p, γ)`` (:mod:`repro.pds.kernel`),
    criterion states ``(q, "m")`` (:mod:`repro.core.criteria`), and the
    frozensets of these that A6 states are.  Other states (``"p"``,
    ``"m"``, ``configs_criterion``'s ``("q", i, k)``) name no id and are
    kept.  A state or symbol naming an id outside the maps has no
    counterpart in the new revision: None.

    Calling a relocation renames a carried artifact
    (:func:`repro.engine.incremental.carry_over` must have kept it)."""

    def __init__(self, vid_map, site_map):
        self.vid_map = vid_map
        self.site_map = site_map
        self._states = {}

    def __call__(self, artifact, new_key):
        # The footprint lies within the procedures both revisions
        # share, so it carries over unchanged.
        return SaturationArtifact(
            artifact.kind,
            new_key,
            self.automaton(artifact.automaton),
            artifact.footprint,
        )

    def symbol(self, symbol):
        if isinstance(symbol, int):
            return self.vid_map.get(symbol)
        return self.site_map.get(symbol)

    def state(self, state):
        if state in self._states:
            return self._states[state]
        renamed = state
        if isinstance(state, frozenset):
            members = [self.state(member) for member in state]
            renamed = None if None in members else frozenset(members)
        elif isinstance(state, tuple) and len(state) == 2 and state[0] == "p_fo":
            fo = self.vid_map.get(state[1])
            renamed = None if fo is None else ("p_fo", fo)
        elif isinstance(state, tuple) and len(state) == 2 and state[1] == FINAL:
            inner = self.state(state[0])
            renamed = None if inner is None else (inner, FINAL)
        elif isinstance(state, tuple) and len(state) == 3 and state[0] == "__post__":
            location, head = self.state(state[1]), self.symbol(state[2])
            renamed = None if None in (location, head) else ("__post__", location, head)
        self._states[state] = renamed
        return renamed

    def automaton(self, automaton):
        """``automaton`` with its states and transition symbols renamed.
        A transition whose state or symbol has no counterpart belongs to
        a rebuilt procedure and is dropped; callers must have checked,
        via the artifact footprint, that none is on an accepting path,
        so the accepted language is preserved and the result is the
        automaton a cold session builds."""
        from repro.fsa.automaton import FiniteAutomaton

        state = self.state
        result = FiniteAutomaton(
            initials=[new for new in map(state, automaton.initials) if new is not None],
            finals=[new for new in map(state, automaton.finals) if new is not None],
        )
        for new in map(state, automaton.states):
            if new is not None:
                result.add_state(new)
        for (src, symbol, dst) in automaton.transitions():
            src, dst = state(src), state(dst)
            if symbol is not None:
                symbol = self.symbol(symbol)
                if symbol is None:
                    continue
            if src is not None and dst is not None:
                result.add_transition(src, symbol, dst)
        return result
