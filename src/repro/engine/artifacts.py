"""Relocatable saturation artifacts: the one representation every
saturation consumer shares.

A PDS saturation (``Poststar(entry_main)``, a per-criterion Prestar,
a feature's forward-cone Poststar) used to live only as a raw automaton
inside one session's memo; the store could not persist it, process-pool
workers re-saturated it, and the incremental layer re-derived its
procedure ownership by trimming at every update.  A
:class:`SaturationArtifact` packages the saturation once, in the form
all four consumers — memo, store, ``update_source`` survival, and
cross-revision discovery — need:

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
artifact outlives an edit is decided in one place,
:func:`repro.engine.incremental.carry_over`, for both the live
``update_source`` and a cold process's discovery: across a structural
edit it survives iff its footprint is a subset of the new revision's
content keys (an empty footprint always is), because any PDS rule the
edit added or removed mentions a changed procedure's vertex or call
site, and the first changed rule usable in a new derivation needs a
configuration the old automaton already accepted that mentions such a
symbol.  Content keys, not names, so the check composes with the
store's content-addressed tables and stays meaningful across
processes; :func:`index_record` is the form a revision's saturation
index keeps of each filed artifact, so the decision never unpickles
one.  The store files an artifact *without* its footprint
(:meth:`SaturationArtifact.without_footprint`), named by the digest of
those bytes, and the record carries the footprint instead: a label
edit re-addresses footprints but keeps every automaton, so the edited
revision's records name the very files its donor's do
(:func:`load_filed` puts the two halves back together).

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

    def relocated(self, new_key, vid_map, site_map):
        """This artifact renamed into an edited revision: transition
        symbols are renumbered through the two revisions' layouts (see
        :func:`repro.engine.incremental.carry_over`, which must have
        kept it).  Transitions on symbols absent from the maps belong
        to rebuilt procedures, are off every accepting path, and are
        dropped.  The footprint lies within the procedures both
        revisions share, so it carries over unchanged."""
        return SaturationArtifact(
            self.kind,
            new_key,
            remap_automaton(self.automaton, vid_map, site_map),
            self.footprint,
        )


def index_record(artifact, name):
    """The record a revision's saturation index keeps for an artifact
    filed as ``__sats__`` file ``name``: ``(memo key, kind, sorted
    footprint tuple, name)`` — everything the carry-over rule reads,
    so deciding survival never unpickles an artifact."""
    return (artifact.key, artifact.kind, tuple(sorted(artifact.footprint)), name)


def load_filed(store, record):
    """The artifact an index record names, its footprint restored from
    the record, or None when the record is malformed or its file is
    missing, corrupt, or holds another key."""
    try:
        key, _kind, footprint, name = record
        footprint = frozenset(footprint)
    except (TypeError, ValueError):
        return None
    artifact = store.get_sat(name, key)
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


def artifact_footprint(sdg, proc_keys, automaton, trimmed=True):
    """The ownership footprint of an automaton over a front half: the
    content keys of every procedure owning a symbol on the automaton's
    useful part.  ``proc_keys`` is the ``name -> content key`` map of
    the front half.

    ``trimmed=False`` trims first (saturations produced with
    ``trim=True`` skip it)."""
    if not trimmed:
        automaton = automaton.trim()
    return frozenset(
        proc_keys[name]
        for name in symbol_owner_procs(sdg, automaton)
        if name in proc_keys
    )


def make_artifact(kind, key, automaton, sdg, proc_keys, trimmed=True):
    """Package a saturation automaton as an artifact over the given
    front half (see :func:`artifact_footprint` for the arguments)."""
    if not trimmed:
        automaton = automaton.trim()
    return SaturationArtifact(
        kind, key, automaton, artifact_footprint(sdg, proc_keys, automaton)
    )


def remap_automaton(automaton, vid_map, site_map):
    """Rename an automaton's transition symbols through the renumbering
    maps between two revisions.  Transitions labeled by symbols of
    rebuilt procedures (absent from the maps) are dropped; callers must
    have already checked, via the artifact footprint, that no such
    symbol is on an accepting path, so the accepted language is
    preserved.  States are opaque and kept as-is."""
    from repro.fsa.automaton import FiniteAutomaton

    result = FiniteAutomaton(initials=automaton.initials, finals=automaton.finals)
    for state in automaton.states:
        result.add_state(state)
    for (src, symbol, dst) in automaton.transitions():
        if symbol is None:
            result.add_transition(src, symbol, dst)
            continue
        if isinstance(symbol, int):
            new_symbol = vid_map.get(symbol)
        else:
            new_symbol = site_map.get(symbol)
        if new_symbol is not None:
            result.add_transition(src, new_symbol, dst)
    return result
