"""Feature removal for multi-procedure programs (§7, Algorithm 2).

A "feature" is the forward stack-configuration slice from a criterion
(e.g. everything influenced by ``prod = 1``).  For single-procedure
programs, the complement of a forward slice is a backward slice
(Obs. 7.1), so the feature can simply be subtracted; for multi-procedure
programs that fails on the SDG — but holds again on the *unrolled* SDG,
which the PDS machinery manipulates directly:

    A0 = Poststar(A_C)                       (the feature's configurations)
    A1 = Poststar(entry_main) ∩ ¬det(A0)     (reachable configs minus feature)
    ... continue at line 4 of Alg. 1 (MRD + read-out)

The read-out then produces a specialized program without the feature;
procedures like Fig. 16's ``tally`` lose the parameters that only served
the feature, while shared helpers like ``add`` survive because their
non-feature configurations remain.
"""

from repro.core.criteria import as_query_view, reachable_query_view
from repro.core.readout import read_out_sdg
from repro.core.specialize import SpecializationResult, resolve_criterion
from repro.fsa import complement, determinize, intersection, mrd
from repro.pds import encode_sdg, poststar


def feature_seeds(sdg, feature_text):
    """The statement/call vertices whose label contains
    ``feature_text`` — the seed set for textual feature selection
    (shared by ``repro remove``, :func:`repro.remove_feature_source`,
    and :meth:`repro.engine.SlicingSession.remove_feature`).

    Raises ValueError for empty text (a substring of every label) and
    when nothing matches.
    """
    if not feature_text:
        raise ValueError("feature text must not be empty")
    seeds = {
        vid
        for vid, vertex in sdg.vertices.items()
        if vertex.kind in ("statement", "call") and feature_text in vertex.label
    }
    if not seeds:
        raise ValueError("no statement matches %r" % feature_text)
    return seeds


def remove_feature(sdg, criterion, contexts="reachable", a0=None):
    """Run Algorithm 2.

    Args:
        sdg: the input SDG.
        criterion: a query automaton or an iterable of vertex ids whose
            forward slice is the feature to remove.
        contexts: how to contextualize a vertex-set criterion (as in
            :func:`specialization_slice`).
        a0: an optional precomputed ``Poststar(A_C)`` automaton (the
            feature's forward cone).  The
            :class:`repro.engine.SlicingSession` memo passes the
            saturation-artifact automaton here, so a repeated or
            store-warmed removal skips the cone saturation; must
            correspond to ``criterion``.

    Returns:
        a :class:`SpecializationResult` whose ``sdg`` is the
        feature-free specialized SDG and whose ``a1`` accepts the
        kept (non-feature, reachable) configurations.
    """
    result = SpecializationResult()
    result.source_sdg = sdg
    encoding = encode_sdg(sdg)
    result.encoding = encoding

    a_c = resolve_criterion(encoding, criterion, contexts)
    result.criterion = a_c

    # Line 4: the feature's configurations.
    if a0 is None:
        a0 = poststar(encoding.pds, a_c)
    feature_view = as_query_view(a0, encoding)

    # Line 5: reachable configurations not in the feature.
    reachable_view = reachable_query_view(encoding)
    alphabet = encoding.alphabet()
    kept = intersection(
        reachable_view, complement(determinize(feature_view), alphabet)
    ).trim()
    result.a1 = kept

    # Lines 4-8 of Alg. 1 on the kept language.
    a6 = mrd(kept)
    result.a6 = a6

    result.pdgs, result.bindings = read_out_sdg(sdg, a6, encoding)
    result.stats = {
        "feature_states": len(feature_view.states),
        "kept_states": len(kept.states),
        "a6_states": len(a6.states),
    }
    return result
