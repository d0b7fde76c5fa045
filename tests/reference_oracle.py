"""Algorithms 1 and 2 composed only from the reference functions.

The engine saturates on the int kernels (:mod:`repro.pds.kernel`) and
runs MRD over the int codec (:mod:`repro.fsa.intops`).  This module
rebuilds both pipelines from the paper-faithful object loops instead —
:mod:`repro.pds.reference` for Prestar/Poststar,
:mod:`repro.fsa.reference` for determinize/minimize, and the object
product, query-view copy, and trim — sharing with the engine only what
has a single implementation: the front half (parse, SDG, PDS encoding),
the criterion skeletons of :mod:`repro.core.criteria`, the read-out,
and rendering.  The differential suites compare the engine's answers
against these, field by field.
"""

from repro.core.criteria import (
    all_contexts_criterion,
    empty_stack_criterion,
    rebase_initial,
)
from repro.core.readout import read_out_sdg
from repro.core.specialize import SpecializationResult
from repro.fsa import FiniteAutomaton, complement, intersection, reverse
from repro.fsa.reference import (
    determinize_reference,
    minimize_reference,
    remove_epsilon_reference,
)
from repro.pds import encode_sdg
from repro.pds.reference import poststar_reference, prestar_reference


def query_view(automaton, encoding):
    """The language read from the main control location, trimmed."""
    view = FiniteAutomaton(initials=[encoding.main_location])
    for state in automaton.finals:
        view.add_final(state)
    for src, symbol, dst in automaton.transitions():
        view.add_transition(src, symbol, dst)
    return view.trim()


def reachable_view(encoding):
    """``Poststar(entry_main)`` as a query view."""
    entry_main = encoding.sdg.entry_vertex["main"]
    query = empty_stack_criterion(encoding, [entry_main])
    return query_view(poststar_reference(encoding.pds, query), encoding)


def query_automaton(encoding, vids, contexts, view=None):
    """``A0`` for a vertex criterion (see
    :func:`repro.core.specialize.resolve_criterion`)."""
    vids = sorted(vids)
    if contexts == "empty":
        return empty_stack_criterion(encoding, vids)
    if view is None:
        view = reachable_view(encoding)
    product = intersection(view, all_contexts_criterion(encoding, vids)).trim()
    if not product.states:
        return FiniteAutomaton(initials=[encoding.main_location])
    return rebase_initial(product, encoding.main_location)


def mrd(automaton):
    """Algorithm 1 lines 4-8: reverse, remove-epsilon, determinize,
    minimize, reverse."""
    return reverse(
        minimize_reference(
            determinize_reference(remove_epsilon_reference(reverse(automaton)))
        )
    )


def _result(sdg, encoding, a0, a1, a6):
    result = SpecializationResult()
    result.source_sdg = sdg
    result.encoding = encoding
    result.criterion = a0
    result.a1 = a1
    result.a6 = a6
    result.pdgs, result.bindings = read_out_sdg(sdg, a6, encoding)
    return result


def reference_slice(sdg, vids, contexts="reachable", trim=True):
    """Algorithm 1.  ``a1`` is trimmed like the engine's memoized
    saturation artifacts (``trim=False`` matches a storeless
    :func:`repro.core.specialize.specialization_slice`)."""
    encoding = encode_sdg(sdg)
    a0 = query_automaton(encoding, vids, contexts)
    a1 = prestar_reference(encoding.pds, a0, trim=trim)
    return _result(sdg, encoding, a0, a1, mrd(query_view(a1, encoding)))


def reference_remove_feature(sdg, vids, contexts="reachable"):
    """Algorithm 2: reachable configurations minus the feature's
    forward cone, then Algorithm 1's MRD and read-out."""
    encoding = encode_sdg(sdg)
    view = reachable_view(encoding)
    a_c = query_automaton(encoding, vids, contexts, view)
    cone = poststar_reference(encoding.pds, a_c, trim=True)
    feature = determinize_reference(query_view(cone, encoding))
    kept = intersection(view, complement(feature, encoding.alphabet())).trim()
    return _result(sdg, encoding, a_c, kept, mrd(kept))
