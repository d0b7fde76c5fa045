"""Algorithm 1: specialization slicing, end to end.

    1. encode the SDG as a PDS                         (Defn. 3.2)
    2. A1 = Prestar(A0)  — stack-configuration slice   (§3.2)
    3. A6 = MRD(A1)      — reverse; determinize; minimize; reverse;
                           remove-epsilon              (§3.3)
    4. read out the specialized SDG R from A6          (§3.4;
                           R itself is built on first read)

Step 5 (pretty-printing R as source text) lives in
:mod:`repro.core.executable`.
"""

import threading
import time

from repro.core.criteria import (
    as_query_view,
    empty_stack_criterion,
    reachable_contexts_criterion,
)
from repro.core.readout import read_out_sdg, specialized_sdg
# reverse/remove_epsilon/determinize/minimize are not called here:
# perfbench/tracing.py wraps them by name.
from repro.fsa import determinize, intops, minimize, remove_epsilon, reverse
from repro.fsa.ops import staged_mrd
from repro.pds import encode_sdg, prestar


#: The result attributes built on first read, by :func:`specialized_sdg`.
_BUILT_ON_READ = frozenset(["sdg", "map_back_vertex", "map_back_site"])
#: Serializes those builds: one fills every SpecializedPDG.vertex_map.
_BUILD_LOCK = threading.Lock()


class SpecializationResult(object):
    """Everything Algorithm 1 produces, plus instrumentation.

    Attributes:
        source_sdg: the input SDG ``S``.
        criterion: the query automaton ``A0``.
        encoding: the :class:`SDGEncoding` of ``S``.
        a1: the Prestar automaton (stack-configuration slice).
        a6: the MRD automaton.
        pdgs: dict A6-state -> :class:`SpecializedPDG`.
        bindings: dict (caller state, orig site label) -> callee state.
        sdg: the specialized SDG ``R``.
        map_back_vertex / map_back_site: the mapping ``MC``.
        stats: dict of instrumentation (state counts, timings).
        footprint: the ownership footprint of ``a1`` — the frozenset of
            per-procedure content keys the result's cone touches (set
            by the session engine; see :mod:`repro.engine.artifacts`),
            or None outside a session.  What the incremental layer
            consults to decide whether the result survives an edit.

    ``sdg`` and the two maps are built from ``pdgs`` and ``bindings``
    when one of them is first read (rendering reads neither), together
    with every ``SpecializedPDG.vertex_map``; results loaded from older
    store entries carry them already.
    """

    def __init__(self):
        self.source_sdg = None
        self.criterion = None
        self.encoding = None
        self.a1 = None
        self.a6 = None
        self.pdgs = {}
        self.bindings = {}
        self.stats = {}
        self.footprint = None

    def __getattr__(self, name):
        # Reached only for names missing from the instance dict.
        if name not in _BUILT_ON_READ:
            raise AttributeError(name)
        with _BUILD_LOCK:
            if name not in self.__dict__:
                self.sdg, self.map_back_vertex, self.map_back_site = specialized_sdg(
                    self.source_sdg, self.pdgs, self.bindings
                )
        return self.__dict__[name]

    # -- convenience queries ----------------------------------------------------

    def vertex_count(self):
        """The number of vertices of ``R``, from the partition alone."""
        return sum(len(spec.orig_vertices) for spec in self.pdgs.values())

    def specializations_of(self, proc):
        """The :class:`SpecializedPDG` list for an original procedure."""
        return sorted(
            (spec for spec in self.pdgs.values() if spec.proc == proc),
            key=lambda spec: spec.name,
        )

    def version_counts(self):
        """Map original procedure name -> number of specialized
        versions (0 for procedures sliced away entirely) — the Fig. 18
        statistic."""
        counts = {proc: 0 for proc in self.source_sdg.proc_vertices}
        for spec in self.pdgs.values():
            counts[spec.proc] += 1
        return counts

    def closure_elems(self):
        """``Elems`` of the stack-configuration slice (the closure-slice
        element set both §8 comparisons normalize against)."""
        return self.encoding.elems(self.a1)

    def callee_name(self, caller_spec, orig_site_label):
        """The name of the specialization a call site is bound to, or
        None if the site is unbound (call vertex not in this variant)."""
        callee_state = self.bindings.get((caller_spec.state, orig_site_label))
        if callee_state is None:
            return None
        return self.pdgs[callee_state].name


def resolve_criterion(encoding, criterion, contexts="reachable"):
    """Turn a criterion — a prepared query automaton or an iterable of
    PDG vertex ids — into the query automaton ``A0``.

    ``contexts`` completes a vertex set into a configuration language:
    ``"reachable"`` slices from every realizable calling context of the
    vertices (the wc/go style criterion); ``"empty"`` slices from the
    vertices with the empty stack only (the Fig. 9 style criterion —
    vertices must then be in ``main``).
    """
    if hasattr(criterion, "add_transition"):
        return criterion
    vids = sorted(criterion)
    if contexts == "reachable":
        return reachable_contexts_criterion(encoding, vids)
    if contexts == "empty":
        return empty_stack_criterion(encoding, vids)
    raise ValueError("contexts must be 'reachable' or 'empty'")


def specialization_slice(sdg, criterion, contexts="reachable", a1=None):
    """Run Algorithm 1.

    Args:
        sdg: the input :class:`SystemDependenceGraph`.
        criterion: either a prepared query automaton ``A0``, or an
            iterable of PDG vertex ids.
        contexts: how to complete a vertex-set criterion (see
            :func:`resolve_criterion`).
        a1: an optional precomputed ``Prestar(A0)`` automaton (the
            :class:`repro.engine.SlicingSession` memo passes this so a
            repeated criterion skips re-saturation); must correspond to
            ``criterion``.

    Prestar runs on the flat integer kernel and lines 4–8 as one fused
    pass over the int codec (:func:`repro.fsa.intops.mrd_int`).

    Returns:
        a :class:`SpecializationResult`.
    """
    result = SpecializationResult()
    result.source_sdg = sdg

    t0 = time.perf_counter()
    encoding = encode_sdg(sdg)
    result.encoding = encoding

    a0 = resolve_criterion(encoding, criterion, contexts)
    result.criterion = a0

    t1 = time.perf_counter()
    kernel_stats = {}
    if a1 is None:
        a1 = prestar(encoding.pds, a0, stats=kernel_stats)
    result.a1 = a1
    t2 = time.perf_counter()

    # Lines 4-8, keeping the stage sizes experiments report (§4.2).
    view = as_query_view(a1, encoding)
    # One fused pass (reverse; determinize; minimize; reverse) over the
    # int codec; the staged chain runs iff the view has epsilon
    # transitions, which saturation views never do.
    fused = intops.mrd_int(view)
    if fused is not None:
        a6, a3_states, a4_states = fused
        a2_states = len(view.states)
    else:
        a6, a2_states, a3_states, a4_states = staged_mrd(view)
    result.a6 = a6
    t3 = time.perf_counter()

    result.pdgs, result.bindings = read_out_sdg(sdg, a6, encoding)
    t4 = time.perf_counter()

    result.stats = {
        "encode_seconds": t1 - t0,
        "prestar_seconds": t2 - t1,
        "automaton_seconds": t3 - t2,
        "readout_seconds": t4 - t3,
        "total_seconds": t4 - t0,
        "a1_states": len(view.states),
        "a2_states": a2_states,
        "a3_states": a3_states,
        "a4_states": a4_states,
        "a6_states": len(a6.states),
        "determinize_input_states": a2_states,
        "determinize_output_states": a3_states,
    }
    result.stats.update(kernel_stats)
    return result
