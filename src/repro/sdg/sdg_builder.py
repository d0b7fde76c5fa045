"""Whole-program SDG construction.

Pipeline: semantic info -> call graph -> mod/ref -> one PDG per
procedure -> interprocedural edges (call, parameter-in, parameter-out)
-> summary edges.

The per-procedure step has two interchangeable paths: build the PDG
from the AST (:class:`~repro.sdg.pdg_builder.PDGBuilder`), or relocate
a previously built :class:`~repro.sdg.parts.ProcPart` into the graph.
Both draw vertex ids and call-site labels from the same counters in
program order, so an SDG assembled from any mix of fresh builds and
reused parts is numbered identically to a cold build of the same
program — the invariant the incremental engine's byte-identical
guarantee rests on.

Programs containing indirect calls must be lowered first
(:func:`repro.core.funcptr.lower_indirect_calls`); the builder rejects
them otherwise.
"""

from repro.analysis.callgraph import build_call_graph
from repro.analysis.modref import compute_modref
from repro.sdg.graph import CALL, PARAM_IN, PARAM_OUT, SystemDependenceGraph
from repro.sdg.pdg_builder import BuildContext, PDGBuilder
from repro.sdg.summary import compute_summary_edges


def build_sdg(program, info):
    """Build the SDG of a semantically checked program, summary edges
    included.

    Args:
        program: the checked AST.
        info: the :class:`~repro.lang.sema.ProgramInfo` from ``check``.

    Returns:
        a :class:`SystemDependenceGraph`.
    """
    return assemble_sdg(program, info)


def assemble_sdg(program, info, parts=None, call_graph=None, modref=None):
    """Build an SDG, relocating reusable per-procedure parts.

    Args:
        program: the checked AST (a reused part must describe the
            procedure of its name: equal statement ids, which a part of
            a content-equal procedure has in any parse).
        info: the matching :class:`~repro.lang.sema.ProgramInfo`.
        parts: optional mapping of procedure name to
            :class:`~repro.sdg.parts.ProcPart`; procedures not in the
            mapping are built from the AST.
        call_graph / modref: precomputed analyses of ``program`` (e.g.
            from content-key computation); computed here otherwise.

    Returns:
        the :class:`SystemDependenceGraph`.  Summary edges are
        recomputed over the assembled graph: they depend on transitive
        callee contents, so a part never carries them.
    """
    if call_graph is None:
        call_graph = build_call_graph(program)
    if modref is None:
        modref = compute_modref(program, info, call_graph)
    sdg = SystemDependenceGraph(program, info)
    sdg.call_graph = call_graph
    sdg.modref = modref

    context = BuildContext(sdg, program, info, modref, call_graph)
    for proc in program.procs:
        part = parts.get(proc.name) if parts else None
        if part is None:
            PDGBuilder(context, proc).build()
        else:
            part.add_to(sdg, context)

    _connect_pdgs(sdg)
    compute_summary_edges(sdg)
    return sdg


def _connect_pdgs(sdg):
    """Add call, parameter-in and parameter-out edges."""
    for site in sdg.call_sites.values():
        callee = site.callee
        sdg.add_edge(site.call_vertex, sdg.entry_vertex[callee], CALL)
        for role, ai in site.actual_ins.items():
            fi = sdg.formal_ins[callee].get(role)
            if fi is not None:
                sdg.add_edge(ai, fi, PARAM_IN)
        for role, fo in sdg.formal_outs[callee].items():
            ao = site.actual_outs.get(role)
            if ao is not None:
                sdg.add_edge(fo, ao, PARAM_OUT)
