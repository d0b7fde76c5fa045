"""Control-dependence computation.

Two independent implementations:

* :func:`control_dependence` — the classic Ferrante–Ottenstein–Warren
  algorithm over a CFG and its immediate-postdominator tree.  This is the
  authoritative version the PDG builder uses; run on the Ball–Horwitz
  augmented CFG it also yields the control dependences of jump
  pseudo-predicates (``return`` / ``exit`` / may-exit calls).

* :func:`structural_control_dependence` — the syntax-directed rules for
  structured code (a statement is control dependent on its innermost
  enclosing predicate; a loop predicate additionally on itself).  Used as
  a cross-check: on programs without early exits the two must agree.
"""

from repro.analysis.postdom import immediate_postdominators
from repro.lang import ast_nodes as A


def control_dependence(cfg):
    """Compute control dependences on ``cfg`` (FOW algorithm).

    Returns a set of ``(controller, dependent)`` pairs.  ``controller``
    is a branch node (>= 2 CFG successors).  For each CFG edge ``A -> B``
    where ``B`` does not postdominate ``A``, every node on the
    postdominator-tree path from ``B`` up to (but excluding)
    ``ipdom(A)`` is control dependent on ``A``; when the least common
    ancestor is ``A`` itself (loop back edges) this marks ``(A, A)``.
    """
    ipdom = immediate_postdominators(cfg)
    deps = set()
    for a in cfg.nodes:
        succs = cfg.successors(a)
        if len(succs) < 2:
            continue
        stop = ipdom[a]
        for node in succs:
            while node is not None and node != stop:
                deps.add((a, node))
                node = ipdom[node]
    return deps


def structural_control_dependence(proc, vertex_of_stmt, entry):
    """Syntax-directed control dependence for a structured procedure.

    ``vertex_of_stmt`` maps a statement uid to its vertex id; ``entry``
    is the entry vertex id.  Returns ``(controller, dependent)`` pairs
    over vertex ids.  Loop predicates are control dependent on
    themselves, matching FOW on the corresponding CFG.
    """
    deps = set()

    def visit_block(block, controller):
        for stmt in block.stmts:
            vertex = vertex_of_stmt(stmt.uid)
            deps.add((controller, vertex))
            if isinstance(stmt, A.If):
                visit_block(stmt.then, vertex)
                if stmt.els is not None:
                    visit_block(stmt.els, vertex)
            elif isinstance(stmt, A.While):
                deps.add((vertex, vertex))
                visit_block(stmt.body, vertex)

    visit_block(proc.body, entry)
    return deps
