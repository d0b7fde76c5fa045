"""Postdominator computation.

The immediate-postdominator tree is computed with the Cooper–Harvey–
Kennedy iterative algorithm ("A Simple, Fast Dominance Algorithm"):
dominators of the reverse CFG, intersecting candidate parents with two
fingers over postorder numbers until no parent changes.  The exit node
is a sink (its own out-edges are ignored), and so is any node with no
successors; a virtual root above all sinks makes the reverse graph
single-rooted, so a dead end postdominates only itself, like the exit.
Postdominator sets are the tree paths up to (not including) that root.

Nodes that cannot reach any sink (e.g. bodies of ``while (1)`` loops
that never terminate) are outside the tree: they have no immediate
postdominator and keep the full node set as their postdominator set;
the control-dependence pass treats them conservatively.
"""

_ROOT = object()


def _postdominator_tree(cfg):
    """Map each node that reaches a sink to its immediate postdominator
    (``_ROOT`` for sinks), listed parents first."""
    successors = {
        node: ([] if node == cfg.exit else cfg.successors(node)) for node in cfg.nodes
    }
    sinks = [cfg.exit] + [
        node for node in cfg.nodes if node != cfg.exit and not successors[node]
    ]
    # Postorder of the reverse graph from the virtual root: the root's
    # children are the sinks, a node's children its CFG predecessors.
    number = {}
    postorder = []
    for sink in sinks:
        number[sink] = None
        stack = [(sink, iter(cfg.predecessors(sink)))]
        while stack:
            node, preds = stack[-1]
            for pred in preds:
                if pred not in number and pred != cfg.exit:
                    number[pred] = None
                    stack.append((pred, iter(cfg.predecessors(pred))))
                    break
            else:
                number[node] = len(postorder)
                postorder.append(node)
                stack.pop()
    number[_ROOT] = len(postorder)

    ipdom = {sink: _ROOT for sink in sinks}
    order = [node for node in reversed(postorder) if node not in ipdom]
    changed = True
    while changed:
        changed = False
        for node in order:
            new = None
            for succ in successors[node]:
                if succ not in ipdom:
                    continue
                if new is None:
                    new = succ
                    continue
                # Walk both fingers up the tree to their common ancestor.
                finger = succ
                while finger != new:
                    while number[finger] < number[new]:
                        finger = ipdom[finger]
                    while number[new] < number[finger]:
                        new = ipdom[new]
            if ipdom.get(node) != new:
                ipdom[node] = new
                changed = True
    return {node: ipdom[node] for node in reversed(postorder)}


def postdominators(cfg):
    """Map each node to its set of postdominators (including itself)."""
    tree = _postdominator_tree(cfg)
    pdom = {}
    for node, parent in tree.items():
        pdom[node] = {node} if parent is _ROOT else pdom[parent] | {node}
    for node in cfg.nodes:
        if node not in pdom:
            pdom[node] = set(cfg.nodes)
    return pdom


def immediate_postdominators(cfg, pdom=None):
    """Map each node to its immediate postdominator (or None).

    The immediate postdominator of ``n`` is the unique strict
    postdominator of ``n`` postdominated by every other strict
    postdominator of ``n``: its parent in the postdominator tree.  Sinks
    and nodes that cannot reach a sink have none.  ``pdom`` is accepted
    for callers that already hold the postdominator sets; the tree is
    always computed from ``cfg``.
    """
    tree = _postdominator_tree(cfg)
    return {
        node: (None if tree.get(node, _ROOT) is _ROOT else tree[node])
        for node in cfg.nodes
    }
