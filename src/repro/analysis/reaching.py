"""Reaching definitions and flow dependence.

Generic over any :class:`ControlFlowGraph` plus DEF/USE maps: each CFG
node may define a set of variables and use a set of variables.  A node's
definitions *kill* other definitions of the same variable only when the
node is a *must*-def of that variable (weak updates, e.g. an actual-out
for a global the callee only may modify, do not kill).

The output is the flow-dependence relation: ``(def_node, use_node, var)``
triples where the definition of ``var`` at ``def_node`` reaches a use of
``var`` at ``use_node`` along a path with no intervening must-def.

Only *executable* CFG edges participate (Ball–Horwitz fall-through edges
carry no dataflow).

The solver numbers the definition sites ``(node, var)`` and keeps each
node's reaching set as an int bitset (the idiom of
:mod:`repro.fsa.intcodec`): GEN is the node's own sites, KILL the sites
of every variable it must-defines.  Predecessor lists are computed once
and the nodes are swept in reverse postorder over executable edges until
nothing changes, so an acyclic CFG reachable from its entry settles in
two sweeps.  Every node takes part, including code only reachable
through fall-through edges: its definitions still flow along its own
executable out-edges.
"""


def _solve(cfg, defs, must_defs):
    """The least fixpoint of the gen/kill equations (``must_defs`` None
    means every definition is strong).

    Returns ``(sites, var_sites, in_bits)``: the definition sites in bit
    order, a mask of the sites of each variable, and each node's
    reaching set at entry as a bitset over ``sites``.
    """
    if must_defs is None:
        must_defs = defs
    order = _executable_reverse_postorder(cfg)
    index = {node: position for position, node in enumerate(order)}
    sites = []
    var_sites = {}
    gen = []
    for node in order:
        bits = 0
        for var in set(defs.get(node, ())):
            bit = 1 << len(sites)
            sites.append((node, var))
            var_sites[var] = var_sites.get(var, 0) | bit
            bits |= bit
        gen.append(bits)
    keep = []
    for node in order:
        kill = 0
        for var in set(must_defs.get(node, ())):
            kill |= var_sites.get(var, 0)
        keep.append(~kill)
    preds = [
        [index[pred] for pred in cfg.predecessors(node, include_fallthrough=False)]
        for node in order
    ]

    in_bits = [0] * len(order)
    out_bits = [0] * len(order)
    changed = True
    while changed:
        changed = False
        for position in range(len(order)):
            reach = 0
            for pred in preds[position]:
                reach |= out_bits[pred]
            in_bits[position] = reach
            out = (reach & keep[position]) | gen[position]
            if out != out_bits[position]:
                out_bits[position] = out
                changed = True
    return sites, var_sites, dict(zip(order, in_bits))


def _executable_reverse_postorder(cfg):
    """Reverse postorder over executable edges from ``cfg.entry``,
    followed by the nodes it misses (each sub-order again a reverse
    postorder from its first unvisited node)."""
    seen = set()
    order = []
    roots = [cfg.entry] + [node for node in cfg.nodes if node != cfg.entry]
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        postorder = []
        stack = [(root, iter(cfg.successors(root, include_fallthrough=False)))]
        while stack:
            node, successors = stack[-1]
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(
                        (succ, iter(cfg.successors(succ, include_fallthrough=False)))
                    )
                    break
            else:
                postorder.append(node)
                stack.pop()
        postorder.reverse()
        order.extend(postorder)
    return order


def _bit_indices(bits):
    """Positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def reaching_definitions(cfg, defs, uses, must_defs=None):
    """Compute the reaching-definition sets.

    Args:
        cfg: a :class:`ControlFlowGraph`.
        defs: mapping node -> iterable of variables defined (may-defs).
        uses: mapping node -> iterable of variables used.
        must_defs: mapping node -> iterable of variables definitely
            defined; defaults to ``defs`` (all defs are strong).

    Returns:
        mapping node -> set of ``(def_node, var)`` pairs reaching the
        *entry* of that node.
    """
    sites, _var_sites, in_bits = _solve(cfg, defs, must_defs)
    return {
        node: {sites[bit] for bit in _bit_indices(bits)}
        for node, bits in in_bits.items()
    }


def flow_dependences(cfg, defs, uses, must_defs=None):
    """The flow-dependence relation induced by reaching definitions.

    A node that both uses and defines a variable (e.g. ``x = x + 1``)
    depends on definitions reaching its entry, including itself via a
    loop.  Returns a set of ``(def_node, use_node, var)`` triples.
    """
    sites, var_sites, in_bits = _solve(cfg, defs, must_defs)
    deps = set()
    for node, bits in in_bits.items():
        wanted = 0
        for var in set(uses.get(node, ())):
            wanted |= var_sites.get(var, 0)
        for bit in _bit_indices(bits & wanted):
            site, var = sites[bit]
            deps.add((site, node, var))
    return deps
