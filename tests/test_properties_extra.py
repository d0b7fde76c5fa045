"""Additional property-based tests: feature removal, Weiser, and
postdominators and reaching definitions against brute-force
definitions."""

import itertools
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.postdom import immediate_postdominators, postdominators
from repro.analysis.reaching import flow_dependences
from repro.core import (
    executable_program,
    monovariant_program,
    remove_feature,
    weiser_slice,
)
from repro.lang.interp import ExecutionLimitExceeded, run_program
from repro.sdg import VertexKind, build_sdg
from repro.workloads.generator import GenConfig, generate_program

SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

seeds = st.integers(min_value=0, max_value=10_000)


def build_random(seed, n_procs=5):
    program, info = generate_program(GenConfig(seed=seed, n_procs=n_procs))
    return program, info, build_sdg(program, info)


@settings(**SETTINGS)
@given(seed=seeds)
def test_feature_removal_preserves_surviving_prints(seed):
    """Removing the forward slice of an arbitrary statement must leave
    the surviving prints' behaviour untouched (incl. input alignment:
    the $input chain keeps surviving reads aligned because any read an
    earlier removed read feeds is itself in the feature)."""
    program, _info, sdg = build_random(seed)
    statements = [
        vid
        for vid, vertex in sdg.vertices.items()
        if vertex.kind == VertexKind.STATEMENT and vertex.proc == "main"
    ]
    if not statements:
        return
    rng = random.Random(seed)
    feature_seed = rng.choice(sorted(statements))
    result = remove_feature(sdg, [feature_seed])
    if not result.pdgs:
        return
    executable = executable_program(result)

    # Feature removal is context-sensitive: a print may be removed under
    # some calling contexts and kept under others.  The clean property
    # concerns prints *fully outside* the feature (no configuration in
    # the forward stack-configuration slice): every execution of those
    # must be preserved with identical values and relative order.
    from repro.core.criteria import reachable_contexts_criterion
    from repro.pds import encode_sdg, poststar

    encoding = encode_sdg(sdg)
    query = reachable_contexts_criterion(encoding, [feature_seed])
    feature_elems = encoding.elems(poststar(encoding.pds, query))
    fully_surviving_uids = {
        vertex.stmt_uid
        for vid, vertex in sdg.vertices.items()
        if vertex.kind == VertexKind.CALL
        and vertex.label == "call print"
        and vid not in feature_elems
    }
    for trial in range(2):
        inputs = [rng.randint(-4, 9) for _ in range(25)]
        try:
            original = run_program(program, inputs, max_steps=2_000_000)
            reduced = run_program(executable.program, inputs, max_steps=2_000_000)
        except ExecutionLimitExceeded:
            continue
        expected = [
            (uid, values)
            for uid, _fmt, values in original.prints
            if uid in fully_surviving_uids
        ]
        got = [
            (executable.stmt_map.get(uid), values)
            for uid, _fmt, values in reduced.prints
            if executable.stmt_map.get(uid) in fully_surviving_uids
        ]
        assert got == expected


@settings(**SETTINGS)
@given(seed=seeds)
def test_weiser_faithful_on_random_programs(seed):
    program, _info, sdg = build_random(seed)
    criterion = sdg.print_criterion()
    if not criterion:
        return
    result = weiser_slice(sdg, criterion)
    sliced = monovariant_program(sdg, result.slice_set)
    rng = random.Random(seed)
    for trial in range(2):
        inputs = [rng.randint(-4, 9) for _ in range(25)]
        try:
            original = run_program(program, inputs, max_steps=2_000_000)
            new = run_program(sliced.program, inputs, max_steps=2_000_000)
        except ExecutionLimitExceeded:
            continue
        mapped = [(sliced.stmt_map.get(uid), values) for uid, _f, values in new.prints]
        expected = [(uid, values) for uid, _f, values in original.prints]
        assert mapped == expected


# -- postdominators vs brute force ------------------------------------------------


@st.composite
def random_cfg(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    cfg = ControlFlowGraph("entry", "exit")
    nodes = ["entry"] + ["n%d" % i for i in range(n)] + ["exit"]
    # a spine ensures exit reachability
    for a, b in zip(nodes, nodes[1:]):
        cfg.add_edge(a, b)
    extra = draw(st.integers(min_value=0, max_value=8))
    for _ in range(extra):
        a = draw(st.sampled_from(nodes[:-1]))
        b = draw(st.sampled_from(nodes[1:]))
        cfg.add_edge(a, b)
    return cfg


def brute_force_postdominates(cfg, d, n):
    """d postdominates n iff every path n ->* exit passes through d
    (checked by removing d and testing reachability)."""
    if d == n:
        return True
    # can exit be reached from n without visiting d?
    seen = {n}
    stack = [n]
    while stack:
        node = stack.pop()
        if node == cfg.exit:
            return False
        for succ in cfg.successors(node):
            if succ != d and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return True


@settings(max_examples=60, deadline=None)
@given(random_cfg())
def test_postdominators_match_brute_force(cfg):
    pdom = postdominators(cfg)
    for n in cfg.nodes:
        # brute force only meaningful for nodes that can reach exit
        reaches_exit = cfg.exit in cfg.reachable_from(n)
        if not reaches_exit:
            continue
        for d in cfg.nodes:
            expected = brute_force_postdominates(cfg, d, n)
            assert (d in pdom[n]) == expected, (n, d)


@settings(max_examples=60, deadline=None)
@given(random_cfg())
def test_ipdom_consistent_with_pdom(cfg):
    pdom = postdominators(cfg)
    ipdom = immediate_postdominators(cfg, pdom)
    for n in cfg.nodes:
        candidate = ipdom[n]
        if candidate is None:
            continue
        assert candidate in pdom[n] and candidate != n
        # every other strict postdominator postdominates the ipdom
        for other in pdom[n] - {n, candidate}:
            assert other in pdom[candidate]


# -- reaching definitions vs brute force ------------------------------------------


@st.composite
def random_flow_cfg(draw):
    """A random CFG with fall-through edges, plus DEF/USE maps in which
    some definitions are weak (may-only, so they kill nothing)."""
    n = draw(st.integers(min_value=1, max_value=7))
    cfg = ControlFlowGraph("entry", "exit")
    nodes = ["entry"] + ["n%d" % i for i in range(n)] + ["exit"]
    for a, b in zip(nodes, nodes[1:]):
        cfg.add_edge(a, b, fallthrough=draw(st.booleans()))
    extra = draw(st.integers(min_value=0, max_value=10))
    for _ in range(extra):
        a = draw(st.sampled_from(nodes[:-1]))
        b = draw(st.sampled_from(nodes[1:]))
        cfg.add_edge(a, b, fallthrough=draw(st.booleans()))
    variables = st.sets(st.sampled_from(["x", "y", "z"]))
    defs, must_defs, uses = {}, {}, {}
    for node in nodes:
        defs[node] = draw(variables)
        must_defs[node] = {var for var in defs[node] if draw(st.booleans())}
        uses[node] = draw(variables)
    return cfg, defs, uses, must_defs


def brute_force_flow_dependences(cfg, defs, uses, must_defs):
    """(d, u, v) iff some executable path leaves d and enters u with no
    node in between must-defining v (searched per definition site)."""
    deps = set()
    for site in cfg.nodes:
        for var in defs[site]:
            reached = set()
            stack = cfg.successors(site, include_fallthrough=False)
            while stack:
                node = stack.pop()
                if node in reached:
                    continue
                reached.add(node)
                if var not in must_defs[node]:
                    stack.extend(cfg.successors(node, include_fallthrough=False))
            deps |= {(site, node, var) for node in reached if var in uses[node]}
    return deps


@settings(max_examples=60, deadline=None)
@given(random_flow_cfg())
def test_flow_dependences_match_brute_force(case):
    cfg, defs, uses, must_defs = case
    assert flow_dependences(cfg, defs, uses, must_defs) == (
        brute_force_flow_dependences(cfg, defs, uses, must_defs)
    )


@st.composite
def random_cfg_with_sinks(draw):
    """A random CFG that may contain dead ends (nodes without
    successors), loops that never reach the exit, and exit out-edges."""
    n = draw(st.integers(min_value=1, max_value=7))
    cfg = ControlFlowGraph("entry", "exit")
    nodes = ["entry"] + ["n%d" % i for i in range(n)] + ["exit"]
    for node in nodes:
        cfg.add_node(node)
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        cfg.add_edge(draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
    return cfg


def brute_force_postdominates_sinks(cfg, d, n):
    """d postdominates n iff no sink (the exit, whose out-edges do not
    count, or a node without successors) is reachable from n avoiding
    d — vacuously true for n that reach no sink at all."""
    if d == n:
        return True
    seen = {n}
    stack = [n]
    while stack:
        node = stack.pop()
        if node == cfg.exit or not cfg.successors(node):
            return False
        for succ in cfg.successors(node):
            if succ != d and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return True


@settings(max_examples=60, deadline=None)
@given(random_cfg_with_sinks())
def test_postdominators_with_dead_ends_match_brute_force(cfg):
    pdom = postdominators(cfg)
    ipdom = immediate_postdominators(cfg)
    for n in cfg.nodes:
        assert pdom[n] == {
            d for d in cfg.nodes if brute_force_postdominates_sinks(cfg, d, n)
        }, n
        if ipdom[n] is not None:
            assert pdom[n] == {n} | pdom[ipdom[n]], n
