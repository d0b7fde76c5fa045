"""Golden digests of the front half: SDGs and mod/ref summaries pinned
byte for byte against a recorded fixture.

The incremental-vs-cold differential compares the analyses with
themselves, so it cannot notice a dataflow rewrite that adds or drops
an edge everywhere at once.  This test can: each program's digest
covers every vertex (vid, kind, procedure, label, role, call-site
label), every edge grouped by kind, the four ``ModRefInfo`` maps and
the may-exit set, and ``sdg_golden_digests.json`` holds the values the
straightforward round-robin analyses produced.  The digest is built
from sorted data and ``json.dumps``, so it does not depend on
``PYTHONHASHSEED``.

Print the current digests (to compare against the fixture by hand)
with ``PYTHONPATH=src python tests/test_sdg_golden.py``.
"""

import hashlib
import json
import os

import pytest

from repro.engine.incremental import front_end
from repro.lang import pretty
from repro.sdg import build_sdg
from repro.workloads import handwritten, paper_figures
from repro.workloads.generator import GenConfig, generate_program
from repro.workloads.wc import WC_SOURCE, scaled_wc_source

pytestmark = pytest.mark.smoke

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sdg_golden_digests.json")

#: the benchmark's ``replace_small`` generator shape
REPLACE_SMALL = dict(
    n_globals=9, n_procs=12, stmts_low=4, stmts_high=8,
    recursion_prob=0.15, globals_per_proc=2, main_prints=5,
)


def chain_source(length):
    """A call chain of ``length`` procedures: ``main`` feeds an input
    down the chain and the last link stores it in a global."""
    parts = ["int g;"]
    for index in range(length):
        body = "p%d(x + 1);" % (index + 1) if index + 1 < length else "g = x;"
        parts.append("void p%d(int x) {\n  %s\n}" % (index, body))
    parts.append(
        "int main() {\n  g = 0;\n  int v = input();\n  p0(v);\n"
        '  print("%d\\n", g);\n  return 0;\n}'
    )
    return "\n".join(parts) + "\n"


def _generated(**config):
    program, _info = generate_program(GenConfig(**config))
    return pretty(program)


def golden_sources():
    """name -> source text of every pinned program."""
    sources = {}
    # The 26-seed differential corpus (tests/test_differential_baselines.py).
    for seed in range(26):
        sources["corpus%d" % seed] = _generated(seed=seed, n_procs=3)
    sources["wc"] = WC_SOURCE
    sources["wc32"] = scaled_wc_source(32)
    sources["chain100"] = chain_source(100)
    for seed in (16, 8):
        sources["replace_small%d" % seed] = _generated(seed=seed, **REPLACE_SMALL)
    # exit() calls exercise may-exit, halt vertices and the
    # Ball–Horwitz jump edges of terminating calls.
    for seed in range(4):
        sources["exits%d" % seed] = _generated(seed=seed, n_procs=6, exit_prob=0.2)
    for name in ("FIG1", "FIG2", "FLAWED", "FIG15", "FIG16", "EXIT"):
        sources[name.lower()] = getattr(paper_figures, name + "_SOURCE")
    for name in ("TOKENIZER", "SCHEDULER", "STATISTICS"):
        sources[name.lower()] = getattr(handwritten, name + "_SOURCE")
    return sources


def front_half_digest(source):
    """sha256 over the SDG and whole-program analyses of ``source``."""
    program, info = front_end(source)
    sdg = build_sdg(program, info)
    vertices = [
        [vid, v.kind, v.proc, v.label, v.role, v.site_label]
        for vid, v in sorted(sdg.vertices.items())
    ]
    edges = {}
    for src, dst, kind in sdg.edges():
        edges.setdefault(kind, []).append([src, dst])
    modref = sdg.modref
    summaries = {
        field: {name: sorted(names) for name, names in getattr(modref, field).items()}
        for field in ("may_ref", "may_mod", "must_mod", "exposed_ref")
    }
    payload = {
        "vertices": vertices,
        "edges": {kind: sorted(pairs) for kind, pairs in edges.items()},
        "modref": summaries,
        "may_exit": sorted(sdg.call_graph.may_exit()),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fixture():
    with open(FIXTURE) as handle:
        return json.load(handle)


SOURCES = golden_sources()


def test_fixture_covers_every_program():
    assert sorted(_fixture()) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_front_half_matches_golden_digest(name):
    assert front_half_digest(SOURCES[name]) == _fixture()[name]


if __name__ == "__main__":
    print(json.dumps(
        {name: front_half_digest(text) for name, text in sorted(SOURCES.items())},
        indent=1, sort_keys=True,
    ))
