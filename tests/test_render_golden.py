"""Golden renderings: the exact text and statement map of every
executable slice pinned against a recorded fixture.

The renderer tests check that slices run and print the right values;
none of them pins the rendered text, so a rewrite of the renderer that
reorders procedures, drops a re-inserted declaration or changes a
signature would pass them.  This test covers every print of every
program of :func:`tests.test_sdg_golden.golden_sources`, rendered three
ways: the session's polyvariant ``executable(("print", i))``, and
:func:`repro.core.monovariant_program` of the Binkley and of the Weiser
slice for the same print.

Each digest is the sha256 of ``pretty(program)`` plus the statement
map, written position by position: every statement of the rendered
program (procedures in program order, statements in ``walk_stmts``
order) paired with the original statement it came from, as (original
procedure, index in ``walk_stmts`` order).  Statement uids come from a
process-wide counter, so they never enter a digest.

Print the current digests (to compare against the fixture by hand)
with ``PYTHONPATH=src:. python tests/test_render_golden.py``.
"""

import hashlib
import json
import os

import pytest

from repro.core import binkley_slice, monovariant_program, weiser_slice
from repro.engine import SlicingSession
from repro.lang import ast_nodes as A
from repro.lang import pretty
from tests.test_sdg_golden import golden_sources

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "render_golden_digests.json"
)

#: the three renderings of each print, in fixture order
RENDERINGS = ("polyvariant", "binkley", "weiser")


def _positions(program):
    """Map statement uid -> (procedure name, index in walk order)."""
    positions = {}
    for proc in program.procs:
        for index, stmt in enumerate(A.walk_stmts(proc.body)):
            positions[stmt.uid] = (proc.name, index)
    return positions


def rendering_digest(executable, original):
    """sha256 over the rendered text and the uid-free statement map."""
    origin = _positions(original)
    stmt_map = []
    for proc in executable.program.procs:
        for stmt in A.walk_stmts(proc.body):
            orig_uid = executable.stmt_map.get(stmt.uid)
            stmt_map.append(origin[orig_uid] if orig_uid is not None else None)
    payload = {"text": pretty(executable.program), "stmt_map": stmt_map}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_digests(source):
    """rendering name -> one digest per print of ``source``."""
    session = SlicingSession(source)
    sdg = session.sdg
    prints = sdg.print_call_vertices()
    criteria = [("print", index) for index in range(len(prints))]
    session.slice_many(criteria)
    digests = {name: [] for name in RENDERINGS}
    for criterion, print_vid in zip(criteria, prints):
        vids = sdg.print_criterion([print_vid])
        renderings = (
            session.executable(criterion),
            monovariant_program(sdg, binkley_slice(sdg, vids).slice_set),
            monovariant_program(sdg, weiser_slice(sdg, vids).slice_set),
        )
        for name, executable in zip(RENDERINGS, renderings):
            digests[name].append(rendering_digest(executable, sdg.program))
    return digests


def _fixture():
    with open(FIXTURE) as handle:
        return json.load(handle)


SOURCES = golden_sources()


def test_fixture_covers_every_program():
    assert sorted(_fixture()) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_renderings_match_golden_digests(name):
    assert render_digests(SOURCES[name]) == _fixture()[name]


if __name__ == "__main__":
    print(json.dumps(
        {name: render_digests(text) for name, text in sorted(SOURCES.items())},
        indent=1, sort_keys=True,
    ))
