"""Property tests for relocatable saturation artifacts
(:mod:`repro.engine.artifacts` + :mod:`repro.fsa.serialize`).

The artifact contract, checked over ≥20 generated programs:

* pickling an artifact and loading it back (``dumps`` → ``loads``)
  preserves the automaton exactly (structural equality of state and
  transition sets) and therefore its language — double-checked through
  the determinize+minimize canonical form — and preserves the
  ownership footprint;
* artifact bytes are deterministic: two pickles of equal artifacts are
  byte-identical (the property the ``__sats__`` table, shared across
  processes, leans on);
* the ``__sats__`` key digest is stable across interpreter processes
  (fresh hash seed), like the content keys it composes with;
* the footprint is exactly the procedures whose symbols the trimmed
  automaton touches — the invariant the incremental keep-rule is
  proved against.
"""

import os
import pickle

import pytest

from repro.engine import SlicingSession
from repro.engine.artifacts import symbol_owner_procs
from repro.engine.canonical import REACHABLE_KEY
from repro.fsa import canonical_dfa, language_equal, structurally_equal
from repro.fsa.serialize import automaton_from_payload, automaton_to_payload
from repro.lang import pretty
from repro.workloads.generator import GenConfig, generate_program

pytestmark = pytest.mark.smoke

#: the acceptance floor: artifact round-trips over at least 20 programs
N_PROGRAMS = 21


def _session(seed):
    program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
    return SlicingSession(pretty(program))


def _artifacts(session):
    """One Poststar and one Prestar artifact from a warmed session."""
    poststar = session.reachable_configs_artifact()
    prints = session.sdg.print_call_vertices()
    prestar = None
    if prints:
        session.slice(("print", 0))
        (sat_key,) = [
            key
            for (kind, key) in session._futures
            if kind == "saturation" and key != REACHABLE_KEY
        ]
        prestar = session._futures[("saturation", sat_key)].result()
    return poststar, prestar


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_artifact_roundtrip_preserves_language_and_footprint(seed):
    session = _session(seed)
    poststar, prestar = _artifacts(session)
    for artifact in filter(None, (poststar, prestar)):
        loaded = pickle.loads(pickle.dumps(artifact))
        assert loaded.kind == artifact.kind
        assert loaded.key == artifact.key
        assert loaded.footprint == artifact.footprint
        # Structural equality (the strongest form)...
        assert structurally_equal(loaded.automaton, artifact.automaton)
        # ...and the language-level check the issue asks for:
        # determinize+minimize canonical forms must coincide.
        assert structurally_equal(
            canonical_dfa(loaded.automaton), canonical_dfa(artifact.automaton)
        )
        assert language_equal(loaded.automaton, artifact.automaton)


@pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 5))
def test_artifact_pickle_bytes_deterministic(seed):
    """Equal artifacts serialize to equal bytes: the payload orders
    states and transitions canonically, so pickling is insensitive to
    set-iteration order."""
    first, _ = _artifacts(_session(seed))
    second, _ = _artifacts(_session(seed))
    assert first is not second
    assert pickle.dumps(first) == pickle.dumps(second)


def test_payload_roundtrip_is_exact():
    session = _session(0)
    automaton = session.reachable_configs()
    rebuilt = automaton_from_payload(automaton_to_payload(automaton))
    assert structurally_equal(rebuilt, automaton)
    # The payload itself is canonical: rebuilding and re-rendering is a
    # fixed point.
    assert automaton_to_payload(rebuilt) == automaton_to_payload(automaton)


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_footprint_matches_touched_procedures(seed):
    """The footprint is exactly the content keys of the procedures
    owning a symbol on the (trimmed) automaton — per vertex ownership,
    plus caller and callee for call-site labels."""
    session = _session(seed)
    poststar, prestar = _artifacts(session)
    keys = session._content_keys()
    for artifact in filter(None, (poststar, prestar)):
        owners = symbol_owner_procs(session.sdg, artifact.automaton)
        assert artifact.footprint == frozenset(keys[name] for name in owners)
        assert artifact.footprint <= frozenset(keys.values())
    # The shared Poststar always reaches main itself (procedures main
    # never calls may legitimately be absent from its footprint).
    assert keys["main"] in poststar.footprint


def test_sats_key_digest_stable_across_processes(tmp_path):
    """The ``__sats__`` file names — sha256 over each saturation's
    footprint-free pickled payload — must come out identical in a fresh
    interpreter with a fresh hash seed, configuration criteria (the §8
    bug-site style) included: their query states are named by position
    alone, so the configuration automata this process built earlier
    change nothing."""
    import subprocess
    import sys

    from repro.core.criteria import configs_criterion
    from repro.store import SliceStore
    from repro.workloads.paper_figures import FIG1_SOURCE

    def sat_names(cache):
        return sorted(
            name
            for name in os.listdir(os.path.join(cache, "__sats__"))
            if name.startswith("sat-")
        )

    here = str(tmp_path / "here")
    there = str(tmp_path / "there")
    # A configuration automaton built first must not change the state
    # names of those built after it.
    throwaway = SlicingSession(FIG1_SOURCE)
    configs_criterion(
        throwaway.encoding, [(throwaway.sdg.entry_vertex["p"], ("C2",))]
    )
    session = SlicingSession(FIG1_SOURCE, store=SliceStore(here))
    session.slice()
    # p's entry under its first call site in main.
    sdg = session.sdg
    session.slice([(sdg.entry_vertex["p"], (sdg.sites_in_proc["main"][0],))])
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    script = (
        "import sys\n"
        "from repro.engine import SlicingSession\n"
        "from repro.store import SliceStore\n"
        "session = SlicingSession(sys.stdin.read(), store=SliceStore(%r))\n"
        "session.slice()\n"
        "sdg = session.sdg\n"
        "session.slice([(sdg.entry_vertex['p'], (sdg.sites_in_proc['main'][0],))])\n"
        % there
    )
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="4242")
    subprocess.check_output(
        [sys.executable, "-c", script], input=FIG1_SOURCE, env=env, text=True
    )
    # The Poststar, the prints Prestar and the configuration Prestar.
    assert len(sat_names(here)) == 3
    assert sat_names(there) == sat_names(here)


def test_sats_artifacts_shared_across_processes(tmp_path):
    """End to end: a subprocess fills the ``__sats__`` table; this
    process's fresh session loads the artifacts instead of saturating
    (digest stability made observable)."""
    import subprocess
    import sys

    from repro.store import SliceStore
    from repro.workloads.paper_figures import FIG1_SOURCE

    cache = str(tmp_path / "cache")
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    script = (
        "import sys\n"
        "from repro.engine import SlicingSession\n"
        "from repro.store import SliceStore\n"
        "session = SlicingSession(sys.stdin.read(), store=SliceStore(%r))\n"
        "session.slice()\n" % cache
    )
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="99")
    subprocess.check_output(
        [sys.executable, "-c", script], input=FIG1_SOURCE, env=env, text=True
    )
    reader = SlicingSession(FIG1_SOURCE, store=SliceStore(cache))
    reader.reachable_configs()
    assert reader.stats["sat_persist_hits"] == 1
    assert reader.store.stats()["sat_hits"] == 1
