"""The fused multi-criterion saturation's work pin.

``prestar_many_csr`` exists so a batch of N criteria costs one worklist
pass instead of N: every PDS rule is fired once, with criterion
membership carried as a bitset, and the N answers are projected at the
end.  The per-criterion alternative — N singleton passes, one
``prestar_many_csr(pds, [automaton])`` per criterion, which is what
``repro.pds.prestar`` runs — pays the full rule-fire cost N times.

The pin runs both on the scaled word-count subject at 32 categories
(35 print criteria), re-asserts byte identity of all 35 projected
automata so the saving can never come from computing something
cheaper, and requires the fused pass to pop at most 10% of the
worklist items the singleton passes pop together (measured: 2,076
against 52,294).  Worklist pops are deterministic, so the pin holds on
any machine; the wall times of both paths go to
:func:`bench_utils.record_bench` for the benchmark trail.
"""

import time

from bench_utils import print_table, record_bench
from repro.engine import SlicingSession
from repro.engine.canonical import resolve_criterion_spec
from repro.fsa.serialize import automaton_to_payload
from repro.pds.kernel import prestar_many_csr
from repro.workloads.wc import scaled_wc_source

#: scaled word-count categories; 32 yields 35 print criteria.
CATEGORIES = 32

#: the fused pass may pop at most this share of the per-criterion total
MAX_POP_SHARE = 0.10


def _queries(session):
    automata = []
    for index in range(len(session.sdg.print_call_vertices())):
        kind, payload = resolve_criterion_spec(session.sdg, ("print", index))
        automata.append(session._query_automaton(kind, payload, "reachable"))
    return automata


def test_fused_batch_speedup_on_scaled_wc():
    session = SlicingSession(scaled_wc_source(CATEGORIES))
    pds = session.encoding.pds
    automata = _queries(session)
    assert len(automata) >= 20

    solo_stats = {}
    t0 = time.perf_counter()
    sequential = [
        prestar_many_csr(pds, [a], trim=True, stats=solo_stats)[0]
        for a in automata
    ]
    sequential_seconds = time.perf_counter() - t0

    fused_stats = {}
    t1 = time.perf_counter()
    fused = prestar_many_csr(pds, automata, trim=True, stats=fused_stats)
    fused_seconds = time.perf_counter() - t1

    # The saving is only meaningful if the fused pass did the same work:
    # all 35 projections byte-identical to their singleton passes.
    assert [automaton_to_payload(a) for a in fused] == [
        automaton_to_payload(a) for a in sequential
    ]

    solo_pops = solo_stats["kernel_worklist_pops"]
    fused_pops = fused_stats["kernel_worklist_pops"]
    record_bench(
        "fused_batch_scaled_wc",
        criteria=len(automata),
        solo_pops=solo_pops,
        fused_pops=fused_pops,
        speedup=sequential_seconds / fused_seconds,
        sequential_seconds=sequential_seconds,
        fused_seconds=fused_seconds,
    )
    print_table(
        "Fused saturation — scaled wc, %d criteria" % len(automata),
        ["path", "worklist pops", "seconds"],
        [
            ("per criterion", solo_pops, "%.3f" % sequential_seconds),
            ("fused pass", fused_pops, "%.3f" % fused_seconds),
        ],
    )
    assert fused_pops <= MAX_POP_SHARE * solo_pops, (
        "fused batch popped %d worklist items against %d for %d "
        "per-criterion runs (pinned share: %.0f%%)"
        % (fused_pops, solo_pops, len(automata), 100 * MAX_POP_SHARE)
    )
