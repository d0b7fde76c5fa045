"""Deterministic scaling pins for the front half's dataflow passes.

Work is counted from outside, by wrapping module-level functions and
``ControlFlowGraph`` methods with monkeypatch, never with a clock:

* mod/ref: on call chains of 50, 100 and 200 procedures, the number of
  times each procedure's must-mod dataflow runs.  The call graph is
  acyclic, so the callees-first schedule evaluates each procedure at
  most twice (a round-robin fixpoint reran all of them once per link).
* reaching definitions and control dependence: on scaled wc at 16, 32
  and 64 categories, the CFG adjacency queries ``flow_dependences`` and
  ``control_dependence`` make, against the size of the CFGs they run
  on.  The work per CFG node and edge must stay flat as programs grow.
"""

import pytest

import repro.analysis.modref as modref_module
import repro.sdg.pdg_builder as pdg_builder
from repro.analysis.callgraph import build_call_graph
from repro.analysis.cfg import ControlFlowGraph
from repro.lang import check, parse
from repro.sdg import build_sdg
from repro.workloads.wc import scaled_wc_source
from tests.test_sdg_golden import chain_source


@pytest.mark.parametrize("links", [50, 100, 200])
def test_must_mod_evaluates_each_acyclic_procedure_at_most_twice(monkeypatch, links):
    evaluations = {}
    original = modref_module._must_at_return

    def counting(proc, *args):
        evaluations[proc.name] = evaluations.get(proc.name, 0) + 1
        return original(proc, *args)

    monkeypatch.setattr(modref_module, "_must_at_return", counting)
    program = parse(chain_source(links))
    info = check(program)
    modref_module.compute_modref(program, info, build_call_graph(program))
    assert len(evaluations) == links + 1
    assert max(evaluations.values()) <= 2


@pytest.fixture
def dataflow_work(monkeypatch):
    """Counts the CFG adjacency queries made inside ``flow_dependences``
    and ``control_dependence`` during PDG construction, and the total
    size (nodes + edges) of the CFGs they ran on."""
    counter = {"queries": 0, "size": 0, "active": False}

    def counted(method):
        def wrapper(self, *args, **kwargs):
            if counter["active"]:
                counter["queries"] += 1
            return method(self, *args, **kwargs)

        return wrapper

    def measured(function):
        def wrapper(cfg, *args):
            counter["size"] += len(cfg) + sum(1 for _ in cfg.edges())
            counter["active"] = True
            try:
                return function(cfg, *args)
            finally:
                counter["active"] = False

        return wrapper

    for name in ("successors", "predecessors"):
        monkeypatch.setattr(
            ControlFlowGraph, name, counted(getattr(ControlFlowGraph, name))
        )
    for name in ("flow_dependences", "control_dependence"):
        monkeypatch.setattr(pdg_builder, name, measured(getattr(pdg_builder, name)))
    return counter


def test_dataflow_work_grows_linearly_in_cfg_size(dataflow_work):
    ratios = {}
    for categories in (16, 32, 64):
        dataflow_work.update(queries=0, size=0)
        program = parse(scaled_wc_source(categories))
        build_sdg(program, check(program))
        queries, size = dataflow_work["queries"], dataflow_work["size"]
        # A constant number of adjacency queries per node and edge.
        assert queries <= 4 * size, (categories, queries, size)
        ratios[categories] = queries / size
    assert ratios[64] <= 1.05 * ratios[16], ratios
