"""Program analyses underlying SDG construction.

These are the classic compiler analyses the paper's SDG substrate
(CodeSurfer/C) provides internally:

* :mod:`repro.analysis.cfg` — a generic control-flow graph.
* :mod:`repro.analysis.postdom` — postdominators (the Cooper–Harvey–
  Kennedy immediate-postdominator tree).
* :mod:`repro.analysis.control_dep` — control dependence
  (Ferrante–Ottenstein–Warren on the CFG, plus a structural variant used
  as a cross-check on structured programs).
* :mod:`repro.analysis.reaching` — reaching definitions / flow dependence
  (bitset gen/kill in reverse postorder).
* :mod:`repro.analysis.callgraph` — the direct call graph and the
  may-exit analysis used for §6.1-style termination modeling.
* :mod:`repro.analysis.modref` — interprocedural MayMod/MayRef/MustMod
  side-effect analysis (Cooper–Kennedy style, with translation through
  ``ref`` parameters), solved callees first one call-graph SCC at a time.
"""

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.control_dep import control_dependence, structural_control_dependence
from repro.analysis.modref import ModRefInfo, compute_modref
from repro.analysis.postdom import immediate_postdominators, postdominators
from repro.analysis.reaching import flow_dependences, reaching_definitions

__all__ = [
    "CallGraph",
    "ControlFlowGraph",
    "ModRefInfo",
    "build_call_graph",
    "compute_modref",
    "control_dependence",
    "flow_dependences",
    "immediate_postdominators",
    "postdominators",
    "reaching_definitions",
    "structural_control_dependence",
]
