"""The paper's contribution: specialization slicing and its companions.

* :mod:`repro.core.criteria` — query-automaton construction for slicing
  criteria (configuration sets, all-contexts, reachable-contexts).
* :mod:`repro.core.specialize` — Algorithm 1 end-to-end.
* :mod:`repro.core.readout` — reading the specialized SDG out of the
  MRD automaton (Alg. 1 lines 9–24).
* :mod:`repro.core.executable` — pretty-printing a specialized SDG back
  to a runnable TinyC program; monovariant slices (Binkley, Weiser)
  render through the same path (:func:`monovariant_program`).
* :mod:`repro.core.binkley` — monovariant executable slicing baseline.
* :mod:`repro.core.weiser` — Weiser-style executable slicing baseline.
* :mod:`repro.core.flawed` — the flawed §1 candidate algorithm
  (ablation).
* :mod:`repro.core.feature_removal` — Algorithm 2 (§7).
* :mod:`repro.core.funcptr` — §6.2 function-pointer lowering.
* :mod:`repro.core.reslice` — the §8.3 reslicing validation check.
"""

from repro.core.binkley import binkley_slice
from repro.core.cleanup import clean_feature_removal, useless_code_elimination
from repro.core.bta import (
    BTAResult,
    binding_time_analysis,
    calling_context_slice,
    dynamic_input_vertices,
)
from repro.core.criteria import (
    configs_criterion,
    empty_stack_criterion,
    reachable_contexts_criterion,
)
from repro.core.executable import executable_program, monovariant_program
from repro.core.feature_removal import remove_feature
from repro.core.flawed import flawed_specialization_slice
from repro.core.funcptr import lower_indirect_calls
from repro.core.readout import SpecializedPDG
from repro.core.reslice import reslice_check
from repro.core.specialize import SpecializationResult, specialization_slice
from repro.core.weiser import weiser_slice

__all__ = [
    "BTAResult",
    "SpecializationResult",
    "SpecializedPDG",
    "binding_time_analysis",
    "binkley_slice",
    "calling_context_slice",
    "clean_feature_removal",
    "configs_criterion",
    "dynamic_input_vertices",
    "empty_stack_criterion",
    "executable_program",
    "flawed_specialization_slice",
    "lower_indirect_calls",
    "monovariant_program",
    "reachable_contexts_criterion",
    "remove_feature",
    "reslice_check",
    "specialization_slice",
    "useless_code_elimination",
    "weiser_slice",
]
