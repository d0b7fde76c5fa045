"""Finite-state automata and transducers (the OpenFST substitute).

Provides exactly the operations Algorithm 1 and the §8.3 reslicing check
need: reversal, subset-construction determinization, Hopcroft
minimization, epsilon removal, product intersection, complementation,
language equality, and finite-state transducers with inverse application
— plus the deterministic serialization layer (:mod:`repro.fsa.serialize`)
that relocatable saturation artifacts are built on.  Determinize,
minimize, and epsilon removal run over the integer codec
(:mod:`repro.fsa.intops`); :mod:`repro.fsa.reference` keeps the object
loops as the test oracle.
"""

from repro.fsa.automaton import FiniteAutomaton
from repro.fsa.ops import (
    complement,
    determinize,
    intersection,
    is_empty,
    language_equal,
    minimize,
    mrd,
    remove_epsilon,
    reverse,
    union,
)
from repro.fsa.serialize import (
    automaton_from_payload,
    automaton_to_payload,
    canonical_dfa,
    structurally_equal,
)
from repro.fsa.transducer import Transducer

__all__ = [
    "FiniteAutomaton",
    "Transducer",
    "automaton_from_payload",
    "automaton_to_payload",
    "canonical_dfa",
    "complement",
    "determinize",
    "intersection",
    "is_empty",
    "language_equal",
    "minimize",
    "mrd",
    "remove_epsilon",
    "reverse",
    "structurally_equal",
    "union",
]
