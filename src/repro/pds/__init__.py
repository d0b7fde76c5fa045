"""Pushdown systems (the WALi substitute).

* :mod:`repro.pds.system` — PDS rules and classification.
* :mod:`repro.pds.kernel` — the Bouajjani–Esparza–Maler /
  Finkel–Willems–Wolper saturation procedures, in the efficient
  formulations of Esparza et al. (2000) / Schwoon (2002), over flat int
  arrays, with one worklist loop per direction:
  :func:`prestar_many` / :func:`poststar_many` saturate a batch of
  query automata in one fused pass, and :func:`prestar` /
  :func:`poststar` saturate one query as a batch of one.
* :mod:`repro.pds.reference` — the object loops the kernels replaced,
  kept as the test oracle.
* :mod:`repro.pds.encode` — the Fig. 8 encoding of an SDG as a PDS,
  whose transition relation *is* the unrolled SDG (Defn. 3.4).
"""

from repro.pds.encode import SDGEncoding, encode_sdg
from repro.pds.kernel import poststar_csr as poststar
from repro.pds.kernel import poststar_many_csr as poststar_many
from repro.pds.kernel import prestar_csr as prestar
from repro.pds.kernel import prestar_many_csr as prestar_many
from repro.pds.system import PushdownSystem, Rule

__all__ = [
    "PushdownSystem",
    "Rule",
    "SDGEncoding",
    "encode_sdg",
    "poststar",
    "poststar_many",
    "prestar",
    "prestar_many",
]
