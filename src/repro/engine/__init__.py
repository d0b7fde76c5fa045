"""The batched slicing engine (load a program once, serve many criteria).

* :mod:`repro.engine.session` — :class:`SlicingSession`: shared
  parse/SDG/encoding/saturation, per-criterion memoization, optional
  persistent-store backing, and the ``slice_many`` batch driver (one
  fused saturation pass, then a thread pool).
* :mod:`repro.engine.artifacts` — :class:`SaturationArtifact`: the
  relocatable (trimmed automaton + canonical key + per-procedure
  ownership footprint) form every saturation takes — the single
  representation shared by the session memo, the store's ``__sats__``
  table, cross-revision discovery, and incremental invalidation.
* :mod:`repro.engine.canonical` — canonical cache keys for criterion
  specs and saturations, plus the stable digests the on-disk store
  names entries by.
* :mod:`repro.engine.incremental` — per-procedure content keys and the
  :meth:`SlicingSession.update_source` machinery: after a source edit,
  only changed procedures are rebuilt and memo entries are invalidated
  as a pure function of artifact footprints; plus
  :func:`discover_artifacts`, the cold-process counterpart that adopts
  saturations filed under *other* revisions via the store's per-revision
  footprint indexes.
* :mod:`repro.engine.parallel` — :func:`slice_many_programs`, the
  multi-program batch driver (one worker per program).

Most users reach this through :func:`repro.open_session`.
"""

from repro.engine.artifacts import SaturationArtifact, artifact_footprint
from repro.engine.canonical import (
    PRINTS,
    REACHABLE_KEY,
    automaton_key,
    canonical_key,
    is_stable_key,
    resolve_criterion_spec,
    saturation_key,
    stable_key_digest,
)
from repro.engine.incremental import discover_artifacts, procedure_keys
from repro.engine.parallel import ProgramSliceError, slice_many_programs
from repro.engine.session import SlicingSession

__all__ = [
    "PRINTS",
    "ProgramSliceError",
    "REACHABLE_KEY",
    "SaturationArtifact",
    "SlicingSession",
    "artifact_footprint",
    "automaton_key",
    "canonical_key",
    "discover_artifacts",
    "is_stable_key",
    "procedure_keys",
    "resolve_criterion_spec",
    "saturation_key",
    "slice_many_programs",
    "stable_key_digest",
]
