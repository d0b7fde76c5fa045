"""Persistent slice storage (the cross-process, cross-restart cache).

The in-memory :class:`repro.engine.SlicingSession` memo dies with its
process; this package is the durable layer underneath it:

* :class:`SliceStore` — a content-addressed on-disk cache of front-half
  bundles (parsed program + SDG + PDS encoding), slim results (one
  ``results`` entry per public call), per-procedure parts
  (``__procs__``), relocatable saturation artifacts — one file per
  distinct automaton, shared across revisions — plus per-revision
  saturation indexes (``__sats__``), keyed by source-text hash and the
  engine's canonical keys, with versioned checksummed entries and
  atomic writes.  The
  size cap evicts in *recompute-cost* order (slim results first,
  front-half bundles and indexes last; recency breaks ties within a
  tier), and the store degrades instead of failing: a write error is
  a counted no-op, a malformed ``$REPRO_CACHE_MAX_BYTES`` warns and
  falls back to the default, and every degradation is visible in
  :meth:`SliceStore.stats`.
* :func:`open_store` / :func:`default_cache_dir` — the conventional
  way to get a store (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).

Sessions use it transparently: ``repro.open_session(source,
cache_dir=...)`` loads the front half from the store when warm,
answers repeated criteria from disk with no saturation work at all,
answers *new* criteria against a warm front half by loading the
persisted ``Poststar(entry_main)`` artifact instead of re-saturating,
and — on *edited* source — adopts the previous revision's surviving
artifacts through the saturation index, with no live donor session.
CLI: ``repro cache stats [--json]`` / ``repro cache clear`` and
``repro slice-batch --cache-dir``.
"""

from repro.store.store import (
    DEFAULT_MAX_BYTES,
    STORE_VERSION,
    SliceStore,
    default_cache_dir,
    source_hash,
)


def open_store(cache_dir=None, max_bytes=None):
    """The :class:`SliceStore` at ``cache_dir`` (default:
    :func:`default_cache_dir`)."""
    return SliceStore(cache_dir=cache_dir, max_bytes=max_bytes)


__all__ = [
    "DEFAULT_MAX_BYTES",
    "STORE_VERSION",
    "SliceStore",
    "default_cache_dir",
    "open_store",
    "source_hash",
]
