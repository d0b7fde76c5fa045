"""The persistent slice store: a content-addressed on-disk cache.

Layout.  One directory per program revision (named by the sha256 of
its source text), plus the tables shared by every revision::

    <cache_dir>/
      <source_hash>/
        fronthalf.slc                  # pickled SDG (program+info+PDS encoding)
        results-<digest>.slc           # the slim results one public call computed
      __procs__/
        proc-<content_key>.slc         # pickled per-procedure ProcPart
      __sats__/
        sat-<payload_sha256>.slc       # one saturation (kind, key, automaton)
        idx-<layout_signature>.slc     # one pushdown system's saturation index
      __pds__/
        pds-<source_hash>.slc          # legacy; nothing writes it

A ``results`` entry maps ``(table, key digest)`` to a slim slice,
feature-removal, or cleanup result (``table`` is the session memo
table, ``key digest`` :func:`repro.engine.canonical.stable_key_digest`
of the memo's canonical key, so the two cache layers can never
disagree about which queries are "the same").  A session files the
results one public call computed as one entry and reads its revision's
entries once, at its first persisted lookup.  The ``__procs__`` table
is content-addressed by :func:`repro.engine.incremental.procedure_keys`
digests: an edited program whose whole-program bundle misses can still
assemble its front half from the unchanged procedures' parts (a
*partial* hit, counted by ``proc_hits``/``proc_misses``).  The
``__pds__`` table is legacy: earlier engines filed compiled-PDS
payloads there, and the engine now neither reads nor writes it (a
fresh process compiles its PDS, which measured faster).  Stores
written by earlier versions still hold its entries, which are
counted, evicted and cleared like any other; its three methods remain
only because the benchmark's tracer wraps them by name.

The ``__sats__`` table holds the saturations — the shared Poststar and
the per-criterion Prestar/Poststar automata — as
:class:`repro.engine.artifacts.SaturationArtifact` objects pickled
*without* their ownership footprint, each in a file named by the
sha256 of its payload (the checksum its entry header carries).  Equal
saturations are therefore one file, whichever revisions own them.

The saturation index.  A saturation depends only on the pushdown
system and its query, so ``__sats__`` keeps one small
``idx-<signature>.slc`` file per pushdown system, named by the
:func:`repro.engine.incremental.layout_signature` of the revisions
that number it (revisions share a signature exactly when a label edit
separates them).  The index maps each saturation's key digest to the
record ``(memo key, kind, footprint, file name)``, the footprint as the
names of the procedures it touches: every revision of the system has
those procedures and resolves the names to its own content keys.  A
session reads its system's index once, at its first saturation claim,
and writes it once per saturation pass; a fresh process opening a
label-edited text therefore loads its saturations directly, and one
opening a structurally edited text finds no index and computes them
(see :func:`repro.engine.incremental.discover_artifacts`).  The kind in
each record also tells the evictor how expensive a file is to
recompute without unpickling it.

Entry format.  Every file is ``MAGIC | version | sha256(payload) |
payload`` with the payload a pickle.  Reads verify all three prefixes
and, for a ``__sats__`` file, that its name is its checksum; any
mismatch — a truncated write, a flipped byte, a file written by an
older store version — makes the entry a *miss* and deletes it, so a
corrupted cache degrades to a cold one instead of failing or serving
bad results.  A saturation whose key differs from the key its index
record names is a miss too.

Writes are atomic (temp file + :func:`os.replace` in the same
directory), which also makes concurrent writers safe: the last
complete write wins and readers only ever observe whole entries.  A
``__sats__`` file is written only when no valid file of its name
exists.  Writes are also *optional*: the store is an optimization,
never a dependency, so an ``OSError`` on the write path (ENOSPC,
EACCES, a read-only cache dir) degrades to a counted no-op
(``write_errors``) instead of failing the query whose answer already
exists.

Eviction.  The store is capped at ``max_bytes`` (default 256 MiB,
overridable via ``REPRO_CACHE_MAX_BYTES``; a malformed value falls
back to the default with a warning rather than crashing every
session).  A store object learns the store's size with one stat-only
scan at its first write and keeps a running estimate; only a write
that takes the estimate past the cap runs the compaction walk.
Eviction is **recompute-cost-aware**, not flat LRU: entries are ranked
by how expensive they are to rebuild — results entries first
(milliseconds, given warm saturations), then per-procedure parts, then
Prestar files, then Poststar files, and front-half bundles and
saturation indexes last — with oldest-mtime-first (reads bump mtime,
so LRU) as the tie-break *within* a tier.  A 256 MiB cache under
pressure therefore sheds cheap rendered results and keeps the shared
Poststar that costs seconds to re-saturate.  A ``__sats__`` file's
tier comes from the records that name it; evicting a file several
indexes name stales each of their records.  Every compaction walk
also garbage-collects the saturation indexes (records whose file is
gone are pruned, ``gc_index_pruned``, and an index left with none is
deleted) and deletes ``__sats__`` files
that no index names once they are older than a grace period (a writer
files a saturation before its record).  Any walk that evicted or
pruned something bumps the lifetime counters persisted in the
``__sats__/meta`` sidecar, which ``repro cache stats`` reports across
processes.
"""

import hashlib
import os
import pickle
import struct
import tempfile
import threading
import time
import warnings

MAGIC = b"RSLC"
#: Bump on any incompatible change to the entry format *or* to the
#: pickled object graphs; old entries are then invalidated on read.
#: v2: results carry ownership footprints; saturations became
#: first-class SaturationArtifact entries in the __sats__ table.
#: v3: per-revision saturation indexes (layout + artifact records)
#: beside __sats__ make artifacts discoverable across revisions.
#: v4: the relocatable compiled-PDS payload table (``__pds__``), keyed
#: by front-half hash (no longer read or written; see the layout notes).
#: v5: ``__sats__`` files are named by their footprint-free payload's
#: sha256 and shared across revisions; index records name the file;
#: per-criterion result files became one ``results`` entry per call.
#: v6: statement ids are positions, ``(procedure name, index)``, not
#: process-counter ints; per-procedure parts no longer carry an AST.
#: v7: one saturation index per pushdown system, named by its layout
#: signature, with footprints as procedure names and no layout; the
#: keymap sidecar is retired; a ``Bin`` chain pickles as its bottom
#: operand and a list of links.
STORE_VERSION = 7

_VERSION_STRUCT = struct.Struct(">H")
_HEADER_LEN = len(MAGIC) + _VERSION_STRUCT.size + hashlib.sha256().digest_size

_SUFFIX = ".slc"
_TMP_SUFFIX = ".tmp"
_FRONTHALF = "fronthalf"
#: the per-revision table of slim results, one entry per public call
RESULTS_TABLE = "results"
#: the content-addressed per-procedure and saturation-artifact tables
#: live beside the per-program directories (source hashes are hex, so
#: no collision)
_PARTS_DIR = "__procs__"
_SATS_DIR = "__sats__"
#: the legacy compiled-PDS payload table (see the layout notes)
_PDS_DIR = "__pds__"
_SPECIAL_DIRS = frozenset([_PARTS_DIR, _SATS_DIR, _PDS_DIR])
#: the content-addressed saturation table and the per-system
#: saturation-index table (both files in __sats__)
_SAT = "sat"
_SAT_INDEX = "idx"
#: the lifetime-counter sidecar, kept in __sats__ under a non-entry
#: name (never evicted, invisible to _entries, removed only by clear(),
#: which removes every non-entry file there, retired sidecars included)
_META_NAME = "meta"
#: orphaned temp files older than this are swept during eviction/clear,
#: and unindexed ``__sats__`` files during the compaction walk
_TMP_GRACE_SECONDS = 60

DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Recompute-cost tiers for eviction, cheapest-to-rebuild first.  Slim
#: results are re-rendered in milliseconds once their saturations are
#: warm; a procedure part is one PDG build; a Prestar is one criterion
#: saturation; a Poststar (the shared reachable-configs one above all)
#: costs seconds on large programs; the front-half bundle and the
#: saturation indexes anchor everything else and go last.
TIER_RESULT = 0
TIER_PROC = 1
TIER_SAT_PRESTAR = 2
TIER_SAT_POSTSTAR = 3
TIER_PRECIOUS = 4

_TIER_BY_TABLE = {
    RESULTS_TABLE: TIER_RESULT,
    "proc": TIER_PROC,
    # a legacy compiled-PDS payload (nothing reads it): cheap, like a
    # procedure part, and far cheaper than any saturation
    "pds": TIER_PROC,
    _FRONTHALF: TIER_PRECIOUS,
    _SAT_INDEX: TIER_PRECIOUS,
}

#: lifetime counters persisted across processes in the __sats__/meta sidecar
_LIFETIME_COUNTERS = ("evictions", "compactions", "gc_index_pruned")


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def source_hash(source):
    """The store's program key: sha256 hex digest of the source text
    (the same key :func:`repro.open_session` uses in memory)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class SliceStore(object):
    """A persistent cache of slicing results for many programs.

    All methods are safe against concurrent readers and writers in
    other threads and other processes; within one process the counters
    are guarded by a lock.  A store object is cheap — it holds only the
    directory path, the size cap, and hit/miss counters.

    Attributes:
        cache_dir: the root directory (created lazily on first write).
        max_bytes: size cap over all entry files (eviction is
            recompute-cost-aware; see the module docstring).
    """

    def __init__(self, cache_dir=None, max_bytes=None):
        self.cache_dir = os.path.abspath(
            os.path.expanduser(cache_dir or default_cache_dir())
        )
        self._lock = threading.Lock()
        self._index_lock = threading.Lock()
        self._counters = {
            "hits": 0,
            "misses": 0,
            "proc_hits": 0,
            "proc_misses": 0,
            "sat_hits": 0,
            "sat_misses": 0,
            "pds_hits": 0,
            "pds_misses": 0,
            "stores": 0,
            "evictions": 0,
            "invalid_dropped": 0,
            "write_errors": 0,
            "config_errors": 0,
            "gc_index_pruned": 0,
            "compactions": 0,
        }
        if max_bytes is None:
            raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
            max_bytes = DEFAULT_MAX_BYTES
            if raw:
                try:
                    max_bytes = int(raw)
                except ValueError:
                    # A malformed knob (e.g. "256M") must degrade, not
                    # crash every session with a cache dir attached.
                    self._counters["config_errors"] += 1
                    warnings.warn(
                        "ignoring malformed REPRO_CACHE_MAX_BYTES=%r "
                        "(want a byte count, e.g. 268435456); using the "
                        "default %d" % (raw, DEFAULT_MAX_BYTES),
                        RuntimeWarning,
                        stacklevel=2,
                    )
        self.max_bytes = max_bytes
        # Approximate on-disk total, maintained incrementally so writes
        # do not walk the store; None until the first write scans once.
        # Writers in other processes are invisible to the estimate, but
        # every full scan (triggered whenever the estimate crosses the
        # cap) resyncs it with the truth.
        self._approx_bytes = None

    # -- the generic object cache ----------------------------------------------

    def get(self, src_hash, table, key_digest):
        """The cached object for ``(program, table, criterion)``, or
        None.  Never raises on a bad entry: corrupted, truncated, and
        version-mismatched files count as misses and are deleted."""
        path = self._entry_path(src_hash, table, key_digest)
        value, ok = self._read(path)
        self._count("hits" if ok else "misses")
        return value

    def put(self, src_hash, table, key_digest, value):
        """Cache ``value``; atomic, last-writer-wins, then cost-aware
        eviction if the store grew past ``max_bytes``.  A failing
        filesystem degrades to a counted no-op (``write_errors``)."""
        path = self._entry_path(src_hash, table, key_digest)
        written = self._write(path, value)
        self._count("stores")
        self._note_written(written)

    def has(self, src_hash, table, key_digest):
        """Whether a *plausibly valid* entry exists for ``(program,
        table, criterion)`` — the generic-table twin of
        :meth:`has_program`.  Only the header (magic + version) is
        checked, nothing is deserialized, and no hit/miss counter
        moves: this is a peek."""
        return self._has_valid_header(self._entry_path(src_hash, table, key_digest))

    def keys(self, src_hash, table):
        """The key digests of ``table``'s entries in one program's
        directory, sorted — a directory listing: nothing is read and
        no counter moves (each :meth:`get` of one counts as usual)."""
        prefix = table + "-"
        return sorted(
            name[len(prefix):-len(_SUFFIX)]
            for name in _listdir(os.path.join(self.cache_dir, src_hash))
            if name.startswith(prefix) and name.endswith(_SUFFIX)
        )

    # -- the front-half bundle -------------------------------------------------

    def get_program(self, src_hash):
        """The cached front half (an SDG carrying program, semantic
        info, and PDS encoding) for a source hash, or None."""
        value, ok = self._read(self._entry_path(src_hash, _FRONTHALF, None))
        self._count("hits" if ok else "misses")
        return value

    def put_program(self, src_hash, sdg):
        written = self._write(self._entry_path(src_hash, _FRONTHALF, None), sdg)
        self._count("stores")
        self._note_written(written)

    def has_program(self, src_hash):
        """Whether a *plausibly valid* front-half bundle exists on disk
        for a source hash: the header (magic + version) is checked
        cheaply, so a corrupt or stale-version file does not let a
        caller skip re-persisting over it.  The payload checksum is
        still verified on read."""
        return self._has_valid_header(self._entry_path(src_hash, _FRONTHALF, None))

    # -- the per-procedure table -------------------------------------------------

    def get_proc(self, content_key):
        """The cached :class:`~repro.sdg.parts.ProcPart` for a
        procedure content key, or None.  Parts are content-addressed —
        shared across every program (and every edit of one program)
        whose procedure hashes to the same key — which is what makes a
        *partial* front-half hit possible when the whole-program bundle
        misses.  ``proc_hits``/``proc_misses`` count these lookups."""
        value, ok = self._read(self._entry_path(_PARTS_DIR, "proc", content_key))
        self._count("proc_hits" if ok else "proc_misses")
        return value

    def put_proc(self, content_key, part):
        """Cache one procedure's part under its content key."""
        written = self._write(self._entry_path(_PARTS_DIR, "proc", content_key), part)
        self._count("stores")
        self._note_written(written)

    # -- the saturation-artifact table -----------------------------------------

    def get_sat(self, name, key):
        """The saturation filed in ``__sats__`` as ``name`` (a file name
        from an index record), or None.  Besides every check a read
        makes, the file's checksum must equal its name and the
        object's ``key`` must equal ``key``, the key the record names;
        any mismatch is a miss.  Counted by ``sat_hits``/``sat_misses``.
        The object carries no footprint: its index record holds it."""
        value, ok = None, False
        if _is_sha256_hex(name):
            value, ok = self._read(self._sat_path(name))
            ok = ok and getattr(value, "key", None) == key
        self._count("sat_hits" if ok else "sat_misses")
        return value if ok else None

    def put_sat(self, value):
        """File one footprint-free saturation in ``__sats__`` and return
        its name, the sha256 of its pickled payload, or None when the
        filesystem refused the write.  A valid file of that name holds
        these very bytes, so it is only touched (which keeps it out of
        the orphan sweep until a record names it), not rewritten."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        name = hashlib.sha256(payload).hexdigest()
        path = self._sat_path(name)
        if self._has_valid_header(path):
            _touch(path)
            return name
        written = self._write(path, _Pickled(payload))
        self._count("stores")
        self._note_written(written)
        return name if written else None

    def has_sat(self, name):
        """Whether a *plausibly valid* ``__sats__`` file of this name
        exists: its header carries the current magic and version and a
        checksum equal to its name (the payload itself is verified on
        read)."""
        return _is_sha256_hex(name) and self._has_valid_header(self._sat_path(name))

    # -- the legacy compiled-PDS payload table ---------------------------------
    #
    # No engine code calls these three methods.  They remain only
    # because the benchmark's tracer (``perfbench/tracing.py``) wraps
    # them by name in its ``METHODS`` list; they go, with the table,
    # when the tracer moves onto the engine.

    def get_pds(self, src_hash):
        """The value filed in the legacy ``__pds__`` table under a
        front-half hash, or None.  Counted by ``pds_hits``/
        ``pds_misses``.  No engine code calls it (see the section
        comment)."""
        value, ok = self._read(self._entry_path(_PDS_DIR, "pds", src_hash))
        self._count("pds_hits" if ok else "pds_misses")
        return value

    def put_pds(self, src_hash, payload):
        """File a value in the legacy ``__pds__`` table under a
        front-half hash.  No engine code calls it (see the section
        comment)."""
        written = self._write(self._entry_path(_PDS_DIR, "pds", src_hash), payload)
        self._count("stores")
        self._note_written(written)

    def has_pds(self, src_hash):
        """Whether a plausibly valid legacy ``__pds__`` entry exists
        (header-only check, like :meth:`has_sat`).  No engine code calls
        it (see the section comment)."""
        return self._has_valid_header(self._entry_path(_PDS_DIR, "pds", src_hash))

    # -- the per-system saturation index ---------------------------------------

    def get_sat_index(self, signature):
        """The saturation index of the pushdown system a layout
        ``signature`` names, or None: saturation key digest -> ``(memo
        key, kind, footprint, file name)`` for every saturation any
        revision of that system filed (the footprint as procedure
        names; the file a ``__sats__`` name).  Indexes ride the same
        header/checksum format as entries, so a corrupt index degrades
        to "nothing filed"."""
        value, _ok = self._read(self._sat_index_path(signature))
        return value if isinstance(value, dict) else None

    def merge_sat_index(self, signature, records):
        """Merge ``records`` (key digest -> ``(memo key, kind,
        footprint, file name)``) into the index of the pushdown system
        ``signature`` names.  Read-modify-write under the in-process
        lock; cross-process races are last-writer-wins (a lost record
        only costs a recompute, never correctness).  Callers merge once
        per saturation pass."""
        with self._index_lock:
            index = self.get_sat_index(signature) or {}
            index.update(records)
            written = self._write(self._sat_index_path(signature), index)
        self._note_written(written)
        return index

    def sat_indexes_for(self, signature):
        """``[(signature, index)]`` when an index is filed under the
        layout signature, else ``[]``: :meth:`sat_indexes` narrowed to
        one pushdown system.  No engine code calls it (a session reads
        its one index through :meth:`get_sat_index`); it remains
        because the benchmark's tracer wraps it by name."""
        index = self.get_sat_index(signature)
        return [] if index is None else [(signature, index)]

    def sat_indexes(self):
        """Every readable ``(signature, index)`` pair, most recently
        touched first — what the compaction walk garbage-collects."""
        sats_dir = os.path.join(self.cache_dir, _SATS_DIR)
        prefix = _SAT_INDEX + "-"
        found = []
        for name in _listdir(sats_dir):
            if not (name.startswith(prefix) and name.endswith(_SUFFIX)):
                continue
            path = os.path.join(sats_dir, name)
            try:
                mtime = os.stat(path).st_mtime
            except OSError:
                continue
            found.append((mtime, name[len(prefix):-len(_SUFFIX)]))
        found.sort(reverse=True)
        result = []
        for _mtime, signature in found:
            index = self.get_sat_index(signature)
            if index is not None:
                result.append((signature, index))
        return result

    # -- maintenance -----------------------------------------------------------

    def clear(self):
        """Delete every entry; returns the number of files removed."""
        removed = 0
        for path, _size, _mtime in self._entries():
            if self._unlink(path):
                removed += 1
        self._sweep_stale_temp()
        sats_dir = os.path.join(self.cache_dir, _SATS_DIR)
        for name in _listdir(sats_dir):
            # The sidecars: the lifetime counters, and the keymap that
            # stores before version 7 kept (a young temp file may still
            # belong to a live writer).
            if not name.endswith(_TMP_SUFFIX):
                _unlink_quiet(os.path.join(sats_dir, name))
        for name in _listdir(self.cache_dir):
            _rmdir(os.path.join(self.cache_dir, name))
        with self._lock:
            self._approx_bytes = 0
        return removed

    def stats(self):
        """A snapshot: on-disk shape (programs, entries, bytes, and a
        per-table entry/byte breakdown), this process's
        hit/miss/store/eviction counters, and the cross-process
        ``lifetime`` GC/compaction totals from the ``__sats__/meta``
        sidecar.

        ``tables`` maps table name (``fronthalf``, ``results``,
        ``proc``, ``sat``, ``idx``, ``pds``) to entry count;
        ``table_bytes`` maps the same names to total bytes, so every
        table is observable from ``repro cache stats`` (a ``sat`` file
        shared by several revisions counts once).
        """
        entries = self._entries()
        programs = set()
        tables = {}
        table_bytes = {}
        for path, size, _mtime in entries:
            subdir = os.path.basename(os.path.dirname(path))
            if subdir not in _SPECIAL_DIRS:
                programs.add(subdir)
            table = self._entry_table(path)
            tables[table] = tables.get(table, 0) + 1
            table_bytes[table] = table_bytes.get(table, 0) + size
        with self._lock:
            counters = dict(self._counters)
        counters.update(
            cache_dir=self.cache_dir,
            version=STORE_VERSION,
            max_bytes=self.max_bytes,
            programs=len(programs),
            entries=len(entries),
            total_bytes=sum(size for _path, size, _mtime in entries),
            tables=tables,
            table_bytes=table_bytes,
            lifetime=self._read_lifetime(),
        )
        return counters

    # -- internals -------------------------------------------------------------

    def _entry_path(self, src_hash, table, key_digest):
        name = table if key_digest is None else "%s-%s" % (table, key_digest)
        return os.path.join(self.cache_dir, src_hash, name + _SUFFIX)

    def _sat_index_path(self, signature):
        return self._entry_path(_SATS_DIR, _SAT_INDEX, signature)

    def _sat_path(self, name):
        return self._entry_path(_SATS_DIR, _SAT, name)

    def _meta_path(self):
        return os.path.join(self.cache_dir, _SATS_DIR, _META_NAME)

    @staticmethod
    def _entry_table(path):
        """The stats/tier table an entry file belongs to (``slice``,
        ``sat``, ``idx``, ``fronthalf``, ...)."""
        table = os.path.basename(path).rsplit("-", 1)[0]
        if table.endswith(_SUFFIX):
            table = table[: -len(_SUFFIX)]
        return table

    def _read(self, path):
        """Returns ``(value, ok)``; drops the file on any defect,
        including a ``__sats__`` file whose name is not its checksum."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None, False
        if len(blob) < _HEADER_LEN or not blob.startswith(MAGIC):
            self._drop_invalid(path)
            return None, False
        (version,) = _VERSION_STRUCT.unpack_from(blob, len(MAGIC))
        if version != STORE_VERSION:
            self._drop_invalid(path)
            return None, False
        offset = len(MAGIC) + _VERSION_STRUCT.size
        digest = blob[offset:_HEADER_LEN]
        payload = blob[_HEADER_LEN:]
        if hashlib.sha256(payload).digest() != digest or not _named_by(path, digest):
            self._drop_invalid(path)
            return None, False
        try:
            value = pickle.loads(payload)
        except Exception:
            self._drop_invalid(path)
            return None, False
        _touch(path)
        return value, True

    def _has_valid_header(self, path):
        """Cheap existence-plus-plausibility: the file starts with our
        magic and the current version (and, in ``__sats__``, the
        checksum its name promises).  The payload checksum is *not*
        verified — that stays on the read path — but a truncated,
        foreign, or old-version file correctly reads as absent."""
        want = len(MAGIC) + _VERSION_STRUCT.size
        try:
            with open(path, "rb") as handle:
                head = handle.read(_HEADER_LEN)
        except OSError:
            return False
        if len(head) < want or not head.startswith(MAGIC):
            return False
        (version,) = _VERSION_STRUCT.unpack_from(head, len(MAGIC))
        return version == STORE_VERSION and _named_by(path, head[want:])

    def _write(self, path, value):
        """Atomically write one entry; returns the bytes written, or 0
        when the filesystem refused (ENOSPC, EACCES, read-only dir) —
        the store is an optimization, so a failed write is a counted
        no-op (``write_errors``), never an exception on the query
        path.  Pickling errors (a programming bug) still raise.  A
        :class:`_Pickled` value is written as the payload it holds."""
        if isinstance(value, _Pickled):
            payload = value.payload
        else:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = (
            MAGIC
            + _VERSION_STRUCT.pack(STORE_VERSION)
            + hashlib.sha256(payload).digest()
            + payload
        )
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=directory, suffix=_TMP_SUFFIX)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(temp_path, path)
            except BaseException:
                _unlink_quiet(temp_path)
                raise
        except OSError:
            self._count("write_errors")
            return 0
        return len(blob)

    def _drop_invalid(self, path):
        if self._unlink(path):
            self._count("invalid_dropped")

    def _note_written(self, nbytes):
        """Incremental size accounting: a write only triggers the
        compaction walk when the running estimate crosses the cap (the
        estimate over-counts overwrites, which merely causes an early —
        and correcting — walk).  The first write of a store object
        learns the total with a stat-only scan, which reads no entry.
        A degraded write (0 bytes) with a known total is a no-op."""
        with self._lock:
            known = self._approx_bytes is not None
            if known:
                self._approx_bytes += nbytes
                over = self._approx_bytes > self.max_bytes
        if not known:
            total = sum(size for _path, size, _mtime in self._entries())
            with self._lock:
                self._approx_bytes = total
            over = total > self.max_bytes
        if over:
            self._evict()

    def _evict(self):
        """The compaction walk: sweep stale temp files, GC the
        saturation indexes, delete ``__sats__`` files no index names
        (past the grace period), and — when over the cap — drop entries
        in recompute-cost order (cheapest tier first, oldest mtime
        first within a tier) until the store fits."""
        self._sweep_stale_temp()
        entries = self._entries()
        self._count("compactions")
        sat_tiers, pruned = self._gc_sat_indexes(entries)
        entries = self._sweep_orphans(entries, sat_tiers)
        total = sum(size for _path, size, _mtime in entries)
        evicted = 0
        if total > self.max_bytes:
            entries.sort(key=lambda entry: (self._entry_tier(entry[0], sat_tiers), entry[2]))
            for path, size, _mtime in entries:
                if total <= self.max_bytes:
                    break
                if self._unlink(path):
                    total -= size
                    evicted += 1
                    self._count("evictions")
        with self._lock:
            self._approx_bytes = total
        self._bump_lifetime(compactions=1, evictions=evicted, gc_index_pruned=pruned)

    def _entry_tier(self, path, sat_tiers):
        """The eviction tier of one entry file.  Saturation files are
        classified through the index records that name them
        (``sat_tiers``: file name -> tier); an unindexed file defaults
        to the Poststar tier — when in doubt, keep the thing that might
        cost seconds."""
        name = _sat_file_name(path)
        if name is not None:
            return sat_tiers.get(name, TIER_SAT_POSTSTAR)
        return _TIER_BY_TABLE.get(self._entry_table(path), TIER_RESULT)

    def _gc_sat_indexes(self, entries):
        """Prune index records whose saturation file is gone; drop an
        index outright when it has no records left.  Returns ``(sat
        file name -> tier, pruned record count)`` — the classification
        the evictor needs, computed in the same pass; a file no record
        names is absent."""
        live = set()
        for path, _size, _mtime in entries:
            name = _sat_file_name(path)
            if name is not None:
                live.add(name)
        sat_tiers = {}
        pruned = 0
        for signature, index in self.sat_indexes():
            stale = []
            for key_digest, record in index.items():
                try:
                    _key, kind, _footprint, file_name = record
                except (TypeError, ValueError):
                    file_name = None
                if file_name in live:
                    sat_tiers[file_name] = (
                        TIER_SAT_PRESTAR if kind == "prestar" else TIER_SAT_POSTSTAR
                    )
                else:
                    stale.append(key_digest)
            for key_digest in stale:
                del index[key_digest]
            pruned += len(stale)
            if not index:
                # Nothing left to load: the index is dead weight, even
                # if it was already empty before this walk.
                self._unlink(self._sat_index_path(signature))
            elif stale:
                # Rewrite directly (no _note_written: we are inside the
                # compaction walk already).
                self._write(self._sat_index_path(signature), index)
        if pruned:
            with self._lock:
                self._counters["gc_index_pruned"] += pruned
        return sat_tiers, pruned

    def _sweep_orphans(self, entries, sat_tiers):
        """Delete the ``__sats__`` files no index record names
        (``sat_tiers`` holds the named ones) once they are older than
        the grace period — younger ones may belong to a writer that
        has not merged its records yet.  Returns the remaining
        entries."""
        horizon = time.time() - _TMP_GRACE_SECONDS
        kept = []
        for entry in entries:
            path, _size, mtime = entry
            name = _sat_file_name(path)
            if name is None or name in sat_tiers or mtime >= horizon:
                kept.append(entry)
            elif not self._unlink(path):
                kept.append(entry)
        return kept

    def _sweep_stale_temp(self):
        """Remove orphaned ``.tmp`` files (a writer killed between
        mkstemp and the atomic replace) once they are old enough that
        no live writer can still own them."""
        horizon = time.time() - _TMP_GRACE_SECONDS
        for sub in _listdir(self.cache_dir):
            subdir = os.path.join(self.cache_dir, sub)
            for name in _listdir(subdir):
                if not name.endswith(_TMP_SUFFIX):
                    continue
                path = os.path.join(subdir, name)
                try:
                    stale = os.stat(path).st_mtime < horizon
                except OSError:
                    continue
                if stale:
                    _unlink_quiet(path)

    def _entries(self):
        """All ``(path, size, mtime)`` entry triples currently on disk
        (tolerant of concurrent deletion)."""
        result = []
        for sub in _listdir(self.cache_dir):
            subdir = os.path.join(self.cache_dir, sub)
            for name in _listdir(subdir):
                if not name.endswith(_SUFFIX):
                    continue
                path = os.path.join(subdir, name)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                result.append((path, status.st_size, status.st_mtime))
        return result

    def _read_lifetime(self):
        """The cross-process lifetime counters (all zero when the meta
        sidecar is missing or unreadable)."""
        value, _ok = self._read(self._meta_path())
        lifetime = {name: 0 for name in _LIFETIME_COUNTERS}
        if isinstance(value, dict):
            for name in _LIFETIME_COUNTERS:
                count = value.get(name)
                if isinstance(count, int):
                    lifetime[name] = count
        return lifetime

    def _bump_lifetime(self, **increments):
        """Fold this walk's eviction/GC work into the persisted
        lifetime counters.  Only walks that actually evicted or pruned
        something write the sidecar — pure scans leave the store's file
        set untouched.  Best-effort read-modify-write: a racing writer
        in another process can cost an increment, and a read-only cache
        dir costs the write — observability only, so both degrade
        silently."""
        if not (increments.get("evictions") or increments.get("gc_index_pruned")):
            return
        lifetime = self._read_lifetime()
        for name, count in increments.items():
            lifetime[name] = lifetime.get(name, 0) + count
        self._write(self._meta_path(), lifetime)

    def _unlink(self, path):
        if _unlink_quiet(path):
            _rmdir(os.path.dirname(path))
            return True
        return False

    def _count(self, name):
        with self._lock:
            self._counters[name] += 1


class _Pickled(object):
    """A payload pickled ahead of :meth:`SliceStore._write` (a
    content-addressed file is named by its payload's digest, so the
    payload exists before the write)."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload


def _is_sha256_hex(name):
    return (
        isinstance(name, str)
        and len(name) == 64
        and all(char in "0123456789abcdef" for char in name)
    )


def _sat_file_name(path):
    """The name part of a ``__sats__/sat-<name>.slc`` path, else None."""
    base = os.path.basename(path)
    prefix = _SAT + "-"
    if (
        base.startswith(prefix)
        and base.endswith(_SUFFIX)
        and os.path.basename(os.path.dirname(path)) == _SATS_DIR
    ):
        return base[len(prefix):-len(_SUFFIX)]
    return None


def _named_by(path, digest):
    """Whether a file's name agrees with the payload checksum in its
    header: a ``__sats__`` file must be named by it; any other file
    passes."""
    name = _sat_file_name(path)
    return name is None or name == digest.hex()


def _listdir(path):
    try:
        return os.listdir(path)
    except OSError:
        return []


def _touch(path):
    try:
        os.utime(path, None)
    except OSError:
        pass


def _unlink_quiet(path):
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _rmdir(path):
    """Remove a per-program directory if (and only if) it is empty."""
    try:
        os.rmdir(path)
    except OSError:
        pass
