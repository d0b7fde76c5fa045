"""Tests for the persistent slice store (:mod:`repro.store`).

Covers the store's own durability edge cases — corrupted, truncated,
and version-mismatched entry files, concurrent writers, eviction under
a tight cap — plus configuration/filesystem degradation (malformed
``REPRO_CACHE_MAX_BYTES``, ENOSPC-style write failures), the
per-system saturation index, and the session integration: warm
front-half loads, disk-served slices with zero saturation work,
store-backed ``open_session``, ``slice_many_programs`` in process and
on a process pool, and the ``repro cache`` CLI.
"""

import errno
import os
import shutil
import struct
import threading
import time
import warnings

import pytest

import repro
from repro.cli import build_parser
from repro.engine import SlicingSession, slice_many_programs, stable_key_digest
from repro.lang import pretty
from repro.store import DEFAULT_MAX_BYTES, STORE_VERSION, SliceStore, source_hash
from repro.store.store import MAGIC
from repro.workloads.paper_figures import FIG1_SOURCE

pytestmark = pytest.mark.smoke

HASH = source_hash(FIG1_SOURCE)
KEY = stable_key_digest(("vertices", (1, 2), "reachable"))


def _store(tmp_path, **kwargs):
    return SliceStore(str(tmp_path / "cache"), **kwargs)


def _entry_files(store):
    result = []
    for root, _dirs, files in os.walk(store.cache_dir):
        result.extend(os.path.join(root, name) for name in files)
    return sorted(result)


# -- entry durability --------------------------------------------------------------


def test_roundtrip(tmp_path):
    store = _store(tmp_path)
    assert store.get(HASH, "slice", KEY) is None
    store.put(HASH, "slice", KEY, {"answer": [1, 2, 3]})
    assert store.get(HASH, "slice", KEY) == {"answer": [1, 2, 3]}
    stats = store.stats()
    assert stats["entries"] == 1 and stats["programs"] == 1
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["stores"] == 1


def test_corrupted_entry_is_a_miss_and_removed(tmp_path):
    store = _store(tmp_path)
    store.put(HASH, "slice", KEY, "value")
    (path,) = _entry_files(store)
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF  # flip a payload byte; the checksum must catch it
    open(path, "wb").write(bytes(blob))
    assert store.get(HASH, "slice", KEY) is None
    assert not os.path.exists(path)
    assert store.stats()["invalid_dropped"] == 1


def test_truncated_entry_is_a_miss(tmp_path):
    store = _store(tmp_path)
    store.put(HASH, "slice", KEY, list(range(1000)))
    (path,) = _entry_files(store)
    blob = open(path, "rb").read()
    for cut in (0, 3, len(MAGIC) + 1, len(blob) // 2, len(blob) - 1):
        open(path, "wb").write(blob[:cut])
        assert store.get(HASH, "slice", KEY) is None
        # The defective file was dropped; re-store for the next cut.
        assert not os.path.exists(path)
        store.put(HASH, "slice", KEY, list(range(1000)))
    assert store.get(HASH, "slice", KEY) == list(range(1000))


def test_version_mismatch_invalidates(tmp_path):
    store = _store(tmp_path)
    store.put(HASH, "slice", KEY, "value")
    (path,) = _entry_files(store)
    blob = bytearray(open(path, "rb").read())
    # Rewrite the version field to a future version.
    blob[len(MAGIC)] = 0xFF
    open(path, "wb").write(bytes(blob))
    assert store.get(HASH, "slice", KEY) is None
    assert not os.path.exists(path)
    assert store.stats()["invalid_dropped"] == 1
    assert STORE_VERSION != 0xFF01  # the rewrite above really differs


def test_unpicklable_garbage_payload_is_a_miss(tmp_path):
    """A well-formed header over a checksummed-but-bogus payload must
    still degrade to a miss (pickle errors are caught)."""
    import hashlib
    import struct

    store = _store(tmp_path)
    payload = b"not a pickle at all"
    blob = (
        MAGIC
        + struct.pack(">H", STORE_VERSION)
        + hashlib.sha256(payload).digest()
        + payload
    )
    path = os.path.join(store.cache_dir, HASH, "slice-%s.slc" % KEY)
    os.makedirs(os.path.dirname(path))
    open(path, "wb").write(blob)
    assert store.get(HASH, "slice", KEY) is None
    assert not os.path.exists(path)


def test_concurrent_writers_same_key(tmp_path):
    """Racing writers (atomic replace) must never produce a torn or
    unreadable entry; one of the written values survives."""
    store = _store(tmp_path)
    n_writers = 8
    barrier = threading.Barrier(n_writers)
    errors = []

    def write(index):
        try:
            barrier.wait()
            for round_no in range(20):
                store.put(HASH, "slice", KEY, ("writer", index, round_no))
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(i,)) for i in range(n_writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    value = store.get(HASH, "slice", KEY)
    assert value is not None and value[0] == "writer"
    assert len(_entry_files(store)) == 1  # no leaked temp files


def test_lru_eviction_caps_size(tmp_path):
    payload = "x" * 2000
    store = _store(tmp_path, max_bytes=10_000)
    for index in range(10):
        store.put(HASH, "slice", "key%02d" % index, (index, payload))
        # Keep entry 0 hot so LRU (not FIFO) order decides eviction.
        assert store.get(HASH, "slice", "key00") is not None
    stats = store.stats()
    assert stats["total_bytes"] <= 10_000
    assert stats["evictions"] >= 1
    assert store.get(HASH, "slice", "key00") is not None  # recently used survived
    assert store.get(HASH, "slice", "key01") is None  # cold entry evicted


def test_eviction_with_concurrent_readers(tmp_path):
    """Readers racing the eviction walk must never see an exception or
    a torn entry — a concurrently unlinked file is just a miss — and
    the cap still holds afterwards."""
    store = _store(tmp_path, max_bytes=20_000)
    payload = "y" * 1500
    stop = threading.Event()
    errors = []

    def read_loop():
        try:
            while not stop.is_set():
                for index in range(30):
                    store.get(HASH, "slice", "key%02d" % index)
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    readers = [threading.Thread(target=read_loop) for _ in range(4)]
    for thread in readers:
        thread.start()
    try:
        for index in range(30):
            store.put(HASH, "slice", "key%02d" % index, (index, payload))
    finally:
        stop.set()
        for thread in readers:
            thread.join()
    assert not errors
    stats = store.stats()
    assert stats["total_bytes"] <= 20_000
    assert stats["evictions"] >= 1


# -- configuration and filesystem degradation --------------------------------------


def test_malformed_max_bytes_env_falls_back(tmp_path, monkeypatch):
    """A malformed ``REPRO_CACHE_MAX_BYTES`` (e.g. ``256M``) must not
    crash every session with a cache dir: the store warns once, counts
    a config error, and runs with the default cap."""
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "256M")
    with pytest.warns(RuntimeWarning, match="REPRO_CACHE_MAX_BYTES"):
        store = _store(tmp_path)
    assert store.max_bytes == DEFAULT_MAX_BYTES
    assert store.stats()["config_errors"] == 1
    # The degraded store still works end to end.
    store.put(HASH, "slice", KEY, "value")
    assert store.get(HASH, "slice", KEY) == "value"
    # A well-formed value is honored as before...
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
    assert _store(tmp_path).max_bytes == 12345
    # ...and an explicit max_bytes never consults (or warns about) the env.
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "bogus")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _store(tmp_path, max_bytes=99).max_bytes == 99


def _deny_writes(monkeypatch):
    """Make every entry write fail the way a full/read-only filesystem
    would (deterministic stand-in for ENOSPC/EACCES)."""

    def refuse(*_args, **_kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("repro.store.store.tempfile.mkstemp", refuse)


def test_write_failure_degrades_to_counted_noop(tmp_path, monkeypatch):
    """``put``/``put_program``/``put_sat``/``merge_sat_index`` on a
    failing filesystem are counted no-ops, never exceptions — the store
    is an optimization, not a dependency."""
    store = _store(tmp_path)
    store.put(HASH, "slice", KEY, "kept")
    _deny_writes(monkeypatch)
    store.put(HASH, "slice", "other", "dropped")
    store.put_program(HASH, {"front": "half"})
    assert store.put_sat("artifact") is None  # no file, so no name to record
    store.merge_sat_index("e" * 64, {"d": (("k",), "prestar", ("main",), "0" * 64)})
    assert store.stats()["write_errors"] == 4
    # Reads are unaffected: the pre-existing entry still answers.
    assert store.get(HASH, "slice", KEY) == "kept"
    assert store.get(HASH, "slice", "other") is None


def test_queries_survive_failing_cache_writes(tmp_path, monkeypatch):
    """A slicing query whose answer already exists must not fail just
    because persisting it cannot: the full session pipeline runs to a
    correct result on a write-dead store."""
    reference = pretty(SlicingSession(FIG1_SOURCE).executable().program)
    _deny_writes(monkeypatch)
    session = SlicingSession(FIG1_SOURCE, store=_store(tmp_path))
    assert pretty(session.executable().program) == reference
    stats = session.store.stats()
    assert stats["write_errors"] >= 1
    assert stats["entries"] == 0  # nothing landed, nothing raised


def test_has_helpers_validate_header(tmp_path):
    """``has_program``/``has_sat`` are existence *plus* header checks:
    a corrupt or stale-version file reads as absent, so callers
    re-persist over it instead of trusting a file the next read will
    drop (the lost-survivor bug)."""
    store = _store(tmp_path)
    store.put_program(HASH, {"front": "half"})
    name = store.put_sat("artifact")
    assert store.has_program(HASH) and store.has_sat(name)
    # A stale STORE_VERSION reads as absent.
    paths = _entry_files(store)
    for path in paths:
        blob = bytearray(open(path, "rb").read())
        blob[len(MAGIC)] ^= 0xFF
        open(path, "wb").write(bytes(blob))
    assert not store.has_program(HASH) and not store.has_sat(name)
    # A file truncated inside the header reads as absent.
    for path in paths:
        open(path, "wb").write(MAGIC[:2])
    assert not store.has_program(HASH) and not store.has_sat(name)
    # Foreign magic reads as absent; a missing file too.
    for path in paths:
        open(path, "wb").write(b"ELF\x7f" + b"\x00" * 16)
    assert not store.has_program(HASH) and not store.has_sat(name)
    for path in paths:
        os.unlink(path)
    assert not store.has_program(HASH) and not store.has_sat(name)


def test_sat_files_are_named_by_their_checksum(tmp_path):
    """``__sats__`` is content-addressed: equal payloads share one file,
    a read checks the record's key, and a file whose name is not its
    checksum is a defective entry (a miss, dropped)."""
    from repro.engine.artifacts import SaturationArtifact
    from repro.fsa.automaton import FiniteAutomaton

    store = _store(tmp_path)
    artifact = SaturationArtifact("prestar", ("k",), FiniteAutomaton(), None)
    name = store.put_sat(artifact)
    assert store.put_sat(SaturationArtifact("prestar", ("k",), FiniteAutomaton(), None)) == name
    assert store.stats()["stores"] == 1
    assert store.get_sat(name, ("k",)).key == ("k",)
    assert store.get_sat(name, ("other",)) is None
    misnamed = store._entry_path("__sats__", "sat", "0" * 64)
    shutil.copy(store._entry_path("__sats__", "sat", name), misnamed)
    assert not store.has_sat("0" * 64)
    assert store.get_sat("0" * 64, ("k",)) is None
    assert not os.path.exists(misnamed)
    assert store.stats()["invalid_dropped"] == 1
    # A record can only name a file inside the table.
    assert store.get_sat("../" + name, ("k",)) is None


def test_update_refiles_survivor_over_stale_version_file(tmp_path):
    """The end-to-end lost-survivor regression: ``update_source`` must
    re-persist a surviving artifact over a stale-version file at its
    new location (the old existence-only ``has_sat`` skipped the write,
    and the next read dropped the file — survivor gone).  A procedure
    added after ``main`` is a structural edit that renumbers nothing
    the slice touches, so the renamed Poststar keeps its bytes and its
    new location is the file the base revision's record names."""
    import glob

    from repro.engine.canonical import REACHABLE_KEY
    from repro.engine.incremental import session_signature

    cache = str(tmp_path / "cache")
    session = SlicingSession(FIG1_SOURCE, store=SliceStore(cache))
    session.slice()
    edited = FIG1_SOURCE + "void unused() { g1 = 0; }\n"
    store = session.store
    records = store.get_sat_index(session_signature(session))
    stale = store._entry_path(
        "__sats__", "sat", records[stable_key_digest(REACHABLE_KEY)][3]
    )
    open(stale, "wb").write(MAGIC + struct.pack(">H", STORE_VERSION + 7) + b"junk")

    summary = session.update_source(edited)
    assert summary["fast_path"] is False and summary["saturations_kept"] == 2
    # The stale file was overwritten with a valid entry: a fresh
    # process loads both survivors (zero saturations computed) instead
    # of dropping the Poststar.  Its results are dropped first, so the
    # answer needs the saturations.
    for path in glob.glob(os.path.join(cache, source_hash(edited), "results-*.slc")):
        os.unlink(path)
    reader = SlicingSession(edited, store=SliceStore(cache))
    reader.slice()
    assert reader.stats["sat_persist_hits"] == 2
    assert reader.stats["sat_persist_misses"] == 0
    assert reader.stats["kernel_worklist_pops"] == 0


def test_version_4_store_reopens_cold(tmp_path, monkeypatch):
    """A store in the ``STORE_VERSION`` 4 layout — one file per result,
    ``sat-`` files named by front-half hash and key digest, three-field
    index records — reopens cold and without error, on its own text
    and on an edit, and answers exactly as a storeless session."""
    import hashlib

    import repro.store.store as store_module
    from repro.engine.incremental import session_layout

    live = SlicingSession(FIG1_SOURCE)
    result = live.slice()
    (slice_key,) = [key for kind, key in live._futures if kind == "slice"]
    cache = str(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "STORE_VERSION", 4)
        old = SliceStore(cache)
        old.put_program(HASH, live.sdg)
        old.put(HASH, "slice", stable_key_digest(slice_key), live._slim(result))
        records = {}
        for (kind, key), future in live._futures.items():
            if kind != "saturation":
                continue
            artifact = future.result()
            digest = stable_key_digest(key)
            name = hashlib.sha256(("%s:%s" % (HASH, digest)).encode()).hexdigest()
            old._write(old._entry_path("__sats__", "sat", name), artifact)
            records[digest] = (key, artifact.kind, tuple(sorted(artifact.footprint)))
        layout = session_layout(live)
        old._write(old._sat_index_path(HASH), {"layout": layout, "artifacts": records})
    assert SliceStore(cache).stats()["tables"]["sat"] == 2

    for number, text in enumerate(
        (FIG1_SOURCE, FIG1_SOURCE.replace("p(g2, 3)", "p(g2, 4)"))
    ):
        copy = str(tmp_path / ("copy%d" % number))  # only version-4 entries
        shutil.copytree(cache, copy)
        reader = SlicingSession(text, store=SliceStore(copy))
        expected = pretty(SlicingSession(text).executable().program)
        assert pretty(reader.executable().program) == expected
        stats = reader.stats
        assert stats["front_half_from_store"] is False
        assert stats["persist_hits"] == 0 and stats["sat_persist_hits"] == 0


def _version_6_store(cache, monkeypatch):
    """A store in the ``STORE_VERSION`` 6 layout, as that version wrote
    it for FIG1: per-revision index files holding the revision's layout
    beside records whose footprints are content keys, and the inverted
    ``keymap`` sidecar in ``__sats__``."""
    import repro.store.store as store_module
    from repro.engine.incremental import session_layout

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "STORE_VERSION", 6)
        writer = SlicingSession(FIG1_SOURCE, store=SliceStore(cache))
        writer.slice()
        old = SliceStore(cache)
        records = {}
        for (kind, key), future in writer._futures.items():
            if kind == "saturation":
                artifact = future.result()
                name = old.put_sat(artifact.without_footprint())
                records[stable_key_digest(key)] = (
                    key, artifact.kind, tuple(sorted(artifact.footprint)), name
                )
        for path in _entry_files(old):
            if "/idx-" in path.replace(os.sep, "/"):
                os.unlink(path)
        layout = session_layout(writer)
        old._write(old._sat_index_path(HASH), {"layout": layout, "artifacts": records})
        keymap = {"keys": {entry[1]: [HASH] for entry in layout}, "shapes": {}}
        old._write(os.path.join(cache, "__sats__", "keymap"), keymap)
        old._bump_lifetime(evictions=1)


def test_version_6_store_reopens_cold(tmp_path, monkeypatch):
    """A version-6 store reopens cold, on its own text and on a label
    edit, and answers exactly as a storeless session."""
    cache = str(tmp_path / "cache")
    _version_6_store(cache, monkeypatch)
    for number, text in enumerate(
        (FIG1_SOURCE, FIG1_SOURCE.replace("p(g2, 3)", "p(g2, 4)"))
    ):
        copy = str(tmp_path / ("copy%d" % number))
        shutil.copytree(cache, copy)
        reader = SlicingSession(text, store=SliceStore(copy))
        expected = pretty(SlicingSession(text).executable().program)
        assert pretty(reader.executable().program) == expected
        stats = reader.stats
        assert stats["front_half_from_store"] is False
        assert stats["front_half_parts_hits"] == 0
        assert stats["persist_hits"] == 0 and stats["sat_persist_hits"] == 0


def test_cache_clear_empties_a_version_6_store(tmp_path, monkeypatch):
    """``repro cache clear`` on a version-6 store leaves no file behind:
    entries, the lifetime sidecar and the retired keymap sidecar."""
    cache = str(tmp_path / "cache")
    _version_6_store(cache, monkeypatch)
    assert os.path.exists(os.path.join(cache, "__sats__", "keymap"))
    assert os.path.exists(os.path.join(cache, "__sats__", "meta"))
    assert "removed" in run_cli(["cache", "clear", "--cache-dir", cache])
    assert _entry_files(SliceStore(cache)) == []


# -- the per-system saturation index -----------------------------------------------


def test_sat_index_records_filed_artifacts(tmp_path):
    """Every artifact a session files lands in the index named by its
    revision's layout signature, with its memo key, kind, and footprint
    as procedure names."""
    from repro.engine.incremental import session_signature

    store = _store(tmp_path)
    session = SlicingSession(FIG1_SOURCE, store=store)
    session.slice()
    signature = session_signature(session)
    index = store.get_sat_index(signature)
    assert index is not None
    assert store.sat_indexes_for(signature) == [(signature, index)]
    assert store.sat_indexes_for("0" * 64) == []
    kinds = sorted(kind for _key, kind, _fp, _name in index.values())
    assert kinds == ["poststar", "prestar"]
    procs = set(proc.name for proc in session.program.procs)
    for _key, _kind, footprint, name in index.values():
        assert footprint and set(footprint) <= procs  # ownership, by name
        assert list(footprint) == sorted(footprint)
        assert store.has_sat(name)  # the record names a filed saturation
    # The index file itself is a versioned entry: corruption degrades
    # to "nothing filed", never an exception.
    (idx_path,) = [p for p in _entry_files(store) if "/idx-" in p.replace(os.sep, "/")]
    assert os.path.basename(idx_path) == "idx-%s.slc" % signature
    blob = bytearray(open(idx_path, "rb").read())
    blob[-1] ^= 0xFF
    open(idx_path, "wb").write(bytes(blob))
    assert store.get_sat_index(signature) is None


def test_sat_index_stable_across_processes(tmp_path):
    """Cross-process index stability: a fresh interpreter (fresh hash
    seed) names the index by the same signature and writes the same
    records for the same source."""
    import subprocess
    import sys

    cache_here = str(tmp_path / "here")
    cache_there = str(tmp_path / "there")
    SlicingSession(FIG1_SOURCE, store=SliceStore(cache_here)).slice()
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    script = (
        "import sys\n"
        "from repro.engine import SlicingSession\n"
        "from repro.store import SliceStore\n"
        "SlicingSession(sys.stdin.read(), store=SliceStore(%r)).slice()\n"
        % cache_there
    )
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="54321")
    subprocess.check_output(
        [sys.executable, "-c", script], input=FIG1_SOURCE, env=env, text=True
    )
    (here,) = SliceStore(cache_here).sat_indexes()
    (there,) = SliceStore(cache_there).sat_indexes()
    assert here[1] and here == there


def test_cache_dir_tilde_expands(tmp_path, monkeypatch):
    """The documented ``cache_dir="~/.cache/repro"`` spelling must land
    under the home directory, not in a literal ``./~``."""
    monkeypatch.setenv("HOME", str(tmp_path))
    store = SliceStore("~/.cache/repro-tilde-test")
    assert store.cache_dir == str(tmp_path / ".cache" / "repro-tilde-test")
    session = repro.open_session(FIG1_SOURCE, cache_dir="~/.cache/repro-tilde-test")
    assert session.store.cache_dir == store.cache_dir
    session.slice()
    assert store.stats()["entries"] >= 1


def test_stale_temp_files_are_swept(tmp_path):
    """An orphaned ``.tmp`` from a killed writer must be removed by
    clear() and by the eviction sweep once past the grace period."""
    from repro.store.store import _TMP_GRACE_SECONDS

    store = _store(tmp_path)
    store.put(HASH, "slice", KEY, "value")
    orphan = os.path.join(store.cache_dir, HASH, "orphanxyz.tmp")
    open(orphan, "wb").write(b"partial write")
    long_ago = time.time() - 10 * _TMP_GRACE_SECONDS
    os.utime(orphan, (long_ago, long_ago))
    # A fresh .tmp (a live writer) must survive clear()...
    live = os.path.join(store.cache_dir, HASH, "livewriter.tmp")
    open(live, "wb").write(b"in flight")
    assert store.clear() == 1
    assert not os.path.exists(orphan)
    assert os.path.exists(live)
    os.unlink(live)


def test_stored_entries_are_slim(tmp_path):
    """Result entries must not embed their own copy of the front half:
    every results entry (slice, feature and feature_clean values) and
    saturation-artifact file stays smaller than the shared fronthalf
    bundle it would otherwise duplicate."""
    from repro.workloads.paper_figures import FIG16_SOURCE

    store = _store(tmp_path)
    session = SlicingSession(FIG16_SOURCE, store=store)
    session.slice()
    session.remove_feature_cleaned("int prod = 1")
    sizes = {}
    for path in _entry_files(store):
        name = os.path.basename(path)
        if not name.endswith(".slc"):
            continue  # the non-entry sidecar (meta) is not an entry
        sizes[name.split("-")[0].replace(".slc", "")] = max(
            os.path.getsize(path),
            sizes.get(name.split("-")[0].replace(".slc", ""), 0),
        )
    expected = {"fronthalf", "results", "proc", "sat", "idx"}
    slim = ("results", "proc", "sat", "idx")
    assert set(sizes) == expected
    for table in slim:
        assert sizes[table] < sizes["fronthalf"], (
            "%s entry (%d bytes) should be slim, not embed another front "
            "half (%d bytes)" % (table, sizes[table], sizes["fronthalf"])
        )


def test_warm_feature_clean_relinks_result(tmp_path):
    """A store-loaded cleanup pair points at the warm session's own
    memoized removal result (the storeless identity invariant)."""
    from repro.workloads.paper_figures import FIG16_SOURCE

    cache = str(tmp_path / "cache")
    writer = SlicingSession(FIG16_SOURCE, store=SliceStore(cache))
    writer.remove_feature_cleaned("int prod = 1")

    reader = SlicingSession(FIG16_SOURCE, store=SliceStore(cache))
    raw, cleaned = reader.remove_feature_cleaned("int prod = 1")
    assert reader.stats["persist_hits"] == 2  # feature + feature_clean
    assert cleaned.result is reader.remove_feature("int prod = 1")
    assert cleaned.result.source_sdg is reader.sdg
    _again_raw, cleaned_again = reader.remove_feature_cleaned("int prod = 1")
    assert cleaned_again is cleaned


def test_clear_removes_everything(tmp_path):
    store = _store(tmp_path)
    store.put(HASH, "slice", KEY, "value")
    store.put_program(HASH, {"front": "half"})
    assert store.clear() == 2
    assert store.stats()["entries"] == 0
    assert _entry_files(store) == []


# -- session integration -----------------------------------------------------------


def test_warm_session_serves_from_disk_without_saturation(tmp_path):
    cache = str(tmp_path / "cache")
    cold = SlicingSession(FIG1_SOURCE, store=SliceStore(cache))
    cold_result = cold.slice()
    assert cold.stats["persist_misses"] == 1

    warm = SlicingSession(FIG1_SOURCE, store=SliceStore(cache))
    warm_result = warm.slice()
    stats = warm.stats
    assert stats["front_half_from_store"] is True
    assert stats["persist_hits"] == 1
    # The whole point of the store: a warm batch does no saturation at
    # all — neither Prestar nor the shared Poststar ran.
    assert stats["saturation_misses"] == 0 and stats["saturation_hits"] == 0
    # Byte-identical rendering, and the result is rehydrated onto the
    # warm session's own front half.
    assert pretty(warm.executable().program) == pretty(cold.executable().program)
    assert warm_result.source_sdg is warm.sdg
    assert warm_result.version_counts() == cold_result.version_counts()
    assert warm_result.closure_elems() == cold_result.closure_elems()


def test_corrupt_store_degrades_to_cold(tmp_path):
    cache = str(tmp_path / "cache")
    session = SlicingSession(FIG1_SOURCE, store=SliceStore(cache))
    expected = pretty(session.executable().program)
    store = SliceStore(cache)
    for path in _entry_files(store):
        open(path, "wb").write(b"garbage")
    fresh = SlicingSession(FIG1_SOURCE, store=store)
    assert fresh.stats["front_half_from_store"] is False
    assert pretty(fresh.executable().program) == expected


def test_concurrent_queries_file_every_result_once(tmp_path):
    """Public calls racing on one session (8 threads, 1 us switch
    interval) each file what they computed: every result lands in
    exactly one ``results`` entry, so a fresh session answers all of
    them from disk."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from repro.workloads.wc import scaled_wc_source

    source = scaled_wc_source(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(3):
            cache = str(tmp_path / str(attempt))
            session = SlicingSession(source, store=SliceStore(cache))
            prints = len(session.sdg.print_call_vertices())
            criteria = [("print", index) for index in range(prints)] * 2
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(session.executable, c) for c in criteria]
                futures.append(pool.submit(session.slice_many, criteria))
                for future in futures:
                    future.result(timeout=60)
            filed = {}
            store = SliceStore(cache)
            for digest in store.keys(session.source_hash, "results"):
                for key in store.get(session.source_hash, "results", digest):
                    filed[key] = filed.get(key, 0) + 1
            assert sorted(filed.values()) == [1] * prints, attempt
            reader = SlicingSession(source, store=store)
            reader.slice_many(criteria)
            assert reader.stats["persist_hits"] == prints, attempt
            assert reader.stats["persist_misses"] == 0, attempt
    finally:
        sys.setswitchinterval(interval)


def test_open_session_with_cache_dir(tmp_path):
    cache = str(tmp_path / "cache")
    with_store = repro.open_session(FIG1_SOURCE, cache_dir=cache)
    assert with_store.store is not None
    # The plain session for the same source is a different cache slot.
    without = repro.open_session(FIG1_SOURCE)
    assert without is not with_store
    assert repro.open_session(FIG1_SOURCE, cache_dir=cache) is with_store


def test_slice_many_programs_both_backends(tmp_path):
    cache = str(tmp_path / "cache")
    jobs = [(FIG1_SOURCE, [("print", 0)]), (FIG1_SOURCE, ["prints"])]
    in_process = slice_many_programs(jobs, max_workers=1, cache_dir=cache)
    processed = slice_many_programs(jobs, max_workers=2, cache_dir=cache)
    assert [len(batch) for batch in in_process] == [1, 1]
    for batch_a, batch_b in zip(in_process, processed):
        for a, b in zip(batch_a, batch_b):
            assert a.version_counts() == b.version_counts()


# -- the cache CLI -----------------------------------------------------------------


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def _run_cli_subprocess(argv):
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.check_output(
        [sys.executable, "-m", "repro"] + argv, env=env, text=True
    )


def test_cache_cli_stats_and_clear(tmp_path):
    cache = str(tmp_path / "cache")
    source_file = tmp_path / "fig1.tc"
    source_file.write_text(FIG1_SOURCE)

    cold = run_cli(["slice-batch", str(source_file), "--cache-dir", cache])
    assert "front half cold" in cold
    # Same process, same source: open_session reuses the live session
    # (the in-memory layer sits above the store).
    again = run_cli(["slice-batch", str(source_file), "--cache-dir", cache])
    assert "slice hits/misses 1/1" in again
    # A fresh process is what the store exists for: warm front half,
    # slices served from disk.
    warm = _run_cli_subprocess(
        ["slice-batch", str(source_file), "--cache-dir", cache]
    )
    assert "front half warm" in warm
    assert "persist hits/misses 1/0" in warm

    stats = run_cli(["cache", "stats", "--cache-dir", cache])
    assert "programs:     1" in stats
    # The per-table breakdown: every table with its entry and byte
    # counts, the shared content-addressed tables under their on-disk
    # names.
    for table in ("results", "front-half", "__procs__", "__sats__"):
        assert table in stats, stats
    assert "entries" in stats and "bytes" in stats

    cleared = run_cli(["cache", "clear", "--cache-dir", cache])
    assert "removed" in cleared
    stats = run_cli(["cache", "stats", "--cache-dir", cache])
    assert "entries:      0" in stats


def test_cache_cli_stats_json(tmp_path):
    """``repro cache stats --json`` emits the full machine-readable
    stats dict, per-table entry/byte breakdown included."""
    import json

    cache = str(tmp_path / "cache")
    source_file = tmp_path / "fig1.tc"
    source_file.write_text(FIG1_SOURCE)
    run_cli(["slice-batch", str(source_file), "--cache-dir", cache])

    stats = json.loads(run_cli(["cache", "stats", "--json", "--cache-dir", cache]))
    assert stats["programs"] == 1
    assert stats["version"] == STORE_VERSION
    # One front half, one results entry, per-procedure parts, and the
    # two saturation artifacts (shared Poststar + the criterion's
    # Prestar) — each with a parallel byte count.
    assert stats["tables"]["fronthalf"] == 1
    assert stats["tables"]["results"] >= 1
    assert stats["tables"]["proc"] >= 1
    assert stats["tables"]["sat"] == 2
    for table, count in stats["tables"].items():
        assert stats["table_bytes"][table] > 0, table
    assert stats["total_bytes"] == sum(stats["table_bytes"].values())
    # An empty store renders valid JSON too.
    empty = json.loads(
        run_cli(["cache", "stats", "--json", "--cache-dir", str(tmp_path / "none")])
    )
    assert empty["entries"] == 0 and empty["tables"] == {}


# -- per-procedure content keys (the incremental layer's addressing) ---------------


WS_VARIANT = (
    "// leading comment\n"
    + FIG1_SOURCE.replace("{", "{\n  /* noise */", 1).replace("  ", "    ")
    + "\n\n"
)


def test_procedure_content_keys_ignore_whitespace_and_comments():
    from repro.engine.incremental import front_end
    from repro.engine import procedure_keys

    base = procedure_keys(*front_end(FIG1_SOURCE))
    noisy = procedure_keys(*front_end(WS_VARIANT))
    assert base == noisy


def test_procedure_content_keys_distinct_under_semantic_edits():
    from repro.engine.incremental import front_end
    from repro.engine import procedure_keys

    base_program, base_info = front_end(FIG1_SOURCE)
    base = procedure_keys(base_program, base_info)
    # A constant change touches exactly one procedure's key.
    edited = procedure_keys(*front_end(FIG1_SOURCE.replace("p(g2, 3)", "p(g2, 4)")))
    changed = {name for name in base if base[name] != edited[name]}
    assert len(changed) == 1
    # A global-declaration edit changes the program signature: all keys.
    moved = procedure_keys(*front_end(FIG1_SOURCE.replace("int g1;", "int g1 = 0;")))
    assert all(base[name] != moved[name] for name in base)
    # Renaming a procedure-local variable does not disturb the other
    # procedures' keys.
    local_src = (
        "int g;\n"
        "void helper() { int t = 2; g = t; }\n"
        "int main() { helper(); print(\"%d\", g); return 0; }\n"
    )
    local_base = procedure_keys(*front_end(local_src))
    local_renamed = procedure_keys(
        *front_end(local_src.replace("int t = 2; g = t;", "int u = 2; g = u;"))
    )
    assert local_renamed["helper"] != local_base["helper"]
    assert local_renamed["main"] == local_base["main"]


def test_procedure_content_keys_capture_transitive_interfaces():
    """A side-effect change deep in the call graph flips the interface
    — and therefore the key — of every procedure on the way up."""
    from repro.engine.incremental import front_end
    from repro.engine import procedure_keys

    source = (
        "int g;\n"
        "void leaf() { g = 1; }\n"
        "void mid() { leaf(); }\n"
        "int main() { mid(); print(\"%d\", g); return 0; }\n"
    )
    base = procedure_keys(*front_end(source))
    # leaf stops modifying g: mid's and main's callee interfaces change.
    edited = procedure_keys(*front_end(source.replace("g = 1;", "int x = 1;")))
    assert all(base[name] != edited[name] for name in ("leaf", "mid", "main"))


def test_procedure_content_keys_stable_across_processes(tmp_path):
    """Keys are sha256 of deterministic renderings: a fresh interpreter
    (fresh hash seed, fresh uid counters) computes the same digests."""
    import json
    import subprocess
    import sys

    from repro.engine.incremental import front_end
    from repro.engine import procedure_keys

    here = procedure_keys(*front_end(FIG1_SOURCE))
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    script = (
        "import json, sys\n"
        "from repro.engine.incremental import front_end\n"
        "from repro.engine import procedure_keys\n"
        "print(json.dumps(procedure_keys(*front_end(sys.stdin.read()))))\n"
    )
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    there = json.loads(
        subprocess.check_output(
            [sys.executable, "-c", script], input=FIG1_SOURCE, env=env, text=True
        )
    )
    assert there == here


def test_store_proc_table_partial_hits(tmp_path):
    """An edited program misses the whole-program bundle but assembles
    its front half from the unchanged procedures' parts — and the
    results are identical to a storeless cold session."""
    from repro.workloads.wc import WC_SOURCE

    cache = str(tmp_path / "cache")
    writer = SlicingSession(WC_SOURCE, store=SliceStore(cache))
    writer.slice(("print", 0))

    edited = WC_SOURCE.replace("chars = chars + 1;", "chars = chars + 1;\n  int d = 1;")
    reader = SlicingSession(edited, store=SliceStore(cache))
    stats = reader.stats
    assert stats["front_half_from_store"] is False
    assert stats["front_half_parts_total"] == 6
    assert stats["front_half_parts_hits"] == 5  # all but the edited proc
    cold = SlicingSession(edited)
    for index in range(len(cold.sdg.print_call_vertices())):
        assert pretty(reader.executable(("print", index)).program) == pretty(
            cold.executable(("print", index)).program
        )
    store_stats = reader.store.stats()
    assert store_stats["proc_hits"] == 5 and store_stats["proc_misses"] == 1
    # The parts table is not a "program" in the stats.
    assert store_stats["programs"] == 2
    assert store_stats["tables"]["proc"] >= 6


def test_update_bundle_never_holds_the_cached_poststar(tmp_path):
    """A store-backed label edit files the edited revision's front-half
    bundle without the Poststar cached on the encoding, while the live
    encoding — shared with any query still in flight — keeps it."""
    from repro.workloads.wc import scaled_wc_source

    base = scaled_wc_source(3)
    store = SliceStore(str(tmp_path / "cache"))
    session = SlicingSession(base, store=store)
    session.slice(("print", 0))
    encoding = session.encoding
    summary = session.update_source(base.replace("c == 32", "c == 33"))
    assert summary["fast_path"] is True
    assert session.encoding is encoding
    bundle = store.get_program(session.source_hash)
    filed = bundle._pds_encoding
    assert not hasattr(filed, "_reachable_view")
    assert encoding._reachable_view is not None


def test_corrupt_proc_part_degrades_to_fresh_build(tmp_path):
    cache = str(tmp_path / "cache")
    SlicingSession(FIG1_SOURCE, store=SliceStore(cache))
    parts_dir = os.path.join(cache, "__procs__")
    for name in os.listdir(parts_dir):
        path = os.path.join(parts_dir, name)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
    # Bundle also removed so the session must take the parts path.
    for sub in os.listdir(cache):
        if sub != "__procs__":
            for name in os.listdir(os.path.join(cache, sub)):
                os.unlink(os.path.join(cache, sub, name))
    reader = SlicingSession(FIG1_SOURCE, store=SliceStore(cache))
    assert reader.stats["front_half_parts_hits"] == 0
    assert pretty(reader.executable().program) == pretty(
        SlicingSession(FIG1_SOURCE).executable().program
    )


def _positions(program):
    """Statement uid -> (procedure name, index in walk_stmts order)."""
    from repro.lang import ast_nodes as A

    return {
        stmt.uid: (proc.name, index)
        for proc in program.procs
        for index, stmt in enumerate(A.walk_stmts(proc.body))
    }


def test_cleanup_pair_from_parts_names_the_readers_statements(tmp_path):
    """A §7 cleanup pair read back from the store, by a session whose
    front half was assembled from parts (the bundle is gone), maps each
    cleaned statement to the same original statement as the writer's
    pair, read as (procedure, walk_stmts index) in each session's own
    program."""
    from repro.workloads.paper_figures import FIG16_SOURCE

    def statements(session, pair):
        _raw, cleaned = pair
        new, old = _positions(cleaned.program), _positions(session.program)
        return {new[uid]: old.get(orig) for uid, orig in cleaned.stmt_map.items()}

    cache = str(tmp_path / "cache")
    writer = SlicingSession(FIG16_SOURCE, store=SliceStore(cache))
    expected = statements(writer, writer.remove_feature_cleaned("prod"))
    os.unlink(os.path.join(cache, writer.source_hash, "fronthalf.slc"))

    reader = SlicingSession(FIG16_SOURCE, store=SliceStore(cache))
    got = statements(reader, reader.remove_feature_cleaned("prod"))
    stats = reader.stats
    assert stats["front_half_from_store"] is False
    assert stats["front_half_parts_hits"] == stats["front_half_parts_total"]
    assert stats["persist_hits"] == 2  # feature + feature_clean
    assert None not in expected.values()
    assert got == expected


def test_planted_part_is_a_miss(tmp_path):
    """A stored part is checked before use: the part of another body
    filed under a procedure's content key is a miss, and the rendering
    equals a cold session's."""
    from repro.engine.incremental import front_end, procedure_keys
    from repro.sdg import build_sdg, extract_part

    short = (
        "int g;\n"
        "void f(int x) { g = x; }\n"
        'int main() { f(3); print("%d", g); return 0; }\n'
    )
    long = short.replace("g = x; }", "g = x; g = g + 1; }")
    store = SliceStore(str(tmp_path / "cache"))
    planted = extract_part(build_sdg(*front_end(short)), "f")
    store.put_proc(procedure_keys(*front_end(long))["f"], planted)

    reader = SlicingSession(long, store=SliceStore(store.cache_dir))
    assert reader.stats["front_half_parts_hits"] == 0
    assert reader.stats["front_half_parts_total"] == 2
    assert pretty(reader.executable().program) == pretty(
        SlicingSession(long).executable().program
    )


def test_statement_ids_are_stable_across_parses():
    """Statement ids are positions: two parses of one text give equal
    ids, and a procedure's part pickles to the same bytes whether or
    not the process parsed another program first."""
    import subprocess
    import sys

    from repro.lang import parse

    assert _positions(parse(FIG1_SOURCE)) == _positions(parse(FIG1_SOURCE))
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    script = (
        "import pickle, sys\n"
        "from repro.engine.incremental import front_end\n"
        "from repro.sdg import build_sdg, extract_part\n"
        "from repro.workloads.paper_figures import FIG1_SOURCE, FIG16_SOURCE\n"
        "if sys.argv[1] == 'other-first':\n"
        "    front_end(FIG16_SOURCE)\n"
        "sdg = build_sdg(*front_end(FIG1_SOURCE))\n"
        "part = extract_part(sdg, 'p')\n"
        "print(pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL).hex())\n"
    )
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    blobs = [
        subprocess.check_output(
            [sys.executable, "-c", script, order], env=env, text=True
        )
        for order in ("alone", "other-first")
    ]
    assert blobs[0] == blobs[1]


def test_cli_slice_batch_reuse_from(tmp_path):
    from repro.workloads.wc import WC_SOURCE

    previous = tmp_path / "wc_prev.tc"
    current = tmp_path / "wc.tc"
    previous.write_text(WC_SOURCE)
    current.write_text(WC_SOURCE.replace("chars = chars + 1", "chars = chars + 2"))

    out = run_cli(["slice-batch", str(current), "--reuse-from", str(previous)])
    assert "reuse:" in out and "5/6 procedures kept" in out and "fast path" in out
    # The updated session answers for the *current* text from now on.
    import repro

    session = repro.open_session(current.read_text())
    assert session.stats["updates"] == 1

    bad = tmp_path / "bad.tc"
    bad.write_text("int main() { broken")
    with pytest.raises(SystemExit):
        run_cli(["slice-batch", str(previous), "--reuse-from", str(bad)])


# -- layout signatures ---------------------------------------------------------------

LAYOUT_A = (
    ("main", "key-main-1", "shape-main", (1, 2), ("s1",)),
    ("helper", "key-help-1", "shape-help", (3,), ()),
)
# Same shape as LAYOUT_A, different content keys in every procedure —
# a label edit everywhere.
LAYOUT_B = (
    ("main", "key-main-2", "shape-main", (1, 2), ("s1",)),
    ("helper", "key-help-2", "shape-help", (3,), ()),
)
# A different program entirely.
LAYOUT_C = (("other", "key-other", "shape-other", (9,), ()),)
# LAYOUT_A with a structural edit in ``helper``: new key, new shape.
LAYOUT_D = LAYOUT_A[:1] + (("helper", "key-help-3", "shape-help-2", (3,), ()),)
# LAYOUT_A renumbered: the same shapes at other vertex ids.
LAYOUT_E = LAYOUT_A[:1] + (("helper", "key-help-1", "shape-help", (4,), ()),)


def test_layout_signature_ignores_content_keys(tmp_path):
    """Two layouts share a signature (and so a store index) exactly
    when the fast-path check proves them one pushdown system."""
    from repro.engine.incremental import _fast_translation, layout_signature

    layouts = (LAYOUT_A, LAYOUT_B, LAYOUT_C, LAYOUT_D, LAYOUT_E)
    assert layout_signature(LAYOUT_A) == layout_signature(LAYOUT_B)
    for old in layouts:
        for new in layouts:
            same = layout_signature(old) == layout_signature(new)
            assert same == (_fast_translation(old, new) is not None), (old, new)


def test_has_is_an_uncounted_peek(tmp_path):
    """``has`` answers from the header alone and moves no hit/miss
    counter — the fused batch path peeks with it and leaves the real
    lookup (and its accounting) to the memo path."""
    store = _store(tmp_path)
    store.put(HASH, "slice", KEY, {"answer": 1})
    before = store.stats()
    assert store.has(HASH, "slice", KEY)
    assert not store.has(HASH, "slice", "absent")
    assert not store.has("no-such-rev", "slice", KEY)
    after = store.stats()
    assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])
    # A corrupt header reads as absent.
    (path,) = [p for p in _entry_files(store) if "slice-" in p]
    with open(path, "r+b") as handle:
        handle.write(b"XXXX")
    assert not store.has(HASH, "slice", KEY)
