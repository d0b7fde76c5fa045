"""The batched slicing engine: one program, many criteria.

Algorithm 1 is a pipeline whose front half (parse, check, SDG build,
PDS encoding, and the Poststar reachable-configurations saturation) is
criterion-independent; only Prestar, the MRD automaton operations, and
the read-out depend on the query.  :class:`SlicingSession` loads a
program once and serves arbitrarily many criteria against the shared
front half:

* the parsed program, semantic info, SDG, and :class:`SDGEncoding` are
  built from the source text once at session creation — or loaded from
  the persistent :class:`repro.store.SliceStore` when one is attached
  and warm;
* every saturation — the shared ``Poststar(entry_main)``, each
  per-criterion Prestar, each feature's forward-cone Poststar — is
  memoized as a relocatable
  :class:`repro.engine.artifacts.SaturationArtifact` (trimmed
  automaton + canonical key + per-procedure ownership footprint), the
  one representation the memo, the store's ``__sats__`` table, and
  the incremental layer all share;
* every per-criterion saturation is claimed, loaded from the store, or
  computed in one place, the fused batch pass
  (:meth:`SlicingSession._fused_batch`): :meth:`SlicingSession
  .slice_many` and :meth:`SlicingSession.remove_features_many` run
  their cold criteria through it together, and a :meth:`SlicingSession
  .slice`, :meth:`SlicingSession.executable` or
  :meth:`SlicingSession.remove_feature` that finds no memoized
  saturation is a batch of one;
* full :class:`SpecializationResult`s, feature removals, and the §7
  cleanup pass are memoized per canonicalized criterion (see
  :mod:`repro.engine.canonical`), so resubmitting a criterion is a
  dictionary lookup;
* with a store attached, slice / feature / cleanup results *and*
  saturation artifacts are persisted on disk under the same canonical
  keys (digested by :func:`repro.engine.canonical.stable_key_digest`),
  so a fresh process answering a repeated batch does no saturation
  work at all — and one answering a *new* criterion, or opening a
  label-edited text, loads the saturations it needs instead of
  re-saturating (saturations are filed by pushdown system, so every
  revision of one system shares them).  Writes are batched: each
  public query method files the results it computed as one
  ``results`` entry, and each saturation pass merges its artifacts'
  records into its system's index with one write;
* after the fused pass, :meth:`SlicingSession.slice_many` answers
  each criterion's MRD and read-out in the calling thread,
  deduplicating identical criteria (those steps are pure Python, so a
  thread pool only adds GIL contention);
* :meth:`SlicingSession.update_source` re-points the session at an
  edited text in place: per-procedure content keys decide which PDGs
  are rebuilt, and memo entries are invalidated as a pure function of
  artifact footprints (see :mod:`repro.engine.incremental`).

Sessions are thread-safe: the memo tables hold one future per key, so
concurrent submissions of the same criterion compute it exactly once.
"""

import functools
import hashlib
import pickle
import threading
import time
# ThreadPoolExecutor is not used here: perfbench/tracing.py patches it by name.
from concurrent.futures import Future, ThreadPoolExecutor

from repro.core.criteria import configs_criterion
from repro.core.executable import executable_program
from repro.core.specialize import resolve_criterion, specialization_slice
from repro.engine.artifacts import load_filed, make_artifact
from repro.engine.canonical import (
    AUTOMATON,
    CONFIGS,
    PRINTS,
    REACHABLE_KEY,
    SAT_POSTSTAR,
    SAT_PRESTAR,
    VERTICES,
    canonical_key,
    is_stable_key,
    resolve_criterion_spec,
    saturation_key,
    stable_key_digest,
)
# prestar/poststar are not called here: perfbench/tracing.py wraps them by name.
from repro.pds import encode_sdg, poststar, poststar_many, prestar, prestar_many
from repro.store import source_hash as _source_hash
from repro.store.store import RESULTS_TABLE

#: memo tables whose values are persisted when a store is attached, in
#: the revision's ``results`` entries (saturation artifacts are
#: persisted too, through the store's dedicated ``__sats__`` table)
PERSISTED_TABLES = frozenset(["slice", "feature", "feature_clean"])


def _files_results(method):
    """Mark a public query method: when it returns (or raises), the
    slim results it computed are filed as one ``results`` entry (see
    :meth:`SlicingSession._file_results`)."""

    @functools.wraps(method)
    def filing(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        finally:
            self._file_results()

    return filing


def _unpickle(blob):
    """A pickled results-entry value, or None when there is none or it
    no longer loads (a miss, like any other defective entry)."""
    if blob is None:
        return None
    try:
        return pickle.loads(blob)
    except Exception:
        return None


class SlicingSession(object):
    """A long-lived slicing engine over one program, built from its
    TinyC source text (``SlicingSession(source)``).  All query methods
    are memoized and thread-safe.

    Pass ``store`` (a :class:`repro.store.SliceStore`) to read and
    write the persistent cache: the front half is loaded from disk when
    warm, and slice/feature results are stored under their canonical
    criterion keys, one ``results`` entry per public call.  Store-less
    sessions behave exactly as before.

    Attributes:
        source: the source text.
        source_hash: sha256 of the source text (the store's program
            key).
        store: the attached :class:`SliceStore`, or None.
        program / info / sdg / encoding: the shared front half.
        kernel: the saturation kernel every query runs on — always
            ``"csr"`` (:mod:`repro.pds.kernel`); kept so reports can
            name it.

    The session does no compiling of its own: the kernel compiles the
    encoding's PDS at the first saturation that needs it, once per PDS
    (:func:`repro.pds.kernel.compiled_pds`), so a store-backed reopen
    whose saturations are all loaded compiles nothing.  The
    compile counters (``kernel_compile_hits``/``kernel_compile_misses``)
    reach :attr:`stats` with each saturation's kernel counters.
    """

    kernel = "csr"

    def __init__(self, source, store=None):
        t0 = time.perf_counter()
        self.source = source
        self.source_hash = _source_hash(source)
        self.store = store
        self._proc_keys = None  # per-procedure content keys, computed lazily
        self.last_update = None  # summary of the most recent update_source
        parts_hit, parts_total = 0, 0
        sdg = store.get_program(self.source_hash) if store is not None else None
        front_half_cached = sdg is not None
        if front_half_cached:
            program, info = sdg.program, sdg.info
        else:
            from repro.engine.incremental import load_front_half

            # With a store attached this assembles the front half from
            # content-addressed per-procedure parts where warm (a
            # partial hit even when the whole-program bundle misses);
            # storeless it is a plain cold build.
            (
                program,
                info,
                sdg,
                self._proc_keys,
                parts_hit,
                parts_total,
            ) = load_front_half(source, store)
        self.program = program
        self.info = info
        self.sdg = sdg
        self.encoding = encode_sdg(sdg)
        if store is not None and not front_half_cached:
            # Persist after encoding so the bundle includes the PDS
            # (encode_sdg caches it on the graph).
            store.put_program(self.source_hash, sdg)
        self._lock = threading.Lock()
        self._futures = {}  # (cache kind, criterion key) -> Future
        # The store's saturation index for this revision's pushdown
        # system, read once: (layout signature, {key digest: record}).
        self._sat_records = None
        # The store's results for one revision, read once: (source
        # hash, {(memo table, key digest): pickled slim value}).
        self._results = None
        self._results_lock = threading.Lock()
        # Pickled slim results computed but not filed yet, by the
        # source hash they were computed against.
        self._unfiled = {}
        self._stats = {
            "kernel_rules_compiled": 0,
            "kernel_worklist_pops": 0,
            "kernel_compile_hits": 0,
            "kernel_compile_misses": 0,
            "fused_batches": 0,
            "fused_criteria": 0,
            "load_seconds": time.perf_counter() - t0,
            "front_half_from_store": front_half_cached,
            "front_half_parts_hits": parts_hit,
            "front_half_parts_total": parts_total,
            "updates": 0,
            "procs_reused": 0,
            "procs_rebuilt": 0,
            "saturations_kept": 0,
            "saturations_dropped": 0,
            "results_kept": 0,
            "results_dropped": 0,
            "slice_hits": 0,
            "slice_misses": 0,
            "saturation_hits": 0,
            "saturation_misses": 0,
            "feature_hits": 0,
            "feature_misses": 0,
            "feature_clean_hits": 0,
            "feature_clean_misses": 0,
            "executable_hits": 0,
            "executable_misses": 0,
            "persist_hits": 0,
            "persist_misses": 0,
            "sat_persist_hits": 0,
            "sat_persist_misses": 0,
        }

    # -- queries ---------------------------------------------------------------

    @_files_results
    def slice(self, criterion=PRINTS, contexts="reachable"):
        """Algorithm 1 for one criterion; memoized.

        ``criterion`` accepts every spec form described in
        :mod:`repro.engine.canonical`; ``contexts`` completes vertex
        criteria (``"reachable"`` or ``"empty"``).  A cold criterion's
        Prestar runs as a fused batch of one (see :meth:`slice_many`).
        """
        kind, payload = resolve_criterion_spec(self.sdg, criterion)
        return self._slice_resolved(kind, payload, contexts)

    def _slice_resolved(self, kind, payload, contexts):
        key = canonical_key(kind, payload, contexts)

        def compute():
            # The saturation is memoized one layer below the result so
            # that a failure later in the pipeline (MRD/read-out) evicts
            # the result entry but keeps the saturation for the retry.
            artifact = self._saturation(SAT_PRESTAR, key, kind, payload, contexts)
            a0 = self._query_automaton(kind, payload, contexts)
            result = specialization_slice(
                self.sdg, a0, contexts=contexts, a1=artifact.automaton
            )
            result.footprint = artifact.footprint
            return result

        return self._memoized("slice", key, compute)

    @_files_results
    def slice_many(self, criteria, contexts="reachable"):
        """The batch driver: slice each criterion, in the calling
        thread.  Duplicate criteria are computed once.  Returns results
        in input order.

        Every query saturates through the fused batch pass
        (:meth:`_fused_batch`): here the Prestars of the criteria with
        no memoized or persisted answer run as *one* multi-criterion
        kernel pass (:func:`repro.pds.prestar_many`), so each PDS rule
        fires once for the whole batch instead of once per criterion;
        :meth:`slice` is a batch of one.  Results, artifacts, memo
        entries, and store bytes are identical to slicing the criteria
        one at a time with :meth:`slice`.  A failing criterion raises
        at once; the results computed before it are still filed.
        """
        # Resolve each spec exactly once, up front: specs may be one-
        # shot iterables, and a bad spec should fail before any work.
        specs = [resolve_criterion_spec(self.sdg, c) for c in criteria]
        if not specs:
            return []
        self._fused_batch(specs, contexts, SAT_PRESTAR, result_table="slice")
        return [
            self._slice_resolved(kind, payload, contexts) for kind, payload in specs
        ]

    @_files_results
    def executable(self, criterion=PRINTS, contexts="reachable"):
        """The runnable :class:`ExecutableSlice` for a criterion;
        memoized on top of :meth:`slice`.  The slice's
        :class:`SpecializationResult` rides along as ``.result``."""
        kind, payload = resolve_criterion_spec(self.sdg, criterion)
        result = self._slice_resolved(kind, payload, contexts)
        key = canonical_key(kind, payload, contexts)

        def compute():
            executable = executable_program(result)
            executable.result = result
            return executable

        return self._memoized("executable", key, compute)

    @_files_results
    def remove_feature(self, feature, contexts="reachable"):
        """Algorithm 2 through the session: ``feature`` is either a
        label substring (as in ``repro remove --feature``) or any
        criterion spec; memoized like :meth:`slice`.

        The feature's forward-cone saturation ``Poststar(A_C)`` — the
        expensive half of Algorithm 2 — runs as a fused batch of one
        and is memoized (and persisted, with a store) as its own
        :class:`SaturationArtifact`, so a repeated removal after an
        incremental update that dropped the rendered result still skips
        the saturation."""
        kind, payload = self._feature_spec(feature)
        return self._remove_feature_resolved(kind, payload, contexts)

    def _remove_feature_resolved(self, kind, payload, contexts):
        from repro.core.feature_removal import remove_feature

        key = canonical_key(kind, payload, contexts)

        def compute():
            # Algorithm 2 consults the reachable-configuration language
            # in every contexts mode; route it through the artifact
            # memo so it is shared, shipped, and persisted like any
            # other saturation.
            self.reachable_configs()
            cone = self._saturation(SAT_POSTSTAR, key, kind, payload, contexts)
            a_c = self._query_automaton(kind, payload, contexts)
            result = remove_feature(self.sdg, a_c, a0=cone.automaton)
            # The result's own footprint is its *kept* cone (what the
            # rendered residual program can mention), not the removed
            # feature's: result.a1 is already trimmed by Algorithm 2.
            result.footprint = self._footprint_of(result.a1)
            return result

        return self._memoized("feature", key, compute)

    @_files_results
    def remove_features_many(self, features, contexts="reachable"):
        """Batch driver for :meth:`remove_feature`: results in input
        order, duplicates computed once.  The cold features'
        forward-cone Poststars run as one fused multi-criterion pass
        (:func:`repro.pds.poststar_many`), as :meth:`slice_many`'s
        Prestars do, with results and artifacts identical to
        :meth:`remove_feature`'s."""
        features = list(features)
        if not features:
            return []
        specs = [self._feature_spec(feature) for feature in features]
        # Algorithm 2 consults the reachable-configuration language in
        # every contexts mode (remove_feature does this first); pull it
        # in before the fused pass so the cone saturations batch cleanly.
        self.reachable_configs()
        self._fused_batch(specs, contexts, SAT_POSTSTAR, result_table="feature")
        return [
            self._remove_feature_resolved(kind, payload, contexts)
            for kind, payload in specs
        ]

    @_files_results
    def remove_feature_cleaned(self, feature, contexts="reachable"):
        """Feature removal followed by the §7 interprocedural
        useless-code-elimination pass (:mod:`repro.core.cleanup`),
        memoized in its own table on top of :meth:`remove_feature`.

        Returns ``(raw, cleaned)`` :class:`ExecutableSlice` pair, as
        :func:`repro.core.cleanup.clean_feature_removal` does; the
        underlying :class:`SpecializationResult` rides along as
        ``cleaned.result``.
        """
        from repro.core.cleanup import clean_feature_removal

        kind, payload = self._feature_spec(feature)
        key = canonical_key(kind, payload, contexts)
        result = self._remove_feature_resolved(kind, payload, contexts)

        def compute():
            return clean_feature_removal(result)

        raw, cleaned = self._memoized("feature_clean", key, compute)
        # The back-reference is attached here, outside the memoized
        # value, so store entries stay slim (the result is already
        # persisted in the "feature" table) and store-loaded cleanups
        # point at this session's memoized result object.
        if getattr(cleaned, "result", None) is not result:
            cleaned.result = result
        return raw, cleaned

    def reachable_configs(self):
        """The shared ``Poststar(entry_main)`` saturation (computed —
        or store-loaded — at most once per session), as the trimmed
        single-initial query view every consumer reads it through.

        The memo holds it as a :class:`SaturationArtifact`
        (:meth:`reachable_configs_artifact`); whichever way the
        artifact arrived — saturation, ``__sats__`` load, incremental
        survival — its automaton is installed as the encoding's cached
        query view, so the criterion constructors and Algorithm 2 do no
        Poststar-sized work at all."""
        automaton = self.reachable_configs_artifact().automaton
        self.encoding._reachable_view = automaton
        return automaton

    def reachable_configs_artifact(self):
        """The shared Poststar as a relocatable artifact.

        The artifact's automaton is the *query view* of the saturation
        (language read from the main control location, trimmed): the
        configuration language ``Poststar(entry_main)`` denotes — and
        the only part any consumer reads — in its slimmest form."""
        from repro.core.criteria import reachable_query_view

        def compute():
            sink = {}
            view = reachable_query_view(self.encoding, stats=sink)
            self._absorb_kernel_stats(sink)
            return self._make_artifact(SAT_POSTSTAR, REACHABLE_KEY, view)

        return self._memoized("saturation", REACHABLE_KEY, compute)

    def update_source(self, new_source):
        """Re-point this session at an edited version of its program,
        reusing everything the edit provably left intact (see
        :mod:`repro.engine.incremental`).

        Procedures whose content key — normalized lexeme stream plus
        computed interface plus direct callees' interfaces — is
        unchanged keep their PDGs (and their vertex ids, when no
        earlier procedure changed size); only changed procedures are
        rebuilt, the interprocedural edges are re-stitched, and exactly
        the memoized saturations whose automata touch a changed
        procedure's PDS rules are invalidated.  The assembled front
        half is numbered identically to a cold build of the new text,
        so subsequent queries are byte-identical to a fresh session's.

        Raises on unparseable/ill-typed text, leaving the session
        untouched.  Not linearizable with in-flight queries: criteria
        being computed concurrently finish against the old front half
        and are dropped from the memo.

        Returns a summary dict (``procs_reused``, ``procs_rebuilt``,
        ``saturations_kept``, ``fast_path``, ...), also kept as
        ``session.last_update``.
        """
        from repro.engine.incremental import update_session

        return update_session(self, new_source)

    @property
    def stats(self):
        """A snapshot of cache/timing counters (hit and miss counts per
        memo table, ``load_seconds`` for the front half, persistent-
        store hits/misses when a store is attached)."""
        with self._lock:
            return dict(self._stats)

    # -- internals -------------------------------------------------------------

    def _content_keys(self):
        """The per-procedure content keys of this session's front half
        (the addressing footprints are expressed in), computed on first
        use."""
        from repro.engine.incremental import session_procedure_keys

        return session_procedure_keys(self)

    def _footprint_of(self, automaton):
        """The ownership footprint of a trimmed automaton over this
        front half (see :func:`repro.engine.artifacts
        .artifact_footprint`)."""
        from repro.engine.artifacts import artifact_footprint

        return artifact_footprint(self.sdg, self._content_keys(), automaton)

    def _absorb_kernel_stats(self, sink):
        """Accumulate one call's ``kernel_*`` counters into the session
        totals (thread-safe: queries run concurrently)."""
        if not sink:
            return
        with self._lock:
            for name, value in sink.items():
                if name.startswith("kernel_"):
                    self._stats[name] = self._stats.get(name, 0) + value

    def _make_artifact(self, sat_kind, sat_key, automaton):
        """Package a freshly computed (already trimmed) saturation as a
        relocatable artifact."""
        return make_artifact(
            sat_kind, sat_key, automaton, self.sdg, self._content_keys()
        )

    def _feature_spec(self, feature):
        from repro.core.feature_removal import feature_seeds

        if isinstance(feature, str):
            return VERTICES, tuple(sorted(feature_seeds(self.sdg, feature)))
        return resolve_criterion_spec(self.sdg, feature)

    def _query_automaton(self, kind, payload, contexts):
        if kind == AUTOMATON:
            return payload
        if kind == CONFIGS:
            return configs_criterion(self.encoding, payload)
        if contexts == "reachable":
            self.reachable_configs()
        return resolve_criterion(self.encoding, payload, contexts)

    def _saturation(self, sat_kind, key, kind, payload, contexts):
        """The saturation artifact of criterion ``key`` (a slice's
        Prestar or a feature's cone Poststar, by ``sat_kind``): the
        memoized one, counted as a hit, or else a fused batch of one."""
        sat_key = saturation_key(sat_kind, key)
        with self._lock:
            future = self._futures.get(("saturation", sat_key))
            if future is not None:
                self._stats["saturation_hits"] += 1
        if future is None:
            future = self._fused_batch([(kind, payload)], contexts, sat_kind)[sat_key]
        return future.result()

    def _fused_batch(self, specs, contexts, sat_kind, result_table=None):
        """The one place a per-criterion saturation — a slice's Prestar
        (``sat_kind`` :data:`SAT_PRESTAR`) or a feature's forward-cone
        Poststar (:data:`SAT_POSTSTAR`) — is claimed, loaded from the
        store, or computed.

        ``specs`` is ``[(kind, payload), ...]``.  Each criterion whose
        saturation no one has claimed yet is claimed here (a
        ``saturation_misses``); of those, the ones the store's index
        for this pushdown system records are loaded
        (:func:`repro.engine.incremental.discover_artifacts` reads it at
        the session's first claim), and the rest saturate
        together in one fused kernel pass (:func:`repro.pds.prestar_many`
        or :func:`repro.pds.poststar_many`).  Returns ``{saturation key:
        future}``, claimed or found.

        The batch drivers pass ``result_table``, the memo table whose
        live or persisted entries make a criterion warm: such a
        criterion never saturates, so it is left out (its compute
        counts its memo or persist hit).  A compute that finds no
        memoized saturation passes none and asks for a batch of one.
        """
        candidates = {}  # saturation key -> (canonical key, kind, payload)
        for kind, payload in specs:
            key = canonical_key(kind, payload, contexts)
            candidates.setdefault(saturation_key(sat_kind, key), (key, kind, payload))
        src_hash = self.source_hash
        if result_table is not None:
            persisted = {} if self.store is None else self._persisted_results(src_hash)
            for sat_key, (key, _kind, _payload) in list(candidates.items()):
                with self._lock:
                    live = (result_table, key) in self._futures
                digest = self._persist_digest(result_table, key)
                if live or (result_table, digest) in persisted:
                    del candidates[sat_key]
        futures, claimed = {}, []
        with self._lock:
            for sat_key, (_key, kind, payload) in candidates.items():
                full_key = ("saturation", sat_key)
                future = self._futures.get(full_key)
                if future is None:
                    future = self._futures[full_key] = Future()
                    self._stats["saturation_misses"] += 1
                    claimed.append((sat_key, kind, payload, future))
                futures[sat_key] = future
        if not claimed:
            return futures
        try:
            pending = []
            records = None
            for sat_key, kind, payload, future in claimed:
                digest = self._persist_digest(
                    "saturation", sat_key, table_check=False
                )
                if digest is not None:
                    if records is None:
                        records = self._filed_records()
                    value = self._load_sat(records, digest, sat_key)
                    if value is not None:
                        future.set_result(value)
                        continue
                pending.append((sat_key, kind, payload, future, digest))
            if pending:
                queries = [
                    self._query_automaton(kind, payload, contexts)
                    for _sat_key, kind, payload, _future, _digest in pending
                ]
                saturate_many = prestar_many if sat_kind == SAT_PRESTAR else poststar_many
                sink = {}
                saturated = saturate_many(
                    self.encoding.pds, queries, trim=True, stats=sink
                )
                self._absorb_kernel_stats(sink)
                with self._lock:
                    self._stats["fused_batches"] += 1
                    self._stats["fused_criteria"] += len(pending)
                fresh = [
                    (digest, future, self._make_artifact(sat_kind, sat_key, automaton))
                    for (sat_key, _kind, _payload, future, digest), automaton in zip(
                        pending, saturated
                    )
                ]
                self._file_sats(
                    src_hash,
                    {digest: artifact for digest, _future, artifact in fresh if digest},
                )
                for _digest, future, artifact in fresh:
                    future.set_result(artifact)
        except BaseException as exc:
            with self._lock:
                for sat_key, _kind, _payload, future in claimed:
                    if not future.done():
                        self._futures.pop(("saturation", sat_key), None)
            for _sat_key, _kind, _payload, future in claimed:
                if not future.done():
                    future.set_exception(exc)
            raise
        return futures

    def _memoized(self, cache_kind, key, compute):
        """One-future-per-key memoization: the first submitter computes,
        concurrent duplicates block on the same future, and failures are
        evicted so a later retry can succeed.  Tables named in
        :data:`PERSISTED_TABLES` consult and fill the attached store
        around the computation."""
        full_key = (cache_kind, key)
        with self._lock:
            future = self._futures.get(full_key)
            owner = future is None
            if owner:
                future = Future()
                self._futures[full_key] = future
                self._stats[cache_kind + "_misses"] += 1
            else:
                self._stats[cache_kind + "_hits"] += 1
        if not owner:
            return future.result()
        try:
            value = self._compute_through_store(cache_kind, key, compute)
        except BaseException as exc:
            with self._lock:
                self._futures.pop(full_key, None)
            future.set_exception(exc)
            raise
        future.set_result(value)
        return value

    def _compute_through_store(self, cache_kind, key, compute):
        # The hash is snapshotted before the (possibly long) compute: a
        # concurrent update_source may re-point the session mid-flight,
        # and a value computed against the old front half must never be
        # filed under the edited text's hash.
        src_hash = self.source_hash
        if cache_kind == "saturation":
            return self._saturation_through_store(src_hash, key, compute)
        digest = self._persist_digest(cache_kind, key)
        if digest is not None:
            persisted = self._persisted_results(src_hash)
            value = _unpickle(persisted.get((cache_kind, digest)))
            with self._lock:
                self._stats[
                    "persist_hits" if value is not None else "persist_misses"
                ] += 1
            if value is not None:
                return self._rehydrate(value)
        value = compute()
        if digest is not None:
            self._stage_result(src_hash, cache_kind, digest, value)
        return value

    def _stage_result(self, src_hash, cache_kind, digest, value):
        """Queue a result for filing under revision ``src_hash`` (see
        :meth:`_file_results`).  It is pickled now, not when the call
        files it: the memo's value can change meanwhile (a cleanup pair
        gets its result re-linked)."""
        blob = pickle.dumps(self._slim(value), protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._unfiled.setdefault(src_hash, {})[(cache_kind, digest)] = blob

    def _persisted_results(self, src_hash):
        """The results the store holds for one revision, ``(memo table,
        key digest) -> pickled slim value``: every ``results`` entry in
        its directory, read once per revision (at the session's first
        persisted lookup) and merged."""
        with self._results_lock:
            if self._results is None or self._results[0] != src_hash:
                merged = {}
                for digest in self.store.keys(src_hash, RESULTS_TABLE):
                    entry = self.store.get(src_hash, RESULTS_TABLE, digest)
                    if isinstance(entry, dict):
                        merged.update(entry)
                self._results = (src_hash, merged)
            return self._results[1]

    def _file_results(self):
        """File the (pickled) slim results computed since the last
        filing as one ``results`` entry per source hash they were
        computed against — one entry, normally; a value computed before
        a concurrent ``update_source`` goes under the hash it belongs
        to.  The entry is named by a digest of its keys, so a process
        filing the same answers rewrites one file rather than adding
        another."""
        if not self._unfiled:
            return
        with self._lock:
            unfiled, self._unfiled = self._unfiled, {}
        for src_hash, values in unfiled.items():
            digest = hashlib.sha256(repr(sorted(values)).encode("utf-8")).hexdigest()
            self.store.put(src_hash, RESULTS_TABLE, digest, values)

    def _saturation_through_store(self, src_hash, key, compute):
        """The shared Poststar (:data:`REACHABLE_KEY`, the one
        saturation not claimed by :meth:`_fused_batch`) goes through
        the store's ``__sats__`` table, found through the index of this
        revision's pushdown system: a warm store hands back the
        artifact, so a new criterion against a warm front half skips
        Poststar entirely, and a freshly computed one is persisted for
        the next process.  ``src_hash`` is the caller's pre-compute
        snapshot of the front-half hash."""
        digest = self._persist_digest("saturation", key, table_check=False)
        if digest is not None:
            value = self._load_sat(self._filed_records(), digest, key)
            if value is not None:
                return value
        value = compute()
        if digest is not None:
            self._file_sats(src_hash, {digest: value})
        return value

    def _filed_records(self):
        """The records of the store's index for this revision's
        pushdown system (key digest -> record), fetched once per
        saturation pass (:func:`repro.engine.incremental
        .discover_artifacts` reads the index once per session)."""
        # Imported here so that a wrapper installed on the incremental
        # module by name sees this call.
        from repro.engine.incremental import discover_artifacts

        return discover_artifacts(self)

    def _load_sat(self, records, digest, key):
        """The artifact the index ``records`` file under ``digest`` for
        ``key``, or None; counted as ``sat_persist_hits`` /
        ``sat_persist_misses``."""
        record = records.get(digest)
        value = None
        if record is not None:
            value = load_filed(self.store, record, self._content_keys())
        loaded = value is not None and value.key == key
        with self._lock:
            self._stats["sat_persist_hits" if loaded else "sat_persist_misses"] += 1
        return value if loaded else None

    def _file_sats(self, src_hash, artifacts):
        """Persist one saturation pass's fresh artifacts (key digest ->
        artifact) in ``__sats__`` and record them in the index of this
        revision's pushdown system, with one index write
        (:func:`repro.engine.incremental.file_artifacts`), where every
        revision of that system finds them.  Nothing is filed when a
        concurrent ``update_source`` re-pointed the session mid-compute
        (the snapshot hash no longer names this front half, so this
        session's signature would be the wrong one)."""
        if not artifacts or src_hash != self.source_hash:
            return
        from repro.engine.incremental import file_artifacts, session_signature

        file_artifacts(
            self.store, session_signature(self), self._content_keys(), artifacts
        )

    def _slim(self, value):
        """A shallow copy of a result with the shared front half nulled
        out, for storage: every entry would otherwise embed its own
        pickled copy of the session's SDG and PDS encoding (the bulk of
        the bytes, already stored once as the front-half bundle).
        Handles the ``(raw, cleaned)`` tuples of
        :meth:`remove_feature_cleaned`, whose cleaned slice carries a
        ``result`` back-reference (dropped here, re-linked by the
        caller)."""
        import copy

        from repro.core.executable import ExecutableSlice
        from repro.core.specialize import SpecializationResult

        if isinstance(value, SpecializationResult):
            slim = copy.copy(value)
            slim.source_sdg = None
            slim.encoding = None
            return slim
        if isinstance(value, tuple):
            return tuple(self._slim(item) for item in value)
        if isinstance(value, ExecutableSlice) and isinstance(
            getattr(value, "result", None), SpecializationResult
        ):
            slim = copy.copy(value)
            del slim.result
            return slim
        return value

    def _rehydrate(self, value):
        """The inverse of :meth:`_slim`: point a store-loaded result at
        this session's front half (also restoring the storeless
        invariant that ``result.source_sdg is session.sdg``)."""
        from repro.core.specialize import SpecializationResult

        if isinstance(value, SpecializationResult):
            if value.source_sdg is None:
                value.source_sdg = self.sdg
                value.encoding = self.encoding
            return value
        if isinstance(value, tuple):
            return tuple(self._rehydrate(item) for item in value)
        return value

    def _persist_digest(self, cache_kind, key, table_check=True):
        """The on-disk digest for a memo entry, or None when the entry
        is not persistable (no store, or a criterion key — e.g. a user
        automaton with exotic states — that has no process-independent
        rendering).  Saturation entries pass ``table_check=False``:
        they persist through the dedicated ``__sats__`` table, not the
        per-program result tables."""
        if (
            self.store is None
            or (table_check and cache_kind not in PERSISTED_TABLES)
            or not is_stable_key(key)
        ):
            return None
        return stable_key_digest(key)
