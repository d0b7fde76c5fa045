"""One benchmark run of one workload (started by ``run.py``).

Runs in a fresh interpreter whose environment has every ``REPRO_*``
variable removed and ``PYTHONHASHSEED`` pinned, so the engine runs its
default configuration.  Prints a provenance line and a digest of every
rendered output, then the result JSON as the last line of stdout.

Each workload is a closed loop with one client: the next operation
starts when the previous one has returned.  ``slice_many`` uses its own
thread pool (at most ``nproc`` threads); the benchmark adds none.

Untraced runs (``--trace 0``) do a fixed number of whole units,
``--seconds`` over the workload's nominal unit duration, so every run
does the same work, and report the end-to-end metrics: every latency is
a median over the run's many samples and the throughput a median over
its units, so a few seconds of a slower host move no figure much.

A shared host also changes speed by tens of percent from one minute to
the next, which medians cannot remove.  So each timed window is
bracketed by a fixed reference loop, and its time is scaled to a host on
which that loop takes ``REFERENCE_S``: reported seconds are
reference-host seconds.  The ``# run`` line gives the median scale and
the raw busy time.

Traced runs (``--trace 1``) do a fixed amount of work twice from
scratch, first untraced and then traced, and report per-layer metrics
from the traced pass (raw seconds, no scaling); the deterministic counts
of the two passes and their output digests must agree exactly, and the
difference of their busy times is the tracing overhead.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import weakref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import repro.core.executable as core_executable  # noqa: E402
import repro.lang as lang  # noqa: E402
from repro.engine import SlicingSession  # noqa: E402
from repro.lang import check, parse  # noqa: E402
from repro.store import SliceStore  # noqa: E402

import programs  # noqa: E402
from outcheck import Checker, corrupt, sample_slice  # noqa: E402
from tracing import LAYERS, Recorder, attribute  # noqa: E402

#: sizes of the full benchmark and of the self-test's tiny mode
SIZES = {
    "full": dict(
        wc_front=32,
        chain=100,
        wc_replay=48,
        wc_probe=32,
        pool=[("replace_small", 16), ("replace_small", 8)],
    ),
    "tiny": dict(wc_front=6, chain=12, wc_replay=6, wc_probe=4, pool=[("tiny", 1)]),
}

#: rendered slices sampled for the output check, per answered batch
CHECKS_PER_BATCH = 2

#: set-up repeats at least this many times and for at least this long;
#: setup_s is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5

#: a run stops early when its units take this many times ``--seconds``
#: (a host far slower than the reference), so it still ends in time
OVERRUN = 1.25

#: reopens per unit of the reopen probe
PROBE_EDITS = 3

#: memo tables whose hit/miss counters feed engine.session.hit_ratio
MEMO_TABLES = ("slice", "saturation", "feature", "feature_clean", "executable")

#: session counters summed into the run's deterministic counts
SESSION_COUNTS = (
    "kernel_worklist_pops",
    "saturation_misses",
    "sats_adopted",
) + tuple(table + suffix for table in MEMO_TABLES for suffix in ("_hits", "_misses"))

#: store counters summed into the run's deterministic counts
STORE_COUNTS = (
    "hits", "misses", "proc_hits", "proc_misses", "sat_hits", "sat_misses",
    "index_hits", "index_misses", "pds_hits", "pds_misses", "stores", "evictions",
)

CHECK_KINDS = ("first_slice", "edit_label", "edit_struct", "reopen")

#: the reference loop's duration on the host that reported seconds refer to
REFERENCE_S = 0.005
REFERENCE_STEPS = 40000


def reference_loop():
    """Time a fixed pure-Python loop (dict reads and writes on small
    ints) with the collector off, so the engine's heap never slows it:
    its time tracks only the speed the host gives the process now."""
    counts = {}
    gc.disable()
    try:
        start = time.perf_counter()
        for step in range(REFERENCE_STEPS):
            key = step % 1000
            counts[key] = counts.get(key, 0) + step
        return time.perf_counter() - start
    finally:
        gc.enable()


def host_scale(before, after):
    """Factor from this moment's seconds to reference-host seconds."""
    return 2 * REFERENCE_S / (before + after)


class Run(object):
    """What one pass over a workload measured and collected."""

    def __init__(self, seed, recorder, tracing, scaled=False):
        self.seed = seed
        self.rng = random.Random(seed + 1)
        self.recorder = recorder
        self.tracing = tracing
        self.scaled = scaled  # bracket windows with the reference loop
        self.latencies = {kind: {} for kind in CHECK_KINDS}  # kind -> program -> [s]
        self.windows = []
        self.scales = []  # per window: host_scale around it (1.0 unscaled)
        self.rates = []  # per unit: criteria answered per busy second
        self.probe_work = [0, 0.0]  # answered, scaled busy in the reopen probe
        self.attempted = 0
        self.failed = 0
        self.answered = 0
        self.counts = {}
        self.digest = hashlib.sha256()
        self.samples = []  # (program name, SliceSample)
        self.residuals = []  # (program name, text)
        self.inputs = {}  # program name -> input vectors
        self.kernels = set()
        self.probe = None  # (program, seeded store dir) of the reopen probe
        self._seen_results = weakref.WeakSet()
        self._next_value = 100
        self._next_category = random.Random(seed).randrange(1 << 16)

    # -- timing -----------------------------------------------------------------

    @contextlib.contextmanager
    def window(self):
        before = reference_loop() if self.scaled else REFERENCE_S
        self.recorder.enabled = self.tracing
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.recorder.enabled = False
            after = reference_loop() if self.scaled else REFERENCE_S
            self.windows.append((start, end))
            self.scales.append(host_scale(before, after))

    def timed(self, kind, program, fn):
        """Run ``fn`` in a timed window; file its scaled latency under
        ``kind`` (when given) for ``program``."""
        with self.window():
            value = fn()
        if kind is not None:
            start, end = self.windows[-1]
            self.file(kind, program, end - start)
        return value

    def file(self, kind, program, seconds):
        """File a latency measured in the last window, scaled."""
        self.latencies[kind].setdefault(program.name, []).append(seconds * self.scales[-1])

    def busy(self):
        return sum(end - start for start, end in self.windows)

    def scaled_busy(self):
        return sum((end - start) * scale for (start, end), scale in zip(self.windows, self.scales))

    def own_work(self):
        """Criteria answered and scaled busy seconds so far, leaving out
        the reopen probe, which is not the workload's own work."""
        return self.answered - self.probe_work[0], self.scaled_busy() - self.probe_work[1]

    # -- bookkeeping (outside the timed windows) ----------------------------------

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def fresh_value(self):
        self._next_value += 1
        return self._next_value

    def rotate(self, categories):
        """The wc category the next edit touches: the seed picks the
        first, later edits move on by one, so every seed's edits are
        spread over the (identical) categories the same way."""
        self._next_category += 1
        return self._next_category % categories

    def check_inputs(self, program):
        if program.name not in self.inputs:
            rng = random.Random("%d/%s" % (self.seed, program.name))
            self.inputs[program.name] = program.inputs(rng)
        return self.inputs[program.name]

    def note_session(self, session):
        self.kernels.add(session.kernel)
        self.add("sdg_vertices", session.sdg.vertex_count())
        self.add("pds_rules", session.encoding.pds.rule_count())

    def note_answers(self, program, session, results, rendered):
        self.check_inputs(program)
        self.attempted += len(rendered)
        self.answered += len(rendered)
        for _executable, text in rendered:
            self.digest.update(text.encode("utf-8"))
        picks = sorted(self.rng.sample(range(len(rendered)), min(len(rendered), CHECKS_PER_BATCH)))
        for index in picks:
            self.samples.append(
                (program.name, sample_slice(session, session.source, index, rendered[index][0]))
            )
        for result in results:
            if result in self._seen_results:
                continue
            self._seen_results.add(result)
            self.add("a1_states", result.stats.get("a1_states", 0))
            self.add("a6_states", result.stats.get("a6_states", 0))
            self.add("readout_vertices", result.sdg.vertex_count())

    def note_update(self, summary):
        self.add("updates", 1)
        self.add("fast_paths", 1 if summary["fast_path"] else 0)
        for name in ("procs_rebuilt", "procs_reused", "saturations_kept", "saturations_dropped"):
            self.add(name, summary[name])

    def retire_session(self, session, baseline=None):
        stats = session.stats
        for name in SESSION_COUNTS:
            self.add(name, stats.get(name, 0) - (baseline or {}).get(name, 0))

    def retire_store(self, store):
        counters = store.stats()
        for name in STORE_COUNTS:
            self.add("store_" + name, counters.get(name, 0))


# -- the shared operations ----------------------------------------------------------


def answer_all(session):
    """Answer and render every print criterion (inside a window)."""
    criteria = [("print", index) for index in range(len(session.sdg.print_call_vertices()))]
    results = session.slice_many(criteria)
    rendered = []
    for criterion in criteria:
        executable = session.executable(criterion)
        rendered.append((executable, lang.pretty(executable.program)))
    return results, rendered


def remove_and_render(session, features):
    """Remove each feature and render the residual program."""
    texts = []
    for result in session.remove_features_many(features):
        texts.append(lang.pretty(core_executable.executable_program(result).program))
    return texts


def cold_first_slice(text, store=None):
    """A cold session plus the first print criterion's rendered slice."""
    session = SlicingSession(text, store=store)
    lang.pretty(session.executable(("print", 0)).program)
    return session


def update_and_answer(session, revision):
    session.update_source(revision)
    return answer_all(session)


def live_edit(run, program, session, kind, revision):
    """One edit on a live session: ``update_source`` until every
    criterion is answered and rendered again."""
    results, rendered = run.timed(kind, program, lambda: update_and_answer(session, revision))
    run.attempted += 1
    run.note_update(session.last_update)
    run.note_session(session)
    run.note_answers(program, session, results, rendered)


def reopen(run, program, revision, store_dir, first_slice):
    """A fresh store-backed session on ``revision`` answers and renders
    every criterion (the next process picking up the store); with
    ``first_slice`` its time to the first rendered slice is filed too."""
    store = SliceStore(store_dir)
    opened = {}

    def work():
        start = time.perf_counter()
        session = opened["session"] = cold_first_slice(revision, store)
        opened["first"] = time.perf_counter() - start
        return answer_all(session)

    results, rendered = run.timed("reopen", program, work)
    session = opened["session"]
    if first_slice:
        run.file("first_slice", program, opened["first"])
    run.attempted += 1
    run.note_session(session)
    run.note_answers(program, session, results, rendered)
    run.retire_session(session)
    run.retire_store(store)


def program_episode(run, program, workload):
    """One program's life in a storeless session: cold session and
    first slice, every print criterion, feature removal, then label-only
    edits and one structural edit of one procedure (see
    :mod:`programs`).  Cheap cold starts are repeated so the run has
    enough first-slice samples; only the last session carries on."""
    for _repeat in range(workload.first_slice_repeats):
        session = run.timed("first_slice", program, lambda: cold_first_slice(program.text))
        run.attempted += 1
        run.note_session(session)
    results, rendered = run.timed(None, program, lambda: answer_all(session))
    run.note_answers(program, session, results, rendered)
    if workload.features:
        residuals = run.timed(None, program, lambda: remove_and_render(session, workload.features))
        run.attempted += len(residuals)
        run.answered += len(residuals)
        for text in residuals:
            run.digest.update(text.encode("utf-8"))
            run.residuals.append((program.name, text))
    editor = program.pick_editor(session, results, run)
    revision = program.text
    for kind in ["edit_label"] * workload.label_edits + ["edit_struct"]:
        revision = editor.edit(kind, revision, run.fresh_value())
        live_edit(run, program, session, kind, revision)
    run.retire_session(session)


def reopen_probe(run, size, tmp):
    """front_half and back_half keep their sessions storeless, so their
    ``reopen_p50_s`` comes from a fixed probe shaped like edit_replay's
    reopen: a store seeded once per pass (untimed) with scaled wc, then
    timed reopens of one-literal edits of the seeded revision, each on a
    fresh copy of that store, so every probe reopen does the same work
    however many came before it."""
    if run.probe is None:
        program = programs.wc_program(size["wc_probe"])
        seeded = tempfile.mkdtemp(dir=tmp)
        answer_all(SlicingSession(program.text, store=SliceStore(seeded)))
        run.probe = (program, seeded)
    program, seeded = run.probe
    answered, busy = run.answered, run.scaled_busy()
    for _edit in range(PROBE_EDITS):
        editor = programs.wc_editor(run.rotate(size["wc_probe"]))
        revision = editor.edit("edit_label", program.text, run.fresh_value())
        holder = tempfile.mkdtemp(dir=tmp)
        store_dir = os.path.join(holder, "store")
        shutil.copytree(seeded, store_dir)
        reopen(run, program, revision, store_dir, first_slice=False)
        shutil.rmtree(holder)
    run.probe_work[0] += run.answered - answered
    run.probe_work[1] += run.scaled_busy() - busy


# -- workloads ----------------------------------------------------------------------


class FrontHalf(object):
    """Cold sessions on the two programs whose front half (parse,
    check, dependence analyses, SDG assembly) dominates: scaled wc and
    a long call chain."""

    name = "front_half"
    trace_units = 2
    #: wall time of a unit on the reference host (see ``REFERENCE_S``)
    unit_seconds = 2.2
    features = ()
    first_slice_repeats = 1
    label_edits = 2

    def make_programs(self, size):
        return [programs.wc_program(size["wc_front"]), programs.chain_program(size["chain"])]

    def setup(self, seed, size, tmp):
        progs = self.make_programs(size)
        for program in progs:
            check(parse(program.text))  # the generated inputs are legal TinyC
        random.Random(seed).shuffle(progs)
        return progs

    def unit(self, run, progs, size, tmp):
        for program in progs:
            program_episode(run, program, self)
        reopen_probe(run, size, tmp)

    def finish(self, run, progs):
        pass


class BackHalf(FrontHalf):
    """Cold sessions on generated programs in the suite's replace_like
    shape (12 procedures), where Prestar, MRD, read-out and rendering
    dominate; one global variable's feature is removed per program
    (Poststar, the other direction of the same PDS layer)."""

    name = "back_half"
    unit_seconds = 3.1
    features = ("g1 = ",)
    first_slice_repeats = 2
    label_edits = 2

    def make_programs(self, size):
        return [programs.generated_program(shape, gen_seed) for shape, gen_seed in size["pool"]]


class ReplayState(object):
    def __init__(self, program, live, store_dir, categories):
        self.program = program
        self.live = live
        self.revision = program.text
        self.store_dir = store_dir
        self.baseline = live.stats
        self.categories = categories


class EditReplay(object):
    """The editor loop on scaled wc: one live session takes a sequence
    of one-procedure edits (two label-only and one structural, in seeded
    order, per block of three) and re-answers everything after each; then a fresh
    store-backed session answers everything for the same revision (the
    new-process or CI path: ``__procs__`` parts, cross-revision
    discovery, store writes)."""

    name = "edit_replay"
    trace_units = 4
    unit_seconds = 2.0

    def setup(self, seed, size, tmp):
        program = programs.wc_program(size["wc_replay"])
        live = SlicingSession(program.text)
        answer_all(live)
        store_dir = tempfile.mkdtemp(dir=tmp)
        answer_all(SlicingSession(program.text, store=SliceStore(store_dir)))
        return ReplayState(program, live, store_dir, size["wc_replay"])

    def unit(self, run, state, size, tmp):
        kinds = ["edit_label", "edit_label", "edit_struct"]
        run.rng.shuffle(kinds)
        for kind in kinds:
            editor = programs.wc_editor(run.rotate(state.categories))
            state.revision = editor.edit(kind, state.revision, run.fresh_value())
            live_edit(run, state.program, state.live, kind, state.revision)
            reopen(run, state.program, state.revision, state.store_dir, first_slice=True)

    def finish(self, run, state):
        run.retire_session(state.live, state.baseline)


WORKLOADS = {cls.name: cls() for cls in (FrontHalf, BackHalf, EditReplay)}


# -- the run ------------------------------------------------------------------------


def p50(samples_by_program):
    """Geometric mean over programs of each program's median: robust to
    how many samples each program contributed, and every program counts
    (a median of two or three programs would report one program's noise)."""
    medians = [statistics.median(values) for values in samples_by_program.values() if values]
    return statistics.geometric_mean(medians) if medians else 0.0


def run_checks(run, corrupt_one):
    """The untimed output check; returns the number of failures."""
    checkers = {}
    failures = 0
    for index, (name, sample) in enumerate(run.samples):
        checker = checkers.setdefault(name, Checker(run.inputs[name]))
        if corrupt_one and index == 0:
            corrupt(sample)
        try:
            ok = checker.slice_ok(sample)
        except Exception:
            traceback.print_exc()
            ok = False
        failures += 0 if ok else 1
    for name, text in run.residuals:
        checker = checkers.setdefault(name, Checker(run.inputs[name]))
        try:
            checker.residual_ok(text)
        except Exception:
            traceback.print_exc()
            failures += 1
    return failures


def do_units(workload, run, state, size, tmp, count, deadline=None):
    """Run ``count`` whole units (fewer if the wall clock passes
    ``deadline``), then let the workload close the pass."""
    done = 0
    while done < count:
        if done and deadline is not None and time.perf_counter() > deadline:
            print("# stopped after %d of %d units: the host is slow" % (done, count), file=sys.stderr)
            break
        answered, busy = run.own_work()
        try:
            workload.unit(run, state, size, tmp)
        except Exception:
            traceback.print_exc()
            run.attempted += 1
            run.failed += 1
        now_answered, now_busy = run.own_work()
        if now_busy > busy:
            run.rates.append((now_answered - answered) / (now_busy - busy))
        done += 1
    workload.finish(run, state)
    return done


def warm_up(workload, args, tmp):
    """One untimed unit at tiny size, so lazy imports and first-call
    costs never land in a measured operation."""
    size = SIZES["tiny"]
    state = workload.setup(args.seed, size, tempfile.mkdtemp(dir=tmp))
    do_units(workload, Run(args.seed, Recorder(), tracing=False), state, size, tempfile.mkdtemp(dir=tmp), 1)


def end_to_end(workload, args, size, tmp, recorder):
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        state = None
        directory = tempfile.mkdtemp(dir=tmp)
        gc.collect()  # every repeat starts from the same collector state
        before = reference_loop()
        start = time.perf_counter()
        state = workload.setup(args.seed, size, directory)
        seconds = time.perf_counter() - start
        setup_times.append(seconds * host_scale(before, reference_loop()))
    run = Run(args.seed, recorder, tracing=False, scaled=True)
    units = 1 if args.tiny else max(2, round(args.seconds / workload.unit_seconds))
    deadline = time.perf_counter() + OVERRUN * args.seconds
    units = do_units(workload, run, state, size, tempfile.mkdtemp(dir=tmp), units, deadline)
    run.failed += run_checks(run, args.corrupt)
    busy = run.busy()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "first_slice_s": (p50(run.latencies["first_slice"]), "s"),
        "slices_per_s": (statistics.median(run.rates), "1/s"),
        "edit_label_p50_s": (p50(run.latencies["edit_label"]), "s"),
        "edit_struct_p50_s": (p50(run.latencies["edit_struct"]), "s"),
        "reopen_p50_s": (p50(run.latencies["reopen"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - run.failed / max(run.attempted, 1), "ratio"),
    }
    info = {
        "units": units,
        "busy_s": busy,
        "host_scale_p50": statistics.median(run.scales),
        "setup_repeats": len(setup_times),
        "samples": {kind: sum(map(len, by_program.values())) for kind, by_program in run.latencies.items()},
        "per_program_p50": {
            kind: {name: statistics.median(values) for name, values in sorted(by_program.items())}
            for kind, by_program in run.latencies.items()
        },
    }
    return run, metrics, info


def one_pass(workload, args, size, tmp, recorder, tracing):
    state = workload.setup(args.seed, size, tempfile.mkdtemp(dir=tmp))
    gc.collect()
    run = Run(args.seed, recorder, tracing=tracing)
    recorder.reset()
    do_units(workload, run, state, size, tempfile.mkdtemp(dir=tmp), workload.trace_units)
    return run


def per_layer(workload, args, size, tmp, recorder):
    plain = one_pass(workload, args, size, tmp, recorder, tracing=False)
    recorder.install()
    traced = one_pass(workload, args, size, tmp, recorder, tracing=True)
    recorder.uninstall()
    traced.failed += run_checks(traced, args.corrupt)
    mismatched = sorted(
        name for name in set(plain.counts) | set(traced.counts)
        if plain.counts.get(name) != traced.counts.get(name)
    )
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        mismatched.append("digest")
    if mismatched:
        print("# count mismatch between passes: %s" % ", ".join(mismatched), file=sys.stderr)
    calls, self_time, unattributed = attribute(recorder.spans, traced.windows)
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".calls"] = (calls.get(layer, 0), "count")
        metrics[layer + ".self_s"] = (self_time.get(layer, 0.0), "s")
    counts = traced.counts
    sizes = recorder.sizes
    kept = counts.get("saturations_kept", 0)
    dropped = counts.get("saturations_dropped", 0)
    memo_hits = sum(counts.get(t + "_hits", 0) for t in MEMO_TABLES)
    memo_total = memo_hits + sum(counts.get(t + "_misses", 0) for t in MEMO_TABLES)
    store_hits = sum(counts.get("store_" + n, 0) for n in STORE_COUNTS if n.endswith("hits"))
    store_total = store_hits + sum(
        counts.get("store_" + n, 0) for n in STORE_COUNTS if n.endswith("misses")
    )
    metrics.update({
        "unattributed.self_s": (unattributed, "s"),
        "trace.wall_s": (traced.busy(), "s"),
        "trace.overhead_s": (traced.busy() - plain.busy(), "s"),
        "sdg.vertices": (counts.get("sdg_vertices", 0), "count"),
        "pds.rules": (counts.get("pds_rules", 0), "count"),
        "pds.worklist_pops": (counts.get("kernel_worklist_pops", 0), "count"),
        "pds.saturation_misses": (counts.get("saturation_misses", 0), "count"),
        "pds.criteria_per_pass": (
            sizes.get("prestar_criteria", 0) / max(sizes.get("prestar_passes", 0), 1), "ratio"
        ),
        "fsa.a1_states": (counts.get("a1_states", 0), "count"),
        "fsa.a6_states": (counts.get("a6_states", 0), "count"),
        "core.readout.vertices": (counts.get("readout_vertices", 0), "count"),
        "engine.session.hit_ratio": (memo_hits / max(memo_total, 1), "ratio"),
        "engine.incremental.procs_rebuilt": (counts.get("procs_rebuilt", 0), "count"),
        "engine.incremental.saturations_kept_ratio": (kept / max(kept + dropped, 1), "ratio"),
        "engine.incremental.sats_adopted": (counts.get("sats_adopted", 0), "count"),
        "store.reads": (sizes.get("store.reads", 0), "count"),
        "store.read_bytes": (sizes.get("store.read_bytes", 0), "bytes"),
        "store.writes": (sizes.get("store.writes", 0), "count"),
        "store.write_bytes": (sizes.get("store.write_bytes", 0), "bytes"),
        "store.hit_ratio": (store_hits / max(store_total, 1), "ratio"),
        "error_rate": (traced.failed / max(traced.attempted, 1), "ratio"),
        "repeat_mismatches": (len(mismatched), "count"),
    })
    info = {"mismatched": mismatched}
    return traced, metrics, info, not mismatched


def provenance(args, kernels):
    def git_sha():
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            return None  # an exported checkout; never report an enclosing repo's SHA
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() or None

    src = hashlib.sha256()
    src_root = os.path.join(ROOT, "src", "repro")
    for directory, subdirs, files in sorted(os.walk(src_root)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                src.update(os.path.relpath(path, src_root).encode("utf-8"))
                with open(path, "rb") as handle:
                    src.update(handle.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": sorted(kernels),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "size": "tiny" if args.tiny else "full",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    sys.setrecursionlimit(100000)
    workload = WORKLOADS[args.workload]
    size = SIZES["tiny" if args.tiny else "full"]
    recorder = Recorder()
    warm_up(workload, args, args.tmp)
    if args.trace:
        run, metrics, info, repeat_ok = per_layer(workload, args, size, args.tmp, recorder)
    else:
        run, metrics, info = end_to_end(workload, args, size, args.tmp, recorder)
        repeat_ok = True
    print("# provenance %s" % json.dumps(provenance(args, run.kernels), sort_keys=True))
    print("# run %s" % json.dumps(info, sort_keys=True))
    print("# digest %s" % run.digest.hexdigest())
    result = {
        "correct": run.failed == 0 and repeat_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
