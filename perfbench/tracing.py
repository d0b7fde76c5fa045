"""Layer spans recorded from outside the engine.

The benchmark never edits the engine.  Instead, :func:`install` replaces
the module attributes through which the engine calls each layer's
public functions (``repro.sdg.pdg_builder.flow_dependences``,
``repro.engine.session.prestar``, ...) with thin wrappers that record a
span: layer name, start, end, parent span and thread.  Spans stay in
memory until the traced pass ends.

``slice_many`` fans criteria out over a thread pool, so parents are
tracked per thread, and a task submitted to the pool inherits the span
that was open in the submitting thread.  Self time splits every instant
equally among the innermost open spans (a span with an open child, in
any thread, is not innermost); instants with no open span are
unattributed.  Self times plus the unattributed time therefore sum to
the wall time of the traced windows exactly, even while two pool
threads interleave under the GIL.
"""

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

#: (module, attribute, layer): every call site the engine reaches a
#: layer through.  Lazily imported names (``from x import f`` inside a
#: function body) are read from their home module at call time, so the
#: wrapper sits on that module.
CALL_SITES = [
    ("repro.engine.incremental", "parse", "lang.parse"),
    ("repro.engine.incremental", "check", "lang.check"),
    ("repro.lang.sema", "check", "lang.check"),
    ("repro.sdg.pdg_builder", "flow_dependences", "analysis.reaching"),
    ("repro.sdg.pdg_builder", "control_dependence", "analysis.control_dep"),
    ("repro.sdg.sdg_builder", "compute_modref", "analysis.modref"),
    ("repro.engine.incremental", "compute_modref", "analysis.modref"),
    ("repro.sdg.sdg_builder", "build_call_graph", "analysis.callgraph"),
    ("repro.engine.incremental", "build_call_graph", "analysis.callgraph"),
    ("repro.analysis.modref", "build_call_graph", "analysis.callgraph"),
    ("repro.engine.incremental", "assemble_sdg", "sdg.assemble"),
    ("repro.sdg.sdg_builder", "compute_summary_edges", "sdg.summary"),
    ("repro.core.readout", "compute_summary_edges", "sdg.summary"),
    ("repro.engine.session", "encode_sdg", "pds.encode"),
    ("repro.engine.incremental", "encode_sdg", "pds.encode"),
    ("repro.core.specialize", "encode_sdg", "pds.encode"),
    ("repro.core.feature_removal", "encode_sdg", "pds.encode"),
    ("repro.engine.session", "prestar", "pds.prestar"),
    ("repro.engine.session", "prestar_many", "pds.prestar"),
    ("repro.core.specialize", "prestar", "pds.prestar"),
    ("repro.engine.session", "poststar", "pds.poststar"),
    ("repro.engine.session", "poststar_many", "pds.poststar"),
    ("repro.core.criteria", "poststar", "pds.poststar"),
    ("repro.core.feature_removal", "poststar", "pds.poststar"),
    ("repro.engine.session", "resolve_criterion", "core.criteria"),
    ("repro.engine.session", "configs_criterion", "core.criteria"),
    ("repro.core.criteria", "reachable_query_view", "core.criteria"),
    ("repro.core.feature_removal", "reachable_query_view", "core.criteria"),
    ("repro.core.feature_removal", "resolve_criterion", "core.criteria"),
    ("repro.core.specialize", "reverse", "fsa.mrd"),
    ("repro.core.specialize", "remove_epsilon", "fsa.mrd"),
    ("repro.core.specialize", "determinize", "fsa.mrd"),
    ("repro.core.specialize", "minimize", "fsa.mrd"),
    ("repro.fsa.intops", "mrd_int", "fsa.mrd"),
    ("repro.core.feature_removal", "determinize", "fsa.mrd"),
    ("repro.core.feature_removal", "mrd", "fsa.mrd"),
    ("repro.core.specialize", "read_out_sdg", "core.readout"),
    ("repro.core.feature_removal", "read_out_sdg", "core.readout"),
    ("repro.engine.session", "executable_program", "core.executable"),
    ("repro.core.executable", "executable_program", "core.executable"),
    ("repro.core.feature_removal", "remove_feature", "core.feature_removal"),
    ("repro.engine.incremental", "update_session", "engine.incremental"),
    ("repro.engine.incremental", "discover_artifacts", "engine.incremental"),
    ("repro.engine.incremental", "load_front_half", "engine.incremental"),
]

#: (class path, method names, layer): public methods wrapped on the class.
METHODS = [
    (
        "repro.engine.session.SlicingSession",
        ("__init__", "slice_many", "executable", "remove_features_many"),
        "engine.session",
    ),
    (
        "repro.store.store.SliceStore",
        (
            "get", "put", "has",
            "get_program", "put_program", "has_program",
            "get_proc", "put_proc",
            "get_sat", "put_sat", "has_sat",
            "get_pds", "put_pds", "has_pds",
            "get_sat_index", "merge_sat_index", "sat_indexes_for",
        ),
        "store",
    ),
]

#: every layer a traced run reports, in pipeline order
LAYERS = [
    "lang.parse",
    "lang.check",
    "lang.pretty",
    "analysis.reaching",
    "analysis.control_dep",
    "analysis.modref",
    "analysis.callgraph",
    "sdg.assemble",
    "sdg.summary",
    "pds.encode",
    "pds.prestar",
    "pds.poststar",
    "core.criteria",
    "fsa.mrd",
    "core.readout",
    "core.executable",
    "core.feature_removal",
    "engine.session",
    "engine.incremental",
    "store",
]


def _resolve(path):
    import importlib

    module_name, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module_name), attr)


class Recorder(object):
    """Collects spans while :attr:`enabled`; wrappers are installed
    once and cost one attribute check when disabled."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [layer, start, end, parent span, thread id]
        self.sizes = {}  # free-form per-call sizes, e.g. prestar batch widths
        self._sizes_lock = threading.Lock()
        self._local = threading.local()
        self._installed = []

    # -- spans -----------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span of this thread (or the span a pool
        task inherited), or None."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def span(self, layer, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        record = [layer, 0.0, None, self.current(), threading.get_ident()]
        stack = self._stack()
        stack.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def count(self, name, value):
        if self.enabled:
            with self._sizes_lock:
                self.sizes[name] = self.sizes.get(name, 0) + value

    def reset(self):
        self.spans = []
        self.sizes = {}

    # -- installation ----------------------------------------------------------

    def wrap(self, layer, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.span(layer, fn, *args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every call site and public method listed above, plus the
        session module's thread pool (so pool tasks inherit parents)."""
        import importlib

        for module_name, attr, layer in CALL_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(layer, getattr(module, attr)))
        for class_path, names, layer in METHODS:
            cls = _resolve(class_path)
            for name in names:
                self._patch(cls, name, self.wrap(layer, getattr(cls, name)))
        self._wrap_prestar_width()
        self._wrap_store_bytes()
        session_module = importlib.import_module("repro.engine.session")
        self._patch(session_module, "ThreadPoolExecutor", self._pool_class())
        pretty_owner = importlib.import_module("repro.lang")
        self._patch(pretty_owner, "pretty", self.wrap("lang.pretty", pretty_owner.pretty))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_prestar_width(self):
        """Count criteria per Prestar pass: one per ``prestar`` call,
        ``len(queries)`` per ``prestar_many`` call."""
        import repro.engine.session as session_module

        recorder = self
        for attr, width in (
            ("prestar", lambda args: 1),
            ("prestar_many", lambda args: len(args[1])),
        ):
            inner = getattr(session_module, attr)

            def counted(*args, _inner=inner, _width=width, **kwargs):
                recorder.count("prestar_passes", 1)
                recorder.count("prestar_criteria", _width(args))
                return _inner(*args, **kwargs)

            self._patch(session_module, attr, counted)

    def _wrap_store_bytes(self):
        """Byte and operation counts of the store's file reads and
        writes (the two private choke points every table goes through;
        wrapped for counting only, never for spans)."""
        import os

        from repro.store.store import SliceStore

        recorder = self
        read, write = SliceStore._read, SliceStore._write

        def counted_read(store, path):
            value, ok = read(store, path)
            if ok:
                recorder.count("store.reads", 1)
                recorder.count("store.read_bytes", os.path.getsize(path))
            return value, ok

        def counted_write(store, path, value):
            written = write(store, path, value)
            recorder.count("store.writes", 1)
            recorder.count("store.write_bytes", written)
            return written

        self._patch(SliceStore, "_read", counted_read)
        self._patch(SliceStore, "_write", counted_write)

    def _pool_class(self):
        recorder = self

        class InheritingPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                parent = recorder.current()

                def task(*task_args, **task_kwargs):
                    recorder._local.inherited = parent
                    try:
                        return fn(*task_args, **task_kwargs)
                    finally:
                        recorder._local.inherited = None

                return ThreadPoolExecutor.submit(self, task, *args, **kwargs)

        return InheritingPool


def attribute(spans, windows):
    """Per-layer ``(calls, self seconds)`` and the unattributed seconds
    of the traced ``windows`` (a list of ``(start, end)`` intervals).

    Sweeps span starts and ends in time order.  Between two events the
    elapsed time is shared equally by the *innermost* open spans — open
    spans with no open child in any thread.  Time inside a window with
    no open span is unattributed."""
    calls = {}
    events = []
    for index, span in enumerate(spans):
        layer, start, end = span[0], span[1], span[2]
        calls[layer] = calls.get(layer, 0) + 1
        events.append((start, 1, index))
        events.append((end, 0, index))
    # Window edges bound the unattributed time.
    for start, end in windows:
        events.append((start, 2, -1))
        events.append((end, 3, -1))
    events.sort(key=lambda event: (event[0], event[1]))
    position = {id(span): index for index, span in enumerate(spans)}
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    innermost = set()
    self_time = {}
    unattributed = 0.0
    in_window = 0
    last = None
    for moment, kind, index in events:
        if last is not None and moment > last and in_window:
            elapsed = moment - last
            if innermost:
                share = elapsed / len(innermost)
                for open_index in innermost:
                    layer = spans[open_index][0]
                    self_time[layer] = self_time.get(layer, 0.0) + share
            else:
                unattributed += elapsed
        last = moment
        if kind == 2:
            in_window += 1
            continue
        if kind == 3:
            in_window -= 1
            continue
        parent = spans[index][3]
        parent_index = position.get(id(parent)) if parent is not None else None
        if parent_index is not None and not is_open[parent_index]:
            parent_index = None
        if kind == 1:
            is_open[index] = True
            innermost.add(index)
            if parent_index is not None:
                open_children[parent_index] += 1
                innermost.discard(parent_index)
        else:
            is_open[index] = False
            innermost.discard(index)
            if parent_index is not None:
                open_children[parent_index] -= 1
                if open_children[parent_index] == 0:
                    innermost.add(parent_index)
    return calls, self_time, unattributed
