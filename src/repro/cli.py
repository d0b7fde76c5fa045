"""Command-line interface: ``python -m repro <command> file.tc``.

Commands:

* ``info``      — parse a TinyC file and print SDG statistics.
* ``slice``     — specialization slice w.r.t. a print statement
  (``--print N``, default 0: the N-th print in the program) and emit
  the executable slice.
* ``slice-batch`` — many criteria in one session: load the program
  once, slice w.r.t. each requested print statement (``--prints
  0,2,5`` or ``--prints all``) through a shared
  :class:`repro.engine.SlicingSession` (cold criteria saturate in one
  fused pass, then each is answered in turn), and report
  per-criterion sizes plus cache stats.  ``--cache-dir DIR`` backs
  the session with the persistent on-disk store, so re-running the
  batch in a new process answers from disk.  ``--reuse-from
  PREV_FILE`` opens the session for a previous revision of the file
  and incrementally updates it to the current text (unchanged
  procedures keep their PDGs and saturations; see
  :mod:`repro.engine.incremental`).
* ``cache``     — manage the persistent store: ``cache stats``
  (``--json`` for machine-readable output; both forms break entries
  and bytes down per table, including the ``__procs__`` and
  ``__sats__`` shared tables, and report the store's economics
  counters) and ``cache clear`` (all honor ``--cache-dir``, default
  ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
* ``mono``      — the same criterion, Binkley's monovariant slice.
* ``remove``    — feature removal from a statement matched by
  ``--feature TEXT`` (substring of the statement's label).
* ``run``       — interpret the program; inputs from ``--inputs``.
* ``bta``       — polyvariant binding-time analysis from the
  ``input()`` statements.

The CLI is a thin veneer over the library API; each command returns the
text it prints so tests can drive it directly.  User errors — a TinyC
lex, parse, or semantic error, a file that cannot be read, or a ``run``
that exceeds its ``--max-steps`` budget — print one
``FILE:LINE:COL: message`` (or ``FILE: message``) line to stderr and
exit with status 2 — naming ``PREV_FILE`` when the error is in the
``--reuse-from`` revision.  Malformed options are usage errors
(``error: ...``, exit 1); internal errors keep their traceback.
"""

import argparse
import sys

import repro
from repro.core import (
    binding_time_analysis,
    binkley_slice,
    dynamic_input_vertices,
    executable_program,
    monovariant_program,
    remove_feature,
    specialization_slice,
)
from repro.engine.canonical import resolve_criterion_spec
from repro.lang import pretty
from repro.lang.errors import TinyCError
from repro.lang.interp import ExecutionLimitExceeded, run_program


class UserError(SystemExit):
    """A user mistake :func:`main` reports as one line and exit code 2
    (a :class:`SystemExit`, like the usage errors, for callers that run
    a command function directly)."""


def _located(path, exc):
    """A TinyC error as one ``FILE:LINE:COL: message`` line."""
    where = path
    if exc.line is not None:
        where += ":%d:%d" % (exc.line, exc.col or 0)
    return "%s: %s" % (where, exc.message)


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UserError("%s: cannot read: %s" % (path, reason))


def _load(path):
    return repro.load_source(_read(path))


def cmd_info(args):
    program, _info, sdg = _load(args.file)
    kinds = {}
    for vertex in sdg.vertices.values():
        kinds[vertex.kind] = kinds.get(vertex.kind, 0) + 1
    lines = [
        "procedures:   %d" % len(program.procs),
        "vertices:     %d" % sdg.vertex_count(),
        "edges:        %d" % sdg.edge_count(),
        "call sites:   %d" % len(sdg.call_sites),
        "prints:       %d" % len(sdg.print_call_vertices()),
    ]
    for kind in sorted(kinds):
        lines.append("  %-12s %d" % (kind, kinds[kind]))
    return "\n".join(lines)


def cmd_slice(args):
    _program, _info, sdg = _load(args.file)
    try:
        _kind, criterion = resolve_criterion_spec(sdg, ("print", args.print_index))
    except ValueError as exc:
        raise SystemExit("error: %s" % exc)
    result = specialization_slice(sdg, criterion)
    executable = executable_program(result)
    header = "// specialization slice w.r.t. print #%d\n" % args.print_index
    versions = {
        proc: count for proc, count in result.version_counts().items() if count
    }
    header += "// versions: %s\n" % versions
    return header + pretty(executable.program)


def cmd_slice_batch(args):
    import time

    source = _read(args.file)
    update = None
    if args.reuse_from:
        # Incremental path: open (or revive) the session for the
        # previous revision of the file and update it to the current
        # text — unchanged procedures keep their PDGs and saturations.
        previous = _read(args.reuse_from)
        try:
            session = repro.open_session(previous, cache_dir=args.cache_dir)
        except TinyCError as exc:
            raise UserError(_located(args.reuse_from, exc))
        update = session.update_source(source)
    else:
        session = repro.open_session(source, cache_dir=args.cache_dir)
    prints = session.sdg.print_call_vertices()
    if not prints:
        raise SystemExit("error: the program has no print statements")
    if args.prints == "all":
        indices = list(range(len(prints)))
    else:
        try:
            indices = [int(chunk) for chunk in args.prints.split(",") if chunk]
        except ValueError:
            indices = []
        if not indices:
            raise SystemExit("error: --prints expects 'all' or e.g. '0,2,5'")
    criteria = [("print", index) for index in indices]
    t0 = time.perf_counter()
    try:
        # Range validation lives in the engine's criterion resolution.
        results = session.slice_many(criteria)
    except ValueError as exc:
        raise SystemExit("error: %s" % exc)
    elapsed = time.perf_counter() - t0
    lines = []
    for index, result in zip(indices, results):
        versions = {
            proc: count for proc, count in result.version_counts().items() if count
        }
        lines.append(
            "print #%d: %d vertices, versions %s"
            % (index, result.vertex_count(), versions)
        )
    stats = session.stats
    lines.append(
        "batch: %d criteria in %.3fs (load %.3fs; slice hits/misses %d/%d)"
        % (
            len(criteria),
            elapsed,
            stats["load_seconds"],
            stats["slice_hits"],
            stats["slice_misses"],
        )
    )
    lines.append(
        "kernel: %d rules compiled, %d worklist pops"
        % (stats["kernel_rules_compiled"], stats["kernel_worklist_pops"])
    )
    if stats.get("fused_batches"):
        lines.append(
            "fused: %d criteria saturated in %d batch pass%s"
            % (
                stats["fused_criteria"],
                stats["fused_batches"],
                "" if stats["fused_batches"] == 1 else "es",
            )
        )
    if update is not None:
        lines.append(
            "reuse: %d/%d procedures kept, %d saturations kept / %d dropped, "
            "%d results kept / %d dropped (%s path)"
            % (
                update["procs_reused"],
                update["procs_reused"] + update["procs_rebuilt"],
                update["saturations_kept"],
                update["saturations_dropped"],
                update["results_kept"],
                update["results_dropped"],
                "fast" if update["fast_path"] else "slow",
            )
        )
    if session.store is not None:
        lines.append(
            "store: %s (front half %s, %d/%d procedure parts; "
            "persist hits/misses %d/%d; saturations %d/%d)"
            % (
                session.store.cache_dir,
                "warm" if stats["front_half_from_store"] else "cold",
                stats["front_half_parts_hits"],
                stats["front_half_parts_total"],
                stats["persist_hits"],
                stats["persist_misses"],
                stats["sat_persist_hits"],
                stats["sat_persist_misses"],
            )
        )
    return "\n".join(lines)


#: how the stats tables are spelled for users: the on-disk directory
#: name for the shared content-addressed tables, the role for the rest.
_TABLE_LABELS = {
    "fronthalf": "front-half",
    "proc": "__procs__",
    "sat": "__sats__",
    "idx": "__sats__ idx",
    "pds": "__pds__",
}


def cmd_cache(args):
    from repro.store import open_store

    store = open_store(args.cache_dir)
    if args.cache_command == "stats":
        stats = store.stats()
        if getattr(args, "as_json", False):
            import json

            return json.dumps(stats, indent=2, sort_keys=True)
        lines = [
            "cache dir:    %s" % stats["cache_dir"],
            "version:      %d" % stats["version"],
            "programs:     %d" % stats["programs"],
            "entries:      %d" % stats["entries"],
            "total bytes:  %d" % stats["total_bytes"],
            "size cap:     %d" % stats["max_bytes"],
            "lifetime:     %d evictions, %d compactions, %d index records pruned"
            % (
                stats["lifetime"]["evictions"],
                stats["lifetime"]["compactions"],
                stats["lifetime"]["gc_index_pruned"],
            ),
            "this process: %d write errors, %d config errors"
            % (stats["write_errors"], stats["config_errors"]),
        ]
        for table in sorted(stats["tables"]):
            lines.append(
                "  %-14s %5d entries  %10d bytes"
                % (
                    _TABLE_LABELS.get(table, table),
                    stats["tables"][table],
                    stats["table_bytes"].get(table, 0),
                )
            )
        return "\n".join(lines)
    removed = store.clear()
    return "removed %d entries from %s" % (removed, store.cache_dir)


def cmd_mono(args):
    _program, _info, sdg = _load(args.file)
    try:
        _kind, criterion = resolve_criterion_spec(sdg, ("print", args.print_index))
    except ValueError as exc:
        raise SystemExit("error: %s" % exc)
    result = binkley_slice(sdg, criterion)
    executable = monovariant_program(sdg, result.slice_set)
    header = (
        "// monovariant (Binkley) slice w.r.t. print #%d; %d extra elements\n"
        % (args.print_index, len(result.added))
    )
    return header + pretty(executable.program)


def cmd_remove(args):
    from repro.core.feature_removal import feature_seeds

    _program, _info, sdg = _load(args.file)
    try:
        seeds = feature_seeds(sdg, args.feature)
    except ValueError as exc:
        raise SystemExit("error: %s" % exc)
    result = remove_feature(sdg, seeds)
    executable = executable_program(result)
    return "// feature %r removed\n" % args.feature + pretty(executable.program)


def cmd_run(args):
    if args.max_steps < 1:
        raise SystemExit("error: --max-steps must be at least 1")
    try:
        inputs = [int(chunk) for chunk in args.inputs.split(",")] if args.inputs else []
    except ValueError:
        raise SystemExit("error: --inputs expects integers, e.g. '1,2,3'")
    program, _info, _sdg = _load(args.file)
    try:
        result = run_program(program, inputs, max_steps=args.max_steps)
    except ExecutionLimitExceeded as exc:
        raise UserError("%s: %s" % (args.file, exc))
    out = result.render()
    out += "[%d steps]" % result.steps
    if result.exit_code is not None:
        out += " [exit %d]" % result.exit_code
    return out


def cmd_bta(args):
    _program, _info, sdg = _load(args.file)
    dynamic = dynamic_input_vertices(sdg)
    result = binding_time_analysis(sdg, dynamic)
    if not result.divisions:
        return "program is fully static (no input() reached)"
    return result.report()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Specialization slicing (Aung, Horwitz, Joiner, Reps; PLDI 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="SDG statistics")
    p_info.add_argument("file")
    p_info.set_defaults(func=cmd_info)

    p_slice = sub.add_parser("slice", help="polyvariant executable slice")
    p_slice.add_argument("file")
    p_slice.add_argument("--print", dest="print_index", type=int, default=0)
    p_slice.set_defaults(func=cmd_slice)

    p_batch = sub.add_parser(
        "slice-batch", help="many slices through one shared session"
    )
    p_batch.add_argument("file")
    p_batch.add_argument(
        "--prints",
        default="all",
        help="comma-separated print indices, or 'all' (default)",
    )
    p_batch.add_argument(
        "--cache-dir",
        default=None,
        help="back the session with the persistent slice store at DIR",
    )
    p_batch.add_argument(
        "--reuse-from",
        dest="reuse_from",
        default=None,
        metavar="PREV_FILE",
        help="incrementally update the session for PREV_FILE (a previous "
        "revision of FILE) instead of building from scratch",
    )
    p_batch.set_defaults(func=cmd_slice_batch)

    p_cache = sub.add_parser("cache", help="manage the persistent slice store")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser("stats", help="store shape and counters")
    p_cache_stats.add_argument("--cache-dir", default=None)
    p_cache_stats.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the full stats dict (per-table entry and byte "
        "counts included) as JSON",
    )
    p_cache_stats.set_defaults(func=cmd_cache)
    p_cache_clear = cache_sub.add_parser("clear", help="delete every entry")
    p_cache_clear.add_argument("--cache-dir", default=None)
    p_cache_clear.set_defaults(func=cmd_cache)

    p_mono = sub.add_parser("mono", help="monovariant (Binkley) slice")
    p_mono.add_argument("file")
    p_mono.add_argument("--print", dest="print_index", type=int, default=0)
    p_mono.set_defaults(func=cmd_mono)

    p_remove = sub.add_parser("remove", help="feature removal")
    p_remove.add_argument("file")
    p_remove.add_argument("--feature", required=True)
    p_remove.set_defaults(func=cmd_remove)

    p_run = sub.add_parser("run", help="interpret the program")
    p_run.add_argument("file")
    p_run.add_argument("--inputs", default="")
    p_run.add_argument("--max-steps", type=int, default=1_000_000)
    p_run.set_defaults(func=cmd_run)

    p_bta = sub.add_parser("bta", help="binding-time analysis")
    p_bta.add_argument("file")
    p_bta.set_defaults(func=cmd_bta)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
    except TinyCError as exc:
        return _user_error(_located(args.file, exc))
    except UserError as exc:
        return _user_error(str(exc))
    print(output)
    return 0


def _user_error(line):
    print(line, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
