"""The untimed output check behind ``error_rate``.

Every sampled slice is run, together with the original program, in the
TinyC interpreter on seeded inputs; the values printed at the
criterion's print must match.  The reference is always the interpreter
on the original revision text (parsed afresh here), never the slicer.
Feature-removal outputs must parse, type-check and run.

Statement uids are process-global counters, so the criterion print is
located by its position among the program's print statements in text
order, which is the same in the session's parse and in the fresh one.
A print criterion's slice keeps no other print (prints define nothing
another statement could depend on), so everything the slice prints is
compared; its ``stmt_map`` is not consulted, because after a label-only
``update_source`` a memoized executable's map still names the previous
parse's statements.
"""

from repro.lang import ast_nodes as A
from repro.lang import check, parse
from repro.lang.interp import ExecutionLimitExceeded, run_program

MAX_STEPS = 2_000_000


def print_uids(program):
    """Statement uids of every ``print``, in text order."""
    return [
        stmt.uid
        for proc in program.procs
        for stmt in A.walk_stmts(proc.body)
        if isinstance(stmt, A.Print)
    ]


class SliceSample(object):
    """One rendered slice kept for checking; ``ordinal`` is the
    criterion print's position in text order."""

    __slots__ = ("revision", "ordinal", "program")

    def __init__(self, revision, ordinal, program):
        self.revision = revision
        self.ordinal = ordinal
        self.program = program


def sample_slice(session, revision, index, executable):
    """A :class:`SliceSample` for criterion ``("print", index)``."""
    sdg = session.sdg
    uid = sdg.vertices[sdg.print_call_vertices()[index]].stmt_uid
    ordinal = print_uids(session.program).index(uid)
    return SliceSample(revision, ordinal, executable.program)


def corrupt(sample):
    """Drop the criterion print from a sample's slice (self-test aid);
    the check must catch it."""
    for proc in sample.program.procs:
        _drop_prints(proc.body)


def _drop_prints(block):
    block.stmts = [stmt for stmt in block.stmts if not isinstance(stmt, A.Print)]
    for stmt in block.stmts:
        if isinstance(stmt, A.If):
            _drop_prints(stmt.then)
            if stmt.els is not None:
                _drop_prints(stmt.els)
        elif isinstance(stmt, A.While):
            _drop_prints(stmt.body)


class Checker(object):
    """Runs the deferred checks; caches the reference run per revision
    and input vector."""

    def __init__(self, inputs):
        self.inputs = inputs  # list of input vectors
        self._originals = {}

    def _reference(self, revision):
        cached = self._originals.get(revision)
        if cached is None:
            program = parse(revision)
            check(program)
            uids = print_uids(program)
            runs = []
            for vector in self.inputs:
                try:
                    runs.append(run_program(program, vector, max_steps=MAX_STEPS))
                except ExecutionLimitExceeded:
                    runs.append(None)
            cached = self._originals[revision] = (uids, runs)
        return cached

    def slice_ok(self, sample):
        """True when the slice prints the original's values at the
        criterion print on every input vector the original finishes."""
        uids, runs = self._reference(sample.revision)
        target = uids[sample.ordinal]
        for vector, original in zip(self.inputs, runs):
            if original is None:
                continue
            expected = [values for uid, _fmt, values in original.prints if uid == target]
            result = run_program(sample.program, vector, max_steps=MAX_STEPS)
            got = [values for _uid, _fmt, values in result.prints]
            if got != expected:
                return False
        return True

    def residual_ok(self, text):
        """A feature-removal output parses, type-checks and runs (a step
        budget stop still counts as running)."""
        program = parse(text)
        check(program)
        for vector in self.inputs:
            try:
                run_program(program, vector, max_steps=MAX_STEPS)
            except ExecutionLimitExceeded:
                pass
        return True
