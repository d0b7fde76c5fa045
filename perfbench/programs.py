"""The benchmark's input programs and the edits replayed on them.

Program content is fixed per workload, and every seed does the same
kind of edit on procedures of the same shape, so runs with different
seeds do the same amount of work; the seed draws the rest (program
order, which of the identical wc categories the first edit touches,
the interpreter inputs of the output check).  A label edit bumps a literal
to a value no earlier revision used and a structural edit inserts a
declaration under a name no earlier revision used, so no revision text
ever repeats and no edit undoes an earlier one.
"""

import re

from repro.engine import procedure_keys
from repro.lang import pretty
from repro.workloads.generator import GenConfig, generate_program
from repro.workloads.wc import scaled_wc_source

#: the local declaration a structural edit inserts at the top of a body
#: (the name ends in a letter, so ``LITERAL_ASSIGN`` never matches it)
STRUCT_LINE = "  int bench_%d_t = 1;\n"


def chain_source(length):
    """A call chain of ``length`` procedures with one print: ``main``
    feeds an input down the chain and the last link stores it in a
    global (the shape on which mod/ref analysis dominates)."""
    parts = ["int g;"]
    for index in range(length):
        body = "p%d(x + 1);" % (index + 1) if index + 1 < length else "g = x;"
        parts.append("void p%d(int x) {\n  %s\n}" % (index, body))
    parts.append(
        "int main() {\n  g = 0;\n  int v = input();\n  p0(v);\n"
        '  print("%d\\n", g);\n  return 0;\n}'
    )
    return "\n".join(parts) + "\n"


#: generator shapes
SHAPES = {
    # the suite's replace_like shape with 12 procedures instead of 20: a
    # size at which a run holds enough cold starts and edits for steady
    # medians
    "replace_small": dict(
        n_globals=9, n_procs=12, stmts_low=4, stmts_high=8,
        recursion_prob=0.15, globals_per_proc=2, main_prints=5,
    ),
    # the self-test's and the warm-up's stand-in
    "tiny": dict(n_globals=4, n_procs=4, stmts_low=2, stmts_high=4, main_prints=2),
}


def generated_source(shape, generator_seed):
    program, _info = generate_program(GenConfig(seed=generator_seed, **SHAPES[shape]))
    return pretty(program)


def _body_span(text, proc):
    """``(start, end)`` of a procedure body's statements in ``text``."""
    match = re.search(r"\n\w+ %s\([^)]*\) \{\n" % re.escape(proc), text)
    return match.end(), text.index("\n}\n", match.end())


def bump_literal(text, proc, pattern, value):
    """Replace the first ``pattern`` match's group 1 inside ``proc``
    with ``value`` (a label-only edit: same dependences, new label)."""
    start, end = _body_span(text, proc)
    match = re.compile(pattern).search(text, start, end)
    return text[: match.start(1)] + str(value) + text[match.end(1) :]


def insert_struct(text, proc, value):
    """Insert a fresh local declaration at the top of ``proc`` (a
    structural edit: a vertex appears)."""
    start, _end = _body_span(text, proc)
    return text[:start] + STRUCT_LINE % value + text[start:]


class Editor(object):
    """Edits one procedure: a label edit bumps a literal to ``value``,
    a structural edit declares a local named after ``value`` (fresh per
    edit, supplied by the run)."""

    def __init__(self, proc, pattern):
        self.proc = proc
        self.pattern = pattern

    def edit(self, kind, text, value):
        if kind == "edit_label":
            return bump_literal(text, self.proc, self.pattern, value)
        return insert_struct(text, self.proc, value)


class Program(object):
    """A workload program: name, source text, and how to pick the
    procedure its edits touch."""

    def __init__(self, name, text, pick_editor, inputs):
        self.name = name
        self.text = text
        self.pick_editor = pick_editor  # (session, results, run) -> Editor
        self.inputs = inputs  # (rng) -> list of input vectors


def wc_program(categories):
    def pick(session, results, run):
        return wc_editor(run.rotate(categories))

    return Program("wc%d" % categories, scaled_wc_source(categories), pick, text_inputs)


def wc_editor(category):
    return Editor("count_cat_%d" % category, r"cat_\d+ = cat_\d+ \+ (\d+);")


def chain_program(length):
    def pick(session, results, run):
        # links differ in how much of the chain lies below them, so
        # every seed edits the middle one
        return Editor("p%d" % (length // 2), r"\(x \+ (\d+)\);")

    return Program("chain%d" % length, chain_source(length), pick, int_inputs)


def generated_program(shape, generator_seed):
    def pick(session, results, run):
        return typical_editor(session, results)

    return Program(
        "%s_%d" % (shape, generator_seed),
        generated_source(shape, generator_seed),
        pick,
        int_inputs,
    )


#: a literal assignment to a generated name (generated names end in a
#: digit, which keeps the inserted ``bench_t`` declaration out)
LITERAL_ASSIGN = r"\d = (\d+);\n"


def typical_editor(session, results):
    """Edit a typical procedure: of those (not ``main``) with a literal
    assignment to bump, the one with the median number of answered
    slices depending on it (ties by name, so every seed edits the same
    procedure and does the same work)."""
    keys = procedure_keys(session.program, session.info)
    text = session.source
    candidates = []
    for proc, key in sorted(keys.items()):
        if proc == "main":
            continue
        start, end = _body_span(text, proc)
        if re.compile(LITERAL_ASSIGN).search(text, start, end) is None:
            continue
        shared = sum(1 for result in results if result.footprint and key in result.footprint)
        candidates.append((shared, proc))
    candidates.sort()
    return Editor(candidates[len(candidates) // 2][1], LITERAL_ASSIGN)


def text_inputs(rng):
    """wc inputs: two seeded texts as 0-terminated character codes."""
    alphabet = "abcdefgh ij\n\t.,0123"
    return [
        [ord(rng.choice(alphabet)) for _ in range(40)] + [0]
        for _vector in range(2)
    ]


def int_inputs(rng):
    return [[rng.randint(-4, 9) for _ in range(25)] for _vector in range(2)]
