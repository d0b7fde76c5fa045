"""Query-automaton construction for slicing criteria.

A slicing criterion is a regular language of configurations ``(v, w)``:
PDG vertex ``v`` under calling context ``w`` (top of stack first).  The
query automaton reads the vertex symbol from the initial control
location ``p`` and then the context symbols.

Three constructors cover the paper's usage:

* :func:`empty_stack_criterion` — configurations ``(v, ε)``; the Fig. 9
  query (criterion vertices in ``main``).
* :func:`configs_criterion` — an explicit finite set of ``(v, w)``
  pairs; the bug-site criteria used for the Siemens/gzip/space/flex
  experiments (Horwitz et al. 2010 style).
* :func:`reachable_contexts_criterion` — ``(v, w)`` for every context
  ``w`` under which ``v`` can actually occur in the unrolled SDG; the
  "all calling contexts of printf" criterion used for wc and go.  The
  language is ``Poststar(entry_main) ∩ (v · Γ_c*)``, built as a plain
  restriction of the shared Poststar's query view (no product).
"""

from repro.fsa import FiniteAutomaton
from repro.fsa.intops import query_view_int
from repro.pds import poststar
from repro.pds.encode import MAIN_LOCATION

FINAL = "m"


def empty_stack_criterion(encoding, vids):
    """Accepts exactly ``{(v, ε) : v in vids}``."""
    automaton = FiniteAutomaton(initials=[encoding.main_location], finals=[FINAL])
    for vid in vids:
        automaton.add_transition(encoding.main_location, vid, FINAL)
    return automaton


def all_contexts_criterion(encoding, vids):
    """Accepts ``{(v, w) : v in vids, w in Γ_c*}`` — every syntactically
    possible context, including unrealizable ones."""
    automaton = empty_stack_criterion(encoding, vids)
    for site in sorted(encoding.site_symbols):
        automaton.add_transition(FINAL, site, FINAL)
    return automaton


def configs_criterion(encoding, configs):
    """Accepts an explicit finite set of configurations.

    ``configs`` is an iterable of ``(vid, context)`` pairs where
    ``context`` is a tuple of call-site labels, top of stack first
    (innermost call first, ``main``'s site last).

    Each configuration is one chain of states named ``("q", i, k)``:
    the configuration's index ``i`` in the given order and the
    position ``k`` in its chain.  The names depend on nothing else, so
    equal inputs build equal automata in any process, and their
    saturations serialize to equal bytes.
    """
    automaton = FiniteAutomaton(initials=[encoding.main_location], finals=[FINAL])
    for i, (vid, context) in enumerate(configs):
        symbols = (vid,) + tuple(context)
        previous = encoding.main_location
        for k, symbol in enumerate(symbols[:-1]):
            state = ("q", i, k)
            automaton.add_transition(previous, symbol, state)
            previous = state
        automaton.add_transition(previous, symbols[-1], FINAL)
    return automaton


def reachable_query_view(encoding, stats=None):
    """The reachable-configuration language ``Poststar[P](entry_main)``
    — all configurations reachable in the unrolled SDG from
    ``(entry_main, ε)``, used by Alg. 2 line 5 and by the reslicing
    check — as a trimmed single-initial query view
    (:func:`as_query_view`).  Criterion-independent, so cached per
    encoding (``stats`` reaches the saturation only on the cold
    compute).  Every criterion construction and Algorithm 2 run reads
    the Poststar through this view; the session engine installs a
    store-loaded or edit-surviving Poststar artifact here directly,
    which is what lets a warm front half answer a brand-new criterion
    without any Poststar-sized work.
    """
    cached = getattr(encoding, "_reachable_view", None)
    if cached is None:
        query = empty_stack_criterion(encoding, [encoding.sdg.entry_vertex["main"]])
        reachable = poststar(encoding.pds, query, stats=stats)
        cached = as_query_view(reachable, encoding)
        encoding._reachable_view = cached
    return cached


def reachable_contexts_criterion(encoding, vids, view=None):
    """Accepts ``{(v, w) : v in vids, (v, w) reachable}`` — the "slice
    from every calling context of these vertices" criterion.

    The language is ``Poststar(entry_main) ∩ (vids · Γ_c*)``, built as
    a restriction of the reachable query view rather than a product:
    below the stack top every symbol of a configuration is a call site
    (Defn. 3.2), so the ``Γ_c*`` factor never rejects a view path.  The
    view's ``vids`` transitions out of the main location are copied,
    with everything their targets reach; view state ``q`` is named
    ``(q, FINAL)``, which makes the result structurally equal to the
    trimmed product with :func:`all_contexts_criterion` rebased onto
    the main location (the reference oracle's construction).  Cost is
    proportional to the part of the view the criterion reaches.  When
    no criterion vertex is reachable from main (dead code) the result
    accepts nothing and the slice is empty.

    ``view`` restricts an explicit reachable query view instead of the
    encoding's own (``encoding`` may then be None): the incremental
    layer compares an edit's two revisions' criteria this way.
    """
    if view is None:
        view = reachable_query_view(encoding)
    main = MAIN_LOCATION
    automaton = FiniteAutomaton(initials=[main])
    seen = set()
    stack = []
    for vid in vids:
        for state in view.targets(main, vid):
            automaton.add_transition(main, vid, (state, FINAL))
            if state not in seen:
                seen.add(state)
                stack.append(state)
    finals = view.finals
    while stack:
        state = stack.pop()
        if state in finals:
            automaton.add_final((state, FINAL))
        for symbol in view.out_symbols(state):
            for target in view.targets(state, symbol):
                automaton.add_transition((state, FINAL), symbol, (target, FINAL))
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
    return automaton


def as_query_view(automaton, encoding):
    """Restrict a P-automaton to the language read from the main control
    location: same transitions, single initial state ``p``, trimmed —
    over packed rows (:func:`repro.fsa.intops.query_view_int`), with no
    object-by-object copy of the saturation automaton."""
    return query_view_int(automaton, encoding.main_location)


def rebase_initial(automaton, new_initial):
    """Rename the (single) initial state to ``new_initial`` so the
    automaton can serve as a Prestar/Poststar query.  Requires that no
    transition enters the initial state."""
    if len(automaton.initials) != 1:
        raise ValueError("rebase_initial requires exactly one initial state")
    old = next(iter(automaton.initials))
    if old == new_initial:
        return automaton
    for (_src, _symbol, dst) in automaton.transitions():
        if dst == old:
            raise ValueError("initial state has incoming transitions")
    result = FiniteAutomaton(initials=[new_initial])
    for state in automaton.finals:
        result.add_final(new_initial if state == old else state)
    for (src, symbol, dst) in automaton.transitions():
        result.add_transition(
            new_initial if src == old else src,
            symbol,
            new_initial if dst == old else dst,
        )
    return result
