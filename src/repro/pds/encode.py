"""Encoding an SDG as a PDS (Defn. 3.2, Fig. 8).

Stack symbols are SDG vertex ids (ints) and call-site labels (strings
"C1", "C2", ...), which are disjoint.  A single main control location
``p`` is used everywhere except for parameter-out edges, which introduce
one control location per formal-out vertex:

    flow/control/library edge u -> v      <p, u>   ↪ <p, v>
    call edge c -> e at site C            <p, c>   ↪ <p, e C>
    param-in edge ai -> fi at site C      <p, ai>  ↪ <p, fi C>
    param-out edge fo -> ao at site C     <p, fo>  ↪ <p_fo, ε>
                                          <p_fo, C> ↪ <p, ao>

Summary edges are *not* encoded (the PDS machinery subsumes them).
The transition relation of the encoded PDS is the unrolled SDG
(Defn. 3.4): a configuration ``(p, v C_k ... C_1)`` is the unrolled-SDG
vertex for PDG vertex ``v`` in calling context ``C_k ... C_1`` (top of
stack first, ``main`` at the bottom).
"""

from repro.sdg.graph import CALL, CONTROL, FLOW, LIBRARY, PARAM_IN, PARAM_OUT
from repro.pds.system import PushdownSystem

MAIN_LOCATION = "p"


class SDGEncoding(object):
    """The PDS encoding of an SDG, with the bookkeeping needed to
    interpret automaton states and symbols back in SDG terms."""

    def __init__(self, sdg):
        self.sdg = sdg
        self.pds = PushdownSystem()
        self.main_location = MAIN_LOCATION
        self.fo_location = {}  # formal-out vid -> control location
        self.vertex_symbols = set()
        self.site_symbols = set()
        self._build()

    def __getstate__(self):
        # The encoding travels inside the store's front-half bundle.
        # The reachable-configuration language cached on it (see
        # repro.core.criteria.reachable_query_view) stays behind:
        # saturations are filed on their own, and the bundle must not
        # depend on which queries ran before it was written.
        state = self.__dict__.copy()
        state.pop("_reachable_configs", None)
        state.pop("_reachable_view", None)
        return state

    def _build(self):
        sdg, pds = self.sdg, self.pds
        pds.control_locations.add(MAIN_LOCATION)
        self.vertex_symbols = set(sdg.vertices)
        self.site_symbols = set(sdg.call_sites)

        for (src, dst, kind) in sdg.edges():
            if kind in (CONTROL, FLOW, LIBRARY):
                pds.add_rule(MAIN_LOCATION, src, MAIN_LOCATION, (dst,))
            elif kind == CALL:
                site = sdg.vertices[src].site_label
                pds.add_rule(MAIN_LOCATION, src, MAIN_LOCATION, (dst, site))
            elif kind == PARAM_IN:
                site = sdg.vertices[src].site_label
                pds.add_rule(MAIN_LOCATION, src, MAIN_LOCATION, (dst, site))
            elif kind == PARAM_OUT:
                fo, ao = src, dst
                site = sdg.vertices[ao].site_label
                loc = self._fo_loc(fo)
                pds.add_rule(loc, site, MAIN_LOCATION, (ao,))
            # SUMMARY edges intentionally skipped.

        # One pop rule per formal-out vertex that has outgoing param-out
        # edges (added above lazily via _fo_loc).
        for fo, loc in self.fo_location.items():
            pds.add_rule(MAIN_LOCATION, fo, loc, ())

    def _fo_loc(self, fo):
        if fo not in self.fo_location:
            self.fo_location[fo] = ("p_fo", fo)
        return self.fo_location[fo]

    # -- interpretation helpers ------------------------------------------------

    def alphabet(self):
        """All stack symbols (vertex ids and call-site labels)."""
        return self.vertex_symbols | self.site_symbols

    def is_vertex_symbol(self, symbol):
        return symbol in self.vertex_symbols

    def is_site_symbol(self, symbol):
        return symbol in self.site_symbols

    def elems(self, automaton):
        """``Elems``: the PDG vertices appearing as the first symbol of
        an accepted configuration word — i.e., labels of transitions out
        of the main control location that can reach a final state.

        Works on any P-automaton whose configuration language is read
        from the ``p`` initial state.
        """
        trimmed = automaton.trim()
        result = set()
        for (src, symbol, _dst) in trimmed.transitions():
            if src == self.main_location and symbol in self.vertex_symbols:
                result.add(symbol)
        return result


def encode_sdg(sdg):
    """Encode ``sdg`` as a PDS; returns an :class:`SDGEncoding`.

    The encoding is cached on the SDG (it is criterion-independent), so
    taking many slices of one program pays the encoding cost once.
    """
    cached = getattr(sdg, "_pds_encoding", None)
    if cached is None:
        cached = SDGEncoding(sdg)
        sdg._pds_encoding = cached
    return cached
