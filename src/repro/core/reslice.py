"""The reslicing validation check (§8.3).

Specialization slicing should be idempotent modulo renaming: slicing the
output SDG ``R`` with the (suitably transduced) criterion must give back
``R``'s own configurations.  Concretely, with ``T_C`` the transducer
mapping R's vertex and call-site symbols to the S symbols they
specialize:

    C' = T_C^{-1}(C) ∩ Poststar[P_R](entry_main)
    check  L(A6_S) == L(T_C(A6_R))

A failed check indicates an implementation bug (the paper's authors used
it the same way); the test suite runs it over every slice of the
benchmark suite.
"""

from repro.core.criteria import (
    as_query_view,
    empty_stack_criterion,
    reachable_query_view,
    rebase_initial,
)
from repro.core.specialize import specialization_slice
from repro.fsa import Transducer, intersection, language_equal
from repro.pds import encode_sdg, poststar


def build_transducer(result):
    """``T_C``: maps R's vertex ids and call-site labels back to S's."""
    transducer = Transducer()
    for new_vid, orig_vid in result.map_back_vertex.items():
        transducer.add(new_vid, orig_vid)
    for new_label, orig_label in result.map_back_site.items():
        transducer.add(new_label, orig_label)
    return transducer


def reslice_check(result, return_details=False):
    """Run the §8.3 check on a :class:`SpecializationResult`.

    Returns True if the reslice of R equals the original slice (modulo
    the alphabet mapping).  With ``return_details`` returns
    ``(ok, a6_s_view, transduced_a6_r)`` for diagnosis.
    """
    r_sdg = result.sdg
    transducer = build_transducer(result)

    if not result.pdgs:
        # Empty slice: trivially idempotent.
        return (True, None, None) if return_details else True

    # R's encoding and its Poststar(entry_main) query view are cached
    # on R (encode_sdg, reachable_query_view), so repeated checks of
    # the same result share them.
    encoding_r = encode_sdg(r_sdg)

    # C' = T^{-1}(C) ∩ Poststar[P_R](entry_main).
    inverse_c = transducer.apply_inverse(result.criterion)
    main_specs = [spec for spec in result.pdgs.values() if spec.proc == "main"]
    if not main_specs:
        return (True, None, None) if return_details else True
    main_name = main_specs[0].name
    if main_name == "main":
        # The usual case: main has one specialization, so the reachable
        # language is R's cached Poststar(entry_main).
        reachable_view = reachable_query_view(encoding_r)
    else:
        entry_r = r_sdg.entry_vertex[main_name]
        reachable_view = as_query_view(
            poststar(encoding_r.pds, empty_stack_criterion(encoding_r, [entry_r])),
            encoding_r,
        )
    product = intersection(reachable_view, inverse_c.trim()).trim()
    criterion_r = rebase_initial(product, encoding_r.main_location)

    # Reslice R.  Not memoized: pinning the full second-generation
    # SpecializationResult (its own SDG and automata) per checked
    # criterion would roughly double the memory retained by every slice
    # the benchmark suite holds.  Only the saturation cached on R's
    # encoding is reused.
    result_r = specialization_slice(r_sdg, criterion_r)

    # Compare L(A6_S) with L(T_C(A6_R)).
    a6_s = result.a6
    a6_r_mapped = transducer.apply(result_r.a6)
    ok = language_equal(a6_s, a6_r_mapped)
    if return_details:
        return ok, a6_s, a6_r_mapped
    return ok
