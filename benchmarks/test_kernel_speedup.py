"""Fig. 13 through the runtime kernels, checked against the reference.

The Fig. 13 exponential family is the worst case the paper provides:
its k=10 instance pushes the determinize/minimize chain through
thousands of subset states.  This benchmark runs it through
:func:`repro.core.specialize.specialization_slice` — the int-kernel
Prestar and fused MRD chain — and requires the result to be
byte-identical to the reference pipeline of :mod:`tests.reference_oracle`
(object Prestar, object determinize/minimize): same ``a1`` and ``a6``
payloads, same state counts.  The wall time of the kernel-covered
stages goes to :func:`bench_utils.record_bench`.
"""

from bench_utils import record_bench
from repro.core import specialization_slice
from repro.fsa.serialize import automaton_to_payload
from repro.workloads.exponential import exponential_program

from tests.reference_oracle import reference_slice

#: the Fig. 13 instance — large enough that the MRD chain dominates.
K = 10


def test_fig13_matches_reference_oracle():
    _program, _info, sdg = exponential_program(K)
    result = specialization_slice(sdg, sdg.print_criterion(), contexts="empty")
    stats = result.stats
    assert stats["kernel_worklist_pops"] > 0
    assert stats["kernel_rules_compiled"] > 0
    record_bench(
        "fig13_kernel_core",
        k=K,
        core_seconds=stats["prestar_seconds"] + stats["automaton_seconds"],
    )

    _program, _info, fresh = exponential_program(K)
    expected = reference_slice(fresh, fresh.print_criterion(), "empty", trim=False)
    assert automaton_to_payload(result.a1) == automaton_to_payload(expected.a1)
    assert automaton_to_payload(result.a6) == automaton_to_payload(expected.a6)
    assert stats["a6_states"] == len(expected.a6.states)
    assert result.version_counts() == expected.version_counts()
