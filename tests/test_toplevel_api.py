"""Top-level convenience API tests (``import repro``)."""

import pytest

import repro
from repro.workloads.paper_figures import FIG1_SOURCE, FIG16_SOURCE


pytestmark = pytest.mark.smoke


def test_version():
    assert repro.__version__


def test_load_source():
    program, info, sdg = repro.load_source(FIG1_SOURCE)
    assert sdg.vertex_count() > 0
    assert "p" in info.procs


def test_slice_source_all_prints():
    sliced = repro.slice_source(FIG1_SOURCE)
    text = repro.pretty(sliced.program)
    assert "p_1" in text and "p_2" in text
    assert repro.run_program(sliced.program).values == [5]
    assert sliced.result.version_counts()["p"] == 2


def test_slice_source_by_index():
    sliced = repro.slice_source(FIG16_SOURCE, print_index=0)
    result = repro.run_program(sliced.program, max_steps=5_000_000)
    assert result.values == [21]  # the sum only


@pytest.mark.parametrize("print_index", [-1, 1])
def test_slice_source_rejects_out_of_range_print_index(print_index):
    # FIG1 has one print: -1 is not "the last one", 1 is past the end.
    with pytest.raises(ValueError, match="out of range"):
        repro.slice_source(FIG1_SOURCE, print_index=print_index)


def test_slice_source_lowers_funcptr():
    from repro.workloads.paper_figures import FIG15_SOURCE

    sliced = repro.slice_source(FIG15_SOURCE)
    text = repro.pretty(sliced.program)
    assert "indirect_1" in text


def test_remove_feature_source_cleaned():
    cleaned = repro.remove_feature_source(FIG16_SOURCE, "int prod = 1")
    text = repro.pretty(cleaned.program)
    assert "mult" not in text  # cleanup removed the residue
    result = repro.run_program(cleaned.program, max_steps=5_000_000)
    assert result.values == [21]


def test_remove_feature_source_raw():
    raw = repro.remove_feature_source(FIG16_SOURCE, "int prod = 1", clean=False)
    text = repro.pretty(raw.program)
    assert "mult" in text  # pre-cleanup residue retained


def test_remove_feature_source_no_match():
    with pytest.raises(ValueError):
        repro.remove_feature_source(FIG1_SOURCE, "nothing like this")
