"""The summary rule of scripts/bench_pairs.py on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_are_linear_percentiles():
    assert bench_pairs.quartiles([4, 1, 3, 2]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summary_counts_pair_wins_and_reads_the_parents_spread():
    # pair i is (parent[i], change[i]); the change is lower in 4 pairs and
    # higher in one
    got = bench_pairs.summarize([10, 12, 11, 13, 9], [9, 11, 12, 10, 8])
    assert got["parent"] == {"q1": 10.0, "median": 11.0, "q3": 12.0}
    assert got["change"] == {"q1": 9.0, "median": 10.0, "q3": 11.0}
    assert got["relative_change_of_median"] == pytest.approx(10 / 11 - 1)
    assert (got["change_lower_pairs"], got["change_higher_pairs"]) == (4, 1)
    assert got["parent_iqr"] == 2.0 and got["parent_iqr_relative"] == pytest.approx(2 / 11)
    assert got["median_gap_exceeds_parent_iqr"] is False
    # a tie counts for neither side, and a gap wider than the IQR is flagged
    wide = bench_pairs.summarize([10, 10, 10, 10], [7, 10, 7, 7])
    assert (wide["change_lower_pairs"], wide["change_higher_pairs"]) == (3, 0)
    assert wide["parent_iqr"] == 0.0 and wide["median_gap_exceeds_parent_iqr"] is True
