import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
compare = bench_pairs.compare

PARENT = [0.090, 0.091, 0.092, 0.093, 0.094, 0.095, 0.096, 0.097, 0.098, 0.099]


def test_compare_claims_a_clear_gain():
    stats = compare(PARENT, [p - 0.02 for p in PARENT], "lower")
    assert stats["wins"] == stats["pairs"] == 10
    assert stats["gain"] is True
    median, q1, q3 = stats["parent"]
    assert median == pytest.approx(0.0945)
    # statistics.quantiles' default (exclusive) method.
    assert (q1, q3) == pytest.approx((0.09175, 0.09725))
    assert stats["change"][0] == pytest.approx(0.0745)


def test_compare_needs_nine_wins_in_ten():
    change = [p - 0.02 for p in PARENT]
    change[0] = change[1] = 0.2  # two losses
    stats = compare(PARENT, change, "lower")
    assert stats["wins"] == 8 and stats["gain"] is False
    change[1] = PARENT[1]  # a tie counts for neither side
    stats = compare(PARENT, change, "lower")
    assert stats["wins"] == 8 and stats["gain"] is False
    change[1] = PARENT[1] - 0.02
    assert compare(PARENT, change, "lower")["gain"] is True


def test_compare_needs_a_gap_beyond_the_parents_iqr():
    # Every pair won, but by less than the parent's spread.
    stats = compare(PARENT, [p - 0.001 for p in PARENT], "lower")
    assert stats["wins"] == 10 and stats["gain"] is False


def test_compare_reports_the_median_paired_difference():
    # Each pair moves by its own amount; the median of change - parent is
    # the middle move, whatever the medians of the two sides.
    change = [p + d for p, d in zip(PARENT, [-0.003, 0.001, 0.002, -0.001, 0.0005, 0.004, -0.002, 0.001, 0.003, 0.0])]
    assert compare(PARENT, change, "lower")["diff"] == pytest.approx(0.00075)
    assert compare(PARENT, change, "higher")["diff"] == pytest.approx(0.00075)
    assert compare(PARENT, [p - 0.02 for p in PARENT], "lower")["diff"] == pytest.approx(-0.02)


def test_compare_respects_the_direction():
    higher = [p + 0.02 for p in PARENT]
    assert compare(PARENT, higher, "higher")["gain"] is True
    assert compare(PARENT, higher, "lower")["wins"] == 0


def test_compare_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        compare(PARENT, PARENT[:-1], "lower")
    with pytest.raises(ValueError):
        compare([1.0], [0.5], "lower")
