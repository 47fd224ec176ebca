"""Verdicts of the compare command on synthetic paired runs."""

import compare


def test_clear_gain_is_better():
    parent = [100.0 + i for i in range(10)]
    change = [130.0 + i for i in range(10)]
    v = compare.verdict(parent, change, "higher", 0.25)
    assert v["verdict"] == "better" and v["wins"] == 1.0


def test_fewer_than_ten_pairs_claim_no_gain():
    assert compare.verdict([100.0, 101.0], [130.0, 131.0], "higher", 0.25)["verdict"] == "same"


def test_regression_beyond_the_bound_is_worse():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [1.4 + 0.01 * i for i in range(10)]  # a time: lower is better
    assert compare.verdict(parent, change, "lower", 0.25)["verdict"] == "worse"


def test_wide_spread_is_unresolved_unless_every_change_run_wins():
    parent = [100.0, 60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0]
    change = [p * 1.02 for p in parent]
    assert compare.verdict(parent, change, "higher", 0.25)["verdict"] == "unresolved"
    change = [200.0 + p for p in parent]
    assert compare.verdict(parent, change, "higher", 0.25)["verdict"] == "better"


def test_ties_count_for_neither_side():
    parent = [10.0] * 10
    v = compare.verdict(parent, list(parent), "higher", 0.25)
    assert v["wins"] == 0.0 and v["verdict"] == "same"
