"""Tests for the classical selectors against small hand-computed tables."""

import math
import tracemalloc

import numpy as np
import pytest

from ganfs.baselines import (
    _standardize, anova_f, baseline_scores, bin_feature, chi_square,
    mutual_information, rfe_ranking,
)


def test_bin_feature_edges_and_constants():
    col = np.array([0.0, 0.05, 0.95, 1.0])
    assert bin_feature(col, bins=10).tolist() == [0, 0, 9, 9]
    assert bin_feature(np.full(5, 3.3), bins=10).tolist() == [0] * 5
    with pytest.raises(ValueError, match="bins"):
        bin_feature(col, bins=1)


def test_mi_of_a_label_copy_is_ln2():
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    mi = mutual_information(y.astype(float), y, bins=2)
    assert mi == pytest.approx(math.log(2.0), abs=1e-12)


def test_mi_of_a_constant_is_zero():
    y = np.array([0, 1, 0, 1])
    assert mutual_information(np.full(4, 0.7), y) == 0.0


def test_mi_matches_a_hand_summed_table():
    # joint counts [[2, 1], [1, 2]]: sum p log(p / (px py)) term by term
    col = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    y = np.array([0, 0, 1, 0, 1, 1])
    expected = 0.0
    for pxy, px, py in [(2 / 6, 3 / 6, 3 / 6), (1 / 6, 3 / 6, 3 / 6),
                        (1 / 6, 3 / 6, 3 / 6), (2 / 6, 3 / 6, 3 / 6)]:
        expected += pxy * math.log(pxy / (px * py))
    assert mutual_information(col, y, bins=2) == pytest.approx(expected,
                                                               abs=1e-9)


def test_chi2_independent_table_is_zero():
    # counts [[10, 10], [10, 10]]: observed equals expected everywhere
    col = np.repeat([0.0, 1.0], 20)
    y = np.tile([0, 1], 20)
    assert chi_square(col, y, bins=2) == 0.0


def test_chi2_perfect_association_equals_n():
    # counts [[20, 0], [0, 20]]: statistic is exactly n = 40
    col = np.repeat([0.0, 1.0], 20)
    y = np.repeat([0, 1], 20)
    assert chi_square(col, y, bins=2) == 40.0


def test_chi2_matches_a_hand_summed_table():
    # counts [[3, 1], [0, 2], [2, 2]] after binning three distinct values
    col = np.array([0.0] * 4 + [0.5] * 2 + [1.0] * 4)
    y = np.array([0, 0, 0, 1, 1, 1, 0, 0, 1, 1])
    table = [[3, 1], [0, 2], [2, 2]]
    n = 10
    expected_stat = 0.0
    for r in range(3):
        for c in range(2):
            e = sum(table[r]) * sum(row[c] for row in table) / n
            expected_stat += (table[r][c] - e) ** 2 / e
    assert chi_square(col, y, bins=3) == pytest.approx(expected_stat, abs=1e-9)


def test_chi2_drops_empty_bins():
    # ten bins but only two distinct values: eight empty rows must not
    # poison the expected counts
    col = np.repeat([0.0, 1.0], 10)
    y = np.repeat([0, 1], 10)
    assert chi_square(col, y, bins=10) == 20.0


def test_anova_hand_oracle():
    col = np.array([1.0, 2.0, 3.0, 2.0, 3.0, 4.0])
    y = np.array([0, 0, 0, 1, 1, 1])
    assert anova_f(col, y) == pytest.approx(1.5, abs=1e-12)


def test_anova_degenerate_variance_cases():
    y = np.array([0, 0, 1, 1])
    assert anova_f(np.array([1.0, 1.0, 2.0, 2.0]), y) == float("inf")
    assert anova_f(np.ones(4), y) == 0.0


@pytest.mark.parametrize("n0, n1", [(20, 20), (3, 7), (50, 13)])
def test_anova_constant_column_scores_zero(n0, n1):
    # the class means of np.full(n, 0.3) differ in the last bits, which
    # once gave F = 38.0, inf and 161.7 for these splits
    y = np.array([0] * n0 + [1] * n1)
    col = np.full(n0 + n1, 0.3)
    assert anova_f(col, y) == 0.0
    x = np.column_stack([col, np.arange(n0 + n1) % 5 + 2.0 * y])
    scores = baseline_scores("anova", x, y)
    assert scores[0] == 0.0 and scores[1] > 0.0


def test_selectors_require_both_classes():
    col = np.array([0.0, 1.0])
    for fn in (lambda: mutual_information(col, np.array([1, 1])),
               lambda: chi_square(col, np.array([0, 0])),
               lambda: anova_f(col, np.array([1, 1]))):
        with pytest.raises(ValueError, match="both classes"):
            fn()


def planted(n=120, d=6, informative=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, d))
    y = np.repeat([1, 0], n // 2)
    x[: n // 2, informative] += 0.8
    return x, y


def test_rfe_scores_are_an_elimination_permutation():
    x, y = planted()
    scores = rfe_ranking(x, y)
    assert sorted(scores.tolist()) == list(range(1, 7))
    assert int(np.argmax(scores)) == 2  # planted feature survives longest
    assert np.array_equal(scores, rfe_ranking(x, y))


@pytest.mark.parametrize("value", [0.0, 0.1])
def test_rfe_eliminates_a_constant_column_first(value):
    # np.full(300, 0.1) has a std of 1.39e-17, not 0.0, which once
    # standardized it to all -1.0 and ranked it above two noise features
    x, y = planted(n=300, d=3)
    x = np.column_stack([x, np.full(300, value)])
    assert rfe_ranking(x, y)[3] == 1.0


def test_standardize_divides_in_place_with_the_bits_of_one_expression():
    # a constant 0.1 column (std 1.39e-17), a zero column and columns of
    # very different scales; the old expression allocated the centred
    # matrix and then the quotient
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2000, 6)) * np.array([1e-6, 1.0, 1e6, 3.0, 1, 1])
    x[:, 4], x[:, 5] = 0.1, 0.0
    std = x.std(axis=0)
    want = (x - x.mean(axis=0)) / np.where(std == 0.0, 1.0, std)
    want[:, x.min(axis=0) == x.max(axis=0)] = 0.0
    tracemalloc.start()
    try:
        z = _standardize(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(z.view(np.int64), want.view(np.int64))
    assert not z[:, 4:].any()
    assert peak < 2 * x.nbytes  # x.std's own transient, then z alone


def test_every_method_ranks_the_planted_feature_first():
    x, y = planted()
    for method in ("mi", "chi2", "anova", "rfe", "rf"):
        scores = baseline_scores(method, x, y, rf_trees=20)
        assert scores.shape == (6,)
        assert int(np.argmax(scores)) == 2, method


def test_unknown_method_is_an_error():
    with pytest.raises(ValueError, match="unknown selector"):
        baseline_scores("pca", np.zeros((4, 2)), np.array([0, 1, 0, 1]))


def test_mi_scores_vectorizes_over_columns():
    x, y = planted(n=40)
    scores = baseline_scores("mi", x, y)
    assert scores.shape == (6,)
    assert np.all(scores >= 0.0)
