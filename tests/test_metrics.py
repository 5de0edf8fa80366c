"""Tests for confusion-based metrics and exact ROC/AUC."""

import numpy as np
import pytest

from ganfs.metrics import (
    ConfusionCounts, MetricRow, prf_scores, read_metrics_csv, roc_auc,
    roc_curve, write_metrics_csv,
)


def pair_count_auc(y, scores):
    """Rank-statistic oracle: wins plus half-ties over all pos/neg pairs."""
    pos = scores[np.asarray(y).astype(bool)]
    neg = scores[~np.asarray(y).astype(bool)]
    wins = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
    return wins / (len(pos) * len(neg))


def test_confusion_counts():
    y = np.array([1, 1, 0, 0, 1, 0])
    p = np.array([1, 0, 0, 1, 1, 0])
    c = ConfusionCounts.from_predictions(y, p)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 2, 1)
    assert c.n == 6


def test_prf_hand_oracle():
    # tp=3 fp=1 fn=2: precision 0.75, recall 0.6, f1 = 2pr/(p+r) = 2/3
    scores = prf_scores(ConfusionCounts(tp=3, fp=1, tn=4, fn=2))
    assert scores.precision == 0.75
    assert scores.recall == 0.6
    assert scores.f1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert scores.accuracy == 0.7


def test_prf_degenerate_denominators_are_zero_not_nan():
    # nothing predicted positive: precision undefined, reported as 0.0
    scores = prf_scores(ConfusionCounts(tp=0, fp=0, tn=3, fn=2))
    assert scores.precision == 0.0
    assert scores.recall == 0.0
    assert scores.f1 == 0.0


def test_prf_perfect_prediction():
    scores = prf_scores(ConfusionCounts(tp=5, fp=0, tn=5, fn=0))
    assert scores == (1.0, 1.0, 1.0, 1.0)


def test_auc_extremes():
    y = np.array([0, 0, 1, 1])
    assert roc_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert roc_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0
    # all scores tied: the curve is the diagonal
    assert roc_auc(y, np.full(4, 0.5)) == 0.5


def test_auc_with_ties_matches_pair_counting():
    y = np.array([1, 0, 1])
    scores = np.array([0.5, 0.5, 0.2])
    # pairs: (0.5 vs 0.5) ties for 0.5, (0.2 vs 0.5) loses: (0.5+0)/2
    assert roc_auc(y, scores) == 0.25
    assert pair_count_auc(y, scores) == 0.25


def test_auc_equals_rank_statistic_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        # coarse grid forces plenty of tied scores
        scores = rng.integers(0, 5, size=n) / 4.0
        assert roc_auc(y, scores) == pytest.approx(
            pair_count_auc(y, scores), abs=1e-12)


def test_roc_endpoints_and_shape():
    y = np.array([0, 1, 1, 0, 1])
    fpr, tpr = roc_curve(y, np.array([0.1, 0.9, 0.9, 0.5, 0.3]))
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert np.all(np.diff(fpr) >= 0.0) and np.all(np.diff(tpr) >= 0.0)
    # one point per distinct score plus the origin
    assert len(fpr) == 5


def test_roc_requires_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        roc_auc(np.ones(3), np.array([0.1, 0.2, 0.3]))


def test_metrics_csv_round_trip(tmp_path):
    rows = [MetricRow("sensitivity", "logreg", 10, 0.95, 1.0 / 3.0, 0.9,
                      0.92, 0.99, 1.25),
            MetricRow("mi", "forest", 5, 0.9, 0.8, 0.7, 0.75, 0.88, 10.5)]
    p = tmp_path / "metrics.csv"
    write_metrics_csv(rows, p)
    lines = p.read_text().splitlines()
    assert lines[0] == ("selector,classifier,k,accuracy,precision,recall,"
                        "f1,auc,train_seconds")
    back = read_metrics_csv(p)
    assert back == rows  # repr round-trip keeps every float exact
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="metrics table"):
        read_metrics_csv(bad)


def test_metrics_csv_names_the_bad_row(tmp_path):
    p = tmp_path / "metrics.csv"
    write_metrics_csv([MetricRow("mi", "forest", 5, 0.9, 0.8, 0.7, 0.75,
                                 0.88, 10.5)], p)
    with open(p, "a") as fh:
        fh.write("mi,logreg,5,0.9,0.8\n")
    with pytest.raises(ValueError, match=r"metrics.csv: bad data row 2 "
                                         r"\(5 cells, not 9\)"):
        read_metrics_csv(p)
