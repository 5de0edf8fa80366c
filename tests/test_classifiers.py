"""Tests for the from-scratch logistic regression and random forest."""

import numpy as np
import pytest

from ganfs import classifiers
from ganfs.classifiers import (
    LogisticRegression, RandomForest, fit_tree, gini, tree_predict_proba,
)


def blob_data(n=200, d=5, informative=0, seed=0):
    """Two linearly separated clouds differing only in one feature."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.5, 0.1, size=(n, d))
    y = np.zeros(n, dtype=np.int64)
    y[: n // 2] = 1
    x[: n // 2, informative] += 0.4
    return x, y


def test_logreg_zero_init_predicts_half(monkeypatch):
    monkeypatch.setattr(classifiers, "MAX_ITER", 0)
    model = LogisticRegression()
    model.fit(np.array([[1.0], [2.0]]), np.array([0, 1]))
    assert model.predict_proba(np.array([[5.0]]))[0] == 0.5
    assert model.n_iter_ == 0


def test_logreg_first_step_is_the_bce_gradient(monkeypatch):
    # from zero weights p = 0.5, so step one must be -lr * x^T (0.5 - y) / n
    monkeypatch.setattr(classifiers, "MAX_ITER", 1)
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    y = np.array([1.0, 0.0])
    assert classifiers.LR == 0.1
    model = LogisticRegression().fit(x, y)
    expected_w = -0.1 * (x.T @ (0.5 - y)) / 2.0
    expected_b = -0.1 * np.mean(0.5 - y)
    assert model.w == pytest.approx(expected_w, abs=1e-15)
    assert model.b == pytest.approx(expected_b, abs=1e-15)


def test_logreg_stops_when_gradient_vanishes():
    # all-zero features with balanced labels give an exactly zero gradient
    model = LogisticRegression().fit(np.zeros((2, 1)), np.array([0, 1]))
    assert model.n_iter_ == 0


def test_logreg_separates_a_threshold():
    x = np.array([[0.1], [0.2], [0.8], [0.9]])
    y = np.array([0, 0, 1, 1])
    model = LogisticRegression().fit(x, y)
    assert model.predict(x).tolist() == [0, 0, 1, 1]
    assert model.n_iter_ <= 1000


def test_gini_values():
    assert gini(2, 4) == 0.5
    assert gini(0, 4) == 0.0
    assert gini(4, 4) == 0.0
    # weighted child impurity for halves (2,2) and (4,0) is 0.25
    assert (4 * gini(2, 4) + 4 * gini(4, 0)) / 8 == 0.25


def test_tree_splits_at_the_midpoint():
    x = np.array([[5.0], [10.0], [20.0], [30.0]])
    y = np.array([0, 0, 1, 1])
    root, imp = fit_tree(x, y)
    assert root.feature == 0
    assert root.threshold == 15.0
    assert root.left.is_leaf and root.left.prob == 0.0
    assert root.right.is_leaf and root.right.prob == 1.0
    # one perfect split at the root: importance is the parent impurity
    assert imp[0] == pytest.approx(0.5, abs=1e-15)


def test_tree_tie_breaks_toward_the_first_candidate():
    # thresholds 1.5 and 3.5 tie exactly (both give (4*0.5 + 2*0) / 6);
    # the earlier candidate wins
    x = np.arange(6.0).reshape(-1, 1)
    y = np.array([0, 0, 1, 1, 0, 0])
    root, _ = fit_tree(x, y)
    assert root.threshold == 1.5


def test_pure_node_is_a_leaf():
    root, imp = fit_tree(np.array([[1.0], [2.0]]), np.array([1, 1]))
    assert root.is_leaf and root.prob == 1.0
    assert np.all(imp == 0.0)


def test_tree_predict_matches_structure():
    x = np.array([[5.0], [10.0], [20.0], [30.0]])
    y = np.array([0, 0, 1, 1])
    root, _ = fit_tree(x, y)
    probe = np.array([[0.0], [14.9], [15.1], [100.0]])
    assert tree_predict_proba(root, probe).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_forest_is_deterministic_and_accurate():
    x, y = blob_data()
    a = RandomForest(n_trees=20, seed=5).fit(x, y)
    b = RandomForest(n_trees=20, seed=5).fit(x, y)
    probe, probe_y = blob_data(seed=1)
    assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))
    assert np.mean(a.predict(probe) == probe_y) > 0.97
    c = RandomForest(n_trees=20, seed=6).fit(x, y)
    assert not np.array_equal(a.predict_proba(probe), c.predict_proba(probe))


def test_forest_importance_finds_the_planted_feature():
    x, y = blob_data(informative=3)
    model = RandomForest(n_trees=30, seed=0).fit(x, y)
    imp = model.feature_importances_
    assert imp.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(imp >= 0.0)
    assert int(np.argmax(imp)) == 3


def test_forest_sqrt_feature_subsets(monkeypatch):
    drawn = []

    def spy(x, y, rng=None, max_features=None):
        drawn.append(max_features)
        return fit_tree(x, y, rng=rng, max_features=max_features)

    monkeypatch.setattr(classifiers, "fit_tree", spy)
    for d in (81, 20, 1):
        x, y = blob_data(n=10, d=d)
        RandomForest(n_trees=1).fit(x, y)
    assert drawn == [9, 5, 1]


def test_single_tree_forest_equals_its_tree():
    x, y = blob_data(n=60)
    model = RandomForest(n_trees=1, seed=2).fit(x, y)
    probe, _ = blob_data(n=30, seed=3)
    assert np.array_equal(model.predict_proba(probe),
                          tree_predict_proba(model.trees[0], probe))
