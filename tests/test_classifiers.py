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


# --- the plain loops the fast paths replace, kept as bitwise oracles ---

def descent_oracle(x, y):
    """Full-batch descent with a fresh array per operation: (w, b, iters)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    w = np.zeros(x.shape[1])
    b = 0.0
    iters = 0
    for _ in range(classifiers.MAX_ITER):
        p = classifiers.sigmoid(x @ w + b)
        gw = x.T @ (p - y) / n
        gb = float(np.mean(p - y))
        if max(np.abs(gw).max(initial=0.0), abs(gb)) < classifiers.TOL:
            break
        w -= classifiers.LR * gw
        b -= classifiers.LR * gb
        iters += 1
    return w, b, iters


def split_oracle(x, y, features):
    """Per-feature split search over a node's rows ``x``."""
    n = len(y)
    total_pos = int(y.sum())
    parent = gini(total_pos, n)
    best = None
    for f in features:
        col = x[:, f]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        ys = y[order]
        distinct = np.flatnonzero(cs[:-1] < cs[1:])
        if distinct.size == 0:
            continue
        left_n = distinct + 1
        left_pos = np.cumsum(ys)[distinct]
        right_n = n - left_n
        right_pos = total_pos - left_pos
        pl = left_pos / left_n
        pr = right_pos / right_n
        gl = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
        gr = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
        weighted = (left_n * gl + right_n * gr) / n
        k = int(np.argmin(weighted))
        decrease = parent - float(weighted[k])
        if decrease > 0.0 and (best is None or decrease > best[0]):
            threshold = (cs[distinct[k]] + cs[distinct[k] + 1]) / 2.0
            best = (decrease, f, threshold)
    return best


def tree_oracle(x, y, rng=None, max_features=None):
    """fit_tree with a full row copy and the per-feature search per node."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_root, d = x.shape
    if max_features is None or max_features >= d:
        max_features = d
    importance = np.zeros(d)

    def grow(idx):
        ys = y[idx]
        pos = int(ys.sum())
        node = classifiers.TreeNode(prob=pos / len(idx))
        if pos == 0 or pos == len(idx):
            return node
        if max_features < d:
            features = rng.choice(d, size=max_features, replace=False)
        else:
            features = np.arange(d)
        found = split_oracle(x[idx], ys, features)
        if found is None:
            return node
        decrease, f, threshold = found
        importance[f] += (len(idx) / n_root) * decrease
        node.feature = int(f)
        node.threshold = float(threshold)
        mask = x[idx, f] <= threshold
        node.left = grow(idx[mask])
        node.right = grow(idx[~mask])
        return node

    return grow(np.arange(n_root)), importance


def tree_records(node):
    """Pre-order (feature, threshold bits, prob bits) of every node."""
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        out.append((node.feature,
                    np.float64(node.threshold).view(np.int64).item(),
                    np.float64(node.prob).view(np.int64).item()))
        if not node.is_leaf:
            stack += [node.right, node.left]
    return out


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("d", [2, 5, 40, 81])
def test_logreg_is_bitwise_the_plain_descent_to_max_iter(d):
    # planted, nearly separable classes: the gradient never reaches TOL
    x, y = blob_data(n=240, d=d, informative=d // 2, seed=d)
    model = LogisticRegression().fit(x, y)
    w, b, iters = descent_oracle(x, y)
    assert iters == model.n_iter_ == classifiers.MAX_ITER
    assert np.array_equal(bits(model.w), bits(w))
    assert bits(model.b) == bits(b)


@pytest.mark.parametrize("d", [2, 5, 40, 81])
def test_logreg_is_bitwise_the_plain_descent_to_the_tol_stop(d):
    # labels independent of wide centred features: a finite optimum that
    # descent reaches within TOL well before MAX_ITER
    rng = np.random.default_rng(100 + d)
    x = rng.normal(0.0, 3.0, size=(400, d))
    y = rng.integers(0, 2, size=400)
    model = LogisticRegression().fit(x, y)
    w, b, iters = descent_oracle(x, y)
    assert 0 < iters == model.n_iter_ < classifiers.MAX_ITER
    assert np.array_equal(bits(model.w), bits(w))
    assert bits(model.b) == bits(b)


def tied_columns(n=300, d=12, seed=0):
    """Small-integer columns, so most sorted neighbours are equal."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    x[:, 1] = rng.integers(0, 2, size=n)  # binary
    x[:, 2] = 3.0  # constant: never splittable
    score = x[:, 0] + x[:, 3] - x[:, 5] + rng.integers(0, 3, size=n)
    y = (score > 3).astype(np.int64)
    return x, y


@pytest.mark.parametrize("max_features", [None, 3, 1])
def test_tree_is_bitwise_the_per_feature_search_on_heavy_ties(max_features):
    for seed in range(3):
        x, y = tied_columns(seed=seed)
        root, imp = fit_tree(x, y, rng=np.random.default_rng(seed),
                             max_features=max_features)
        want_root, want_imp = tree_oracle(
            x, y, rng=np.random.default_rng(seed), max_features=max_features)
        assert len(tree_records(root)) > 15
        assert tree_records(root) == tree_records(want_root)
        assert np.array_equal(bits(imp), bits(want_imp))


def test_forest_is_bitwise_the_per_feature_search(monkeypatch):
    x, y = tied_columns(n=200, d=30, seed=4)
    x[:, 7] += np.random.default_rng(4).normal(0.0, 0.5, size=len(x))
    fast = RandomForest(n_trees=4, seed=9).fit(x, y)
    monkeypatch.setattr(classifiers, "fit_tree", tree_oracle)
    slow = RandomForest(n_trees=4, seed=9).fit(x, y)
    for a, b in zip(fast.trees, slow.trees):
        assert tree_records(a) == tree_records(b)
    assert np.array_equal(bits(fast.feature_importances_),
                          bits(slow.feature_importances_))


def test_identical_drawn_columns_split_on_the_first_drawn():
    x, y = tied_columns(n=120, d=6, seed=5)
    x[:, 4] = x[:, 0]
    idx = np.arange(len(x))
    for features, first in (([4, 0, 1], 4), ([0, 4, 1], 0),
                            ([1, 4, 0], 4), ([1, 0, 4], 0)):
        features = np.array(features)
        found = classifiers._best_split(x, idx, y.astype(np.float64),
                                        features)
        assert found[1] == first
        assert found == split_oracle(x, y.astype(np.float64), features)
