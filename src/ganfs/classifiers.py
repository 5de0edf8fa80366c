"""From-scratch binary classifiers: logistic regression and a random forest.

Logistic regression is full-batch gradient descent on mean BCE with a
gradient-norm stopping rule. The forest grows CART trees on bootstrap
resamples, choosing Gini-optimal midpoint thresholds over a random
feature subset per node, and accumulates Gini importance per feature.
Both expose sklearn-style fit/predict.
"""

import math
from dataclasses import dataclass

import numpy as np

from .nets import sigmoid

# logistic regression: step size, iteration cap and gradient-norm stop
LR = 0.1
MAX_ITER = 1000
TOL = 1e-6


class LogisticRegression:
    """Binary logistic regression, zero-initialized, full-batch descent."""

    def __init__(self):
        self.w = None
        self.b = 0.0
        self.n_iter_ = 0

    def fit(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("x must be (n, d) with matching labels")
        n, d = x.shape
        self.w = w = np.zeros(d)
        self.b = 0.0
        self.n_iter_ = 0
        # allocated once per fit and reused by every descent step
        p = np.empty(n)
        r = np.empty(n)
        gw = np.empty(d)
        tmp = np.empty(d)
        xt = x.T
        for _ in range(MAX_ITER):
            np.matmul(x, w, out=p)
            p += self.b
            sigmoid(p, out=p)
            np.subtract(p, y, out=r)
            np.matmul(xt, r, out=gw)
            gw /= n
            gb = float(r.sum() / n)
            if max(np.abs(gw, out=tmp).max(initial=0.0), abs(gb)) < TOL:
                break
            np.multiply(gw, LR, out=tmp)
            w -= tmp
            self.b -= LR * gb
            self.n_iter_ += 1
        return self

    def predict_proba(self, x):
        if self.w is None:
            raise ValueError("fit before predict")
        return sigmoid(np.asarray(x, dtype=np.float64) @ self.w + self.b)

    def predict(self, x):
        return (self.predict_proba(x) >= 0.5).astype(np.int64)


@dataclass
class TreeNode:
    prob: float  # class-1 probability at this node
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self):
        return self.feature < 0


def gini(pos, n):
    """Gini impurity of a node with ``pos`` positives out of ``n``."""
    if n == 0:
        return 0.0
    p = pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_split(x, idx, y, features):
    """Best (decrease, feature, threshold) for rows ``idx`` of ``x``.

    ``y`` holds the labels of those rows. Candidate thresholds are
    midpoints between consecutive distinct sorted values of each drawn
    feature; split quality is the decrease in Gini impurity. One stable
    sort and one prefix sum over the block of drawn columns score every
    candidate of every feature at once. A position between equal values
    is masked with +inf, so each column's first minimum is its earliest
    best candidate, and the columns are then visited in draw order,
    replacing the best only on a strictly larger decrease. Returns None
    when no split strictly decreases impurity.
    """
    n = len(y)
    total_pos = int(y.sum())
    parent = gini(total_pos, n)
    cols = x[np.ix_(idx, features)]
    order = np.argsort(cols, axis=0, kind="stable")
    cs = np.take_along_axis(cols, order, axis=0)
    distinct = cs[:-1] < cs[1:]  # split after these rows
    left_n = np.arange(1, n)[:, None]
    left_pos = np.cumsum(y[order], axis=0)[:-1]
    right_n = n - left_n
    right_pos = total_pos - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    gl = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    gr = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    weighted = (left_n * gl + right_n * gr) / n
    weighted[~distinct] = np.inf
    ks = np.argmin(weighted, axis=0)
    best = None
    for c in np.flatnonzero(distinct.any(axis=0)):
        k = ks[c]
        decrease = parent - float(weighted[k, c])
        if decrease > 0.0 and (best is None or decrease > best[0]):
            threshold = (cs[k, c] + cs[k + 1, c]) / 2.0
            best = (decrease, features[c], threshold)
    return best


def fit_tree(x, y, rng=None, max_features=None):
    """Grow a CART tree; returns (root, raw Gini importance per feature).

    ``max_features`` limits each node's split search to that many randomly
    drawn features; a node whose drawn features admit no impurity-reducing
    split becomes a leaf. Importance accumulates
    (n_node / n_root) * impurity_decrease at every split.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_root, d = x.shape
    if max_features is None or max_features >= d:
        max_features = d
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    if max_features < d and rng is None:
        raise ValueError("random feature subsets need an rng")
    importance = np.zeros(d)

    def grow(idx):
        ys = y[idx]
        pos = int(ys.sum())
        node = TreeNode(prob=pos / len(idx))
        if pos == 0 or pos == len(idx):
            return node
        if max_features < d:
            features = rng.choice(d, size=max_features, replace=False)
        else:
            features = np.arange(d)
        found = _best_split(x, idx, ys, features)
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

    root = grow(np.arange(n_root))
    return root, importance


def tree_predict_proba(root: TreeNode, x):
    """Class-1 probability per row, routing index blocks down the tree."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(len(x))
    stack = [(root, np.arange(len(x)))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.prob
        else:
            mask = x[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out


class RandomForest:
    """Bagged CART trees with sqrt-of-d feature subsets per split."""

    def __init__(self, n_trees=100, seed=0):
        self.n_trees = n_trees
        self.seed = seed
        self.trees = []
        self.feature_importances_ = None

    def fit(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = x.shape
        mf = min(d, math.ceil(math.sqrt(d)))
        self.trees = []
        importances = np.zeros(d)
        for ss in np.random.SeedSequence(self.seed).spawn(self.n_trees):
            rng = np.random.default_rng(ss)
            boot = rng.integers(0, n, size=n)
            root, imp = fit_tree(x[boot], y[boot], rng=rng, max_features=mf)
            self.trees.append(root)
            total = imp.sum()
            if total > 0.0:
                importances += imp / total
        total = importances.sum()
        self.feature_importances_ = (importances / total if total > 0.0
                                     else importances)
        return self

    def predict_proba(self, x):
        if not self.trees:
            raise ValueError("fit before predict")
        probs = np.zeros(len(x))
        for root in self.trees:
            probs += tree_predict_proba(root, x)
        return probs / len(self.trees)

    def predict(self, x):
        return (self.predict_proba(x) >= 0.5).astype(np.int64)
