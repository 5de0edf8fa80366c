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
        b = 0.0
        n_iter = 0
        # allocated once per fit and reused by every descent step
        r = np.empty(n)
        work = np.empty(n)
        gw = np.empty(d)
        tmp = np.empty(d)
        xt = x.T
        for _ in range(MAX_ITER):
            np.dot(x, w, out=r)
            r += b
            sigmoid(r, out=r, work=work)
            r -= y  # the residual p - y
            np.dot(xt, r, out=gw)
            gw /= n
            gb = float(np.add.reduce(r) / n)
            # max(|gw|, |gb|) < TOL; |gb| is tested first and is cheaper
            if abs(gb) < TOL and np.maximum.reduce(
                    np.abs(gw, out=tmp), initial=0.0) < TOL:
                break
            gw *= LR
            w -= gw
            b -= LR * gb
            n_iter += 1
        self.b = b
        self.n_iter_ = n_iter
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
    feature; split quality is the decrease in Gini impurity. One sort and
    one prefix sum over the block of drawn columns score every candidate
    of every feature at once. A position between equal values is masked
    with +inf, so each column's minimum is its best candidate, and the
    columns are then visited in draw order, replacing the best only on a
    strictly larger decrease. The winner splits at its column's first
    minimum. Returns None when no split strictly decreases impurity.

    The sort need not be stable. At an unmasked position the prefix
    holds every row whose value is at most the candidate's, whatever the
    order of equal values, and its label sum is an exact integer.
    """
    n = len(y)
    total_pos = int(np.add.reduce(y))
    parent = gini(total_pos, n)
    cols = x[idx[:, None], features]
    order = cols.argsort(axis=0)
    cs = cols[order, np.arange(len(features))]
    left_n = np.arange(1, n)[:, None]
    left_pos = np.add.accumulate(y[order], axis=0)[:-1]
    right_n = n - left_n
    right_pos = total_pos - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    ql = 1.0 - pl
    qr = 1.0 - pr
    gl = 1.0 - pl * pl - ql * ql
    gr = 1.0 - pr * pr - qr * qr
    weighted = (left_n * gl + right_n * gr) / n
    weighted[~(cs[:-1] < cs[1:])] = np.inf  # no split between equal values
    best = None
    for c, low in enumerate(weighted.min(axis=0).tolist()):
        decrease = parent - low
        if decrease > 0.0 and (best is None or decrease > best[0]):
            best = (decrease, c)
    if best is None:
        return None
    decrease, c = best
    k = weighted[:, c].argmin()
    return decrease, features[c], (cs[k, c] + cs[k + 1, c]) / 2.0


def fit_tree(x, y, rng=None, max_features=None):
    """Grow a CART tree; returns (root, raw Gini importance per feature).

    ``max_features`` limits each node's split search to that many randomly
    drawn features; a node whose drawn features admit no impurity-reducing
    split becomes a leaf. Importance accumulates
    (n_node / n_root) * impurity_decrease at every split.

    Nodes are grown depth first from an explicit stack, left subtree
    before right, so ``rng`` draws and importance sums come in pre-order.
    Nothing here outlives the call but the tree and the importances: the
    rows, often a forest's bootstrap copy, are freed as soon as the
    caller drops them.
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
    root = TreeNode(prob=0.0)
    stack = [(root, np.arange(n_root))]
    while stack:
        node, idx = stack.pop()
        ys = y[idx]
        pos = int(np.add.reduce(ys))
        node.prob = pos / len(idx)
        if pos == 0 or pos == len(idx):
            continue
        if max_features < d:
            features = rng.choice(d, size=max_features, replace=False)
        else:
            features = np.arange(d)
        found = _best_split(x, idx, ys, features)
        if found is None:
            continue
        decrease, f, threshold = found
        importance[f] += (len(idx) / n_root) * decrease
        node.feature = int(f)
        node.threshold = float(threshold)
        mask = x[idx, f] <= threshold
        node.left, node.right = TreeNode(prob=0.0), TreeNode(prob=0.0)
        stack.append((node.right, idx[~mask]))
        stack.append((node.left, idx[mask]))
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
