"""Classical filter and wrapper feature selectors used as comparators.

Mutual information and chi-square work on equal-width binned features;
ANOVA works on the raw values; recursive feature elimination wraps the
from-scratch logistic regression; impurity importance comes from the
from-scratch random forest. All selectors return one score per feature,
higher meaning more informative, rankable with the same machinery as the
sensitivity scores.
"""

import numpy as np

from .classifiers import LogisticRegression, RandomForest

DEFAULT_BINS = 10

METHODS = ("mi", "chi2", "anova", "rfe", "rf")


def bin_feature(col, bins=DEFAULT_BINS):
    """Equal-width bin codes 0..bins-1; a constant column is all code 0."""
    if bins < 2:
        raise ValueError("need at least 2 bins")
    col = np.asarray(col, dtype=np.float64)
    lo, hi = col.min(), col.max()
    if lo == hi:
        return np.zeros(len(col), dtype=np.int64)
    codes = ((col - lo) / (hi - lo) * bins).astype(np.int64)
    return np.clip(codes, 0, bins - 1)


def _contingency(codes, y, bins):
    """bins x 2 count table of (feature bin, class)."""
    table = np.zeros((bins, 2), dtype=np.float64)
    np.add.at(table, (codes, y), 1.0)
    return table


def _require_both_classes(y):
    y = np.asarray(y, dtype=np.int64)
    if not ((y == 0).any() and (y == 1).any()):
        raise ValueError("need both classes present to score features")
    return y


def mutual_information(col, y, bins=DEFAULT_BINS) -> float:
    """Plug-in mutual information (nats) between a binned feature and y."""
    y = _require_both_classes(y)
    table = _contingency(bin_feature(col, bins), y, bins)
    n = table.sum()
    joint = table / n
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    nz = joint > 0.0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / (px @ py)[nz])))
    return max(mi, 0.0)  # clamp tiny negative floating-point residue


def chi_square(col, y, bins=DEFAULT_BINS) -> float:
    """Chi-square statistic of the binned-feature-by-class count table.

    Empty bins are dropped; expected counts are row * column totals / n,
    never zero after the drop since both classes are required.
    """
    y = _require_both_classes(y)
    table = _contingency(bin_feature(col, bins), y, bins)
    table = table[table.sum(axis=1) > 0.0]
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    return float(np.sum((table - expected) ** 2 / expected))


def anova_f(col, y) -> float:
    """One-way F statistic across the two classes on the raw values.

    Zero within-class variance yields +inf when the class means differ
    (a perfectly separating feature) and 0.0 when they are identical. A
    constant column scores 0.0 outright: its class means can differ by
    rounding residue, which would otherwise give it a large F.
    """
    y = _require_both_classes(y)
    col = np.asarray(col, dtype=np.float64)
    if col.min() == col.max():
        return 0.0
    groups = [col[y == 0], col[y == 1]]
    n = len(col)
    grand = col.mean()
    ssb = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ssw = sum(float(np.sum((g - g.mean()) ** 2)) for g in groups)
    if ssw == 0.0:
        return float("inf") if ssb > 0.0 else 0.0
    return float((ssb / 1.0) / (ssw / (n - 2)))


def _standardize(x):
    """Zero-mean, unit-variance columns. A constant column becomes all
    0.0: its std can be rounding residue, which would scale it to +-1."""
    std = x.std(axis=0)
    z = (x - x.mean(axis=0)) / np.where(std == 0.0, 1.0, std)
    z[:, x.min(axis=0) == x.max(axis=0)] = 0.0
    return z


def rfe_ranking(x, y) -> np.ndarray:
    """Recursive elimination scores: rounds survived, best feature highest.

    Features are standardized once, then a logistic regression is refit on
    the survivors each round and the feature with the smallest absolute
    coefficient is dropped. The first feature out scores 1; the last one
    standing scores d. Scores are a permutation of 1..d, so ranking them
    descending replays the elimination in reverse.
    """
    y = _require_both_classes(y)
    x = _standardize(np.asarray(x, dtype=np.float64))
    d = x.shape[1]
    remaining = list(range(d))
    scores = np.zeros(d)
    step = 1
    while len(remaining) > 1:
        model = LogisticRegression()
        model.fit(x[:, remaining], y)
        weakest = int(np.argmin(np.abs(model.w)))
        scores[remaining[weakest]] = step
        remaining.pop(weakest)
        step += 1
    scores[remaining[0]] = d
    return scores


def baseline_scores(method, x, y, bins=DEFAULT_BINS, rf_trees=100,
                    seed=0) -> np.ndarray:
    """Dispatch one of the named selectors over all features."""
    x = np.asarray(x, dtype=np.float64)
    if method == "rfe":
        return rfe_ranking(x, y)
    if method == "rf":
        forest = RandomForest(n_trees=rf_trees, seed=seed).fit(x, y)
        return forest.feature_importances_
    per_column = {"mi": lambda col: mutual_information(col, y, bins),
                  "chi2": lambda col: chi_square(col, y, bins),
                  "anova": lambda col: anova_f(col, y)}
    if method not in per_column:
        raise ValueError(
            f"unknown selector '{method}', expected one of {METHODS}")
    return np.array([per_column[method](x[:, i]) for i in range(x.shape[1])])
