"""Binary-classification metrics, ROC/AUC and benchmark result tables.

Threshold metrics are computed at 0.5. Ratios with an empty denominator
come back as 0.0 instead of raising, so sweeps over extreme feature
subsets keep running. AUC is the exact trapezoidal area of the empirical
ROC curve, which equals the rank statistic (ties counted half) rather
than any sampled approximation.
"""

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

METRIC_COLUMNS = ("selector", "classifier", "k", "accuracy", "precision",
                  "recall", "f1", "auc", "train_seconds")


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_predictions(cls, y_true, y_pred):
        y_true = np.asarray(y_true).astype(bool)
        y_pred = np.asarray(y_pred).astype(bool)
        if y_true.shape != y_pred.shape:
            raise ValueError("prediction and truth shapes differ")
        return cls(tp=int(np.sum(y_true & y_pred)),
                   fp=int(np.sum(~y_true & y_pred)),
                   tn=int(np.sum(~y_true & ~y_pred)),
                   fn=int(np.sum(y_true & ~y_pred)))

    @property
    def n(self):
        return self.tp + self.fp + self.tn + self.fn


class Prf(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float


def prf_scores(counts: ConfusionCounts) -> Prf:
    """Accuracy, precision, recall, F1; empty denominators yield 0.0."""
    if counts.n == 0:
        raise ValueError("no predictions to score")

    def ratio(num, den):
        return num / den if den else 0.0

    precision = ratio(counts.tp, counts.tp + counts.fp)
    recall = ratio(counts.tp, counts.tp + counts.fn)
    f1 = ratio(2.0 * precision * recall, precision + recall)
    accuracy = (counts.tp + counts.tn) / counts.n
    return Prf(accuracy, precision, recall, f1)


def roc_curve(y_true, scores):
    """(fpr, tpr) points from descending unique score thresholds.

    Starts at (0, 0) and ends at (1, 1); tied scores advance both rates
    in one step so the curve has one point per distinct score.
    """
    y_true = np.asarray(y_true).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    pos = int(y_true.sum())
    neg = len(y_true) - pos
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tps = np.cumsum(y_true[order])
    fps = np.cumsum(~y_true[order])
    last_of_run = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tpr = np.concatenate([[0.0], tps[last_of_run] / pos])
    fpr = np.concatenate([[0.0], fps[last_of_run] / neg])
    return fpr, tpr


def roc_auc(y_true, scores) -> float:
    """Trapezoidal area under the ROC curve."""
    fpr, tpr = roc_curve(y_true, scores)
    return float(np.trapezoid(tpr, fpr))


@dataclass
class MetricRow:
    selector: str
    classifier: str
    k: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    train_seconds: float


def write_metrics_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRIC_COLUMNS)
        for r in rows:
            writer.writerow([r.selector, r.classifier, r.k,
                             repr(float(r.accuracy)), repr(float(r.precision)),
                             repr(float(r.recall)), repr(float(r.f1)),
                             repr(float(r.auc)), repr(float(r.train_seconds))])


def read_metrics_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(METRIC_COLUMNS):
            raise ValueError(f"{path}: not a metrics table (header {header})")
        rows = []
        for r, row in enumerate(reader, start=1):
            try:
                if len(row) != len(METRIC_COLUMNS):
                    raise ValueError(
                        f"{len(row)} cells, not {len(METRIC_COLUMNS)}")
                rows.append(MetricRow(row[0], row[1], int(row[2]),
                                      *[float(v) for v in row[3:]]))
            except ValueError as exc:
                raise ValueError(f"{path}: bad data row {r} ({exc})") \
                    from None
    return rows
