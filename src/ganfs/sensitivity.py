"""Discriminator-based feature sensitivity scoring and ranking.

Each feature of each record is nudged up and down by data-driven step
sizes and the shift in the trained discriminator's confidence is
accumulated. Features whose perturbation moves the score most are ranked
as most informative. Scores are averaged over records, step factors and
both directions, so a perturbation clamped back to the original value
still counts (as zero) in the denominator.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .nets import DenseNetwork, activate, activations, forward

DEFAULT_FACTORS = (0.5, 1.0, 2.0, 5.0, 10.0)

SCORE_HEADERS = ("Sensitivity_Score", "Score")

# (step, record) pairs pushed through the network per block; the block's
# first-layer buffer is allocated once per call and reused
CHUNK_ROWS = 1024


@dataclass
class PerturbConfig:
    factors: tuple = DEFAULT_FACTORS
    sample_cap: int | None = None  # score at most this many rows, seeded
    seed: int = 0


@dataclass
class SensitivityReport:
    feature_names: list
    scores: np.ndarray  # aligned with feature_names
    order: np.ndarray  # feature indices, highest score first

    def ranked_names(self):
        return [self.feature_names[i] for i in self.order]


def compute_base_deltas(x: np.ndarray) -> np.ndarray:
    """Per-feature step size: mean gap between consecutive distinct values.

    Sorting a column and averaging the non-zero differences of neighbours
    gives a step on the scale of the feature's own resolution. Constant
    columns get 0.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape[1])
    for i in range(x.shape[1]):
        gaps = np.diff(np.sort(x[:, i]))
        gaps = gaps[gaps > 0.0]
        if gaps.size:
            out[i] = gaps.mean()
    return out


def sensitivity_scores(disc: DenseNetwork, x: np.ndarray,
                       cfg: PerturbConfig | None = None) -> np.ndarray:
    """Mean absolute confidence shift per feature under perturbation.

    For every scored record, feature i is moved by +/- factor * delta_i
    (clipped back into [0, 1]) for each configured factor, and
    |D(x) - D(x')| is accumulated. The sum is divided by
    n_records * n_factors * 2 regardless of how many perturbations were
    clipped to no-ops, so features pinned at the range edge score low
    rather than being skipped. Step sizes come from the full input even
    when scoring is subsampled.

    A perturbation touches one input column, so only the first layer's
    pre-activation needs updating (a rank-1 shift of ``x @ W1 + b1``).
    Every step of one feature is stacked into one batch that runs through
    the remaining layers in blocks of about ``CHUNK_ROWS`` rows.
    """
    if cfg is None:
        cfg = PerturbConfig()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("need a non-empty 2-d record array")
    if not np.isfinite(x).all():
        raise ValueError("records contain non-finite values")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("sensitivity scoring expects data normalized to [0, 1]")
    if not cfg.factors:
        raise ValueError("need at least one perturbation factor")
    if cfg.sample_cap is not None and cfg.sample_cap < 1:
        raise ValueError("sample_cap must be >= 1")
    deltas = compute_base_deltas(x)
    if cfg.sample_cap is not None and len(x) > cfg.sample_cap:
        rng = np.random.default_rng(cfg.seed)
        keep = np.sort(rng.choice(len(x), size=cfg.sample_cap, replace=False))
        x = x[keep]

    n, d = x.shape
    base = forward(disc, x)
    first, rest = disc.layers[0], DenseNetwork(disc.layers[1:])
    z1 = x @ first.w + first.b
    steps = np.array([sign * factor for factor in cfg.factors
                      for sign in (1.0, -1.0)])
    n_steps, h = len(steps), z1.shape[1]
    rows = max(1, CHUNK_ROWS // n_steps)
    buf = np.empty(n_steps * min(rows, n) * h)
    scores = np.zeros(d)
    for i in range(d):
        if deltas[i] == 0.0:
            continue  # constant feature: exactly zero by construction
        # clipped shift of column i per (step, record); 0 where it clips away
        moved = (np.clip(x[:, i] + steps[:, None] * deltas[i], 0.0, 1.0)
                 - x[:, i])
        acc = 0.0
        for lo in range(0, n, rows):
            m = min(rows, n - lo)
            z = buf[:n_steps * m * h].reshape(n_steps, m, h)
            # outer product; einsum writes it faster than a broadcast multiply
            np.einsum("sr,h->srh", moved[:, lo:lo + m], first.w[i], out=z)
            z += z1[lo:lo + m]
            a = activate(z, first.activation)
            out = activations(rest, a.reshape(n_steps * m, h))[-1]
            acc += np.abs(base[lo:lo + m] - out.reshape(n_steps, m, -1)).sum()
        scores[i] = acc / (n * n_steps)
    return scores


def rank_features(scores: np.ndarray) -> np.ndarray:
    """Indices by descending score; ties broken by ascending feature index."""
    return np.argsort(-np.asarray(scores), kind="stable")


def make_report(feature_names, scores) -> SensitivityReport:
    scores = np.asarray(scores, dtype=np.float64)
    if len(feature_names) != scores.shape[0]:
        raise ValueError("one score per feature name required")
    return SensitivityReport(feature_names=list(feature_names), scores=scores,
                             order=rank_features(scores))


def write_report_csv(report: SensitivityReport, path,
                     score_col="Sensitivity_Score"):
    """Ranked score table: S.No. from 1, full-precision scores, LF lines."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["S.No.", "Feature", score_col])
        ranked = zip(report.ranked_names(), report.scores[report.order])
        for rank, (name, score) in enumerate(ranked, start=1):
            writer.writerow([rank, name, repr(float(score))])


def read_ranking_csv(path):
    """Read a ranked score table back; returns (names, scores) in rank order."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if (header is None or len(header) != 3 or header[0] != "S.No."
                or header[1] != "Feature" or header[2] not in SCORE_HEADERS):
            raise ValueError(f"{path}: not a ranking table (header {header})")
        names, scores = [], []
        for r, row in enumerate(reader, start=1):
            try:
                _, name, score = row
                scores.append(float(score))
            except ValueError as exc:
                raise ValueError(f"{path}: bad data row {r} ({exc})") \
                    from None
            names.append(name)
    return names, np.asarray(scores)
