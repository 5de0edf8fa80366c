"""Discriminator-based feature sensitivity scoring and ranking.

Each feature of each record is nudged up and down by data-driven step
sizes and the shift in the trained discriminator's confidence is
accumulated. Features whose perturbation moves the score most are ranked
as most informative. Scores are averaged over records, step factors and
both directions, so a perturbation clamped back to the original value
still counts (as zero) in the denominator.

With relu (or identity) hidden layers the discriminator's output
pre-activation is piecewise linear in any one input. Inside the piece
around a record, a step's effect is the piece's slope times the step, so
only steps that carry some relu unit across zero need a forward pass.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .nets import DenseNetwork, activate, activations, forward

DEFAULT_FACTORS = (0.5, 1.0, 2.0, 5.0, 10.0)

SCORE_HEADERS = ("Sensitivity_Score", "Score")

# records whose pre-activations are kept at once, and (step, record) pairs
# per forward pass for the steps that leave their record's linear piece;
# at 512, gan-rank's rank stage peaks below the old kernel's 47.7 MiB
CHUNK_ROWS = 512


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

    Records are walked in blocks of ``CHUNK_ROWS``, keeping every layer's
    pre-activation. For each feature, a step that stays inside its
    record's linear piece (see ``_linear_piece``) is scored as
    act_L(z_L + step * slope). Every other step, and every step when a
    hidden layer is a sigmoid, takes a rank-1 shift of ``x @ W1 + b1`` and
    a forward pass through the remaining layers. Both agree with a full
    forward pass per perturbed record to rounding.
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
    steps = np.array([sign * factor for factor in cfg.factors
                      for sign in (1.0, -1.0)])
    sums = np.zeros(d)
    for lo in range(0, n, CHUNK_ROWS):
        xb, bb = x[lo:lo + CHUNK_ROWS], base[lo:lo + CHUNK_ROWS]
        zs = _pre_activations(disc, xb)
        sides = _unit_sides(disc, zs)
        for i in np.flatnonzero(deltas):  # constant features stay at zero
            # clipped shift of column i per (step, record); 0 where it clips
            moved = (np.clip(xb[:, i] + steps[:, None] * deltas[i], 0.0, 1.0)
                     - xb[:, i])
            if sides is None:
                shift = np.empty(moved.shape)
                exact = np.ones(moved.shape, dtype=bool)
            else:
                slope, up, down = _linear_piece(disc, sides, i)
                out = activate(zs[-1] + moved[:, :, None] * slope,
                               disc.layers[-1].activation)
                shift = np.abs(bb - out).sum(axis=2)
                with np.errstate(invalid="ignore"):  # 0 * inf: exact
                    exact = ~(moved * np.where(moved > 0.0, up, down) < 1.0)
            # steps that leave the piece: rank-1 update of z1, then a
            # forward pass through the remaining layers
            s, r = np.nonzero(exact)
            for at in range(0, len(r), CHUNK_ROWS):
                ss, rr = s[at:at + CHUNK_ROWS], r[at:at + CHUNK_ROWS]
                z = np.multiply.outer(moved[ss, rr], first.w[i])
                z += zs[0][rr]
                out = activations(rest, activate(z, first.activation))[-1]
                shift[ss, rr] = np.abs(bb[rr] - out).sum(axis=1)
            sums[i] += shift.sum()
    return sums / (n * len(steps))


def _pre_activations(disc: DenseNetwork, x: np.ndarray) -> list:
    """Every layer's pre-activation for records ``x``: [z1, ..., zL]."""
    zs, a = [], x
    for layer in disc.layers:
        z = a @ layer.w
        z += layer.b
        zs.append(z)
        a = activate(z.copy(), layer.activation)
    return zs


def _unit_sides(disc: DenseNetwork, zs: list):
    """Per hidden layer, (on, 1 / -z) for relu units or None for identity
    ones; None as a whole when a hidden layer is a sigmoid.

    A unit at z = 0 is off, +0.0 and -0.0 alike. ``0.0 - z`` is +0.0 for
    both, so its 1 / -z is +inf, and every step that would turn it on
    counts as a crossing (plain ``-z`` would give -inf for z = +0.0).
    """
    sides = []
    for layer, z in zip(disc.layers[:-1], zs):
        if layer.activation == "sigmoid":
            return None
        if layer.activation == "relu":
            with np.errstate(divide="ignore"):
                sides.append((z > 0.0, 1.0 / (0.0 - z)))
        else:
            sides.append(None)
    return sides


def _linear_piece(disc: DenseNetwork, sides: list, i: int):
    """Output slope and step bounds of each record's linear piece.

    Moving input i by m moves every pre-activation along z + m * dz while
    no relu unit changes side. The slope dz starts at W1[i] and becomes
    (z > 0) * dz @ W_next past a relu layer (dz @ W_next past an identity
    one). A unit changes side at m* = -z / dz, that is once
    m * rate >= 1 with rate = dz / -z = 1 / m*. A step m > 0 therefore
    stays in the piece while m * up < 1, and m < 0 while m * down < 1,
    with up and down the largest and smallest rate over the record's
    units. Inside, the output pre-activation is z_L + m * slope. A step
    within rounding of m* scores the same either way, relu being
    continuous. Returns (slope, up, down).
    """
    up = down = 0.0
    dz = disc.layers[0].w[i]
    for side, after in zip(sides, disc.layers[1:]):
        if side is not None:
            on, inv = side
            with np.errstate(invalid="ignore"):  # 0 * inf: fmax/fmin skip it
                rate = dz * inv
            up = np.fmax(up, np.fmax.reduce(rate, axis=1))
            down = np.fmin(down, np.fmin.reduce(rate, axis=1))
            dz = on * dz
        dz = dz @ after.w
    return dz, up, down


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
        names, scores, seen = [], [], set()
        for r, row in enumerate(reader, start=1):
            try:
                _, name, score = row
                scores.append(float(score))
                if name in seen:
                    raise ValueError(f"duplicate feature {name!r}")
            except ValueError as exc:
                raise ValueError(f"{path}: bad data row {r} ({exc})") \
                    from None
            names.append(name)
            seen.add(name)
    return names, np.asarray(scores)
