"""Tests for perturbation sensitivity scoring against closed-form oracles."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganfs import sensitivity
from ganfs.nets import DenseLayer, DenseNetwork, forward, init_network
from ganfs.sensitivity import (
    CHUNK_ROWS, DEFAULT_FACTORS, PerturbConfig, compute_base_deltas,
    make_report, rank_features, read_ranking_csv, sensitivity_scores,
    write_report_csv,
)


def logistic_net(weights):
    """Single sigmoid layer with the given (d, 1) weight column, zero bias."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    return DenseNetwork([DenseLayer(w=w, b=np.zeros(1), activation="sigmoid")])


def sigma(z):
    return 1.0 / (1.0 + math.exp(-z))


def test_base_delta_oracle():
    # sorted gaps of [0.0, 0.1, 0.1, 0.4] are (0.1, 0, 0.3); the non-zero
    # ones average to 0.2
    x = np.array([[0.1], [0.4], [0.0], [0.1]])
    assert compute_base_deltas(x)[0] == pytest.approx(0.2, abs=1e-12)


def test_base_delta_constant_column_is_zero():
    x = np.column_stack([np.full(5, 0.7), np.linspace(0, 1, 5)])
    deltas = compute_base_deltas(x)
    assert deltas[0] == 0.0
    assert deltas[1] == pytest.approx(0.25, abs=1e-15)


def test_two_point_toy_matches_hand_computation(monkeypatch):
    # D(x) = sigmoid(4 x0): moving x0 of (0.5, 0.5) by +/-0.1 shifts the
    # confidence from s(2) to s(2.4) and s(1.6); x1 never enters D
    monkeypatch.setattr(sensitivity, "compute_base_deltas",
                        lambda x: np.array([0.1, 0.1]))
    net = logistic_net([4.0, 0.0])
    x = np.array([[0.5, 0.5]])
    scores = sensitivity_scores(net, x, PerturbConfig(factors=(1.0,)))
    expected = (abs(sigma(2.0) - sigma(2.4)) + abs(sigma(2.0) - sigma(1.6))) / 2.0
    assert scores[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.042404459186076894, abs=1e-15)
    assert scores[1] == 0.0


def test_constant_feature_scores_exactly_zero():
    rng = np.random.default_rng(0)
    net = init_network([3, 4, 1], ["relu", "sigmoid"], rng)
    x = rng.uniform(0, 1, size=(20, 3))
    x[:, 1] = 0.6
    scores = sensitivity_scores(net, x)
    assert scores[1] == 0.0
    assert scores[0] > 0.0 and scores[2] > 0.0


def test_clamped_perturbation_still_counts_in_denominator(monkeypatch):
    # at x0 = 1.0 the upward nudge clips back to 1.0 and contributes zero,
    # but the divisor stays n*K*2, so the score is half the downward shift
    monkeypatch.setattr(sensitivity, "compute_base_deltas",
                        lambda x: np.array([0.5]))
    net = logistic_net([4.0])
    x = np.array([[1.0]])
    scores = sensitivity_scores(net, x, PerturbConfig(factors=(1.0,)))
    assert scores[0] == pytest.approx(abs(sigma(4.0) - sigma(2.0)) / 2.0,
                                      abs=1e-12)


def brute_force_scores(net, x, deltas, factors):
    """Literal per-record, per-factor, per-direction triple loop."""
    n, d = x.shape
    scores = np.zeros(d)
    for i in range(d):
        for r in range(n):
            base = forward(net, x[r:r + 1])[0, 0]
            for f in factors:
                for sign in (1.0, -1.0):
                    xp = x[r].copy()
                    xp[i] = min(1.0, max(0.0, xp[i] + sign * f * deltas[i]))
                    scores[i] += abs(base - forward(net, xp[None, :])[0, 0])
    return scores / (n * len(factors) * 2)


def test_vectorized_scores_match_brute_force():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = init_network([3, 5, 1], ["relu", "sigmoid"], rng)
        x = rng.uniform(0, 1, size=(4, 3))
        deltas = compute_base_deltas(x)
        factors = (0.5, 2.0)
        fast = sensitivity_scores(net, x, PerturbConfig(factors=factors))
        slow = brute_force_scores(net, x, deltas, factors)
        assert fast == pytest.approx(slow, abs=1e-12)


def kernel_case(first_activation, factors, seed=0, extra_rows=7):
    """Net, records spanning three whole scoring blocks plus a ragged one."""
    rng = np.random.default_rng(seed)
    net = init_network([4, 6, 3, 1], [first_activation, "relu", "sigmoid"],
                       rng)
    rows = max(1, CHUNK_ROWS // (2 * len(factors)))
    x = rng.uniform(0, 1, size=(3 * rows + extra_rows, 4))
    # binary column (step 1): one direction of every step clips to a no-op
    x[:, 1] = rng.choice([0.0, 1.0], size=len(x))
    # interior column with records pinned at both edges
    x[::5, 3] = 0.0
    x[1::5, 3] = 1.0
    return net, x


@pytest.mark.parametrize("first_activation", ["relu", "sigmoid", "identity"])
@pytest.mark.parametrize("factors", [(1.0,), DEFAULT_FACTORS,
                                     (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0)])
def test_kernel_matches_brute_force_across_blocks(first_activation, factors):
    net, x = kernel_case(first_activation, factors)
    fast = sensitivity_scores(net, x, PerturbConfig(factors=factors))
    slow = brute_force_scores(net, x, compute_base_deltas(x), factors)
    assert fast == pytest.approx(slow, abs=1e-12)
    assert (fast > 0.0).all()


def test_kernel_matches_brute_force_on_a_subsample():
    net, x = kernel_case("relu", DEFAULT_FACTORS, seed=3)
    cfg = PerturbConfig(sample_cap=len(x) - 40, seed=11)
    keep = np.sort(np.random.default_rng(11).choice(
        len(x), size=cfg.sample_cap, replace=False))
    fast = sensitivity_scores(net, x, cfg)
    # steps come from every record, scores from the kept ones
    slow = brute_force_scores(net, x[keep], compute_base_deltas(x),
                              DEFAULT_FACTORS)
    assert fast == pytest.approx(slow, abs=1e-12)


def test_ranking_is_descending_with_index_tiebreak():
    order = rank_features(np.array([0.3, 0.1, 0.3, 0.5]))
    assert order.tolist() == [3, 0, 2, 1]


def test_subsampling_is_seeded_and_capped():
    rng = np.random.default_rng(1)
    net = init_network([2, 4, 1], ["relu", "sigmoid"], rng)
    x = rng.uniform(0, 1, size=(50, 2))
    cfg = PerturbConfig(sample_cap=10, seed=4)
    a = sensitivity_scores(net, x, cfg)
    b = sensitivity_scores(net, x, cfg)
    assert np.array_equal(a, b)
    full = sensitivity_scores(net, x, PerturbConfig())
    assert not np.array_equal(a, full)
    # cap at or above n is a no-op
    c = sensitivity_scores(net, x, PerturbConfig(sample_cap=50, seed=4))
    assert np.array_equal(c, full)


def test_rejects_unnormalized_records():
    net = logistic_net([1.0])
    with pytest.raises(ValueError, match="normalized"):
        sensitivity_scores(net, np.array([[1.2]]))


def test_rejects_non_finite_records():
    # one NaN cell would otherwise turn every score into NaN
    net = logistic_net([1.0, -2.0])
    x = np.array([[0.2, 0.4], [np.nan, 0.6], [0.8, 0.1]])
    with pytest.raises(ValueError, match="non-finite"):
        sensitivity_scores(net, x)


def test_rejects_sample_cap_below_one():
    net = logistic_net([1.0])
    for cap in (0, -1):
        with pytest.raises(ValueError, match="sample_cap"):
            sensitivity_scores(net, np.array([[0.5]]),
                               PerturbConfig(sample_cap=cap))


def test_ranking_csv_round_trip(tmp_path):
    report = make_report(["URG Flag Count", "Fwd IAT Mean", "Protocol"],
                         [1.0 / 3.0, 0.9, 0.0])
    p = tmp_path / "rank.csv"
    write_report_csv(report, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "S.No.,Feature,Sensitivity_Score"
    assert lines[1].startswith("1,Fwd IAT Mean,")
    assert lines[3].startswith("3,Protocol,")
    names, scores = read_ranking_csv(p)
    assert names == ["Fwd IAT Mean", "URG Flag Count", "Protocol"]
    assert scores[1] == 1.0 / 3.0  # repr round-trip is exact


def test_ranking_csv_accepts_plain_score_header(tmp_path):
    p = tmp_path / "mi.csv"
    write_report_csv(make_report(["a", "b"], [2.0, 1.0]), p,
                     score_col="Score")
    assert p.read_text().splitlines()[0] == "S.No.,Feature,Score"
    names, scores = read_ranking_csv(p)
    assert names == ["a", "b"] and scores.tolist() == [2.0, 1.0]
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,z\n1,a,0.5\n")
    with pytest.raises(ValueError, match="ranking table"):
        read_ranking_csv(bad)


@pytest.mark.parametrize("row, reason", [
    ("2,b", "not enough values"),
    ("2,b,high", "could not convert"),
])
def test_ranking_csv_names_the_bad_row(tmp_path, row, reason):
    # rankings found in a run directory may come from outside the program
    p = tmp_path / "mi_ranking.csv"
    p.write_text(f"S.No.,Feature,Score\n1,a,0.5\n{row}\n")
    with pytest.raises(ValueError, match=f"mi_ranking.csv: bad data row 2 "
                                         f"\\({reason}"):
        read_ranking_csv(p)


# names as a UTF-8 header yields them, less the carriage return that
# preprocess rejects
NAMES = st.text(st.characters(exclude_categories=("Cs",),
                              exclude_characters="\r"))


@settings(deadline=None)
@given(st.lists(st.tuples(NAMES, st.floats(allow_nan=False)),
                unique_by=lambda row: row[0]),
       st.sampled_from(("Sensitivity_Score", "Score")))
def test_ranking_csv_round_trip_property(rows, score_col):
    # written in rank order, read back in the same order, scores bitwise
    report = make_report([n for n, _ in rows], [s for _, s in rows])
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "rank.csv"
        write_report_csv(report, p, score_col=score_col)
        names, scores = read_ranking_csv(p)
    assert names == report.ranked_names()
    expected = report.scores[report.order]
    assert scores.astype(np.float64).tobytes() == expected.tobytes()
