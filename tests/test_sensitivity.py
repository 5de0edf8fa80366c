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


def oracle_scores(net, x, deltas, factors):
    """Full forward pass of every perturbed record, every output summed."""
    n, d = x.shape
    base = forward(net, x)
    scores = np.zeros(d)
    for i in range(d):
        for f in factors:
            for sign in (1.0, -1.0):
                xp = x.copy()
                xp[:, i] = np.clip(xp[:, i] + sign * f * deltas[i], 0.0, 1.0)
                scores[i] += np.abs(base - forward(net, xp)).sum()
    return scores / (n * len(factors) * 2)


def assert_matches_oracle(net, x, cfg):
    fast = sensitivity_scores(net, x, cfg)
    slow = oracle_scores(net, x, compute_base_deltas(x), cfg.factors)
    assert np.max(np.abs(fast - slow)) <= 1e-12
    return fast


def dense(w, b, activation):
    return DenseLayer(w=np.array(w, dtype=np.float64),
                      b=np.array(b, dtype=np.float64), activation=activation)


# one relu unit at z = x - 0.5: the record at x = 0.5 sits exactly at 0
ONE_UNIT = DenseNetwork([dense([[1.0]], [-0.5], "relu"),
                         dense([[3.0]], [0.0], "sigmoid")])
ONE_UNIT_X = np.array([[0.5], [0.2], [0.9]])


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_unit_at_zero_crosses_on_a_step_that_turns_it_on(monkeypatch, zero):
    # the up steps of the record at z = 0 turn the unit on; its linear
    # piece (slope 0, unit off) would score them as no change at all
    pre_activations = sensitivity._pre_activations
    seen = []

    def with_signed_zero(disc, x):
        zs = pre_activations(disc, x)
        seen.append(zs[0][0, 0])
        zs[0][zs[0] == 0.0] = zero
        return zs

    monkeypatch.setattr(sensitivity, "_pre_activations", with_signed_zero)
    cfg = PerturbConfig(factors=(0.5, 1.0))
    scores = assert_matches_oracle(ONE_UNIT, ONE_UNIT_X, cfg)
    assert seen[0] == 0.0 and not np.signbit(seen[0])  # the matmul's +0.0
    # by hand, delta = 0.35: z = 0 moves to 0.175 and 0.35 (down: stays
    # off); z = -0.3 to 0.05 once; z = 0.4 clips to 0.5 twice and drops
    # to 0.225 and 0.05
    expected = (sigma(0.525) - 0.5 + sigma(1.05) - 0.5 + sigma(0.15) - 0.5
                + 2.0 * (sigma(1.5) - sigma(1.2)) + sigma(1.2) - sigma(0.675)
                + sigma(1.2) - sigma(0.15)) / 12.0
    assert scores[0] == pytest.approx(expected, abs=1e-12)


def random_records(rng, n, d):
    x = rng.uniform(0, 1, size=(n, d))
    x[:, 0] = rng.choice([0.0, 1.0], size=n)  # binary: steps of 1.0
    return x


def test_lone_sigmoid_layer_matches_oracle():
    rng = np.random.default_rng(5)
    net = init_network([4, 1], ["sigmoid"], rng)
    assert_matches_oracle(net, random_records(rng, 30, 4),
                          PerturbConfig(factors=DEFAULT_FACTORS))


@pytest.mark.parametrize("activations", [
    ["relu", "identity", "sigmoid"],
    ["identity", "identity", "sigmoid"],
])
def test_identity_hidden_layer_matches_oracle(activations):
    rng = np.random.default_rng(6)
    net = init_network([4, 7, 5, 1], activations, rng)
    assert_matches_oracle(net, random_records(rng, 40, 4),
                          PerturbConfig(factors=DEFAULT_FACTORS))


def test_sigmoid_hidden_layer_takes_the_exact_path(monkeypatch):
    def no_piece(*args):
        raise AssertionError("a sigmoid hidden layer has no linear piece")

    monkeypatch.setattr(sensitivity, "_linear_piece", no_piece)
    rng = np.random.default_rng(7)
    net = init_network([4, 6, 5, 1], ["relu", "sigmoid", "sigmoid"], rng)
    assert_matches_oracle(net, random_records(rng, 40, 4),
                          PerturbConfig(factors=DEFAULT_FACTORS))


def test_two_outputs_are_summed_like_the_oracle():
    rng = np.random.default_rng(8)
    net = init_network([3, 8, 6, 2], ["relu", "relu", "sigmoid"], rng)
    scores = assert_matches_oracle(net, random_records(rng, 50, 3),
                                   PerturbConfig(factors=(1.0, 5.0)))
    assert (scores > 0.0).all()


def test_binary_column_with_large_factors_mostly_crosses():
    rng = np.random.default_rng(9)
    net = init_network([3, 16, 8, 1], ["relu", "relu", "sigmoid"], rng)
    for layer in net.layers[:-1]:
        layer.b = rng.uniform(-0.5, 0.5, size=layer.b.shape)
    x = random_records(rng, 200, 3)
    assert_matches_oracle(net, x, PerturbConfig(factors=(2.0, 5.0, 10.0)))
    # the binary column's steps of 1.0 leave most records' linear piece
    sides = sensitivity._unit_sides(net, sensitivity._pre_activations(net, x))
    _, up, down = sensitivity._linear_piece(net, sides, 0)
    moved = 1.0 - 2.0 * x[:, 0]  # the one step that does not clip away
    stays = moved * np.where(moved > 0.0, up, down) < 1.0
    assert stays.mean() < 0.5


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_record_counts_around_one_block(n):
    rng = np.random.default_rng(n)
    net = init_network([3, 12, 6, 1], ["relu", "relu", "sigmoid"], rng)
    assert_matches_oracle(net, random_records(rng, n, 3),
                          PerturbConfig(factors=(0.5, 5.0)))


def test_sample_cap_over_two_blocks_matches_oracle():
    rng = np.random.default_rng(10)
    net = init_network([3, 12, 6, 1], ["relu", "relu", "sigmoid"], rng)
    x = random_records(rng, 2 * CHUNK_ROWS + 5, 3)
    cfg = PerturbConfig(factors=(1.0, 10.0), sample_cap=CHUNK_ROWS + 1,
                        seed=2)
    keep = np.sort(np.random.default_rng(2).choice(
        len(x), size=cfg.sample_cap, replace=False))
    fast = sensitivity_scores(net, x, cfg)
    slow = oracle_scores(net, x[keep], compute_base_deltas(x), cfg.factors)
    assert np.max(np.abs(fast - slow)) <= 1e-12


# weights, biases and records on a coarse dyadic grid make pre-activations
# of exactly 0 and steps landing exactly on a crossing point common
GRID = st.sampled_from((-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0))


@st.composite
def relu_case(draw):
    d = draw(st.integers(1, 4))
    sizes = [d] + draw(st.lists(st.integers(1, 6), max_size=3))
    sizes.append(draw(st.integers(1, 2)))
    acts = [draw(st.sampled_from(("relu", "relu", "identity")))
            for _ in sizes[2:]] + ["sigmoid"]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = draw(st.booleans())
    layers = []
    for fan_in, fan_out, act in zip(sizes, sizes[1:], acts):
        if grid:
            w = np.array([[draw(GRID) for _ in range(fan_out)]
                          for _ in range(fan_in)])
            b = np.array([draw(GRID) for _ in range(fan_out)])
        else:
            w = rng.normal(size=(fan_in, fan_out))
            b = rng.normal(scale=0.5, size=fan_out)
        layers.append(DenseLayer(w=w, b=b, activation=act))
    n = draw(st.integers(1, 12))
    if grid:
        x = rng.choice(np.linspace(0.0, 1.0, 5), size=(n, d))
    else:
        x = rng.uniform(0.0, 1.0, size=(n, d))
    factors = tuple(draw(st.lists(st.sampled_from((0.5, 1.0, 2.0, 3.0, 10.0)),
                                  min_size=1, max_size=3)))
    return DenseNetwork(layers), x, factors


@settings(deadline=None, max_examples=300)
@given(relu_case())
def test_random_relu_nets_match_oracle(case):
    net, x, factors = case
    assert_matches_oracle(net, x, PerturbConfig(factors=factors))


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


def test_ranking_csv_rejects_a_duplicate_feature(tmp_path):
    # a feature named twice would fill a top-k subset with fewer columns
    p = tmp_path / "anova_ranking.csv"
    p.write_text("S.No.,Feature,Score\n1,a,0.9\n2,b,0.5\n3,a,0.9\n")
    with pytest.raises(ValueError, match="anova_ranking.csv: bad data row 3 "
                                         "\\(duplicate feature 'a'"):
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
