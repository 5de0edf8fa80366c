"""End-to-end acceptance gate: ten numbered criteria, one verdict line each.

Each test prints "CRITERION n: PASS|FAIL" whether it survives or not, and
the conftest terminal-summary hook repeats the collected verdicts after
the run. Criteria cover the scoring oracle, training stability, gradient
and optimizer correctness, metric oracles, pipeline determinism, schema
conformance, and the planted-recovery benchmark.
"""

import functools
import math
import os
import time

import numpy as np

from conftest import write_raw_flow_csv
from ganfs.baselines import anova_f, chi_square, mutual_information
from ganfs.classifiers import LogisticRegression, RandomForest
from ganfs.data import (
    FlowDataset, SplitSpec, apply_scaler, filter_attacks, normalize,
    read_captures, split,
)
from ganfs.gan import GanConfig, train_gan
from ganfs.metrics import ConfusionCounts, prf_scores, roc_auc
from ganfs.nets import (
    activations, adam_init, adam_step, backward, forward, init_network,
)
from ganfs.pipeline import (
    RunConfig, baseline_stage, evaluate_stage, preprocess_stage, rank_stage,
    report_stage, train_gan_stage,
)
from ganfs.sensitivity import (
    PerturbConfig, rank_features, sensitivity_scores,
)
from fdcheck import numeric_bce_grads, relative_errors

VERDICTS = {}


def criterion(n):
    """Record and print the verdict even when the body raises."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                VERDICTS[n] = ok
                print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}")
        return run
    return wrap


# ---------------------------------------------------------------- fixtures

PLANTED = (2, 7, 11, 16)


def make_flagged_flows(n_attack, n_benign, d, planted, seed):
    """Class-labeled records where planted columns carry the signal.

    Planted columns behave like flag or protocol counters: a few discrete
    levels, different per class. Background columns are continuous noise
    shared by both classes.
    """
    rng = np.random.default_rng(seed)
    n = n_attack + n_benign
    x = rng.uniform(0.0, 1.0, size=(n, d))
    for i in planted:
        x[:n_attack, i] = rng.choice([0.7, 0.9], size=n_attack)
        x[n_attack:, i] = rng.choice([0.1, 0.3], size=n_benign)
    y = np.concatenate([np.ones(n_attack), np.zeros(n_benign)])
    names = [f"f{i:02d}" for i in range(d)]
    return x, y, names


_planted_runs = {}


def planted_run(seed):
    """Train-once cache of the planted benchmark for criteria 3 and 4."""
    if seed not in _planted_runs:
        x, y, names = make_flagged_flows(5000, 5000, 20, PLANTED, 1000 + seed)
        ds = FlowDataset(features=x, feature_names=names, labels=y)
        tr, te = split(ds, SplitSpec(seed=2000 + seed))
        tr = normalize(tr)
        te = apply_scaler(te, tr.scaler)
        attacks = filter_attacks(tr)
        model, _ = train_gan(attacks.features,
                             GanConfig(epochs=100, seed=3000 + seed))
        scores = sensitivity_scores(model.discriminator, attacks.features,
                                    PerturbConfig(seed=4000 + seed))
        _planted_runs[seed] = {
            "train": tr, "test": te, "attacks": attacks,
            "order": rank_features(scores),
        }
    return _planted_runs[seed]


# ---------------------------------------------------------------- criteria

@criterion(1)
def test_scoring_matches_brute_force_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        factors = tuple(float(f) for f in rng.uniform(0.3, 10.0, size=k))
        x = rng.uniform(0.0, 1.0, size=(n, d))
        if rng.random() < 0.3 and d > 1:
            x[:, 0] = 0.4  # exercise the constant-column path
        disc = init_network([d, 4, 1], ["relu", "sigmoid"], rng)

        # independent re-statement of the score: mean absolute output
        # change over every record, factor and direction, with the
        # per-feature step equal to the mean non-zero sorted gap
        expected = np.zeros(d)
        for i in range(d):
            gaps = np.diff(np.sort(x[:, i]))
            gaps = gaps[gaps > 0]
            delta = float(gaps.mean()) if len(gaps) else 0.0
            if delta == 0.0:
                continue
            acc = 0.0
            for r in range(n):
                base = float(forward(disc, x[r:r + 1])[0, 0])
                for f in factors:
                    for sign in (1.0, -1.0):
                        bumped = x[r:r + 1].copy()
                        bumped[0, i] = min(1.0, max(
                            0.0, bumped[0, i] + sign * f * delta))
                        acc += abs(base - float(forward(disc, bumped)[0, 0]))
            expected[i] = acc / (n * k * 2)

        got = sensitivity_scores(disc, x, PerturbConfig(factors=factors))
        assert np.max(np.abs(got - expected)) < 1e-12
    assert time.monotonic() - started < 5.0


@criterion(2)
def test_constant_columns_score_exactly_zero():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=(200, 12))
    constant = (1, 4, 6, 9, 10)
    for j, v in zip(constant, (0.0, 0.25, 0.5, 0.75, 1.0)):
        x[:, j] = v
    disc = init_network([12, 16, 1], ["relu", "sigmoid"], rng)
    scores = sensitivity_scores(disc, x)
    for j in constant:
        assert scores[j] == 0.0
    varying = [j for j in range(12) if j not in constant]
    assert min(scores[j] for j in varying) > 0.0


@criterion(3)
def test_planted_features_are_recovered():
    started = time.monotonic()
    recovered = 0
    for seed in range(5):
        top5 = set(planted_run(seed)["order"][:5].tolist())
        if len(top5 & set(PLANTED)) >= 3:
            recovered += 1
    assert recovered >= 4
    assert time.monotonic() - started < 300.0


@criterion(4)
def test_top10_subset_keeps_classifier_quality():
    run = planted_run(0)
    tr, te = run["train"], run["test"]
    top10 = run["order"][:10]

    def f1(model, cols):
        fitted = model.fit(tr.features[:, cols], tr.labels)
        pred = fitted.predict(te.features[:, cols])
        return prf_scores(ConfusionCounts.from_predictions(te.labels, pred)).f1

    everything = np.arange(tr.n_features)
    for make in (lambda: LogisticRegression(),
                 lambda: RandomForest(seed=5000)):
        sub = f1(make(), top10)
        full = f1(make(), everything)
        assert sub >= 0.95
        assert abs(sub - full) <= 0.02


@criterion(5)
def test_backprop_matches_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(21)
    errors = []
    for _ in range(20):
        depth = int(rng.integers(1, 3))
        sizes = [int(rng.integers(2, 5))]
        sizes += [int(rng.integers(3, 7)) for _ in range(depth)]
        sizes += [1]
        kinds = [str(rng.choice(["relu", "sigmoid"]))
                 for _ in range(depth)] + ["sigmoid"]
        net = init_network(sizes, kinds, rng)
        x = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 7)), sizes[0]))
        t = rng.integers(0, 2, size=(len(x), 1)).astype(np.float64)
        acts = activations(net, x)
        p = acts[-1]
        analytic, _ = backward(net, acts, (p - t) / p.size)
        errors.append(
            relative_errors(analytic, numeric_bce_grads(net, x, t)))
    pooled = np.concatenate(errors)
    assert np.mean(pooled <= 1e-4) >= 0.99
    assert time.monotonic() - started < 30.0


@criterion(6)
def test_metric_implementations_match_oracles():
    rng = np.random.default_rng(33)

    # trapezoid-under-ROC equals the half-tie pair statistic
    for _ in range(200):
        n = int(rng.integers(4, 31))
        y = rng.integers(0, 2, size=n)
        while y.min() == y.max():
            y = rng.integers(0, 2, size=n)
        scores = rng.choice([0.1, 0.25, 0.5, 0.5, 0.8], size=n) \
            if rng.random() < 0.5 else rng.uniform(0, 1, size=n)
        pos = scores[y == 1]
        neg = scores[y == 0]
        wins = ties = 0
        for p in pos:
            for q in neg:
                wins += p > q
                ties += p == q
        pair_stat = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert abs(roc_auc(y, scores) - pair_stat) < 1e-12

    # dependence statistics against literal-formula oracles on small codes
    for _ in range(50):
        b = int(rng.integers(2, 5))
        n = int(rng.integers(8, 40))
        col = rng.integers(0, b, size=n).astype(np.float64)
        y = rng.integers(0, 2, size=n)
        while y.min() == y.max() or col.min() == col.max():
            col = rng.integers(0, b, size=n).astype(np.float64)
            y = rng.integers(0, 2, size=n)
        table = np.zeros((b, 2))
        for v, c in zip(col, y):
            table[int(v), c] += 1

        mi = 0.0
        for i in range(b):
            for j in range(2):
                if table[i, j] > 0:
                    pij = table[i, j] / n
                    mi += pij * math.log(
                        pij / (table[i].sum() / n * table[:, j].sum() / n))
        assert abs(mutual_information(col, y, bins=b) - mi) < 1e-9

        chi = 0.0
        for i in range(b):
            if table[i].sum() == 0:
                continue
            for j in range(2):
                e = table[i].sum() * table[:, j].sum() / n
                chi += (table[i, j] - e) ** 2 / e
        assert abs(chi_square(col, y, bins=b) - chi) < 1e-9

        g0, g1 = col[y == 0], col[y == 1]
        ssb = (len(g0) * (g0.mean() - col.mean()) ** 2
               + len(g1) * (g1.mean() - col.mean()) ** 2)
        ssw = ((g0 - g0.mean()) ** 2).sum() + ((g1 - g1.mean()) ** 2).sum()
        if ssw > 0:
            assert abs(anova_f(col, y) - ssb / (ssw / (n - 2))) < 1e-9

    # a perfectly dependent 2x2 table, exactly
    col = np.array([0.0] * 20 + [1.0] * 20)
    y = np.array([0] * 20 + [1] * 20)
    assert chi_square(col, y, bins=2) == 40.0


@criterion(7)
def test_first_adam_step_has_closed_form_size():
    rng = np.random.default_rng(55)
    scales = np.logspace(-8, 3, 100)
    for s in scales:
        g = float(s) * (1.0 if rng.random() < 0.5 else -1.0)
        net = init_network([3, 2, 1], ["relu", "sigmoid"], rng)
        before = [(l.w.copy(), l.b.copy()) for l in net.layers]
        grads = [(np.full_like(l.w, g), np.full_like(l.b, g))
                 for l in net.layers]
        state = adam_init(net, lr=0.001)
        adam_step(net, grads, state)
        want = 0.001 * abs(g) / (abs(g) + state.eps)
        for layer, (w0, b0) in zip(net.layers, before):
            assert np.max(np.abs(np.abs(layer.w - w0) - want)) < 1e-6
            assert np.max(np.abs(np.abs(layer.b - b0) - want)) < 1e-6


@criterion(8)
def test_reruns_are_byte_identical(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv", n_benign=40, n_attack=40)

    def run(out):
        cfg = RunConfig(seed=11, out_dir=str(out), epochs=5, batch_size=16,
                        rf_trees=5, k_values=(2, 3))
        preprocess_stage(cfg, [raw])
        train_gan_stage(cfg)
        rank_stage(cfg)
        baseline_stage(cfg, "mi")
        baseline_stage(cfg, "chi2")
        evaluate_stage(cfg)
        report_stage(cfg)
        return out

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    for name in ("sensitivity_ranking.csv", "mi_ranking.csv",
                 "chi2_ranking.csv", "report.md"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    for pa in sorted((a / "series").glob("*.csv")):
        assert pa.read_bytes() == (b / "series" / pa.name).read_bytes()

    # metric rows are compared with the wall-clock column projected out;
    # train_seconds is a measurement, not a computation
    def stable(path):
        return ["," .join(line.split(",")[:-1])
                for line in (path / "metrics.csv").read_text().splitlines()]

    assert stable(a) == stable(b)


FLOW_COLUMNS = (
    "Unnamed: 0", "Flow ID", "Source IP", "Source Port", "Destination IP",
    "Destination Port", "Protocol", "Timestamp", "Flow Duration",
    "Total Fwd Packets", "Total Backward Packets",
    "Total Length of Fwd Packets", "Total Length of Bwd Packets",
    "Fwd Packet Length Max", "Fwd Packet Length Min",
    "Fwd Packet Length Mean", "Fwd Packet Length Std",
    "Bwd Packet Length Max", "Bwd Packet Length Min",
    "Bwd Packet Length Mean", "Bwd Packet Length Std", "Flow Bytes/s",
    "Flow Packets/s", "Flow IAT Mean", "Flow IAT Std", "Flow IAT Max",
    "Flow IAT Min", "Fwd IAT Total", "Fwd IAT Mean", "Fwd IAT Std",
    "Fwd IAT Max", "Fwd IAT Min", "Bwd IAT Total", "Bwd IAT Mean",
    "Bwd IAT Std", "Bwd IAT Max", "Bwd IAT Min", "Fwd PSH Flags",
    "Bwd PSH Flags", "Fwd URG Flags", "Bwd URG Flags", "Fwd Header Length",
    "Bwd Header Length", "Fwd Packets/s", "Bwd Packets/s",
    "Min Packet Length", "Max Packet Length", "Packet Length Mean",
    "Packet Length Std", "Packet Length Variance", "FIN Flag Count",
    "SYN Flag Count", "RST Flag Count", "PSH Flag Count", "ACK Flag Count",
    "URG Flag Count", "CWE Flag Count", "ECE Flag Count", "Down/Up Ratio",
    "Average Packet Size", "Avg Fwd Segment Size", "Avg Bwd Segment Size",
    "Fwd Header Length.1", "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk",
    "Fwd Avg Bulk Rate", "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk",
    "Bwd Avg Bulk Rate", "Subflow Fwd Packets", "Subflow Fwd Bytes",
    "Subflow Bwd Packets", "Subflow Bwd Bytes", "Init_Win_bytes_forward",
    "Init_Win_bytes_backward", "act_data_pkt_fwd", "min_seg_size_forward",
    "Active Mean", "Active Std", "Active Max", "Active Min", "Idle Mean",
    "Idle Std", "Idle Max", "Idle Min", "SimillarHTTP", "Inbound", "Label",
)

IDENTITY_COLUMNS = {"Unnamed: 0", "Flow ID", "Source IP", "Destination IP",
                    "Timestamp", "SimillarHTTP"}


def _capture_fixture_csv(path):
    """Six rows in the full capture schema, covering every special token."""
    labels = ["BENIGN", "DrDoS_DNS", "DrDoS_LDAP", "BENIGN", "DrDoS_NTP",
              "Syn"]
    specials = {
        (0, "Flow Bytes/s"): "Infinity",
        (1, "Flow Packets/s"): "NaN",
        (2, "Flow Bytes/s"): "",
        (4, "Flow IAT Mean"): "-Infinity",
    }
    lines = [",".join(FLOW_COLUMNS)]
    for r in range(len(labels)):
        cells = []
        for c, name in enumerate(FLOW_COLUMNS):
            if name == "Label":
                cells.append(labels[r])
            elif name == "Flow ID":
                cells.append(f"172.16.0.5-192.168.50.{r}-443-5231{r}-6")
            elif name == "Source IP":
                cells.append("172.16.0.5")
            elif name == "Destination IP":
                cells.append(f"192.168.50.{r}")
            elif name == "Timestamp":
                cells.append(f"2018-12-01 10:52:0{r}.123")
            elif (r, name) in specials:
                cells.append(specials[(r, name)])
            else:
                cells.append(str((r * 31 + c * 7) % 97))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


@criterion(9)
def test_capture_schema_preprocesses_cleanly(tmp_path):
    raw = _capture_fixture_csv(tmp_path / "capture.csv")
    ds = read_captures([raw])
    expected = [n for n in FLOW_COLUMNS
                if n not in IDENTITY_COLUMNS and n != "Label"]
    assert ds.feature_names == expected
    assert len(ds.feature_names) == 81
    assert ds.labels.tolist() == [0, 1, 1, 0, 1, 1]
    assert np.isfinite(ds.features).all()
    bytes_col = ds.feature_names.index("Flow Bytes/s")
    pkts_col = ds.feature_names.index("Flow Packets/s")
    iat_col = ds.feature_names.index("Flow IAT Mean")
    assert ds.features[0, bytes_col] == 0.0   # Infinity token
    assert ds.features[1, pkts_col] == 0.0    # NaN token
    assert ds.features[2, bytes_col] == 0.0   # empty cell
    assert ds.features[4, iat_col] == 0.0     # -Infinity token

    real = os.environ.get("GANFS_CIC_CSV")
    if real:
        real_ds = read_captures([real])
        assert real_ds.n_features == 81
        assert set(np.unique(real_ds.labels)) <= {0, 1}
        assert np.isfinite(real_ds.features).all()


@criterion(10)
def test_long_training_stays_above_entropy_floor():
    started = time.monotonic()
    attacks = planted_run(0)["attacks"]
    _, logs = train_gan(attacks.features, GanConfig(epochs=500, seed=3000))
    assert len(logs) == 500
    floor = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    d_losses = [(l.d_loss_real + l.d_loss_fake) / 2.0 for l in logs]
    for l in logs:
        assert all(math.isfinite(v) for v in
                   (l.d_loss_real, l.d_loss_fake, l.g_loss, l.d_accuracy))
    assert float(np.mean(d_losses)) >= floor - 1e-6
    assert time.monotonic() - started < 900.0
