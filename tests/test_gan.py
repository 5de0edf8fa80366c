"""Tests for adversarial training: shapes, steps, determinism, round-trips."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ganfs import gan
from ganfs.gan import (
    FAKE_LABEL, GEN_TARGET, REAL_LABEL, EpochLog, GanConfig, GanModel,
    Workspace, build_gan, discriminator_step, generator_step, load_gan,
    save_gan, train_gan, write_training_log,
)
from ganfs.nets import (
    activations, adam_init, adam_step, backward, bce_loss, forward,
    init_network, network_doc,
)
from test_nets import activations_oracle, backward_oracle


def discriminator_step_oracle(model, real, z, adam):
    """The discriminator step with one fresh array per operation."""
    fake = activations_oracle(model.generator, z)[-1]
    x = np.vstack([real, fake])
    t = np.concatenate([np.full(len(real), REAL_LABEL),
                        np.full(len(fake), FAKE_LABEL)]).reshape(-1, 1)
    acts = activations_oracle(model.discriminator, x)
    p = acts[-1]
    loss_real = bce_loss(p[:len(real)], REAL_LABEL)
    loss_fake = bce_loss(p[len(real):], FAKE_LABEL)
    correct = np.sum(p[:len(real)] >= 0.5) + np.sum(p[len(real):] < 0.5)
    grads, _ = backward_oracle(model.discriminator, acts, (p - t) / p.size)
    adam_step(model.discriminator, grads, adam)
    return loss_real, loss_fake, float(correct) / len(x)


def generator_step_oracle(model, z, adam):
    """The generator step with one fresh array per operation."""
    g_acts = activations_oracle(model.generator, z)
    fake = g_acts[-1]
    d_acts = activations_oracle(model.discriminator, fake)
    p = d_acts[-1]
    target = np.full((len(fake), 1), GEN_TARGET)
    loss = bce_loss(p, target)
    _, dfake = backward_oracle(model.discriminator, d_acts,
                               (p - target) / p.size)
    grads, _ = backward_oracle(model.generator, g_acts,
                               dfake * (fake * (1.0 - fake)))
    adam_step(model.generator, grads, adam)
    return loss


def train_gan_oracle(x, cfg):
    """The training loop that gathers, stacks and draws fresh arrays for
    every batch (input checks left out)."""
    rng = np.random.default_rng(cfg.seed)
    n, d = x.shape
    model = build_gan(d, cfg, rng)
    g_adam = adam_init(model.generator, lr=cfg.lr)
    d_adam = adam_init(model.discriminator, lr=cfg.lr)
    logs = []
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        sums = np.zeros(4)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            real = x[idx]
            z_d = rng.standard_normal((len(idx), d))
            lr_, lf_, acc = discriminator_step_oracle(model, real, z_d,
                                                      d_adam)
            z_g = rng.standard_normal((len(idx), d))
            gl = generator_step_oracle(model, z_g, g_adam)
            sums += len(idx) * np.array([lr_, lf_, gl, acc])
        logs.append(EpochLog(epoch, *(float(v) for v in sums / n)))
    return model, logs


def artifact_bytes(out, model, logs):
    """The bytes of gan.json and training_log.csv written under ``out``."""
    out.mkdir()
    save_gan(model, out / "gan.json")
    write_training_log(logs, out / "training_log.csv")
    return [(out / n).read_bytes() for n in ("gan.json", "training_log.csv")]


def test_architecture_shapes():
    model = build_gan(81, GanConfig())
    assert model.generator.sizes == [81, 64, 128, 81]
    assert model.generator.activations == ["relu", "relu", "sigmoid"]
    assert model.discriminator.sizes == [81, 128, 64, 1]
    assert model.discriminator.activations == ["relu", "relu", "sigmoid"]
    assert model.generator.sizes[0] == 81  # the noise width


def test_noise_is_standard_normal(monkeypatch):
    # train_gan draws the generator's input as N(0, 1) of latent size d
    drawn = []

    def spy(model, z, adam, ws=None):
        drawn.append(z.copy())  # z is a view the next batch overwrites
        return generator_step(model, z, adam, ws)

    monkeypatch.setattr(gan, "generator_step", spy)
    x = np.random.default_rng(0).uniform(0, 1, size=(20000, 2))
    train_gan(x, GanConfig(epochs=1, batch_size=20000, seed=0))
    z = np.concatenate(drawn)
    assert z.shape == (20000, 2)
    assert abs(z.mean()) < 0.02
    assert 0.97 < z.var() < 1.03


def test_generator_emits_unit_interval_records():
    model = build_gan(6, GanConfig(seed=1))
    z = np.random.default_rng(2).standard_normal((50, 6))
    fake = forward(model.generator, z)
    assert fake.shape == (50, 6)
    assert fake.min() >= 0.0 and fake.max() <= 1.0


def test_discriminator_step_reports_pre_update_losses():
    # a zeroed discriminator outputs exactly 0.5, where BCE against any
    # target is ln 2 and the real half (p >= 0.5) is the only half right
    cfg = GanConfig(seed=0)
    model = build_gan(4, cfg)
    for layer in model.discriminator.layers:
        layer.w[:] = 0.0
        layer.b[:] = 0.0
    rng = np.random.default_rng(1)
    real = rng.uniform(0, 1, size=(8, 4))
    adam = adam_init(model.discriminator)
    loss_real, loss_fake, acc = discriminator_step(
        model, real, rng.standard_normal((8, 4)), adam)
    assert loss_real == pytest.approx(math.log(2.0), abs=1e-12)
    assert loss_fake == pytest.approx(math.log(2.0), abs=1e-12)
    assert acc == 0.5
    # the zero state with a balanced batch is an exact stationary point
    # (real and fake deltas cancel), but the optimizer did take its step
    assert adam.t == 1


def test_smoothed_loss_floor_holds_pointwise():
    # with real targets smoothed to 0.9, BCE is minimized at p = 0.9,
    # so no prediction can push the real-side loss below that entropy
    p = np.linspace(1e-7, 1.0 - 1e-7, 10001)
    losses = -(0.9 * np.log(p) + 0.1 * np.log(1.0 - p))
    floor = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert losses.min() >= floor - 1e-12
    assert floor == pytest.approx(0.32508297339144826, abs=1e-15)


def test_generator_step_gradient_matches_finite_differences():
    # the generator update differentiates BCE(D(G(z)), 1) with D frozen
    rng = np.random.default_rng(3)
    gen = init_network([2, 3, 2], ["relu", "sigmoid"], rng)
    disc = init_network([2, 3, 1], ["relu", "sigmoid"], rng)
    z = rng.normal(size=(4, 2))
    target = np.ones((4, 1))
    g_acts = activations(gen, z)
    fake = g_acts[-1]
    d_acts = activations(disc, fake)
    p = d_acts[-1]
    _, dfake = backward(disc, d_acts, (p - target) / p.size, frozen=True)
    grads, _ = backward(gen, g_acts, dfake * (fake * (1.0 - fake)))

    def loss():
        return bce_loss(forward(disc, forward(gen, z)), target)

    h = 1e-6
    for li, layer in enumerate(gen.layers):
        flat = layer.w.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            assert grads[li][0].reshape(-1)[i] == pytest.approx(
                fd, rel=1e-4, abs=1e-9)


def test_generator_step_leaves_discriminator_untouched():
    cfg = GanConfig(seed=5)
    model = build_gan(3, cfg)
    before = [(l.w.copy(), l.b.copy()) for l in model.discriminator.layers]
    g_before = [l.w.copy() for l in model.generator.layers]
    generator_step(model, np.random.default_rng(0).standard_normal((6, 3)),
                   adam_init(model.generator))
    for layer, (w, b) in zip(model.discriminator.layers, before):
        assert np.array_equal(layer.w, w) and np.array_equal(layer.b, b)
    assert any(not np.array_equal(l.w, w)
               for l, w in zip(model.generator.layers, g_before))


def test_train_is_seed_deterministic():
    x = np.random.default_rng(1).uniform(0, 1, size=(40, 5))
    cfg = GanConfig(epochs=3, batch_size=16, seed=9)
    m1, logs1 = train_gan(x, cfg)
    m2, logs2 = train_gan(x, cfg)
    for a, b in zip(m1.discriminator.layers, m2.discriminator.layers):
        assert np.array_equal(a.w, b.w)
    assert logs1 == logs2
    assert [l.epoch for l in logs1] == [1, 2, 3]
    for l in logs1:
        assert all(math.isfinite(v) for v in
                   (l.d_loss_real, l.d_loss_fake, l.g_loss, l.d_accuracy))
        assert 0.0 <= l.d_accuracy <= 1.0


def test_training_writes_the_bytes_of_the_allocating_engine(tmp_path):
    # the same seeded run through the oracle loop, which allocates per
    # operation and computes every gradient, is the reference; 70 rows at
    # batch 32 end on a partial batch
    x = np.random.default_rng(2).uniform(0.0, 1.0, size=(70, 6))
    cfg = GanConfig(epochs=4, batch_size=32, seed=13)
    assert (artifact_bytes(tmp_path / "arena", *train_gan(x, cfg))
            == artifact_bytes(tmp_path / "oracle", *train_gan_oracle(x, cfg)))


@pytest.mark.parametrize("n,d,batch_size,epochs", [
    (20, 5, 64, 3),  # one batch
    (50, 4, 2**40, 2),  # one batch, far larger than the data
    (7, 3, 1, 2),  # batches of one row
    (1, 4, 8, 3),  # one row
    (10, 4, 16, 0),  # no epoch
    (600, 81, 256, 1),  # paper width, through BLAS's larger blocks
    # the last batch of 30 is over half the arena's 40 rows: the
    # discriminator's 60 rows run into the generator's hidden outputs
    (70, 6, 40, 3),
    (100, 200, 64, 2),  # wider than the discriminator's first layer
    (1500, 81, 1024, 1),  # paper width at batch 1024, a partial last batch
])
def test_arena_trainer_writes_the_oracle_bytes(tmp_path, n, d, batch_size,
                                               epochs):
    x = np.random.default_rng(n + d).uniform(0.0, 1.0, size=(n, d))
    cfg = GanConfig(epochs=epochs, batch_size=batch_size, seed=d)
    assert (artifact_bytes(tmp_path / "arena", *train_gan(x, cfg))
            == artifact_bytes(tmp_path / "oracle", *train_gan_oracle(x, cfg)))


@pytest.mark.parametrize("d", [3, 81, 128, 129, 200])
def test_arena_shares_memory_between_views_never_alive_together(d):
    rows = 40
    model = build_gan(d, GanConfig(seed=0))
    ws = Workspace(model, rows)
    largest = 128 * max(d, 64)  # the widest weight array
    if 32 <= d <= 128:
        assert ws.arena.nbytes == 8 * max(rows * (3 * d + 386), 2 * largest)
    assert ws.arena.nbytes <= 8 * rows * (4 * d + 578)  # one per view
    assert ws.adam.size == 2 * largest
    batch, noise = ws.take("batch", 2 * rows), ws.take("noise", rows)
    fake, dfake = batch[:rows], batch[rows:]
    slope, g_hidden = ws.take("slope", rows), ws.gen_outs(rows, None)[:-1]
    d_masks = ws.masks(model.discriminator, 2 * rows, "noise")
    f_masks = ws.masks(model.discriminator, rows, "batch", dfake.size)
    g_masks = ws.masks(model.generator, rows, "batch", dfake.size)
    assert [m.shape for m in d_masks + f_masks + g_masks] == [
        (2 * rows, 128), (2 * rows, 64), (rows, 128), (rows, 64),
        (rows, 64), (rows, 128)]
    hosts = [(g_hidden[0], ws.take("d1", 2 * rows)),
             (g_hidden[1], ws.take("d0", 2 * rows)),
             (slope, ws.take("d0", 2 * rows)), (ws.adam, batch),
             *((m, noise) for m in d_masks),
             *((m, dfake) for m in f_masks + g_masks)]
    for view, host in hosts:
        assert np.shares_memory(view, host)
    # what each pass holds at once, beside the relu masks it writes
    passes = [
        # the discriminator step's backward pass
        ([batch, *ws.disc_outs(2 * rows)], d_masks),
        # the generator step: the frozen discriminator's forward pass on
        # the first rows of each layer, its backward pass, which writes
        # dfake last, the slope, and the generator's backward pass
        ([batch, noise, *g_hidden, *ws.disc_outs(rows)], []),
        ([fake, noise, *g_hidden, *ws.disc_outs(rows)], f_masks),
        ([batch, noise, *g_hidden, slope], []),
        ([noise, *g_hidden, slope], g_masks),
    ]
    for views, masks in passes:
        for i, a in enumerate(views):
            assert not any(np.shares_memory(a, b)
                           for b in views[i + 1:] + masks)


def test_arena_is_sized_by_the_rows_not_the_batch_size(monkeypatch):
    rows = []

    class Spy(Workspace):
        def __init__(self, model, n):
            rows.append(n)
            super().__init__(model, n)

    monkeypatch.setattr(gan, "Workspace", Spy)
    x = np.random.default_rng(3).uniform(0.0, 1.0, size=(50, 4))
    _, logs = train_gan(x, GanConfig(epochs=2, batch_size=2**40, seed=1))
    assert len(logs) == 2 and rows == [50]


def test_arena_trainer_peaks_no_higher_than_the_oracle():
    # one epoch at the gan-rank shape: 2 880 attack rows of 81 features
    x = np.random.default_rng(4).uniform(0.0, 1.0, size=(2880, 81))
    cfg = GanConfig(epochs=1, batch_size=1024, seed=5)
    peaks = []
    for trainer in (train_gan, train_gan_oracle):
        tracemalloc.start()
        try:
            trainer(x, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_steps_in_a_workspace_allocate_no_batch_sized_array():
    # the generator's sigmoid, the relu masks and Adam's temporaries work
    # in the arena; what is left are the (rows, 1) scores and losses and
    # the gradients' finite checks
    d = 81
    for m in (400, 1024):
        model = build_gan(d, GanConfig(seed=2))
        ws = Workspace(model, m)
        g_adam = adam_init(model.generator)
        d_adam = adam_init(model.discriminator)
        rng = np.random.default_rng(2)
        real, z = rng.uniform(size=(m, d)), rng.standard_normal((m, d))

        def steps():
            discriminator_step(model, real, z, d_adam, ws)
            generator_step(model, z, g_adam, ws)

        steps()  # numpy's first-call caches are not the steps' arrays
        tracemalloc.start()
        try:
            steps()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 1024, m


@pytest.mark.parametrize("net", ["generator", "discriminator"])
def test_non_finite_weights_abort_both_steps(net):
    # a non-finite weight on either side poisons every gradient that
    # reaches Adam; the generator's flows through the frozen discriminator
    # either way the steps run: in a workspace of their own or in one
    # the caller passes
    model = build_gan(3, GanConfig(seed=1))
    getattr(model, net).layers[1].w[0, 0] = np.inf
    rng = np.random.default_rng(0)
    real = rng.uniform(0.0, 1.0, size=(5, 3))
    for ws in (None, Workspace(model, 5)):
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                discriminator_step(model, real, rng.standard_normal((5, 3)),
                                   adam_init(model.discriminator), ws)
            with pytest.raises(ValueError, match="non-finite"):
                generator_step(model, rng.standard_normal((5, 3)),
                               adam_init(model.generator), ws)


def test_moderate_run_stays_inside_stability_envelope():
    # 2k rows x 20 dims for 50 epochs: no collapse to all-real or
    # all-fake verdicts, no loss blow-up; an envelope, not convergence
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=(2000, 20))
    x[:, :3] = rng.choice([0.25, 0.75], size=(2000, 3))
    model, logs = train_gan(x, GanConfig(epochs=50, seed=4))
    assert len(logs) == 50
    for l in logs:
        assert all(math.isfinite(v) for v in
                   (l.d_loss_real, l.d_loss_fake, l.g_loss, l.d_accuracy))
    assert 0.05 < logs[-1].d_accuracy < 0.999


def test_zero_epochs_returns_the_seeded_initial_model():
    x = np.random.default_rng(2).uniform(0, 1, size=(10, 4))
    model, logs = train_gan(x, GanConfig(epochs=0, seed=3))
    assert logs == []
    fresh = build_gan(4, GanConfig(seed=3))
    for a, b in zip(model.generator.layers, fresh.generator.layers):
        assert np.array_equal(a.w, b.w)


def test_train_rejects_unnormalized_data():
    with pytest.raises(ValueError, match="normalized"):
        train_gan(np.array([[1.5, 0.2]]), GanConfig(epochs=1))
    with pytest.raises(ValueError, match="normalized"):
        train_gan(np.array([[-0.1, 0.2]]), GanConfig(epochs=1))


def test_train_rejects_non_finite_data():
    # NaN slips past the [0, 1] range check, since every comparison with
    # it is false; it must not reach the networks
    x = np.random.default_rng(0).uniform(0, 1, size=(6, 3))
    x[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        train_gan(x, GanConfig(epochs=0))


def test_training_log_csv_round_trips(tmp_path):
    p = tmp_path / "log.csv"
    write_training_log([EpochLog(1, 0.1, 0.2, 1.0 / 3.0, 0.5),
                        EpochLog(2, 0.3, 0.4, 0.5, 0.75)], p)
    lines = p.read_text().splitlines()
    assert lines[0] == "epoch,d_loss_real,d_loss_fake,g_loss,d_accuracy"
    assert len(lines) == 3
    assert float(lines[1].split(",")[3]) == 1.0 / 3.0
    assert "\r" not in p.read_text()


def test_gan_checkpoint_round_trip(tmp_path):
    x = np.random.default_rng(4).uniform(0, 1, size=(30, 4))
    model, _ = train_gan(x, GanConfig(epochs=2, batch_size=8, seed=0))
    p = tmp_path / "gan.json"
    save_gan(model, p)
    loaded = load_gan(p)
    for a, b in zip(model.discriminator.layers, loaded.discriminator.layers):
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
    # weights only: no optimizer state, nothing derivable from the sizes
    doc = json.loads(p.read_text())
    assert set(doc) == {"generator", "discriminator"}
    for net in doc.values():
        assert set(net) == {"sizes", "activations", "weights", "biases"}
    probe = np.random.default_rng(5).uniform(0, 1, size=(7, 4))
    assert np.array_equal(forward(model.discriminator, probe),
                          forward(loaded.discriminator, probe))
    z = np.random.default_rng(6).standard_normal((3, 4))
    assert np.array_equal(forward(model.generator, z),
                          forward(loaded.generator, z))


def test_checkpoint_bytes_match_the_pure_python_encoder(tmp_path):
    # save_gan encodes with the C encoder; json.dump, which streams through
    # the pure-Python one, is the oracle for the bytes
    x = np.random.default_rng(7).uniform(0, 1, size=(12, 3))
    model, _ = train_gan(x, GanConfig(epochs=2, batch_size=5, seed=2))
    p = tmp_path / "gan.json"
    save_gan(model, p)
    oracle = tmp_path / "oracle.json"
    with open(oracle, "w") as fh:
        json.dump({"generator": network_doc(model.generator),
                   "discriminator": network_doc(model.discriminator)}, fh)
        fh.write("\n")
    assert p.read_bytes() == oracle.read_bytes()


def test_checkpoint_is_encoded_one_array_at_a_time(tmp_path):
    # a d = 81 pair, as the benchmark trains: the whole document as Python
    # floats and one string is the peak save_gan avoids
    model = build_gan(81, GanConfig(seed=0))

    def whole():
        json.dumps({"generator": network_doc(model.generator),
                    "discriminator": network_doc(model.discriminator)})

    peaks = []
    for write in (lambda: save_gan(model, tmp_path / "gan.json"), whole):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] / 2


@pytest.mark.parametrize("damage", [
    lambda text: text[:len(text) // 2],  # a half-written file
    lambda text: "[" + text + "]",  # valid JSON, not a checkpoint
], ids=["truncated", "json-list"])
def test_unreadable_checkpoint_names_the_file(tmp_path, damage):
    p = tmp_path / "gan.json"
    save_gan(build_gan(3, GanConfig(seed=0)), p)
    p.write_text(damage(p.read_text()))
    with pytest.raises(ValueError, match="gan.json: bad model checkpoint"):
        load_gan(p)


def test_checkpoint_whose_networks_do_not_chain_is_rejected(tmp_path):
    # a 5-wide generator beside a 6-wide discriminator, and a generator
    # whose noise is narrower than its records
    model = build_gan(5, GanConfig(seed=0))
    wider = build_gan(6, GanConfig(seed=0)).discriminator
    narrow_noise = init_network([4, 64, 128, 5], ["relu", "relu", "sigmoid"],
                                np.random.default_rng(0))
    p = tmp_path / "gan.json"
    for pair in (GanModel(model.generator, wider),
                 GanModel(narrow_noise, model.discriminator)):
        save_gan(pair, p)
        with pytest.raises(ValueError,
                           match="gan.json: bad model checkpoint.*chain"):
            load_gan(p)
