"""Adversarial training of a generator/discriminator pair on attack flows.

The generator maps standard-normal noise to synthetic flow records in
[0, 1]; the discriminator scores records as real vs generated. Training
uses one-sided label smoothing (real 0.9, fake 0.1) for the discriminator
and an unsmoothed target of 1 for the generator, with Adam on both sides.
The Adam state lives only inside ``train_gan``. The checkpoint keeps the
two networks' weights: the discriminator's for sensitivity scoring, the
generator's for record synthesis. Training cannot resume from it.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .nets import (
    AdamState, DenseNetwork, activations, adam_init, adam_step, backward,
    bce_loss, forward, init_network, network_doc, network_from_doc,
)

GEN_HIDDEN = (64, 128)
DISC_HIDDEN = (128, 64)
REAL_LABEL = 0.9
FAKE_LABEL = 0.1
GEN_TARGET = 1.0


@dataclass
class GanConfig:
    epochs: int = 500
    batch_size: int = 4096
    lr: float = 0.001
    seed: int = 0


@dataclass
class GanModel:
    generator: DenseNetwork
    discriminator: DenseNetwork


@dataclass
class EpochLog:
    epoch: int
    d_loss_real: float
    d_loss_fake: float
    g_loss: float
    d_accuracy: float


def build_gan(d: int, cfg: GanConfig, rng=None) -> GanModel:
    """Fresh pair: generator d->64->128->d, discriminator d->128->64->1."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    gen = init_network([d, *GEN_HIDDEN, d], ["relu", "relu", "sigmoid"], rng)
    disc = init_network([d, *DISC_HIDDEN, 1],
                        ["relu", "relu", "sigmoid"], rng)
    return GanModel(generator=gen, discriminator=disc)


def discriminator_step(model: GanModel, real: np.ndarray, z: np.ndarray,
                       adam: AdamState):
    """One update of the discriminator, with its Adam state ``adam``, on a
    real plus generated batch.

    Returns (loss_real, loss_fake, accuracy), all measured at the
    pre-update weights. Generated records are detached: the generator
    receives no gradient here.
    """
    fake = forward(model.generator, z)
    x = np.vstack([real, fake])
    t = np.concatenate([np.full(len(real), REAL_LABEL),
                        np.full(len(fake), FAKE_LABEL)]).reshape(-1, 1)
    acts = activations(model.discriminator, x)
    p = acts[-1]
    loss_real = bce_loss(p[:len(real)], REAL_LABEL)
    loss_fake = bce_loss(p[len(real):], FAKE_LABEL)
    correct = np.sum(p[:len(real)] >= 0.5) + np.sum(p[len(real):] < 0.5)
    accuracy = float(correct) / len(x)
    grads, _ = backward(model.discriminator, acts, (p - t) / p.size)
    adam_step(model.discriminator, grads, adam)
    return loss_real, loss_fake, accuracy


def generator_step(model: GanModel, z: np.ndarray, adam: AdamState) -> float:
    """One update of the generator, with its Adam state ``adam``, through
    the frozen discriminator.

    The loss is BCE of the discriminator's score on generated records
    against the target 1; the discriminator is frozen, so only its input
    gradient is computed, and it flows back into the generator.
    """
    g_acts = activations(model.generator, z)
    fake = g_acts[-1]
    d_acts = activations(model.discriminator, fake)
    p = d_acts[-1]
    target = np.full((len(fake), 1), GEN_TARGET)
    loss = bce_loss(p, target)
    _, dfake = backward(model.discriminator, d_acts, (p - target) / p.size,
                        frozen=True)
    # dL/dz of the generator's sigmoid output. Keep the grouping: another
    # order changes the weights in the last bits, and same-seed checkpoints
    # must match byte for byte.
    delta = dfake * (fake * (1.0 - fake))
    grads, _ = backward(model.generator, g_acts, delta)
    adam_step(model.generator, grads, adam)
    return loss


def train_gan(x: np.ndarray, cfg: GanConfig, progress=None):
    """Train a fresh pair on normalized records; returns (model, epoch logs).

    One discriminator update then one generator update per minibatch,
    rows reshuffled every epoch. Per-epoch log values are row-weighted
    means over the epoch's batches. ``progress`` is called with each
    EpochLog as it is produced.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("training data must be a non-empty 2-d array")
    if not np.isfinite(x).all():
        raise ValueError("training data contains non-finite values")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("training data must be normalized to [0, 1]")
    if cfg.epochs < 0 or cfg.batch_size < 1:
        raise ValueError("epochs must be >= 0 and batch_size >= 1")
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
            lr_, lf_, acc = discriminator_step(model, real, z_d, d_adam)
            z_g = rng.standard_normal((len(idx), d))
            gl = generator_step(model, z_g, g_adam)
            sums += len(idx) * np.array([lr_, lf_, gl, acc])
        log = EpochLog(epoch, *(float(v) for v in sums / n))
        logs.append(log)
        if progress is not None:
            progress(log)
    return model, logs


def write_training_log(logs, path):
    """CSV log, one row per epoch, floats at full round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "d_loss_real", "d_loss_fake",
                         "g_loss", "d_accuracy"])
        for l in logs:
            writer.writerow([l.epoch, repr(l.d_loss_real), repr(l.d_loss_fake),
                             repr(l.g_loss), repr(l.d_accuracy)])


def save_gan(model: GanModel, path):
    """One JSON checkpoint holding both networks' weights."""
    doc = {"generator": network_doc(model.generator),
           "discriminator": network_doc(model.discriminator)}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


def load_gan(path) -> GanModel:
    """Read a checkpoint back; any unreadable one is a ValueError naming it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return GanModel(generator=network_from_doc(doc["generator"]),
                        discriminator=network_from_doc(doc["discriminator"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model checkpoint ({exc})") from None
