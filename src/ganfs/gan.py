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


class Workspace:
    """Every batch-sized array of the two training steps, as views into one
    float64 arena sized for batches of up to ``rows`` real rows, plus one
    (dw, db) gradient buffer per layer of each network.

    The arena holds the stacked real+fake batch (2·rows × d), the noise
    and the generator's output slope (rows × d each), the generator's
    hidden outputs (rows × width) and the discriminator's layer outputs
    (2·rows × width). A view's contents last until the next step writes
    them.
    """

    def __init__(self, model: GanModel, rows: int):
        d = model.discriminator.sizes[0]
        shapes = [("batch", 2 * rows, d), ("noise", rows, d),
                  ("slope", rows, d)]
        shapes += [(f"g{l}", rows, width) for l, width in
                   enumerate(model.generator.sizes[1:-1])]
        shapes += [(f"d{l}", 2 * rows, width) for l, width in
                   enumerate(model.discriminator.sizes[1:])]
        starts = np.cumsum([0] + [r * cols for _, r, cols in shapes])
        self.segments = {name: (start, cols) for (name, _, cols), start
                         in zip(shapes, starts)}
        self.arena = np.empty(starts[-1])
        self.g_grads, self.d_grads = (
            [(np.empty_like(l.w), np.empty_like(l.b)) for l in net.layers]
            for net in (model.generator, model.discriminator))

    def take(self, name, rows):
        """The first ``rows`` rows of one segment, a C-contiguous view."""
        start, cols = self.segments[name]
        return self.arena[start:start + rows * cols].reshape(rows, cols)

    def gen_outs(self, rows, out):
        """Generator layer outputs, the last one written into ``out``."""
        hidden = len(self.g_grads) - 1
        return [self.take(f"g{l}", rows) for l in range(hidden)] + [out]

    def disc_outs(self, rows):
        return [self.take(f"d{l}", rows) for l in range(len(self.d_grads))]


def discriminator_step(model: GanModel, real: np.ndarray, z: np.ndarray,
                       adam: AdamState, ws: Workspace = None):
    """One update of the discriminator, with its Adam state ``adam``, on a
    real plus generated batch, computed in the workspace ``ws`` (one is
    built for this call when none is given).

    Returns (loss_real, loss_fake, accuracy), all measured at the
    pre-update weights. Generated records are detached: the generator
    receives no gradient here.
    """
    m = len(real)
    if ws is None:
        ws = Workspace(model, m)
    x = ws.take("batch", 2 * m)
    x[:m] = real  # a no-op when the caller gathered the rows there
    forward(model.generator, z, ws.gen_outs(m, x[m:]))
    acts = activations(model.discriminator, x, ws.disc_outs(2 * m))
    p = acts[-1]
    loss_real = bce_loss(p[:m], REAL_LABEL)
    loss_fake = bce_loss(p[m:], FAKE_LABEL)
    correct = np.sum(p[:m] >= 0.5) + np.sum(p[m:] < 0.5)
    accuracy = float(correct) / len(x)
    # dL/dz of the output, (p - t) / p.size, over p: backward reads only
    # the outputs of the layers below it
    p[:m] -= REAL_LABEL
    p[m:] -= FAKE_LABEL
    p /= p.size
    grads, _ = backward(model.discriminator, acts, p, out=ws.d_grads)
    adam_step(model.discriminator, grads, adam)
    return loss_real, loss_fake, accuracy


def generator_step(model: GanModel, z: np.ndarray, adam: AdamState,
                   ws: Workspace = None) -> float:
    """One update of the generator, with its Adam state ``adam``, through
    the frozen discriminator, computed in the workspace ``ws`` (one is
    built for this call when none is given).

    The loss is BCE of the discriminator's score on generated records
    against the target 1; the discriminator is frozen, so only its input
    gradient is computed, and it flows back into the generator.
    """
    m = len(z)
    if ws is None:
        ws = Workspace(model, m)
    batch = ws.take("batch", 2 * m)
    fake, dfake = batch[:m], batch[m:]
    g_acts = activations(model.generator, z, ws.gen_outs(m, fake))
    d_acts = activations(model.discriminator, fake, ws.disc_outs(m))
    p = d_acts[-1]
    loss = bce_loss(p, GEN_TARGET)
    p -= GEN_TARGET
    p /= p.size
    backward(model.discriminator, d_acts, p, frozen=True, out=dfake)
    # dL/dz of the generator's sigmoid output, dfake * (fake * (1 - fake)).
    # Keep the grouping: another order changes the weights in the last
    # bits, and same-seed checkpoints must match byte for byte.
    slope = ws.take("slope", m)
    np.subtract(1.0, fake, out=slope)
    slope *= fake
    slope *= dfake
    grads, _ = backward(model.generator, g_acts, slope, out=ws.g_grads)
    adam_step(model.generator, grads, adam)
    return loss


def train_gan(x: np.ndarray, cfg: GanConfig, progress=None):
    """Train a fresh pair on normalized records; returns (model, epoch logs).

    One discriminator update then one generator update per minibatch,
    rows reshuffled every epoch. Per-epoch log values are row-weighted
    means over the epoch's batches. ``progress`` is called with each
    EpochLog as it is produced. Every step runs in one workspace, freed
    when training returns.
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
    ws = Workspace(model, min(cfg.batch_size, n))
    logs = []
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        sums = np.zeros(4)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            m = len(idx)
            # mode="raise" would gather through a temporary copy; the
            # indices come from a permutation, so clipping never fires
            real = np.take(x, idx, axis=0, mode="clip",
                           out=ws.take("batch", 2 * m)[:m])
            z_d = rng.standard_normal(out=ws.take("noise", m))
            lr_, lf_, acc = discriminator_step(model, real, z_d, d_adam, ws)
            z_g = rng.standard_normal(out=ws.take("noise", m))
            gl = generator_step(model, z_g, g_adam, ws)
            sums += m * np.array([lr_, lf_, gl, acc])
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


def _write_json(value, fh):
    """Write ``value`` as ``json.dumps(value)`` would, converting and
    encoding each numpy array in it on its own when it is reached."""
    if isinstance(value, dict):
        items = [(json.dumps(k) + ": ", v) for k, v in value.items()]
        ends = "{}"
    elif isinstance(value, list):
        items, ends = [("", v) for v in value], "[]"
    else:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        fh.write(json.dumps(value))
        return
    fh.write(ends[0])
    for i, (prefix, item) in enumerate(items):
        fh.write((", " if i else "") + prefix)
        _write_json(item, fh)
    fh.write(ends[1])


def save_gan(model: GanModel, path):
    """One JSON checkpoint holding both networks' weights.

    The file holds the bytes of ``json.dumps`` of the whole document, but
    each layer's weights and biases are converted and encoded on their
    own, so only one array at a time is held as Python floats and text.
    """
    doc = {"generator": network_doc(model.generator, array=np.asarray),
           "discriminator": network_doc(model.discriminator,
                                        array=np.asarray)}
    with open(path, "w") as fh:
        _write_json(doc, fh)
        fh.write("\n")


def load_gan(path) -> GanModel:
    """Read a checkpoint back; one that is unreadable, or whose generator
    does not chain into its discriminator, is a ValueError naming it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        model = GanModel(generator=network_from_doc(doc["generator"]),
                         discriminator=network_from_doc(doc["discriminator"]))
        g_sizes, d_width = model.generator.sizes, model.discriminator.sizes[0]
        if g_sizes[0] != d_width or g_sizes[-1] != d_width:
            raise ValueError(f"generator {g_sizes[0]} -> {g_sizes[-1]} does "
                             f"not chain into a {d_width}-wide discriminator")
        return model
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model checkpoint ({exc})") from None
