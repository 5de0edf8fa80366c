"""Train the adversarial pair on attack-only records and watch the duel.

The generator never sees benign traffic. It learns to forge records that
resemble the attack distribution; the discriminator's job is telling
forgeries from the real thing. Training logs land in a CSV whose columns
match the in-memory epoch log.
"""

import tempfile
from pathlib import Path

import numpy as np

from ganfs.gan import GanConfig, load_gan, save_gan, train_gan, write_training_log
from ganfs.nets import forward

rng = np.random.default_rng(5)
# attack records: two flag-like discrete columns plus continuous noise
x = rng.uniform(0, 1, size=(1500, 8))
x[:, 1] = rng.choice([0.6, 1.0], size=1500)
x[:, 4] = rng.choice([0.0, 0.5], size=1500)

cfg = GanConfig(epochs=60, batch_size=256, seed=7)
model, logs = train_gan(x, cfg, progress=lambda log: print(
    f"epoch {log.epoch:3d}  D real {log.d_loss_real:.3f}  "
    f"D fake {log.d_loss_fake:.3f}  G {log.g_loss:.3f}  "
    f"D acc {log.d_accuracy:.2f}") if log.epoch % 15 == 0 else None)

with tempfile.TemporaryDirectory(prefix="ganfs-demo-") as tmp:
    out = Path(tmp)
    save_gan(model, out / "gan.json")
    write_training_log(logs, out / "training_log.csv")
    print(f"checkpoint and log written under {out}")
    reloaded = load_gan(out / "gan.json")
z = rng.standard_normal((5, reloaded.generator.sizes[0]))
fake = forward(reloaded.generator, z)
print("five forged records (columns 1 and 4 should drift toward the "
      "discrete levels):")
for row in fake:
    print("  " + " ".join(f"{v:.2f}" for v in row))
