"""Walk a messy flow capture from raw CSV to model-ready arrays.

Flow exports arrive with identity columns, padded headers, Infinity
tokens and empty cells. This script builds one such file, cleans it,
and shows what survives each step.
"""

import tempfile
from pathlib import Path

import numpy as np

from ganfs.data import (
    SplitSpec, apply_scaler, filter_attacks, normalize, read_captures, split,
)

rng = np.random.default_rng(0)

header = "Flow ID, Timestamp,Flow Duration,Fwd Packets/s,Flow Bytes/s, Label"
lines = [header]
for i in range(200):
    attack = i < 120
    duration = rng.normal(800 if attack else 300, 60)
    rate = rng.normal(40 if attack else 12, 4)
    volume = "Infinity" if i % 17 == 3 else ("" if i % 23 == 5
                                             else repr(float(rng.normal(5e4, 1e3))))
    label = "DrDoS_DNS" if attack else "BENIGN"
    lines.append(f"flow-{i},2018-12-01 10:{i % 60:02d}:00,"
                 f"{duration!r},{rate!r},{volume},{label}")

with tempfile.TemporaryDirectory(prefix="ganfs-demo-") as tmp:
    raw_path = Path(tmp) / "capture.csv"
    raw_path.write_text("\n".join(lines) + "\n")
    ds = read_captures([raw_path])
print(f"raw header: {header!r}")
print(f"after cleaning: {ds.n_features} feature columns "
      f"{ds.feature_names}, {int(ds.labels.sum())} attack rows of {len(ds.labels)}")
print(f"bad tokens zeroed: {np.sum(ds.features[:, 2] == 0.0)} cells in Flow Bytes/s")

train, test = split(ds, SplitSpec(train_fraction=0.8, seed=1))
train = normalize(train)
test = apply_scaler(test, train.scaler)
print(f"train {train.features.shape}, test {test.features.shape}, "
      f"all train cells in [0,1]: {bool((train.features >= 0).all() and (train.features <= 1).all())}")

attacks = filter_attacks(train)
print(f"attack-only view for adversarial training: {attacks.features.shape}")
