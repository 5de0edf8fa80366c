"""Drive every stage end to end and inspect the artifact directory.

Same steps the command-line front end runs, called as library functions:
preprocess, adversarial training, ranking, two baselines, evaluation,
report, synthesis. Everything lands in one output directory with a
manifest hashing each artifact.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from ganfs.data import SyntheticSpec, make_synthetic, save_dataset
from ganfs.pipeline import (
    RunConfig, baseline_stage, evaluate_stage, preprocess_stage, rank_stage,
    report_stage, synth_stage, train_gan_stage,
)

with tempfile.TemporaryDirectory(prefix="ganfs-demo-") as tmp:
    work = Path(tmp)
    raw = work / "raw.csv"
    ds = make_synthetic(SyntheticSpec(n_attack=800, n_benign=800, d=10,
                                      informative_idx=(2, 6), seed=0))
    save_dataset(ds, raw)

    cfg = RunConfig(seed=42, out_dir=str(work / "run"), epochs=25,
                    batch_size=256, rf_trees=20, k_values=(3, 5))
    preprocess_stage(cfg, [raw])
    train_gan_stage(cfg, progress=lambda log: print(
        f"  epoch {log.epoch:2d}  D acc {log.d_accuracy:.2f}")
        if log.epoch % 10 == 0 else None)
    rank_stage(cfg)
    baseline_stage(cfg, "mi")
    baseline_stage(cfg, "rf")
    evaluate_stage(cfg)
    report_stage(cfg)
    synth_stage(cfg, n=50)

    out = Path(cfg.out_dir)
    print("\nartifacts:")
    for p in sorted(out.rglob("*")):
        if p.is_file():
            print(f"  {p.relative_to(out)}  ({p.stat().st_size} bytes)")

    manifest = json.loads((out / "manifest.json").read_text())
    print(f"\nstages recorded: {', '.join(manifest['stages'])}")
    print("\nreport tail:")
    print("\n".join((out / "report.md").read_text().splitlines()[-4:]))
