"""Every demo runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_clean_and_split.py",
                                  "02_network_engine.py",
                                  "03_train_gan.py",
                                  "04_rank_features.py",
                                  "05_compare_selectors.py",
                                  "06_full_pipeline.py"])
def test_demo_exits_cleanly(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
