"""Tests of the benchmark harness itself.

    python3 -m pytest stagebench        # or
    python3 -m unittest discover -s stagebench -p 'test_*.py'

They run a tiny workload through the real CLI once, then show that the
output checks pass on it and fail on corrupted copies, and that the
traced run accounts for its time.
"""

import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from capture import (  # noqa: E402
    CONSTANT, FEATURES, PLANTED, CaptureSpec, header_line, write_capture,
)
from chain import child_env, launch, run_chain  # noqa: E402
from checks import (  # noqa: E402
    check_run, check_sensitivity, fingerprint,
)
from run import compare_fingerprints, summary  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(
    name="tiny",
    capture=CaptureSpec(rows=400, attack_share=0.8, special_rate=0.05),
    config={"epochs": 2, "batch_size": 128, "sample_cap": 60,
            "k_values": [5, 81], "rf_trees": 2},
    baselines=("anova", "mi"),
    synth_n=25,
)


def _problems(found):
    return {stage: p for stage, p in found.items() if p}


class CaptureTest(unittest.TestCase):
    def test_same_seed_same_bytes_and_capture_schema(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = CaptureSpec(rows=50, files=2)
            a = write_capture(Path(tmp) / "a", spec, seed=4)
            b = write_capture(Path(tmp) / "b", spec, seed=4)
            c = write_capture(Path(tmp) / "c", spec, seed=5)
            self.assertEqual([p.read_bytes() for p in a],
                             [p.read_bytes() for p in b])
            self.assertNotEqual(a[0].read_bytes(), c[0].read_bytes())
            lines = a[0].read_text().splitlines()
            self.assertEqual(lines[0], header_line())
            self.assertEqual(len(lines[0].split(",")), 88)
            self.assertEqual(len(lines), 26)
            labels = [line.rsplit(",", 1)[1] for line in lines[1:]]
            self.assertTrue("BENIGN" in labels and "DrDoS_DNS" in labels)
        self.assertEqual(len(FEATURES), 81)


class ChainChecksTest(unittest.TestCase):
    """One real tiny chain through the CLI, checked and then corrupted."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(prefix="stagebench-test-"))
        inputs = write_capture(cls.tmp / "capture", TINY.capture, seed=3)
        cfg = cls.tmp / "config.json"
        cfg.write_text(json.dumps(TINY.config))
        cls.run_dir = cls.tmp / "run"
        cls.launches = run_chain(
            TINY.stages(inputs),
            ["--config", str(cfg), "--seed", "3", "--out", str(cls.run_dir)],
            child_env(ROOT), cls.tmp / "log", time.monotonic() + 120)
        cls.inputs = inputs

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def checked_copy(self, name, corrupt):
        copy = self.tmp / name
        shutil.copytree(self.run_dir, copy)
        corrupt(copy)
        return _problems(check_run(copy, TINY, FEATURES, CONSTANT, PLANTED))

    def test_every_stage_exits_zero_and_passes_its_checks(self):
        self.assertEqual([l.returncode for l in self.launches],
                         [0] * len(self.launches),
                         (self.tmp / "log").read_text()[-2000:])
        self.assertEqual(_problems(check_run(
            self.run_dir, TINY, FEATURES, CONSTANT, PLANTED)), {})

    def test_corrupted_ranking_is_a_rank_failure(self):
        def corrupt(run):
            path = run / "sensitivity_ranking.csv"
            lines = path.read_text().splitlines()
            lines[2] = lines[2].replace(lines[2].split(",")[1],
                                        lines[1].split(",")[1])
            path.write_text("\n".join(lines) + "\n")
        problems = self.checked_copy("bad-ranking", corrupt)
        self.assertEqual(set(problems), {"rank"})
        self.assertTrue(any("permutation" in p for p in problems["rank"]))
        self.assertTrue(any("manifest" in p for p in problems["rank"]))

    def test_truncated_metrics_is_an_evaluate_failure(self):
        def corrupt(run):
            path = run / "metrics.csv"
            path.write_text("\n".join(path.read_text().splitlines()[:-1]))
        problems = self.checked_copy("short-metrics", corrupt)
        self.assertEqual(set(problems), {"evaluate"})
        self.assertTrue(any("one per" in p for p in problems["evaluate"]))

    def test_short_synthetic_and_unbounded_split_are_failures(self):
        def corrupt(run):
            synth = run / "synthetic.csv"
            synth.write_text("\n".join(synth.read_text().splitlines()[:-1])
                             + "\n")
            train = run / "train.csv"
            lines = train.read_text().splitlines()
            lines[1] = "1.5" + lines[1][lines[1].index(","):]
            train.write_text("\n".join(lines) + "\n")
        problems = self.checked_copy("bad-synth", corrupt)
        self.assertEqual(set(problems), {"synth", "preprocess"})

    def test_changed_result_breaks_the_fingerprint(self):
        first = fingerprint(self.run_dir, TINY)
        copy = self.tmp / "changed"
        shutil.copytree(self.run_dir, copy)
        with open(copy / "gan.json", "a") as fh:
            fh.write(" ")
        self.assertEqual(compare_fingerprints(first, first), {})
        self.assertEqual(set(compare_fingerprints(first, fingerprint(
            copy, TINY))), {"train-gan"})

    def test_traced_run_accounts_for_its_time(self):
        work = self.tmp / "trace"
        work.mkdir()
        job = {"workload": "tiny", "seed": 3,
               "config": str(self.tmp / "config.json"),
               "inputs": [str(p) for p in self.inputs],
               "baselines": list(TINY.baselines), "synth_n": TINY.synth_n,
               "seconds": 1, "budget_s": 60, "out_base": str(work),
               "spans": str(work / "spans.jsonl"),
               "result": str(work / "trace.json")}
        (work / "job.json").write_text(json.dumps(job))
        child = launch("trace", [sys.executable, str(HERE / "tracing.py"),
                                 str(work / "job.json")],
                       child_env(ROOT), work / "log", time.monotonic() + 120)
        self.assertEqual(child.returncode, 0,
                         (work / "log").read_text()[-2000:])
        result = json.loads((work / "trace.json").read_text())
        m = result["metrics"]
        wanted = {x["name"] for x in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        self.assertEqual(wanted - set(m), {"cli.import_s"})
        self.assertTrue(all(not r["errors"] for r in result["runs"]))
        # layer self times partition the traced chain's stage time
        stages = sum(v for k, v in m.items()
                     if k.startswith("pipeline.") and k.endswith("_s")
                     and k not in ("pipeline.self_s", "pipeline.sha256_s"))
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(layers, stages, delta=1e-6 + 1e-9 * stages)
        steps = m["gan.discriminator_steps"]
        self.assertTrue(steps >= m["gan.epochs"])
        self.assertEqual(m["gan.generator_steps"], steps)
        self.assertEqual(m["nets.adam_steps"], 2 * steps)
        self.assertEqual(m["gan.passes_per_step"], 6.0)
        self.assertEqual(m["gan.epochs"], 2)
        self.assertEqual(m["sensitivity.rows_scored"], 60)
        self.assertEqual(m["data.load_dataset_calls"], 7)
        self.assertEqual(m["metrics.roc_auc_calls"], 3 * 2 * 2)
        self.assertTrue(0.0 < m["sensitivity.useful_perturb_ratio"] <= 1.0)
        spans = (work / "spans.jsonl").read_text().splitlines()
        self.assertEqual(len(spans), m["trace.spans"])


class SmallPartsTest(unittest.TestCase):
    def test_constant_and_planted_checks(self):
        ranked = [(n, 1.0) for n in PLANTED] + [(n, 0.0) for n in CONSTANT]
        self.assertEqual(check_sensitivity(ranked, CONSTANT, PLANTED), [])
        moved = ([(CONSTANT[0], 0.5)] + [(n, 0.0) for n in CONSTANT[1:]]
                 + [(n, 1.0) for n in PLANTED])
        problems = check_sensitivity(moved, CONSTANT, PLANTED)
        self.assertEqual(len(problems), 2)

    def test_tail_is_the_maximum_until_ten_samples_lie_above_the_median(self):
        self.assertEqual(summary([3.0, 1.0, 2.0])["tail"], 3.0)
        values = [float(v) for v in range(30)]
        self.assertEqual(summary(values)["tail"], 19.0)
        self.assertEqual(summary(values)["n"], 30)


if __name__ == "__main__":
    unittest.main()
