"""Tests for stage orchestration: config, seeds, locks, manifests, stages."""

import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import write_raw_flow_csv, write_wide_flow_csv
from ganfs import pipeline
from ganfs.baselines import METHODS
from ganfs.data import (
    FlowDataset, SyntheticSpec, load_dataset, make_synthetic, save_dataset,
)
from ganfs.gan import load_gan
from ganfs.nets import forward
from ganfs.pipeline import (
    ConfigError, RunConfig, baseline_stage, discover_rankings,
    evaluate_stage, load_config_file, preprocess_stage, rank_stage,
    report_stage, resolve_config, resolve_k_values, run_lock, sha256_file,
    stage_seed, synth_stage, train_gan_stage,
)
from ganfs.metrics import MetricRow, read_metrics_csv, write_metrics_csv
from ganfs.sensitivity import make_report, read_ranking_csv, write_report_csv


def small_cfg(tmp_path, **kw):
    base = dict(seed=7, out_dir=str(tmp_path / "run"), epochs=2, batch_size=8,
                rf_trees=5, k_values=(2, 3))
    base.update(kw)
    return RunConfig(**base)


def test_preprocess_peak_memory_is_about_two_matrices(tmp_path):
    # the reader's blocks and their concatenation; each later copy (the
    # split, the scaled train set) is made once the one before is freed
    raw = write_wide_flow_csv(tmp_path / "raw.csv", 6000, 40)
    cfg = small_cfg(tmp_path)
    tracemalloc.start()
    try:
        preprocess_stage(cfg, [raw])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * 6000 * 40 * 8


def test_stage_seed_is_stable_and_distinct():
    a = stage_seed(0, "preprocess")
    assert a == stage_seed(0, "preprocess")
    assert a != stage_seed(0, "rank")
    assert a != stage_seed(1, "preprocess")
    assert 0 <= a < 2 ** 64


def test_resolve_config_precedence():
    cfg = resolve_config({"epochs": 10, "seed": 3}, {"seed": 9})
    assert cfg.epochs == 10
    assert cfg.seed == 9  # flag beats file
    assert cfg.batch_size == 4096  # default survives


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config file setting"):
        resolve_config({"epoch": 10}, None)
    with pytest.raises(ConfigError, match="unknown flags setting"):
        resolve_config(None, {"bogus": 1})


def test_resolve_config_coerces_sequences():
    cfg = resolve_config({"factors": [1, 2], "k_values": [5]}, None)
    assert cfg.factors == (1, 2)
    assert cfg.k_values == (5,)


@pytest.mark.parametrize("values", [
    {"epochs": "ten"}, {"seed": "7"}, {"seed": 7.0}, {"epochs": True},
    {"lr": "0.1"}, {"lr": False}, {"cap_per_class": 2.5},
    {"factors": [1, "2"]}, {"k_values": [5.0]}, {"drop_cols": "Flow ID"},
    {"out_dir": 3},
])
def test_resolve_config_rejects_wrong_types(values):
    key = next(iter(values))
    with pytest.raises(ConfigError, match=f"config file setting '{key}'"):
        resolve_config(values, None)
    with pytest.raises(ConfigError, match=f"flags setting '{key}'"):
        resolve_config(None, values)


@pytest.mark.parametrize("values", [
    {"train_fraction": 1.5}, {"train_fraction": 0.0}, {"batch_size": 0},
    {"bins": 1}, {"factors": []}, {"factors": [1.0, float("inf")]},
    {"epochs": -1}, {"rf_trees": 0}, {"sample_cap": 0},
    {"cap_per_class": 0}, {"lr": 0.0}, {"lr": float("nan")},
])
def test_resolve_config_rejects_out_of_range_values(values):
    key = next(iter(values))
    with pytest.raises(ConfigError, match=f"config file setting '{key}'"):
        resolve_config(values, None)
    with pytest.raises(ConfigError, match=f"flags setting '{key}'"):
        resolve_config(None, values)


def test_resolve_config_takes_values_at_their_bounds():
    cfg = resolve_config({"epochs": 0, "batch_size": 1, "bins": 2,
                          "rf_trees": 1, "sample_cap": 1, "cap_per_class": 1,
                          "train_fraction": 0.01, "lr": 1e-9,
                          "factors": [0.5]}, None)
    assert cfg.epochs == 0 and cfg.bins == 2 and cfg.factors == (0.5,)


def test_resolve_config_takes_ints_as_floats_and_null_as_none():
    cfg = resolve_config({"lr": 1, "factors": [1, 2.5], "k_values": None,
                          "sample_cap": None}, None)
    assert cfg.lr == 1 and cfg.factors == (1, 2.5)
    assert cfg.k_values is None and cfg.sample_cap is None


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config_file(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(arr)


def test_resolve_k_values_ladder_and_warnings(capsys):
    assert resolve_k_values(RunConfig(), 81) == [5, 10, 20, 40, 81]
    assert resolve_k_values(RunConfig(), 20) == [5, 10, 20]
    assert resolve_k_values(RunConfig(), 3) == [3]
    assert resolve_k_values(RunConfig(k_values=(2, 50)), 20) == [2]
    assert "k=50" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="no usable k"):
        resolve_k_values(RunConfig(k_values=(50,)), 20)


def test_run_lock_excludes_and_releases(tmp_path):
    with run_lock(tmp_path):
        assert (tmp_path / ".lock").exists()
        with pytest.raises(RuntimeError, match="another stage"):
            with run_lock(tmp_path):
                pass
    assert not (tmp_path / ".lock").exists()
    with run_lock(tmp_path):
        pass  # usable again


def test_lock_of_a_finished_process_is_reported_as_crashed(tmp_path):
    done = subprocess.Popen([sys.executable, "-c", "pass"])
    done.wait(timeout=60)  # reaped: no process has this pid now
    lock = tmp_path / ".lock"
    lock.write_text(f"pid {done.pid}\n")
    with pytest.raises(RuntimeError) as err:
        with run_lock(tmp_path):
            pass
    msg = str(err.value)
    assert f"pid {done.pid}, which is no longer running" in msg
    assert "another stage" not in msg
    assert lock.read_text() == f"pid {done.pid}\n"  # never deleted


@pytest.mark.parametrize("text", ["pid {own}\n", "", "pid\n", "pid x\n",
                                  "pid 0\n", "pid -1\n", "lock {own}\n"])
def test_lock_of_a_live_or_unknown_process_means_another_stage(tmp_path,
                                                               text):
    lock = tmp_path / ".lock"
    lock.write_text(text.format(own=os.getpid()))
    with pytest.raises(RuntimeError, match="another stage is running"):
        with run_lock(tmp_path):
            pass
    assert lock.read_text() == text.format(own=os.getpid())


def test_sha256_file_known_digest(tmp_path):
    p = tmp_path / "abc.txt"
    p.write_bytes(b"abc")
    assert sha256_file(p) == ("ba7816bf8f01cfea414140de5dae2223"
                              "b00361a396177a9cb410ff61f20015ad")


def test_stage_chain_produces_artifacts_and_manifest(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = small_cfg(tmp_path)
    out = tmp_path / "run"

    preprocess_stage(cfg, [raw])
    assert (out / "train.csv").exists() and (out / "test.csv").exists()
    train_meta = json.loads((out / "train.meta.json").read_text())
    assert train_meta["normalized"] is True
    assert len(train_meta["feature_names"]) == 4  # identity columns dropped

    train_gan_stage(cfg)
    assert (out / "gan.json").exists()
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert len(log_lines) == 1 + cfg.epochs

    rank_stage(cfg)
    names, scores = read_ranking_csv(out / "sensitivity_ranking.csv")
    assert sorted(names) == sorted(train_meta["feature_names"])
    assert np.all(np.diff(scores) <= 0.0)  # descending

    baseline_stage(cfg, "mi")
    baseline_stage(cfg, "anova")
    assert set(discover_rankings(out)) == {"sensitivity", "mi", "anova"}

    evaluate_stage(cfg)
    rows = read_metrics_csv(out / "metrics.csv")
    # 3 selectors x 2 classifiers x k in {2, 3}
    assert len(rows) == 12
    assert {r.selector for r in rows} == {"sensitivity", "mi", "anova"}
    for r in rows:
        assert 0.0 <= r.accuracy <= 1.0 and 0.0 <= r.auc <= 1.0

    report_stage(cfg)
    text = (out / "report.md").read_text()
    assert "| selector |" in text and "sensitivity" in text

    synth_stage(cfg, 10)
    synth_lines = (out / "synthetic.csv").read_text().splitlines()
    assert len(synth_lines) == 11
    assert synth_lines[1].endswith("ATTACK")

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 7
    assert manifest["config"]["epochs"] == 2
    stages = manifest["stages"]
    for name in ("preprocess", "train-gan", "rank", "baseline:mi",
                 "baseline:anova", "evaluate", "report", "synth"):
        assert name in stages, name
        assert "seconds" in stages[name]
    assert stages["rank"]["seed"] == stage_seed(7, "rank")
    # recorded hashes match the artifacts on disk
    recorded = stages["preprocess"]["artifacts"]["train.csv"]
    assert recorded == sha256_file(out / "train.csv")


def arrays_held_by_cycles(run):
    """The arrays that objects left in reference cycles by ``run()`` refer
    to, found with the collector paused while ``run`` runs."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()  # cycles made before the run are not its own
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [r for obj in gc.garbage for r in gc.get_referents(obj)
                if isinstance(r, np.ndarray)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_no_stage_leaves_arrays_in_reference_cycles(tmp_path):
    # an array kept only by a cycle lives until the collector happens to
    # run: a forest's bootstrap copy of the train set, say
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = small_cfg(tmp_path, epochs=1, rf_trees=2, k_values=(1, 2))
    chain = [("preprocess", lambda: preprocess_stage(cfg, [raw])),
             ("train-gan", lambda: train_gan_stage(cfg)),
             ("rank", lambda: rank_stage(cfg))]
    chain += [(f"baseline:{m}", lambda m=m: baseline_stage(cfg, m))
              for m in METHODS]
    chain += [("evaluate", lambda: evaluate_stage(cfg)),
              ("report", lambda: report_stage(cfg)),
              ("synth", lambda: synth_stage(cfg, 5))]
    held = {name: len(arrays_held_by_cycles(run)) for name, run in chain}
    assert held == {name: 0 for name, _ in chain}


def test_synth_reads_the_train_sidecar_not_its_rows(tmp_path, monkeypatch):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = small_cfg(tmp_path)
    out = tmp_path / "run"
    preprocess_stage(cfg, [raw])
    train_gan_stage(cfg)
    # what the stage made when it reloaded the whole train set
    train = load_dataset(out / "train.csv")
    model = load_gan(out / "gan.json")
    seed = stage_seed(cfg.seed, "synth")
    z = np.random.default_rng(seed).standard_normal(
        (9, model.generator.sizes[0]))
    mins, maxs = train.scaler[:, 0], train.scaler[:, 1]
    fake = mins + forward(model.generator, z) * (maxs - mins)
    save_dataset(FlowDataset(fake, train.feature_names,
                             np.ones(9, dtype=np.int64)),
                 tmp_path / "want.csv", extra={"seed": seed,
                                                "generated": True})

    def refuse(path):
        raise AssertionError(f"synth reloaded {path}")

    monkeypatch.setattr(pipeline.data, "load_dataset", refuse)
    synth_stage(cfg, 9)
    for name in ("synthetic.csv", "synthetic.meta.json"):
        want = name.replace("synthetic", "want")
        assert (out / name).read_bytes() == (tmp_path / want).read_bytes()


def test_synth_holds_the_noise_and_the_hidden_outputs_alone(tmp_path):
    # at paper width the pass writes the records over the noise and runs
    # the sigmoid in the last hidden output's memory; the allocating
    # forward holds two record-sized arrays more, and the bytes are its
    raw = write_wide_flow_csv(tmp_path / "raw.csv", 600, 81)
    cfg = small_cfg(tmp_path, epochs=1, batch_size=64)
    out = tmp_path / "run"
    preprocess_stage(cfg, [raw])
    train_gan_stage(cfg)
    train = load_dataset(out / "train.csv")
    n, d = 6000, train.n_features
    tracemalloc.start()
    try:
        synth_stage(cfg, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * (64 + 128 + d) * 8 + 2**20
    z = np.random.default_rng(stage_seed(cfg.seed, "synth")).standard_normal(
        (n, d))
    mins, maxs = train.scaler[:, 0], train.scaler[:, 1]
    want = mins + forward(load_gan(out / "gan.json").generator, z) * (
        maxs - mins)
    got = load_dataset(out / "synthetic.csv").features
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rank_drops_the_full_train_set_before_scoring(tmp_path, monkeypatch):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = small_cfg(tmp_path)
    preprocess_stage(cfg, [raw])
    train_gan_stage(cfg)
    loaded, held = [], []
    load, score = pipeline.data.load_dataset, pipeline.sensitivity_scores

    def watched_load(path):
        ds = load(path)
        loaded.append(weakref.ref(ds.features))
        return ds

    def checked_score(*args, **kwargs):
        held.append([ref() is not None for ref in loaded])
        return score(*args, **kwargs)

    monkeypatch.setattr(pipeline.data, "load_dataset", watched_load)
    monkeypatch.setattr(pipeline, "sensitivity_scores", checked_score)
    rank_stage(cfg)
    assert held == [[False]]


def test_manifest_keys_are_run_dir_paths_with_current_hashes(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = small_cfg(tmp_path)
    out = tmp_path / "run"
    preprocess_stage(cfg, [raw])
    train_gan_stage(cfg)
    rank_stage(cfg)
    baseline_stage(cfg, "mi")
    evaluate_stage(cfg)
    report_stage(cfg)
    synth_stage(cfg, 5)
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert "series/f1_mi_logreg.csv" in stages["report"]["artifacts"]
    assert {"train.npy", "test.npy"} <= set(stages["preprocess"]["artifacts"])
    assert "synthetic.npy" in stages["synth"]["artifacts"]
    for name, entry in stages.items():
        for key, digest in entry["artifacts"].items():
            assert (out / key).is_file(), (name, key)
            assert sha256_file(out / key) == digest, (name, key)


def test_each_saved_dataset_file_is_hashed_once(tmp_path, monkeypatch):
    # the sidecar and the manifest record the same digests; the manifest
    # takes the ones save_dataset computed
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = small_cfg(tmp_path)
    out = tmp_path / "run"
    hashed = []

    def counted(path):
        hashed.append(os.path.relpath(path, out))
        return sha256_file(path)

    monkeypatch.setattr(pipeline, "sha256_file", counted)
    monkeypatch.setattr(pipeline.data, "sha256_file", counted)
    preprocess_stage(cfg, [raw])
    assert sorted(hashed) == sorted(
        f"{name}{ext}" for name in ("train", "test")
        for ext in (".csv", ".npy", ".meta.json"))
    train_gan_stage(cfg)
    hashed.clear()
    synth_stage(cfg, 5)
    assert sorted(hashed) == ["synthetic.csv", "synthetic.meta.json",
                              "synthetic.npy"]
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    for name in ("preprocess", "synth"):
        for key, digest in stages[name]["artifacts"].items():
            assert sha256_file(out / key) == digest, (name, key)


def test_manifest_records_each_stage_effective_config(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    preprocess_stage(small_cfg(tmp_path, epochs=2), [raw])
    train_gan_stage(small_cfg(tmp_path, epochs=3))
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 3  # what the latest stage saw
    assert manifest["stages"]["preprocess"]["config"]["epochs"] == 2
    assert manifest["stages"]["train-gan"]["config"]["epochs"] == 3


def test_manifest_top_level_follows_the_latest_stage(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    preprocess_stage(small_cfg(tmp_path, seed=7), [raw])
    preprocess_stage(small_cfg(tmp_path, seed=8), [raw])
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["master_seed"] == 8
    assert manifest["config"]["seed"] == 8
    assert manifest["stages"]["preprocess"]["seed"] == stage_seed(8,
                                                                  "preprocess")


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path,
                                                           monkeypatch):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = small_cfg(tmp_path)
    preprocess_stage(cfg, [raw])
    path = tmp_path / "run" / "manifest.json"
    before = path.read_bytes()

    real_dump = json.dump

    def dump_then_fail(doc, fh, **kw):
        if "stages" not in doc:  # artifact sidecars write normally
            return real_dump(doc, fh, **kw)
        fh.write('{"tool_version": "0.')
        raise OSError("disk full")

    monkeypatch.setattr(pipeline.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        preprocess_stage(cfg, [raw])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert "preprocess" in json.loads(before)["stages"]
    assert sorted(p.name for p in path.parent.iterdir()
                  if p.name.startswith((".", "manifest"))) == ["manifest.json"]


def test_library_stage_call_takes_the_lock(tmp_path):
    cfg = small_cfg(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text("pid 1\n")
    with pytest.raises(RuntimeError, match="another stage"):
        rank_stage(cfg)
    assert (out / ".lock").exists()  # another run's lock is left alone
    assert not (out / "manifest.json").exists()


def test_missing_artifacts_are_actionable(tmp_path):
    cfg = small_cfg(tmp_path)
    with pytest.raises(RuntimeError, match="preprocess"):
        train_gan_stage(cfg)
    with pytest.raises(RuntimeError, match="train-gan|preprocess"):
        rank_stage(cfg)
    with pytest.raises(RuntimeError, match="preprocess"):
        evaluate_stage(cfg)


def test_synth_count_validation(tmp_path):
    cfg = small_cfg(tmp_path)
    with pytest.raises(ConfigError, match="n >= 1"):
        synth_stage(cfg, 0)


def _seed_metrics_table(out, selectors, ks):
    out.mkdir(parents=True, exist_ok=True)
    rows = [MetricRow(sel, clf, k, 0.9, 0.8, 0.7, 0.75, 0.95, 0.01)
            for sel in selectors for clf in ("logreg", "forest") for k in ks]
    write_metrics_csv(rows, out / "metrics.csv")
    # one ranking so the report has a top-10 section to render
    write_report_csv(make_report(["a", "b"], np.array([0.2, 0.1])),
                     out / "sensitivity_ranking.csv")


def test_report_series_files_cover_selector_classifier_grid(tmp_path):
    cfg = small_cfg(tmp_path)
    out = tmp_path / "run"
    _seed_metrics_table(out, ["sensitivity", "mi", "chi2", "anova"], [5, 10])
    report_stage(cfg)
    series = sorted((out / "series").glob("*.csv"))
    # 4 selectors x 2 classifiers = 8 files for each of the 4 metrics
    assert len(series) == 32
    sample = (out / "series" / "f1_mi_logreg.csv").read_text()
    assert sample.splitlines()[0] == "k,f1"
    assert len(sample.splitlines()) == 3  # header + one row per k

    before = {p.name: p.read_bytes() for p in series}
    before["report.md"] = (out / "report.md").read_bytes()
    report_stage(cfg)
    after = {p.name: p.read_bytes() for p in sorted((out / "series").glob("*.csv"))}
    after["report.md"] = (out / "report.md").read_bytes()
    assert before == after  # regeneration is byte-identical


def test_report_errors_on_empty_metrics(tmp_path):
    cfg = small_cfg(tmp_path)
    out = tmp_path / "run"
    out.mkdir(parents=True)
    write_metrics_csv([], out / "metrics.csv")
    with pytest.raises(RuntimeError, match="empty"):
        report_stage(cfg)


def test_single_epoch_smoke_and_checkpoint_rerun(tmp_path):
    ds = make_synthetic(SyntheticSpec(n_attack=1000, n_benign=1000, d=20,
                                      informative_idx=(0, 5), seed=3))
    raw = tmp_path / "raw.csv"
    save_dataset(ds, raw)
    cfg = small_cfg(tmp_path, epochs=1, batch_size=4096)
    preprocess_stage(cfg, [raw])
    t0 = time.monotonic()
    train_gan_stage(cfg)
    assert time.monotonic() - t0 < 30.0
    digest = sha256_file(tmp_path / "run" / "gan.json")
    train_gan_stage(cfg)
    assert sha256_file(tmp_path / "run" / "gan.json") == digest


def test_interrupted_training_retains_partial_log(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = small_cfg(tmp_path, epochs=5)
    preprocess_stage(cfg, [raw])

    def boom(log):
        if log.epoch == 2:
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        train_gan_stage(cfg, progress=boom)
    lines = (tmp_path / "run" / "training_log.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # header plus the two finished epochs
    # a failed stage gets no manifest entry and releases the lock
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"preprocess"}
    assert not (tmp_path / "run" / ".lock").exists()


def test_rank_top1_recovers_planted_signature(tmp_path):
    # one low-cardinality signature column among uniform noise: the
    # ranking must put it first
    rng = np.random.default_rng(5)
    n_attack, n_benign, d = 300, 60, 6
    x = rng.uniform(0.0, 1.0, size=(n_attack + n_benign, d))
    x[:n_attack, 3] = rng.choice([0.7, 0.9], size=n_attack)
    x[n_attack:, 3] = rng.choice([0.1, 0.3], size=n_benign)
    raw = tmp_path / "raw.csv"
    header = ",".join([f"f{i}" for i in range(d)] + ["Label"])
    rows = [",".join([repr(float(v)) for v in row]) + ("," + ("DDoS"
            if i < n_attack else "BENIGN")) for i, row in enumerate(x)]
    raw.write_text("\n".join([header] + rows) + "\n")

    cfg = small_cfg(tmp_path, epochs=30, batch_size=64)
    preprocess_stage(cfg, [raw])
    train_gan_stage(cfg)
    rank_stage(cfg)
    names, _ = read_ranking_csv(tmp_path / "run" / "sensitivity_ranking.csv")
    assert names[0] == "f3"
