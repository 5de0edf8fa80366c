"""End-to-end CLI tests: full run, flag precedence, exit-code contract."""

import json

from click.testing import CliRunner

from conftest import write_raw_flow_csv
from ganfs.cli import main
from ganfs.data import (
    DEFAULT_DROP_COLS, SyntheticSpec, make_synthetic, save_dataset,
)
from ganfs.metrics import read_metrics_csv
from ganfs.sensitivity import read_ranking_csv


def invoke(args, env=None):
    return CliRunner().invoke(main, args, env=env)


def write_config(tmp_path, **kw):
    base = dict(epochs=2, batch_size=8, rf_trees=5, k_values=[2, 3])
    base.update(kw)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(base))
    return p


def run_full_pipeline(tmp_path, out, seed=1):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = write_config(tmp_path)
    base = ["--config", str(cfg), "--seed", str(seed), "--out", str(out)]
    for args in (["preprocess", str(raw)], ["train-gan"], ["rank"],
                 ["baseline", "--method", "mi"], ["evaluate"], ["report"],
                 ["synth", "--n", "5"]):
        result = invoke(base + args)
        assert result.exit_code == 0, (args, result.output)
    return out


def test_full_run_produces_all_artifacts(tmp_path):
    out = run_full_pipeline(tmp_path, tmp_path / "run")
    for name in ("train.csv", "test.csv", "gan.json", "training_log.csv",
                 "sensitivity_ranking.csv", "mi_ranking.csv", "metrics.csv",
                 "report.md", "synthetic.csv", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 1
    assert not (out / ".lock").exists()


def test_same_seed_reproduces_ranking_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = run_full_pipeline(tmp_path / "a", tmp_path / "a" / "run", seed=3)
    b = run_full_pipeline(tmp_path / "b", tmp_path / "b" / "run", seed=3)
    assert ((a / "sensitivity_ranking.csv").read_bytes()
            == (b / "sensitivity_ranking.csv").read_bytes())
    assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()


def test_config_via_environment_variable(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    cfg = write_config(tmp_path, epochs=1)
    out = tmp_path / "run"
    result = invoke(["--out", str(out), "preprocess", str(raw)],
                    env={"GANFS_CONFIG": str(cfg)})
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 1


def test_missing_label_column_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    result = invoke(["--out", str(tmp_path / "run"), "preprocess", str(bad)])
    assert result.exit_code == 2
    assert "Label" in result.output


def test_header_only_input_is_a_usage_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("a,Label\n")
    result = invoke(["--out", str(tmp_path / "run"), "preprocess", str(empty)])
    assert result.exit_code == 2
    assert "no data rows" in result.output


def test_unknown_config_key_is_a_usage_error(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"epochz": 3}')
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    result = invoke(["--config", str(cfg), "--out", str(tmp_path / "run"),
                     "preprocess", str(raw)])
    assert result.exit_code == 2
    assert "epochz" in result.output


def test_wrong_config_type_is_a_usage_error(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"epochs": "ten"}')
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    result = invoke(["--config", str(cfg), "--out", str(tmp_path / "run"),
                     "preprocess", str(raw)])
    assert result.exit_code == 2
    assert "'epochs' must be int" in result.output


def test_out_of_range_config_value_is_a_usage_error(tmp_path):
    cfg = write_config(tmp_path, bins=1)
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    result = invoke(["--config", str(cfg), "--out", str(tmp_path / "run"),
                     "preprocess", str(raw)])
    assert result.exit_code == 2
    assert "'bins' must be >= 2" in result.output


def test_missing_sidecar_is_a_usage_error(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    base = ["--config", str(write_config(tmp_path)),
            "--out", str(tmp_path / "run")]
    for args in (["preprocess", str(raw)], ["train-gan"]):
        assert invoke(base + args).exit_code == 0
    (tmp_path / "run" / "train.meta.json").unlink()
    result = invoke(base + ["synth", "--n", "3"])
    assert result.exit_code == 2
    assert "train.meta.json not found" in result.output
    assert not (tmp_path / "run" / "synthetic.csv").exists()


def test_edited_train_set_is_a_usage_error(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    out = tmp_path / "run"
    base = ["--config", str(write_config(tmp_path)), "--out", str(out)]
    for args in (["preprocess", str(raw)], ["train-gan"]):
        assert invoke(base + args).exit_code == 0
    train = out / "train.csv"
    lines = train.read_text().split("\n")
    lines[1] = "1" + lines[1]  # one cell of the first data row
    train.write_text("\n".join(lines))
    result = invoke(base + ["rank"])
    assert result.exit_code == 2
    assert f"{train} has changed" in result.output
    assert not (out / "sensitivity_ranking.csv").exists()


def test_threads_flag_is_a_usage_error(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    result = invoke(["--threads", "2", "--out", str(tmp_path / "run"),
                     "preprocess", str(raw)])
    assert result.exit_code == 2
    assert "--threads" in result.output


def test_bad_method_choice_is_a_usage_error(tmp_path):
    result = invoke(["--out", str(tmp_path / "run"),
                     "baseline", "--method", "pca"])
    assert result.exit_code == 2


def test_missing_artifacts_fail_with_code_one(tmp_path):
    result = invoke(["--out", str(tmp_path / "run"), "rank"])
    assert result.exit_code == 1
    assert "preprocess" in result.output or "train-gan" in result.output


def test_truncated_checkpoint_fails_with_code_one(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    out = tmp_path / "run"
    base = ["--config", str(write_config(tmp_path)), "--out", str(out)]
    for args in (["preprocess", str(raw)], ["train-gan"]):
        assert invoke(base + args).exit_code == 0
    model = out / "gan.json"
    model.write_bytes(model.read_bytes()[:1000])
    result = invoke(base + ["rank"])
    assert result.exit_code == 1
    assert "gan.json: bad model checkpoint" in result.output
    assert not (out / "sensitivity_ranking.csv").exists()


def test_rank_on_a_mismatched_checkpoint_fails_with_code_one(tmp_path):
    # preprocess rerun with one more dropped column after train-gan leaves
    # a discriminator one feature wider than train.csv
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    out = tmp_path / "run"
    base = ["--config", str(write_config(tmp_path)), "--out", str(out)]
    for args in (["preprocess", str(raw)], ["train-gan"]):
        assert invoke(base + args).exit_code == 0
    narrower = write_config(
        tmp_path, drop_cols=[*DEFAULT_DROP_COLS, "SYN Flag Count"])
    assert invoke(["--config", str(narrower), "--out", str(out),
                   "preprocess", str(raw)]).exit_code == 0
    result = invoke(base + ["rank"])
    assert result.exit_code == 1
    assert ("gan.json's discriminator takes 4 features but train.csv has 3"
            in result.output)
    assert not (out / "sensitivity_ranking.csv").exists()


def test_held_lock_fails_with_code_one(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text("pid 1\n")
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    result = invoke(["--out", str(out), "preprocess", str(raw)])
    assert result.exit_code == 1
    assert "another stage" in result.output


def test_evaluate_before_any_ranking_fails(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    out = tmp_path / "run"
    assert invoke(["--out", str(out), "preprocess", str(raw)]).exit_code == 0
    result = invoke(["--out", str(out), "evaluate"])
    assert result.exit_code == 1
    assert "ranking" in result.output


def test_duplicate_ranking_row_fails_evaluate(tmp_path):
    raw = write_raw_flow_csv(tmp_path / "raw.csv")
    out = tmp_path / "run"
    base = ["--config", str(write_config(tmp_path)), "--out", str(out)]
    for args in (["preprocess", str(raw)], ["baseline", "--method", "anova"]):
        assert invoke(base + args).exit_code == 0
    ranking = out / "anova_ranking.csv"
    lines = ranking.read_text().splitlines()
    ranking.write_text("\n".join(lines + [lines[1]]) + "\n")
    result = invoke(base + ["evaluate"])
    assert result.exit_code == 1
    assert "anova_ranking.csv: bad data row" in result.output
    assert "duplicate feature" in result.output
    assert not (out / "metrics.csv").exists()


def test_truncated_ranking_fails_evaluate(tmp_path):
    # a ranking cut at a row boundary reads cleanly, but names 7 of 12
    raw = tmp_path / "raw.csv"
    save_dataset(make_synthetic(SyntheticSpec(
        n_attack=30, n_benign=30, d=12, informative_idx=(0,), seed=1)), raw)
    out = tmp_path / "run"
    base = ["--out", str(out)]
    for args in (["preprocess", str(raw)], ["baseline", "--method", "anova"]):
        assert invoke(base + args).exit_code == 0
    ranking = out / "anova_ranking.csv"
    lines = ranking.read_text().splitlines()
    ranking.write_text("\n".join(lines[:1 + 7]) + "\n")
    result = invoke(base + ["evaluate"])
    assert result.exit_code == 1
    assert (f"{ranking} ranks 7 features, expected all 12 of train.csv; "
            "rerun `baseline --method anova`") in result.output
    assert not (out / "metrics.csv").exists()


def test_metrics_cover_every_selector_and_k(tmp_path):
    out = run_full_pipeline(tmp_path, tmp_path / "run")
    rows = read_metrics_csv(out / "metrics.csv")
    combos = {(r.selector, r.classifier, r.k) for r in rows}
    assert combos == {(s, c, k) for s in ("sensitivity", "mi")
                      for c in ("logreg", "forest") for k in (2, 3)}
    names, _ = read_ranking_csv(out / "sensitivity_ranking.csv")
    assert len(names) == 4
