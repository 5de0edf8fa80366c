"""Stage orchestration: artifacts, manifests, seeds and locking.

Each stage runs inside ``stage``, which locks the run directory, checks
the stage's inputs, times it, and records what it did (derived seed, wall
time, effective config, sha256 of every artifact) in manifest.json. Stage
seeds are derived from the master seed by hashing "master:stage", so any
stage is reproducible in isolation and no stage consumes another's random
stream.
"""

import hashlib
import json
import math
import os
import sys
import time
import types
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, data
from .baselines import DEFAULT_BINS, METHODS, baseline_scores
from .classifiers import LogisticRegression, RandomForest
from .data import sha256_file
from .gan import GanConfig, load_gan, save_gan, train_gan, write_training_log
from .metrics import (
    ConfusionCounts, MetricRow, prf_scores, read_metrics_csv, roc_auc,
    write_metrics_csv,
)
from .nets import forward
from .sensitivity import (
    DEFAULT_FACTORS, PerturbConfig, make_report, read_ranking_csv,
    sensitivity_scores, write_report_csv,
)

MANIFEST_NAME = "manifest.json"
LOCK_NAME = ".lock"
# input artifact -> the stage that writes it, for "run it first" errors
_MADE_BY = {"train.csv": "preprocess", "test.csv": "preprocess",
            "gan.json": "train-gan", "metrics.csv": "evaluate"}


class ConfigError(ValueError):
    """Bad run configuration: unknown keys, wrong types, missing file."""


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "out"
    # data handling
    drop_cols: tuple[str, ...] = data.DEFAULT_DROP_COLS
    cap_per_class: int | None = None
    train_fraction: float = 0.8
    # adversarial training
    epochs: int = 500
    batch_size: int = 4096
    lr: float = 0.001
    # sensitivity scoring
    factors: tuple[float, ...] = DEFAULT_FACTORS
    sample_cap: int | None = None
    # baseline selectors
    bins: int = DEFAULT_BINS
    rf_trees: int = 100
    # evaluation
    k_values: tuple[int, ...] | None = None  # None: 5/10/20/40/d, trimmed to d


# field -> (test, the range it states); a None value is not tested
_RANGES = {
    "train_fraction": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "epochs": (lambda v: v >= 0, ">= 0"),
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "rf_trees": (lambda v: v >= 1, ">= 1"),
    "sample_cap": (lambda v: v >= 1, ">= 1"),
    "cap_per_class": (lambda v: v >= 1, ">= 1"),
    "lr": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "bins": (lambda v: v >= 2, ">= 2"),
    "factors": (lambda v: len(v) > 0 and all(map(math.isfinite, v)),
                "non-empty and finite"),
}


def _fits(value, hint) -> bool:
    """Whether a decoded config value has the type its annotation names.

    A bool is not an int, while an int passes where a float is expected.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, h) for h in args)
    if origin is tuple:
        return (isinstance(value, (list, tuple))
                and all(_fits(v, args[0]) for v in value))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def resolve_config(file_values: dict | None = None,
                   overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid with config-file values, overlaid with flags;
    each value must match its RunConfig annotation (lists become tuples)
    and lie in its field's range."""
    hints = {f.name: f.type for f in fields(RunConfig)}
    merged = {}
    for source, name in ((file_values, "config file"), (overrides, "flags")):
        for key, value in (source or {}).items():
            if key not in hints:
                raise ConfigError(f"unknown {name} setting '{key}'")
            hint = hints[key]
            if not _fits(value, hint):
                want = hint.__name__ if isinstance(hint, type) else hint
                raise ConfigError(f"{name} setting '{key}' must be {want}, "
                                  f"got {value!r}")
            in_range, want = _RANGES.get(key, (None, None))
            if in_range and value is not None and not in_range(value):
                raise ConfigError(f"{name} setting '{key}' must be {want}, "
                                  f"got {value!r}")
            merged[key] = tuple(value) if isinstance(value, list) else value
    return RunConfig(**merged)


def stage_seed(master_seed: int, stage: str) -> int:
    """Stable 64-bit seed for one named stage of one run."""
    digest = hashlib.blake2b(f"{master_seed}:{stage}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


@contextmanager
def run_lock(out_dir):
    """One stage at a time per run directory, via an exclusive lockfile."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise RuntimeError(_held_lock_message(lock)) from None
    try:
        os.write(fd, f"pid {os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _held_lock_message(lock: Path) -> str:
    """Why ``lock`` blocks a stage, telling a crashed run from a live one.

    The lock holds "pid N" of the process that took it. When no process
    N runs on this machine, that run crashed and the file is stale; the
    lock is never removed here, since a process on another machine
    sharing the directory would look just as dead.
    """
    try:
        tag, pid = lock.read_text().split()
        pid = int(pid) if tag == "pid" else 0
    except (OSError, ValueError):  # gone, unreadable, or not yet written
        pid = 0
    if pid > 0:  # 0 and negative numbers would name process groups
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return (f"{lock} was left by pid {pid}, which is no longer "
                    "running: a stage in this directory crashed; delete "
                    "the file to continue")
        except OSError:
            pass  # e.g. another user's process: it is running
    return (f"{lock} exists: another stage is running in this directory "
            "(delete the file if that run crashed)")


@contextmanager
def stage(cfg: RunConfig, name: str, seed=None, needs=()):
    """Run one stage's body in the locked run directory.

    Checks that every artifact in ``needs`` exists and that any existing
    manifest can be read and extended, then yields
    ``(out_dir, seed, artifacts)``: the seed is ``stage_seed(cfg.seed,
    name)`` unless given, and the body appends each path it writes to
    ``artifacts``. Only when the body succeeds does the stage get a
    manifest entry: its seed, the body's wall time, the effective config
    and the sha256 of every artifact, keyed by run-directory path. The
    manifest's top-level ``master_seed`` and ``config`` are those of the
    stage recorded last, and the file is replaced whole, never rewritten
    in place.
    """
    out_dir = Path(cfg.out_dir)
    with run_lock(out_dir):
        for need in needs:
            if not (out_dir / need).exists():
                raise RuntimeError(f"{out_dir / need} not found; "
                                   f"run `{_MADE_BY[need]}` first")
        path = out_dir / MANIFEST_NAME
        stages = _recorded_stages(path)
        seed = stage_seed(cfg.seed, name) if seed is None else seed
        artifacts = []
        start = time.perf_counter()
        yield out_dir, seed, artifacts
        seconds = time.perf_counter() - start
        stages[name] = {
            "seed": seed,
            "seconds": seconds,
            "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime()),
            "config": asdict(cfg),
            "artifacts": {Path(a).relative_to(out_dir).as_posix():
                          sha256_file(a) for a in artifacts},
        }
        manifest = {"tool_version": __version__, "master_seed": cfg.seed,
                    "config": asdict(cfg), "stages": stages}
        # a crash mid-write must not cost the entries already recorded
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w") as fh:
                json.dump(manifest, fh, indent=2)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _recorded_stages(path: Path) -> dict:
    """The ``stages`` object of the manifest at ``path``, {} if none exists.

    A manifest that is not JSON, or not an object whose ``stages`` is an
    object, is a RuntimeError naming it, so no stage runs whose results
    could not be recorded.
    """
    if not path.exists():
        return {}
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # torn JSON or bytes that are not text
        raise RuntimeError(f"{path}: unreadable manifest ({exc}); repair "
                           "or remove it to run a stage") from None
    stages = doc.get("stages") if isinstance(doc, dict) else None
    if not isinstance(stages, dict):
        raise RuntimeError(f"{path}: not a manifest, expected an object "
                           "whose 'stages' is an object; repair or remove "
                           "it to run a stage")
    return stages


def preprocess_stage(cfg: RunConfig, inputs) -> list:
    """Clean, cap, split and normalize raw CSVs into train/test artifacts."""
    with stage(cfg, "preprocess") as (out_dir, seed, artifacts):
        ds = data.read_captures(inputs, drop_cols=cfg.drop_cols)
        if cfg.cap_per_class is not None:
            ds = data.cap_per_class(ds, cfg.cap_per_class, seed=seed)
        train, test = data.split(ds, data.SplitSpec(
            train_fraction=cfg.train_fraction, seed=seed))
        train = data.normalize(train)
        test = data.apply_scaler(test, train.scaler)
        extra = {"drop_cols": list(cfg.drop_cols), "seed": seed}
        train_path = out_dir / "train.csv"
        test_path = out_dir / "test.csv"
        artifacts += data.save_dataset(train, train_path, extra=extra)
        artifacts += data.save_dataset(test, test_path, extra=extra)
    return artifacts


def train_gan_stage(cfg: RunConfig, progress=None) -> list:
    """Adversarially train on the attack rows of the prepared train set.

    If training diverges mid-run, the epochs completed so far are still
    written to the log before the error propagates.
    """
    seen = []

    def keep(log):
        seen.append(log)
        if progress is not None:
            progress(log)

    with stage(cfg, "train-gan", needs=("train.csv",)) as (
            out_dir, seed, artifacts):
        attacks = data.filter_attacks(
            data.load_dataset(out_dir / "train.csv"))
        gan_cfg = GanConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                            lr=cfg.lr, seed=seed)
        log_path = out_dir / "training_log.csv"
        try:
            model, logs = train_gan(attacks.features, gan_cfg, progress=keep)
        except Exception:
            write_training_log(seen, log_path)
            raise
        model_path = out_dir / "gan.json"
        save_gan(model, model_path)
        write_training_log(logs, log_path)
        artifacts += [model_path, log_path]
    return artifacts


def rank_stage(cfg: RunConfig) -> Path:
    """Score features by discriminator sensitivity; write the ranking."""
    with stage(cfg, "rank", needs=("train.csv", "gan.json")) as (
            out_dir, seed, artifacts):
        train = data.load_dataset(out_dir / "train.csv")
        attacks = data.filter_attacks(train)
        model = load_gan(out_dir / "gan.json")
        if model.discriminator.sizes[0] != attacks.n_features:
            raise RuntimeError(
                f"gan.json's discriminator takes "
                f"{model.discriminator.sizes[0]} features but train.csv "
                f"has {attacks.n_features}; artifacts are mismatched")
        scores = sensitivity_scores(
            model.discriminator, attacks.features,
            PerturbConfig(factors=cfg.factors, sample_cap=cfg.sample_cap,
                          seed=seed))
        report = make_report(attacks.feature_names, scores)
        out = out_dir / "sensitivity_ranking.csv"
        write_report_csv(report, out)
        artifacts.append(out)
    return out


def baseline_stage(cfg: RunConfig, method: str) -> Path:
    """Rank features with one classical selector on the train set."""
    if method not in METHODS:
        raise ConfigError(f"unknown selector '{method}', "
                          f"expected one of {METHODS}")
    with stage(cfg, f"baseline:{method}", needs=("train.csv",)) as (
            out_dir, seed, artifacts):
        train = data.load_dataset(out_dir / "train.csv")
        scores = baseline_scores(method, train.features, train.labels,
                                 bins=cfg.bins, rf_trees=cfg.rf_trees,
                                 seed=seed)
        report = make_report(train.feature_names, scores)
        out = out_dir / f"{method}_ranking.csv"
        write_report_csv(report, out, score_col="Score")
        artifacts.append(out)
    return out


def resolve_k_values(cfg: RunConfig, d: int) -> list:
    """Subset sizes to sweep: default ladder trimmed to d, or the
    configured list with oversized entries warned about and skipped."""
    if cfg.k_values is None:
        ladder = [k for k in (5, 10, 20, 40, d) if k <= d]
        return sorted(set(ladder))
    ks = []
    for k in cfg.k_values:
        if not 1 <= k <= d:
            print(f"warning: k={k} outside 1..{d}, skipped", file=sys.stderr)
        else:
            ks.append(int(k))
    if not ks:
        raise ConfigError(f"no usable k values in {cfg.k_values} for d={d}")
    return sorted(set(ks))


def discover_rankings(out_dir) -> dict:
    """Selector name -> ranking path for every ranking in the run dir."""
    found = {}
    for p in sorted(Path(out_dir).glob("*_ranking.csv")):
        found[p.name[: -len("_ranking.csv")]] = p
    return found


def evaluate_stage(cfg: RunConfig) -> Path:
    """Benchmark every ranked subset with both classifiers on the test set."""
    with stage(cfg, "evaluate", seed=cfg.seed,
               needs=("train.csv", "test.csv")) as (out_dir, _, artifacts):
        rankings = discover_rankings(out_dir)
        if not rankings:
            raise RuntimeError(f"no *_ranking.csv in {out_dir}; "
                               "run `rank` or `baseline` first")
        train = data.load_dataset(out_dir / "train.csv")
        test = data.load_dataset(out_dir / "test.csv")
        ks = resolve_k_values(cfg, train.n_features)
        name_to_col = {n: i for i, n in enumerate(train.feature_names)}
        rows = []
        for selector, path in sorted(rankings.items()):
            names, _ = read_ranking_csv(path)
            unknown = [n for n in names if n not in name_to_col]
            if unknown:
                raise RuntimeError(
                    f"{path} ranks features missing from the train set: "
                    f"{unknown[:3]}")
            if len(names) != train.n_features:
                rerun = ("rank" if selector == "sensitivity"
                         else f"baseline --method {selector}")
                raise RuntimeError(
                    f"{path} ranks {len(names)} features, expected all "
                    f"{train.n_features} of train.csv; rerun `{rerun}`")
            for k in ks:
                cols = [name_to_col[n] for n in names[:k]]
                xtr, xte = train.features[:, cols], test.features[:, cols]
                seed = stage_seed(cfg.seed, f"evaluate:{selector}:{k}")
                for clf_name, clf in (
                        ("logreg", LogisticRegression()),
                        ("forest", RandomForest(n_trees=cfg.rf_trees,
                                                seed=seed))):
                    start = time.perf_counter()
                    clf.fit(xtr, train.labels)
                    seconds = time.perf_counter() - start
                    proba = clf.predict_proba(xte)
                    pred = (proba >= 0.5).astype(np.int64)
                    counts = ConfusionCounts.from_predictions(test.labels, pred)
                    prf = prf_scores(counts)
                    rows.append(MetricRow(
                        selector=selector, classifier=clf_name, k=k,
                        accuracy=prf.accuracy, precision=prf.precision,
                        recall=prf.recall, f1=prf.f1,
                        auc=roc_auc(test.labels, proba),
                        train_seconds=seconds))
        out = out_dir / "metrics.csv"
        write_metrics_csv(rows, out)
        artifacts.append(out)
    return out


SERIES_METRICS = ("accuracy", "precision", "recall", "f1")


def write_series_files(rows, series_dir: Path):
    """Emit one metric-vs-k CSV per (selector, classifier) pair.

    Plot-ready data; rendering is left to external tools. Returns the
    written paths in a deterministic order.
    """
    series_dir.mkdir(parents=True, exist_ok=True)
    pairs = sorted({(r.selector, r.classifier) for r in rows})
    paths = []
    for metric in SERIES_METRICS:
        for selector, classifier in pairs:
            picked = sorted((r.k, getattr(r, metric)) for r in rows
                            if r.selector == selector
                            and r.classifier == classifier)
            path = series_dir / f"{metric}_{selector}_{classifier}.csv"
            lines = [f"k,{metric}"]
            lines += [f"{k},{repr(float(v))}" for k, v in picked]
            path.write_text("\n".join(lines) + "\n")
            paths.append(path)
    return paths


def report_stage(cfg: RunConfig) -> Path:
    """Condense rankings and metrics into a markdown report plus plot data."""
    with stage(cfg, "report", seed=cfg.seed, needs=("metrics.csv",)) as (
            out_dir, _, artifacts):
        rows = read_metrics_csv(out_dir / "metrics.csv")
        if not rows:
            raise RuntimeError("metrics table is empty; rerun `evaluate` "
                               "with at least one ranking present")
        rankings = discover_rankings(out_dir)
        lines = ["# Feature selection benchmark", ""]
        if rankings:
            lines.append("## Top 10 features per selector")
            lines.append("")
            for selector, path in sorted(rankings.items()):
                names, scores = read_ranking_csv(path)
                lines.append(f"### {selector}")
                lines.append("")
                lines.append("| rank | feature | score |")
                lines.append("|---|---|---|")
                for i, (n, s) in enumerate(zip(names[:10], scores[:10]), 1):
                    lines.append(f"| {i} | {n} | {s:.6g} |")
                lines.append("")
        lines.append("## Metrics by selector, classifier and subset size")
        lines.append("")
        lines.append("| selector | classifier | k | accuracy | precision "
                     "| recall | f1 | auc |")
        lines.append("|---|---|---|---|---|---|---|---|")
        for r in rows:
            lines.append(f"| {r.selector} | {r.classifier} | {r.k} "
                         f"| {r.accuracy:.4f} | {r.precision:.4f} "
                         f"| {r.recall:.4f} | {r.f1:.4f} | {r.auc:.4f} |")
        lines.append("")
        best = max(rows, key=lambda r: r.f1)
        lines.append(f"Best F1 {best.f1:.4f}: {best.selector} top-{best.k} "
                     f"with {best.classifier}.")
        lines.append("")
        series = write_series_files(rows, out_dir / "series")
        lines.append(f"Per-k series data: {len(series)} files under "
                     f"`series/`.")
        lines.append("")
        out = out_dir / "report.md"
        out.write_text("\n".join(lines))
        artifacts += [out] + series
    return out


def synth_stage(cfg: RunConfig, n: int) -> Path:
    """Sample records from the trained generator, mapped to raw units."""
    if n < 1:
        raise ConfigError("need n >= 1 synthetic records")
    with stage(cfg, "synth", needs=("gan.json", "train.csv")) as (
            out_dir, seed, artifacts):
        # names and scaler are all it needs of the train set
        meta = data.load_meta(out_dir / "train.csv")
        names = meta["feature_names"]
        model = load_gan(out_dir / "gan.json")
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, model.generator.sizes[0]))
        fake = forward(model.generator, z)
        if fake.shape[1] != len(names):
            raise RuntimeError(
                f"generator emits {fake.shape[1]} features but the train "
                f"set has {len(names)}; artifacts are mismatched")
        if meta.get("scaler") is not None:
            scaler = np.asarray(meta["scaler"], dtype=np.float64)
            mins, maxs = scaler[:, 0], scaler[:, 1]
            fake *= maxs - mins
            fake += mins
        ds = data.FlowDataset(features=fake, feature_names=names,
                              labels=np.ones(n, dtype=np.int64))
        out = out_dir / "synthetic.csv"
        artifacts += data.save_dataset(ds, out, extra={"seed": seed,
                                                       "generated": True})
    return out
