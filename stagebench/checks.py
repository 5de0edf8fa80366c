"""Output checks for one run directory, attributed to the stage at fault.

Every check returns a list of problems (empty when the output is right).
``check_run`` maps each stage label of a workload to its problems, so a
bad artifact counts as a failed invocation of the stage that wrote it.
Only the standard library is used.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

METRIC_COLUMNS = ("selector", "classifier", "k", "accuracy", "precision",
                  "recall", "f1", "auc", "train_seconds")
LABELS = ("BENIGN", "ATTACK")
CLASSIFIERS = ("logreg", "forest")


def sha256(path, skip_last_column=False):
    """Hex digest of a file; optionally of its lines minus the last cell."""
    data = Path(path).read_bytes()
    if skip_last_column:
        data = b"\n".join(line.rsplit(b",", 1)[0]
                          for line in data.splitlines())
    return hashlib.sha256(data).hexdigest()


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_manifest(run_dir):
    """Stage -> problems, comparing recorded artifact hashes to disk."""
    run_dir = Path(run_dir)
    try:
        stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    except (OSError, ValueError, KeyError) as exc:
        return {"*": [f"manifest.json unreadable: {exc}"]}
    out = {}
    for stage, entry in stages.items():
        problems = []
        for name, digest in entry.get("artifacts", {}).items():
            # report series files are recorded by bare name
            path = run_dir / name
            if not path.exists():
                path = run_dir / "series" / name
            if not path.exists():
                problems.append(f"{name} listed in manifest but missing")
            elif sha256(path) != digest:
                problems.append(f"{name} does not match its manifest hash")
        out[stage] = problems
    return out


def _unit_float(cell):
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) and 0.0 <= v <= 1.0 else None


def check_split(path, names):
    """train/test: the 81 feature columns, finite, in [0, 1]."""
    try:
        rows = _rows(path)
    except OSError as exc:
        return [f"{Path(path).name}: {exc}"]
    if not rows or rows[0] != list(names) + ["Label"]:
        return [f"{Path(path).name}: header is not the {len(names)} "
                "feature names plus Label"]
    if len(rows) < 2:
        return [f"{Path(path).name}: no data rows"]
    for lineno, row in enumerate(rows[1:], start=2):
        if (len(row) != len(names) + 1 or row[-1] not in LABELS
                or any(_unit_float(c) is None for c in row[:-1])):
            return [f"{Path(path).name}: line {lineno} is not "
                    f"{len(names)} values in [0, 1] plus a label"]
    return []


def read_ranking(path):
    """(problems, [(name, score), ...] in rank order)."""
    try:
        rows = _rows(path)
    except OSError as exc:
        return [f"{Path(path).name}: {exc}"], []
    if not rows or rows[0][:2] != ["S.No.", "Feature"] or len(rows[0]) != 3:
        return [f"{Path(path).name}: not a ranking table"], []
    ranked = []
    for i, row in enumerate(rows[1:], start=1):
        try:
            if len(row) != 3 or int(row[0]) != i:
                raise ValueError
            score = float(row[2])
        except ValueError:
            return [f"{Path(path).name}: malformed row {i}"], []
        ranked.append((row[1], score))
    return [], ranked


def check_ranking(path, names):
    problems, ranked = read_ranking(path)
    if problems:
        return problems, ranked
    got = [n for n, _ in ranked]
    if sorted(got) != sorted(names):
        return [f"{Path(path).name}: not a permutation of the "
                f"{len(names)} feature names"], ranked
    if any(math.isnan(s) for _, s in ranked):
        return [f"{Path(path).name}: NaN score"], ranked
    return [], ranked


def check_sensitivity(ranked, constant, planted=None, top=5, need=3):
    """Constant columns score exactly 0; planted ones lead when asked."""
    scores = dict(ranked)
    problems = [f"constant column {c!r} scores {scores.get(c)}"
                for c in constant if scores.get(c) != 0.0]
    if planted:
        leaders = {n for n, _ in ranked[:top]}
        hit = len(leaders & set(planted))
        if hit < need:
            problems.append(f"only {hit} of {len(planted)} planted columns "
                            f"in the top {top}")
    return problems


def check_metrics(path, selectors, classifiers, ks):
    """One row per (selector, classifier, k), rates in [0, 1]."""
    try:
        rows = _rows(path)
    except OSError as exc:
        return [f"metrics.csv: {exc}"]
    if not rows or tuple(rows[0]) != METRIC_COLUMNS:
        return ["metrics.csv: wrong header"]
    want = {(s, c, k) for s in selectors for c in classifiers for k in ks}
    seen = []
    for row in rows[1:]:
        try:
            key = (row[0], row[1], int(row[2]))
            values = [float(v) for v in row[3:8]]
            seconds = float(row[8])
        except (ValueError, IndexError):
            return [f"metrics.csv: malformed row {row}"]
        if len(row) != len(METRIC_COLUMNS):
            return [f"metrics.csv: malformed row {row}"]
        if not all(0.0 <= v <= 1.0 for v in values) or not seconds >= 0.0:
            return [f"metrics.csv: value out of range in {key}"]
        seen.append(key)
    if len(seen) != len(set(seen)) or set(seen) != want:
        missing = sorted(want - set(seen))[:3]
        return [f"metrics.csv: {len(seen)} rows, want one per "
                f"(selector, classifier, k) = {len(want)}; "
                f"missing e.g. {missing}"]
    return []


def check_synthetic(path, n, names):
    try:
        rows = _rows(path)
    except OSError as exc:
        return [f"synthetic.csv: {exc}"]
    if not rows or rows[0] != list(names) + ["Label"]:
        return ["synthetic.csv: wrong header"]
    if len(rows) - 1 != n:
        return [f"synthetic.csv: {len(rows) - 1} rows, requested {n}"]
    for row in rows[1:]:
        try:
            ok = (len(row) == len(names) + 1 and row[-1] == "ATTACK"
                  and all(math.isfinite(float(c)) for c in row[:-1]))
        except ValueError:
            ok = False
        if not ok:
            return [f"synthetic.csv: malformed row {row[:3]}..."]
    return []


def check_training(run_dir, epochs):
    run_dir = Path(run_dir)
    try:
        doc = json.loads((run_dir / "gan.json").read_text())
        if not {"generator", "discriminator"} <= set(doc):
            return ["gan.json lacks a network"]
        rows = _rows(run_dir / "training_log.csv")
    except (OSError, ValueError) as exc:
        return [f"train-gan output unreadable: {exc}"]
    if len(rows) - 1 != epochs:
        return [f"training_log.csv has {len(rows) - 1} epochs, "
                f"want {epochs}"]
    return []


def check_run(run_dir, workload, names, constant, planted):
    """Stage label -> problems for every stage of ``workload``."""
    run_dir = Path(run_dir)
    labels = [label for label, _ in workload.stages([])]
    out = {label: [] for label in labels}
    manifest = check_manifest(run_dir)
    for stage, problems in manifest.items():
        out.setdefault(stage, []).extend(problems)
    for label in labels:
        if label not in manifest and "*" not in manifest:
            out[label].append("no manifest entry")
    for split in ("train.csv", "test.csv"):
        out["preprocess"] += check_split(run_dir / split, names)
    out["train-gan"] += check_training(run_dir, workload.config["epochs"])
    problems, ranked = check_ranking(run_dir / "sensitivity_ranking.csv",
                                     names)
    out["rank"] += problems or check_sensitivity(
        ranked, constant, planted if workload.check_planted else None)
    for m in workload.baselines:
        out[f"baseline:{m}"] += check_ranking(
            run_dir / f"{m}_ranking.csv", names)[0]
    out["evaluate"] += check_metrics(run_dir / "metrics.csv",
                                     workload.selectors(),
                                     CLASSIFIERS, workload.ks())
    if not (run_dir / "report.md").is_file():
        out["report"].append("report.md missing")
    out["synth"] += check_synthetic(run_dir / "synthetic.csv",
                                    workload.synth_n, names)
    return out


def fingerprint(run_dir, workload):
    """Result artifact -> (producing stage, sha256).

    metrics.csv is hashed without its train_seconds column, which is a
    measurement rather than a result.
    """
    run_dir = Path(run_dir)
    files = [("train.csv", "preprocess"), ("test.csv", "preprocess"),
             ("gan.json", "train-gan"), ("training_log.csv", "train-gan"),
             ("sensitivity_ranking.csv", "rank")]
    files += [(f"{m}_ranking.csv", f"baseline:{m}")
              for m in workload.baselines]
    files += [("metrics.csv", "evaluate"), ("report.md", "report"),
              ("synthetic.csv", "synth")]
    out = {}
    for name, stage in files:
        path = run_dir / name
        digest = (sha256(path, skip_last_column=name == "metrics.csv")
                  if path.exists() else "missing")
        out[name] = (stage, digest)
    return out
