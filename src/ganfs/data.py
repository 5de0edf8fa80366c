"""Loading, cleaning and splitting of network flow-record datasets.

Raw CSV captures (CICFlowMeter column convention) are streamed in blocks
of rows into one numeric matrix with binary labels, then min-max
normalized and split for training. The cleaned splits are saved as
human-readable artifact CSVs, each with a binary ``.npy`` twin and a
sidecar holding both files' sha256 and that of its own fields. A later
load reads the twin, and only while every hash matches: a changed file is
an error, never reparsed. A seeded synthetic generator with planted
informative features provides desk-scale fixtures.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from itertools import compress
from pathlib import Path

import numpy as np

# Columns that carry flow identity rather than flow behaviour.
DEFAULT_DROP_COLS = (
    "Timestamp",
    "Source IP",
    "Destination IP",
    "Flow ID",
    "SimillarHTTP",
    "Unnamed: 0",
)

LABEL_COL = "Label"
BENIGN_LABEL = "BENIGN"
ATTACK_LABEL = "ATTACK"


# rows per block: the capture reader parses into one float64 block of this
# many rows at a time, and the .npy twin is written and read in such blocks
BLOCK_ROWS = 1024

# the dtype of the .npy twin's cells
_CELL = np.dtype("<f8")


class DataError(ValueError):
    """Malformed input data: ragged rows, missing columns, unparseable cells."""


@dataclass
class FlowDataset:
    """Numeric feature matrix with column names and binary labels.

    ``scaler`` holds per-column (min, max) pairs once fitted; ``normalized``
    marks whether ``features`` is already mapped into [0, 1].
    """

    features: np.ndarray
    feature_names: list
    labels: np.ndarray
    normalized: bool = False
    scaler: np.ndarray | None = None

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def take(self, idx):
        """New dataset restricted to the given 1-d row indices."""
        idx = np.asarray(idx)
        if idx.ndim != 1:
            raise ValueError(f"row indices must be 1-d, not {idx.ndim}-d")
        # fancy indexing copies
        return replace(self, features=self.features[idx],
                       labels=self.labels[idx])


@dataclass
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0


@dataclass
class SyntheticSpec:
    n_attack: int
    n_benign: int
    d: int
    informative_idx: tuple
    noise_scale: float = 0.05
    seed: int = 0


def read_captures(paths, drop_cols=None) -> FlowDataset:
    """Read raw flow captures into one numeric FlowDataset, block by block.

    Every file must have the first file's header (names whitespace-trimmed)
    with a ``Label`` column. Identity columns (those of ``drop_cols`` that
    are present) are dropped. Every other cell is parsed as a float, with
    empty cells and non-finite tokens (``Infinity``, ``NaN``, overflow)
    zeroed; BENIGN is label 0 and every other label string 1. Each row is
    parsed straight into a float64 block of ``BLOCK_ROWS`` rows, so no
    table of string cells or list of Python floats is held. A ragged row
    names its file and line, a cell that does not parse names its file,
    column and the file's own data row, and inputs without a data row are
    an error.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise DataError("no capture files given")
    first = None
    blocks, labels, i = [], [], 0
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                headers = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header "
                                "row") from None
            if first is None:
                first = headers
                keep, names, label_idx = _capture_columns(path, headers,
                                                          drop_cols)
                block = np.empty((BLOCK_ROWS, len(names)))
            elif headers != first:
                raise DataError(f"{path}: header differs from that of "
                                f"{paths[0]}")
            for r, row in enumerate(reader, start=1):
                if len(row) != len(headers):
                    raise DataError(
                        f"{path}: line {reader.line_num} has {len(row)} "
                        f"cells, expected {len(headers)}")
                try:
                    block[i] = list(map(float, compress(row, keep)))
                except ValueError:  # an empty or malformed cell
                    block[i] = _parse_row(path, r, names, compress(row, keep))
                labels.append(row[label_idx].strip() != BENIGN_LABEL)
                i += 1
                if i == BLOCK_ROWS:
                    blocks.append(_zero_non_finite(block))
                    block, i = np.empty_like(block), 0
    if i:
        blocks.append(_zero_non_finite(block[:i]))
    if not blocks:
        raise DataError("no data rows in "
                        + ", ".join(str(p) for p in paths))
    return FlowDataset(features=np.concatenate(blocks), feature_names=names,
                       labels=np.array(labels, dtype=np.int64))


def _capture_columns(path, headers, drop_cols):
    """(keep mask, feature names, label index) of a capture's header."""
    if LABEL_COL not in headers:
        raise DataError(f"{path}: no '{LABEL_COL}' column in input")
    drop = set(DEFAULT_DROP_COLS if drop_cols is None else drop_cols)
    keep = [h not in drop and h != LABEL_COL for h in headers]
    names = list(compress(headers, keep))
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"{path}: duplicate feature columns: {dupes}")
    # the csv writer leaves a bare carriage return unquoted
    bad = [n for n in names if "\r" in n]
    if bad:
        raise DataError(f"{path}: carriage return in feature names: {bad}")
    return keep, names, headers.index(LABEL_COL)


def _parse_row(path, r, names, cells):
    """One row's kept cells through ``_parse_cell``, for the rows that
    ``float`` rejects; ``r`` is the row's data row in ``path``."""
    out = []
    for name, cell in zip(names, cells):
        v = _parse_cell(cell)
        if v is None:
            raise DataError(f"{path}: unparseable cell {cell!r} in column "
                            f"'{name}', data row {r}")
        out.append(v)
    return out


def _zero_non_finite(block):
    """``block`` with its non-finite values zeroed in place."""
    block[~np.isfinite(block)] = 0.0
    return block


def _parse_cell(cell):
    """Numeric value of a cell; empty and non-finite tokens map to 0."""
    s = cell.strip()
    if s == "":
        return 0.0
    try:
        v = float(s)
    except ValueError:
        return None
    # Infinity/NaN tokens (and numeric overflow) are treated as invalid
    # measurements, zeroed like the rate columns they typically come from.
    return v if math.isfinite(v) else 0.0


def normalize(ds: FlowDataset) -> FlowDataset:
    """Min-max scale every column to [0, 1], fitting the scaler on ``ds``.

    Constant columns map to all-zeros. The fitted per-column (min, max)
    pairs are stored on the result for reuse on held-out data.
    """
    if ds.normalized:
        raise ValueError("dataset is already normalized")
    mins = ds.features.min(axis=0)
    maxs = ds.features.max(axis=0)
    scaler = np.stack([mins, maxs], axis=1)
    return replace(ds, features=_scale(ds.features, scaler),
                   normalized=True, scaler=scaler)


def apply_scaler(ds: FlowDataset, scaler: np.ndarray) -> FlowDataset:
    """Scale ``ds`` with an already-fitted scaler (e.g. on held-out data).

    Values outside the fitted range are clipped so the normalized-range
    invariant holds on test data too.
    """
    if ds.normalized:
        raise ValueError("dataset is already normalized")
    scaler = np.asarray(scaler, dtype=np.float64)
    if scaler.shape != (ds.n_features, 2):
        raise ValueError(f"scaler shape {scaler.shape} does not match "
                         f"{ds.n_features} features")
    return replace(ds, features=_scale(ds.features, scaler, clip=True),
                   normalized=True, scaler=scaler)


def _scale(x, scaler, clip=False):
    mins, maxs = scaler[:, 0], scaler[:, 1]
    span = maxs - mins
    safe = np.where(span == 0.0, 1.0, span)
    # one array, the bits of (x - mins) / safe
    out = x - mins
    out /= safe
    out[:, span == 0.0] = 0.0
    if clip:
        np.clip(out, 0.0, 1.0, out=out)
    return out


def filter_attacks(ds: FlowDataset) -> FlowDataset:
    """Keep only label-1 rows, preserving order; empty result is an error."""
    mask = ds.labels == 1
    if not mask.any():
        raise ValueError("no attack rows (label 1) in dataset")
    return ds.take(np.flatnonzero(mask))


def cap_per_class(ds: FlowDataset, cap: int, seed: int = 0) -> FlowDataset:
    """Subsample each label down to at most ``cap`` rows, seeded.

    Classes smaller than the cap are kept whole. Kept rows stay in
    original order.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    rng = np.random.default_rng(seed)
    keep = []
    for v in _stable_unique(ds.labels):
        idx = np.flatnonzero(ds.labels == v)
        if len(idx) > cap:
            idx = idx[rng.choice(len(idx), size=cap, replace=False)]
        keep.append(np.sort(idx))
    return ds.take(np.sort(np.concatenate(keep)))


def _stable_unique(values):
    """Unique values in order of first appearance."""
    uniq, first = np.unique(values, return_index=True)
    return uniq[np.argsort(first)]


def split(ds: FlowDataset, spec: SplitSpec):
    """Partition into (train, test), stratified by label."""
    if not 0.0 < spec.train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng(spec.seed)
    train_idx = []
    for c in _stable_unique(ds.labels):
        idx = np.flatnonzero(ds.labels == c)
        if len(idx) < 2:
            raise ValueError(
                f"class {c} has {len(idx)} row(s); need at least 2 "
                "for a stratified split")
        n_train = int(spec.train_fraction * len(idx))
        n_train = min(max(n_train, 1), len(idx) - 1)
        perm = idx[rng.permutation(len(idx))]
        train_idx.append(perm[:n_train])
    train_mask = np.zeros(ds.n_rows, dtype=bool)
    train_mask[np.concatenate(train_idx)] = True
    return ds.take(np.flatnonzero(train_mask)), ds.take(np.flatnonzero(~train_mask))


def make_synthetic(spec: SyntheticSpec) -> FlowDataset:
    """Seeded two-class dataset with planted informative features.

    Informative columns get class-conditional Gaussian means separated by
    0.3 + 3*noise_scale (so separation never vanishes and always exceeds
    three noise standard deviations); all other columns are drawn from one
    shared distribution for both classes. Attack rows come first.
    """
    if spec.n_attack <= 0 or spec.n_benign <= 0:
        raise ValueError("sample counts must be positive")
    if spec.noise_scale < 0:
        raise ValueError("noise_scale must be >= 0")
    informative = sorted(set(spec.informative_idx))
    if informative and not (0 <= informative[0] and informative[-1] < spec.d):
        raise ValueError("informative_idx out of range")
    rng = np.random.default_rng(spec.seed)
    n = spec.n_attack + spec.n_benign
    features = rng.normal(0.5, spec.noise_scale, size=(n, spec.d))
    half_sep = (0.3 + 3.0 * spec.noise_scale) / 2.0
    for i in informative:
        features[:spec.n_attack, i] += half_sep
        features[spec.n_attack:, i] -= half_sep
    labels = np.concatenate([np.ones(spec.n_attack, dtype=np.int64),
                             np.zeros(spec.n_benign, dtype=np.int64)])
    names = [f"f{i:02d}" for i in range(spec.d)]
    return FlowDataset(features=features, feature_names=names, labels=labels)


def meta_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def _twin_path(path) -> Path:
    return path.with_name(path.stem + ".npy")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    chunk = bytearray(1 << 18)  # refilled, so one chunk is held at a time
    view = memoryview(chunk)
    with open(path, "rb") as fh:
        while n := fh.readinto(chunk):
            h.update(view[:n])
    return h.hexdigest()


def save_dataset(ds: FlowDataset, path, extra=None, digests=None) -> list:
    """Write a dataset as CSV, its ``.npy`` twin and a sidecar document.

    The header goes through the csv module, so any feature name survives;
    each data row is the repr of its cells, joined by commas, followed by
    its label as an ATTACK/BENIGN string. repr round-trips every finite
    float exactly, and non-finite features are refused. The twin is the
    (rows, features + 1) float64 matrix the CSV encodes, label 1.0 for
    ATTACK and 0.0 for BENIGN. The sidecar, written last, records the
    sha256 of both files, so a crash before it leaves hashes that do not
    match, and the sha256 of its own other fields (``_fields_digest``).
    Returns the paths written: CSV, twin, sidecar. ``digests``, if given,
    is a dict that receives each of them mapped to the sha256 of the
    closed file, so a caller that records them need not hash them again.
    """
    path = Path(path)
    features = np.asarray(ds.features, dtype=np.float64)
    if not np.isfinite(features).all():
        raise ValueError(f"{path}: refusing to save non-finite features")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(ds.feature_names) + [LABEL_COL])
        attack, benign = f",{ATTACK_LABEL}\n", f",{BENIGN_LABEL}\n"
        # row by row: a whole-matrix tolist() would raise peak memory
        for row, label in zip(features, ds.labels.tolist()):
            fh.write(",".join(map(repr, row.tolist()))
                     + (attack if label == 1 else benign))
    twin = _twin_path(path)
    n, d = features.shape
    with open(twin, "wb") as fh:
        # the bytes np.save writes for the (n, d + 1) cell matrix, one
        # block of rows at a time
        np.lib.format.write_array_header_1_0(fh, {
            "descr": _CELL.str, "fortran_order": False, "shape": (n, d + 1)})
        cells = np.empty((min(n, BLOCK_ROWS), d + 1), dtype=_CELL)
        for start in range(0, n, BLOCK_ROWS):
            block = cells[:min(n - start, BLOCK_ROWS)]
            block[:, :-1] = features[start:start + BLOCK_ROWS]
            block[:, -1] = ds.labels[start:start + BLOCK_ROWS] == 1
            fh.write(block)
    meta = {
        "feature_names": list(ds.feature_names),
        "n_rows": int(ds.n_rows),
        "normalized": bool(ds.normalized),
        "scaler": None if ds.scaler is None else
                  [[float(a), float(b)] for a, b in ds.scaler],
    }
    if extra:
        meta.update(extra)
    meta["sha256"] = {"csv": sha256_file(path), "npy": sha256_file(twin),
                      "meta": _fields_digest(meta)}
    with open(meta_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    if digests is not None:
        digests.update({path: meta["sha256"]["csv"],
                        twin: meta["sha256"]["npy"],
                        meta_path(path): sha256_file(meta_path(path))})
    return [path, twin, meta_path(path)]


def _fields_digest(meta) -> str:
    """sha256 of a sidecar's fields other than ``sha256``, as ``json.dumps``
    with sorted keys encodes them."""
    fields = {k: v for k, v in meta.items() if k != "sha256"}
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode()).hexdigest()


def load_meta(path) -> dict:
    """The sidecar document of an artifact, checked against its header.

    Reads the header row but no data row and hashes nothing, for callers
    that need only the feature names or the scaler.
    """
    return _read_header(Path(path))[0]


def _read_header(path):
    """(sidecar document, header cells) of an artifact.

    The sidecar is required and must be a JSON object whose other fields
    still have the sha256 it records for them, ``Label`` must be the last
    column, and the sidecar must name the feature columns.
    """
    mp = meta_path(path)
    rerun = f"rerun the stage that wrote {path.name}"
    if not mp.exists():
        raise DataError(f"{mp} not found: {path} cannot be read without "
                        "its sidecar")
    try:
        meta = json.loads(mp.read_bytes())
    except ValueError as exc:  # torn JSON or bytes that are not text
        raise DataError(f"{mp}: unreadable sidecar ({exc}); {rerun}") \
            from None
    if not isinstance(meta, dict):
        raise DataError(f"{mp}: sidecar is not a JSON object; {rerun}")
    recorded = meta.get("sha256")
    if not isinstance(recorded, dict):
        raise DataError(f"{mp} records no sha256 of {path.name} and "
                        f"{_twin_path(path).name}, as a sidecar written "
                        f"before the .npy twin; {rerun}")
    if recorded.get("meta") != _fields_digest(meta):
        raise DataError(f"{mp} has changed since it recorded the sha256 of "
                        f"its fields, or records none; {rerun}")
    with open(path, newline="") as fh:
        try:
            headers = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") \
                from None
    if headers[-1:] != [LABEL_COL]:
        last = f"column '{headers[-1]}'" if headers else "no column"
        raise DataError(f"{path}: header row ends with {last}, "
                        f"expected '{LABEL_COL}' last")
    if meta.get("feature_names") != headers[:-1]:
        raise DataError(f"{mp}: feature names disagree with {path}")
    return meta, headers


def load_dataset(path) -> FlowDataset:
    """Load a dataset saved by :func:`save_dataset`, restoring its metadata.

    The sidecar and the header are checked by ``_read_header``, and the
    rows come from the ``.npy`` twin. Both the CSV and the twin must still
    have the sha256 the sidecar records, and the twin must hold float64 of
    the recorded row count by the header's width. A missing, changed, torn
    or swapped file, or a sidecar without hashes, is a DataError naming
    the file and its sidecar: the stage that wrote them must be rerun.
    """
    path = Path(path)
    meta, headers = _read_header(path)
    mp, twin = meta_path(path), _twin_path(path)
    rerun = f"rerun the stage that wrote {path.name}"
    recorded = meta["sha256"]
    for f, key in ((path, "csv"), (twin, "npy")):
        if not f.is_file():
            raise DataError(f"{f} not found, but {mp} records its sha256; "
                            f"{rerun}")
        if recorded.get(key) != sha256_file(f):
            raise DataError(f"{f} has changed since {mp} recorded its "
                            f"sha256; {rerun}")
    shape = (meta.get("n_rows"), len(headers))
    bad = (f"{twin} is not a float64 matrix of the {shape[0]} x {shape[1]} "
           f"cells {mp} records; {rerun}")
    with open(twin, "rb") as fh:
        try:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not a version 1.0 header")
            header = np.lib.format.read_array_header_1_0(fh)
        except ValueError:
            raise DataError(bad) from None
        if header != (shape, False, _CELL):
            raise DataError(bad)
        n, d = header[0]
        features = np.empty((n, d - 1))
        labels = np.empty(n, dtype=np.int64)
        cells = np.empty((min(n, BLOCK_ROWS), d), dtype=_CELL)
        for start in range(0, n, BLOCK_ROWS):
            block = cells[:min(n - start, BLOCK_ROWS)]
            if fh.readinto(block) != block.nbytes:
                raise DataError(f"{twin} ends before the {n} x {d} cells "
                                f"{mp} records; {rerun}")
            features[start:start + len(block)] = block[:, :-1]
            labels[start:start + len(block)] = block[:, -1]
    scaler = meta.get("scaler")
    return FlowDataset(
        features=features, feature_names=headers[:-1], labels=labels,
        normalized=bool(meta.get("normalized", False)),
        scaler=None if scaler is None else np.asarray(scaler,
                                                      dtype=np.float64))
