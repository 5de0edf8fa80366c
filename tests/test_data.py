"""Tests for CSV loading, cleaning, normalization, splitting and round-trips."""

import csv
import hashlib
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import write_wide_flow_csv

from ganfs.data import (
    BLOCK_ROWS, DEFAULT_DROP_COLS, DataError, FlowDataset, SplitSpec,
    SyntheticSpec, apply_scaler, cap_per_class, filter_attacks, load_dataset,
    load_meta, make_synthetic, meta_path, normalize, read_captures,
    save_dataset, sha256_file, split,
)


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def write_rows(path, rows):
    """A capture written by the csv module, which quotes where needed."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def oracle_cell(cell):
    """The per-cell cleaner: empty and non-finite cells become 0."""
    s = cell.strip()
    if s == "":
        return 0.0
    v = float(s)
    return v if math.isfinite(v) else 0.0


def oracle_read(paths, drop_cols=None):
    """The reader read_captures replaced: every capture is parsed into a
    table of string cells, the tables are joined, then each kept cell is
    cleaned by itself. Returns (feature names, features, labels)."""
    headers, rows = None, []
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            h = [c.strip() for c in next(reader)]
            assert headers in (None, h)
            headers = h
            rows += list(reader)
    drop = set(DEFAULT_DROP_COLS if drop_cols is None else drop_cols)
    keep = [i for i, h in enumerate(headers)
            if h not in drop and h != "Label"]
    features = np.empty((len(rows), len(keep)), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.int64)
    label = headers.index("Label")
    for r, row in enumerate(rows):
        for c, i in enumerate(keep):
            features[r, c] = oracle_cell(row[i])
        labels[r] = 0 if row[label].strip() == "BENIGN" else 1
    return [headers[i] for i in keep], features, labels


def test_load_csv_strips_headers_and_keeps_cells(tmp_path):
    p = write(tmp_path, " Flow Duration , Label \n12,BENIGN\n")
    ds = read_captures([p])
    assert ds.feature_names == ["Flow Duration"]
    assert ds.features.tolist() == [[12.0]]
    assert ds.labels.tolist() == [0]


def test_load_csv_ragged_row_names_line(tmp_path):
    p = write(tmp_path, "a,b,Label\n1,2,BENIGN\n3,4\n")
    with pytest.raises(DataError, match="line 3"):
        read_captures([p])


def test_ragged_row_names_its_file_and_line(tmp_path):
    a = write(tmp_path, "a,Label\n1,BENIGN\n2,DDoS\n", "a.csv")
    # the quoted label spans two lines, so line 4 is the third data row
    b = write(tmp_path, 'a,Label\n1,"DD\noS"\n2,BENIGN,7\n', "b.csv")
    with pytest.raises(DataError) as err:
        read_captures([a, b])
    assert str(err.value).startswith(f"{b}: line 4 has 3 cells")


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(DataError, match="empty"):
        read_captures([write(tmp_path, "")])


def test_header_only_inputs_are_a_data_error(tmp_path):
    a = write(tmp_path, "x,Label\n", "a.csv")
    b = write(tmp_path, "x,Label\n", "b.csv")
    with pytest.raises(DataError, match="no data rows") as err:
        read_captures([a, b])
    assert str(a) in str(err.value) and str(b) in str(err.value)


def test_concat_requires_matching_headers(tmp_path):
    a = write(tmp_path, "x,Label\n1,BENIGN\n", "a.csv")
    b = write(tmp_path, "y,Label\n2,ATTACK\n", "b.csv")
    c = write(tmp_path, "x,Label\n3,DDoS\n", "c.csv")
    merged = read_captures([a, c])
    assert merged.features.tolist() == [[1.0], [3.0]]
    assert merged.labels.tolist() == [0, 1]
    with pytest.raises(DataError, match=str(b)):
        read_captures([a, b])


def test_preprocess_label_mapping(tmp_path):
    p = write(tmp_path, "x,Label\n1,BENIGN\n2,DDoS_DNS\n3,Syn\n")
    ds = read_captures([p])
    assert ds.labels.tolist() == [0, 1, 1]


def test_preprocess_drops_only_present_identity_columns(tmp_path):
    p = write(tmp_path, "Flow ID,Timestamp,x,Label\na,b,1.5,BENIGN\n")
    ds = read_captures([p])
    assert ds.feature_names == ["x"]
    assert ds.features[0, 0] == 1.5


def test_preprocess_missing_label_column(tmp_path):
    with pytest.raises(DataError, match="Label"):
        read_captures([write(tmp_path, "x\n1\n")])


def test_preprocess_invalid_tokens_become_zero(tmp_path):
    cells = ["Infinity", "-Infinity", "inf", "-inf", "NaN", "nan", ""]
    p = write_rows(tmp_path / "t.csv",
                   [[f"c{i}" for i in range(len(cells))] + ["Label"],
                    cells + ["DDoS"]])
    ds = read_captures([p])
    assert ds.features.shape == (1, len(cells))
    assert np.all(ds.features == 0.0)


def test_preprocess_unparseable_cell_is_an_error(tmp_path):
    p = write(tmp_path, "Flow Bytes/s,Label\n1.0,BENIGN\nabc,DDoS\n")
    with pytest.raises(DataError, match=r"Flow Bytes/s.*row 2"):
        read_captures([p])


def test_unparseable_cell_names_its_file_and_row(tmp_path):
    # the bad cell is the sixth data row of the inputs, the second of b.csv
    a = write(tmp_path, "x,y,Label\n1,2,BENIGN\n3,4,DDoS\n", "a.csv")
    b = write(tmp_path, "x,y,Label\n5,6,BENIGN\n7,abc,DDoS\n", "b.csv")
    with pytest.raises(DataError) as err:
        read_captures([a, a, b])
    assert str(err.value) == (f"{b}: unparseable cell 'abc' in column 'y', "
                              "data row 2")


def test_preprocess_rejects_duplicate_feature_names(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        read_captures([write(tmp_path, "x,x,Label\n1,2,BENIGN\n")])


def test_preprocess_rejects_a_carriage_return_in_a_name(tmp_path):
    # the name would come back from train.csv split over two lines
    p = write(tmp_path, '"a\rb",Label\n1,BENIGN\n')
    with pytest.raises(DataError, match="carriage return"):
        read_captures([p])


SPECIAL_CELLS = ("Infinity", "-Infinity", "NaN", "nan", "inf", "", " ",
                 "1e999", "1_000", "-0", " 12.5 ", "\t-3", "7 ", " -0.0")


def write_special_capture(path, n_rows, seed):
    """A capture with every special token, padded cells, identity
    columns and a mix of labels, ``n_rows`` data rows long."""
    rng = np.random.default_rng(seed)
    header = [" Flow ID", "Flow Duration", " Timestamp", "Flow Bytes/s",
              "Flow Packets/s", "SYN Flag Count", " Label "]
    rows = [header]
    for r in range(n_rows):
        cells = []
        for _ in range(4):
            pick = rng.random()
            if pick < 0.3:
                cells.append(SPECIAL_CELLS[rng.integers(len(SPECIAL_CELLS))])
            elif pick < 0.6:
                cells.append(repr(float(rng.normal(0.0, 1e6))))
            else:
                cells.append(str(int(rng.integers(-5, 1000))))
        label = ("BENIGN", " BENIGN ", "DrDoS_DNS", "Syn")[rng.integers(4)]
        rows.append([f"flow-{r}", cells[0], "2018-12-01 10:52:00",
                     *cells[1:], label])
    return write_rows(path, rows)


@pytest.mark.parametrize("counts", [
    (BLOCK_ROWS - 1,), (BLOCK_ROWS,), (BLOCK_ROWS + 1,),
    (3, BLOCK_ROWS - 4, 2), (BLOCK_ROWS, BLOCK_ROWS, 1),
])
def test_reader_is_bitwise_the_per_cell_oracle(tmp_path, counts):
    paths = [write_special_capture(tmp_path / f"c{i}.csv", n, seed=i)
             for i, n in enumerate(counts)]
    ds = read_captures(paths)
    names, features, labels = oracle_read(paths)
    assert ds.feature_names == names
    assert ds.features.shape == (sum(counts), 4)
    assert np.array_equal(ds.features.view(np.int64), features.view(np.int64))
    assert np.array_equal(ds.labels, labels)
    # the capture did exercise the tokens, negative zero among them
    assert np.signbit(ds.features[ds.features == 0.0]).any()


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_peak_memory_is_a_few_matrices(tmp_path):
    # the string table of the old reader held about 8x the matrix; the
    # blocks and their concatenation hold 2x
    n_rows, d = 6000, 40
    p = write_wide_flow_csv(tmp_path / "big.csv", n_rows, d)
    ds, peak = traced_peak(read_captures, [p])
    assert ds.features.shape == (n_rows, d)
    assert peak < 2.2 * ds.features.nbytes


@pytest.mark.parametrize("idx", [np.int64(0), np.array([[0, 1]])],
                         ids=["0-d", "2-d"])
def test_take_rejects_indices_that_are_not_1d(idx):
    ds = FlowDataset(np.eye(3), ["a", "b", "c"], np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="1-d"):
        ds.take(idx)


def test_normalize_column_oracle():
    # hand oracle: (x - 5) / 15 maps [5, 10, 20] to [0, 1/3, 1]
    ds = FlowDataset(np.array([[5.0], [10.0], [20.0]]), ["x"],
                     np.array([0, 1, 1]))
    out = normalize(ds)
    assert out.features[:, 0] == pytest.approx([0.0, 1.0 / 3.0, 1.0], abs=1e-15)
    assert out.normalized and out.scaler.tolist() == [[5.0, 20.0]]
    assert not ds.normalized  # input untouched


def test_normalize_constant_column_is_all_zeros():
    ds = FlowDataset(np.full((4, 2), [7.0, 1.0]), ["a", "b"],
                     np.zeros(4, dtype=np.int64))
    out = normalize(ds)
    assert np.all(out.features[:, 0] == 0.0)


def test_normalize_twice_is_an_error():
    ds = normalize(FlowDataset(np.array([[0.0], [1.0]]), ["x"],
                               np.array([0, 1])))
    with pytest.raises(ValueError, match="already"):
        normalize(ds)


def test_apply_scaler_reuses_fit_and_clips():
    train = normalize(FlowDataset(np.array([[0.0], [10.0]]), ["x"],
                                  np.array([0, 1])))
    test = FlowDataset(np.array([[5.0], [-2.0], [12.0]]), ["x"],
                       np.array([1, 0, 1]))
    out = apply_scaler(test, train.scaler)
    # held-out 5 under a [0, 10] fit maps to 0.5; out-of-range values clip
    assert out.features[:, 0].tolist() == [0.5, 0.0, 1.0]


def test_filter_attacks_keeps_label_one_rows_in_order():
    ds = FlowDataset(np.arange(8.0).reshape(4, 2), ["a", "b"],
                     np.array([0, 1, 0, 1]))
    out = filter_attacks(ds)
    assert out.features[:, 0].tolist() == [2.0, 6.0]
    with pytest.raises(ValueError, match="no attack"):
        filter_attacks(FlowDataset(np.zeros((2, 1)), ["a"], np.zeros(2, dtype=np.int64)))


def test_cap_per_class_counts_order_and_determinism():
    n_a, n_b = 30, 20
    feats = np.arange(float(n_a + n_b)).reshape(-1, 1)
    labels = np.array([1] * n_a + [0] * n_b)
    ds = FlowDataset(feats, ["x"], labels)
    out1 = cap_per_class(ds, 25, seed=3)
    out2 = cap_per_class(ds, 25, seed=3)
    assert np.sum(out1.labels == 1) == 25 and np.sum(out1.labels == 0) == 20
    assert np.array_equal(out1.features, out2.features)
    # original row order survives subsampling
    assert np.all(np.diff(out1.features[:, 0]) > 0)


def test_split_stratified_counts():
    ds = FlowDataset(np.arange(100.0).reshape(-1, 1), ["x"],
                     np.array([0] * 50 + [1] * 50))
    train, test = split(ds, SplitSpec(train_fraction=0.8, seed=1))
    assert train.n_rows == 80 and test.n_rows == 20
    assert np.sum(train.labels == 0) == 40 and np.sum(train.labels == 1) == 40
    # partitions are disjoint and cover the input
    seen = np.sort(np.concatenate([train.features[:, 0], test.features[:, 0]]))
    assert np.array_equal(seen, np.arange(100.0))


def test_split_never_empties_a_partition():
    # each class keeps at least one row on both sides, whatever the fraction
    ds = FlowDataset(np.arange(10.0).reshape(-1, 1), ["x"],
                     np.array([0] * 5 + [1] * 5))
    for fraction, n_train in ((0.99, 8), (0.01, 2)):
        train, test = split(ds, SplitSpec(train_fraction=fraction, seed=0))
        assert train.n_rows == n_train and test.n_rows == 10 - n_train
        assert set(train.labels) == set(test.labels) == {0, 1}


def test_split_rejects_bad_fraction_and_tiny_class():
    ds = FlowDataset(np.zeros((3, 1)), ["x"], np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        split(ds, SplitSpec(train_fraction=1.0))
    with pytest.raises(ValueError, match="class"):
        split(ds, SplitSpec(train_fraction=0.5))


def test_synthetic_zero_noise_means_are_exact():
    spec = SyntheticSpec(n_attack=3, n_benign=2, d=4, informative_idx=(1, 3),
                         noise_scale=0.0, seed=0)
    ds = make_synthetic(spec)
    # separation 0.3 + 3*0 around 0.5: attack rows at 0.65, benign at 0.35
    assert np.all(ds.features[:3, 1] == 0.65)
    assert np.all(ds.features[3:, 1] == 0.35)
    assert np.all(ds.features[:, 0] == 0.5)
    assert ds.labels.tolist() == [1, 1, 1, 0, 0]


def test_synthetic_is_seed_deterministic():
    spec = SyntheticSpec(n_attack=50, n_benign=50, d=6, informative_idx=(0,),
                         noise_scale=0.05, seed=9)
    a, b = make_synthetic(spec), make_synthetic(spec)
    assert np.array_equal(a.features, b.features)
    c = make_synthetic(SyntheticSpec(50, 50, 6, (0,), 0.05, seed=10))
    assert not np.array_equal(a.features, c.features)


def test_no_informative_features_leave_chance_accuracy():
    # with nothing planted, a classifier can only guess; pooled test
    # accuracy over 10 seeds must sit inside the 99% binomial band at 0.5
    from ganfs.classifiers import LogisticRegression

    correct = total = 0
    for s in range(10):
        ds = make_synthetic(SyntheticSpec(n_attack=250, n_benign=250, d=10,
                                          informative_idx=(), seed=s))
        tr, te = split(ds, SplitSpec(seed=100 + s))
        model = LogisticRegression().fit(tr.features, tr.labels)
        pred = model.predict(te.features)
        correct += int((pred == te.labels).sum())
        total += len(pred)
    half = 2.5758 * (0.25 / total) ** 0.5
    assert abs(correct / total - 0.5) <= half


def test_save_load_round_trip_is_exact(tmp_path):
    ds = normalize(FlowDataset(
        np.array([[0.1, 3.0], [0.7, -1.0], [1.0 / 3.0, 2.5]]),
        ["Fwd Packets/s", "Flow IAT Mean"], np.array([1, 0, 1])))
    p = tmp_path / "clean.csv"
    save_dataset(ds, p, extra={"seed": 7})
    back = load_dataset(p)
    assert np.array_equal(back.features, ds.features)
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.labels, ds.labels)
    assert back.normalized and np.array_equal(back.scaler, ds.scaler)
    assert (tmp_path / "clean.meta.json").exists()


def assert_refused(p, changed):
    """load_dataset(p) is a DataError that names the changed file and the
    sidecar and asks for the stage that wrote ``p`` to be rerun."""
    with pytest.raises(DataError) as err:
        load_dataset(p)
    msg = str(err.value)
    assert str(changed) in msg and str(meta_path(p)) in msg
    assert f"rerun the stage that wrote {p.name}" in msg


def test_truncated_artifact_is_a_data_error(tmp_path):
    ds = make_synthetic(SyntheticSpec(n_attack=20, n_benign=20, d=3,
                                      informative_idx=(0,), seed=1))
    p = tmp_path / "train.csv"
    save_dataset(ds, p)
    lines = p.read_text().splitlines(keepends=True)
    p.write_text("".join(lines[:-5]))  # cut at a row boundary
    assert_refused(p, p)


def test_save_writes_the_pinned_bytes(tmp_path):
    # repr of each cell, csv quoting for the header only
    v = [-0.0, 5e-324, 1.0 / 3.0, 1e16, 3.0, 1e-300]
    ds = FlowDataset(np.array([v, v[1:] + v[:1], v[::-1]]),
                     ["Flow Duration", "Fwd Packets/s", "a,b", 'say "hi"',
                      "f5", "f6"], np.array([1, 0, 1]))
    p = tmp_path / "golden.csv"
    save_dataset(ds, p)
    assert p.read_bytes() == (
        b'Flow Duration,Fwd Packets/s,"a,b","say ""hi""",f5,f6,Label\n'
        b"-0.0,5e-324,0.3333333333333333,1e+16,3.0,1e-300,ATTACK\n"
        b"5e-324,0.3333333333333333,1e+16,3.0,1e-300,-0.0,BENIGN\n"
        b"1e-300,3.0,1e+16,0.3333333333333333,5e-324,-0.0,ATTACK\n")
    back = load_dataset(p)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.features.flags.c_contiguous
    assert back.labels.tolist() == [1, 0, 1]


def test_save_refuses_non_finite_features(tmp_path):
    ds = FlowDataset(np.array([[1.0, np.nan]]), ["a", "b"], np.array([1]))
    with pytest.raises(ValueError, match="non-finite"):
        save_dataset(ds, tmp_path / "bad.csv")


def test_load_without_data_rows(tmp_path):
    ds = FlowDataset(np.empty((0, 2)), ["a", "b"],
                     np.empty(0, dtype=np.int64))
    p = tmp_path / "empty.csv"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert back.features.shape == (0, 2) and back.labels.shape == (0,)


def test_missing_sidecar_is_a_data_error(tmp_path):
    p = tmp_path / "train.csv"
    save_dataset(make_synthetic(SyntheticSpec(
        n_attack=4, n_benign=4, d=2, informative_idx=(0,), seed=1)), p)
    (tmp_path / "train.meta.json").unlink()
    with pytest.raises(DataError, match=r"train\.meta\.json not found"):
        load_dataset(p)


ARTIFACT_NAMES = ["Flow Duration", "Fwd Packets/s", "SYN Flag Count"]


def corrupt(tmp_path, row, text):
    """A saved 4-row artifact whose data row ``row`` is replaced by
    ``text``."""
    p = tmp_path / "train.csv"
    save_dataset(FlowDataset(np.ones((4, 3)), ARTIFACT_NAMES,
                             np.array([1, 0, 1, 0])), p)
    lines = p.read_text().split("\n")
    lines[row] = text
    p.write_text("\n".join(lines))
    return p


def test_uniformly_overlong_artifact_rows_are_a_data_error(tmp_path):
    # every row agrees with the others, so only the header shows the fault
    p = tmp_path / "train.csv"
    save_dataset(FlowDataset(np.ones((2, 3)), ARTIFACT_NAMES,
                             np.array([1, 0])), p)
    header = p.read_text().split("\n")[0]
    p.write_text(f"{header}\n1.0,1.0,1.0,ATTACK,7\n1.0,1.0,1.0,BENIGN,7\n")
    assert_refused(p, p)


@pytest.mark.parametrize("lines, row", [
    (["1.0,2.0,3.0,ATTACK", "", "1.0,2.0,3.0,BENIGN"], 2),
    (["", "1.0,2.0,3.0,ATTACK", "1.0,2.0,3.0,BENIGN"], 1),
    (["1.0,2.0,3.0,ATTACK", "1.0,2.0,3.0,BENIGN", ""], 3),
    (["1.0,2.0,3.0,ATTACK", "\r", "1.0,2.0,3.0,BENIGN"], 2),
])
def test_blank_artifact_line_is_a_data_error(tmp_path, lines, row):
    p = tmp_path / "train.csv"
    save_dataset(FlowDataset(np.ones((2, 3)), ARTIFACT_NAMES,
                             np.array([1, 0])), p)
    header = p.read_text().split("\n")[0]
    # the two rows the sidecar records, with a blank line as data row ``row``
    p.write_text("\n".join([header] + lines) + "\n")
    assert p.read_text().split("\n")[row].strip() == ""
    assert_refused(p, p)


def test_header_may_span_lines(tmp_path):
    # a quoted name with a newline: the header is two physical lines
    p = tmp_path / "train.csv"
    ds = FlowDataset(np.arange(6.0).reshape(3, 2), ["a\nb", "c"],
                     np.array([0, 1, 1]))
    save_dataset(ds, p)
    back = load_dataset(p)
    assert back.feature_names == ["a\nb", "c"]
    assert back.features.tobytes() == ds.features.tobytes()
    assert load_meta(p)["feature_names"] == ["a\nb", "c"]


def test_load_meta_checks_the_header_and_skips_the_rows(tmp_path):
    p = corrupt(tmp_path, 3, "1.0,abc,1.0,BENIGN")
    meta = load_meta(p)
    assert meta["feature_names"] == ARTIFACT_NAMES and meta["n_rows"] == 4
    assert meta["scaler"] is None
    lines = p.read_text().split("\n")
    p.write_text("\n".join(["x,y,z,Label"] + lines[1:]))
    with pytest.raises(DataError, match="feature names disagree"):
        load_meta(p)
    p.write_text("\n".join(["x,y,z"] + lines[1:]))
    with pytest.raises(DataError, match="'Label' last"):
        load_meta(p)
    (tmp_path / "train.meta.json").unlink()
    with pytest.raises(DataError, match=r"train\.meta\.json not found"):
        load_meta(p)


@pytest.mark.parametrize("header, last", [
    ("a,Label,b", "column 'b'"), ("", "no column")])
def test_label_must_be_the_last_artifact_column(tmp_path, header, last):
    p = tmp_path / "train.csv"
    save_dataset(FlowDataset(np.ones((2, 2)), ["a", "b"],
                             np.array([1, 0])), p)
    p.write_text(f"{header}\n1.0,ATTACK,1.0\n1.0,BENIGN,1.0\n")
    with pytest.raises(DataError) as err:
        load_dataset(p)
    msg = str(err.value)
    assert str(p) in msg and f"header row ends with {last}" in msg
    assert "'Label' last" in msg


def test_saved_file_reprocesses_to_same_dataset(tmp_path):
    # cleaning is idempotent: read(save(read(x))) == read(x)
    raw = write(tmp_path, "Flow ID,Pkts,Label\nf1,3,BENIGN\nf2,,DDoS\n"
                "f3,9,Syn\n", "raw.csv")
    ds = read_captures([raw])
    p = tmp_path / "round.csv"
    save_dataset(ds, p)
    again = read_captures([p])
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)
    assert again.feature_names == ds.feature_names


# feature names as preprocess admits them from a UTF-8 header: stripped,
# and without a carriage return
NAMES = st.text(st.characters(exclude_categories=("Cs",),
                              exclude_characters="\r")).map(str.strip)
FEATURES = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 8), st.integers(1, 4)),
    elements=st.floats(-1e9, 1e9))


def flow_datasets(features):
    d = features.shape[1]
    return st.builds(
        FlowDataset, st.just(features),
        st.lists(NAMES.filter(lambda n: n != "Label"), min_size=d,
                 max_size=d, unique=True),
        hnp.arrays(np.int64, len(features), elements=st.integers(0, 1)))


def csv_says(p):
    """(features, labels) of an artifact, read by the csv module."""
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return (np.array([[float(c) for c in row[:-1]] for row in rows]),
            np.array([row[-1] != "BENIGN" for row in rows], dtype=np.int64))


@settings(deadline=None)
@given(FEATURES.flatmap(flow_datasets), st.booleans())
# the CSV writes any label but 1 as BENIGN, so a 2 reads back as 0
@example(FlowDataset(np.array([[0.5], [1.0], [2.0]]), ["a"],
                     np.array([2, 1, 0])), True)
def test_save_load_round_trip_property(ds, scaled):
    # no load reads the CSV's rows, so the csv module checks that the
    # twin says what the CSV says
    if scaled:
        ds = normalize(ds)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "ds.csv"
        save_dataset(ds, p)
        back = load_dataset(p)
        features, labels = csv_says(p)
    assert (back.features.tobytes() == features.tobytes()
            == ds.features.tobytes())
    assert (back.labels.tobytes() == labels.tobytes()
            == (ds.labels == 1).astype(np.int64).tobytes())
    assert back.feature_names == ds.feature_names
    assert back.normalized == ds.normalized
    assert (back.scaler is None) == (ds.scaler is None)
    if scaled:
        assert back.scaler.tobytes() == ds.scaler.tobytes()


def test_save_writes_a_hashed_twin_and_returns_its_paths(tmp_path):
    ds = make_synthetic(SyntheticSpec(n_attack=5, n_benign=4, d=3,
                                      informative_idx=(0,), seed=1))
    p = tmp_path / "train.csv"
    twin, mp = tmp_path / "train.npy", tmp_path / "train.meta.json"
    assert save_dataset(ds, p) == [p, twin, mp]
    meta = json.loads(mp.read_text())
    recorded = meta.pop("sha256")
    assert recorded == {"csv": sha256_file(p), "npy": sha256_file(twin),
                        "meta": fields_digest(meta)}
    cells = np.load(twin)
    assert cells.dtype == np.float64 and cells.flags.c_contiguous
    assert cells[:, :-1].tobytes() == ds.features.tobytes()
    assert cells[:, -1].tolist() == [1.0] * 5 + [0.0] * 4


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 3])
def test_twin_is_the_bytes_of_np_save(tmp_path, n):
    # the twin is written a block at a time, never as one matrix
    rng = np.random.default_rng(n)
    ds = FlowDataset(rng.normal(size=(n, 3)), ["a", "b", "c"],
                     (rng.random(n) < 0.5).astype(np.int64))
    p = tmp_path / "train.csv"
    save_dataset(ds, p)
    cells = np.column_stack([ds.features, ds.labels == 1])
    np.save(tmp_path / "oracle.npy", cells, allow_pickle=False)
    assert p.with_suffix(".npy").read_bytes() == (
        tmp_path / "oracle.npy").read_bytes()
    back = load_dataset(p)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_dataset_peak_memory_is_one_copy(tmp_path):
    # the rows are read a block at a time into the features and labels,
    # with no whole twin beside them
    ds = make_synthetic(SyntheticSpec(n_attack=3000, n_benign=3000, d=40,
                                      informative_idx=(0,), seed=1))
    p = tmp_path / "train.csv"
    save_dataset(ds, p)
    back, peak = traced_peak(load_dataset, p)
    assert back.features.tobytes() == ds.features.tobytes()
    assert peak <= 1.25 * back.features.nbytes


def fields_digest(meta):
    """The sidecar's own hash: sha256 of its fields, sorted-key JSON."""
    return hashlib.sha256(
        json.dumps(meta, sort_keys=True).encode()).hexdigest()


# each fault changes one file of a saved artifact and returns that file

def edit_a_cell(p):
    # the last digit of the first cell, so the byte length stays the same
    lines = p.read_text().split("\n")
    cell, rest = lines[1].split(",", 1)
    lines[1] = cell[:-1] + str((int(cell[-1]) + 1) % 10) + "," + rest
    p.write_text("\n".join(lines))
    return p


def make_a_row_ragged(p):
    lines = p.read_text().split("\n")
    lines[2] = lines[2].split(",", 1)[1]
    p.write_text("\n".join(lines))
    return p


def drop_the_final_newline(p):
    p.write_text(p.read_text().rstrip("\n"))
    return p


def cut_the_twin(p):
    twin = p.with_suffix(".npy")
    twin.write_bytes(twin.read_bytes()[:-8])
    return twin


def swap_the_twin(p):
    other = p.with_name("other.csv")
    save_dataset(make_synthetic(SyntheticSpec(
        n_attack=5, n_benign=4, d=3, informative_idx=(1,), seed=2)), other)
    twin = p.with_suffix(".npy")
    twin.write_bytes(other.with_suffix(".npy").read_bytes())
    return twin


def drop_the_hashes(p):
    # a sidecar as written before the .npy twin
    mp = meta_path(p)
    meta = json.loads(mp.read_text())
    del meta["sha256"]
    mp.write_text(json.dumps(meta))
    return mp


def misstate_the_row_count(p):
    mp = meta_path(p)
    meta = json.loads(mp.read_text())
    meta["n_rows"] -= 1
    mp.write_text(json.dumps(meta))
    return mp


def misstate_the_row_count_and_its_hash(p):
    # a sidecar that hashes its own fields consistently still has to
    # agree with the twin's shape
    mp = meta_path(p)
    meta = json.loads(mp.read_text())
    meta["n_rows"] -= 1
    meta["sha256"]["meta"] = fields_digest(
        {k: v for k, v in meta.items() if k != "sha256"})
    mp.write_text(json.dumps(meta))
    return p.with_suffix(".npy")


def delete_the_twin(p):
    twin = p.with_suffix(".npy")
    twin.unlink()
    return twin


@pytest.mark.parametrize("fault", [
    edit_a_cell, make_a_row_ragged, drop_the_final_newline, cut_the_twin,
    swap_the_twin, drop_the_hashes, misstate_the_row_count,
    misstate_the_row_count_and_its_hash, delete_the_twin])
def test_a_changed_artifact_is_refused(tmp_path, fault):
    p = tmp_path / "train.csv"
    save_dataset(make_synthetic(SyntheticSpec(
        n_attack=5, n_benign=4, d=3, informative_idx=(0,), seed=1)), p)
    assert_refused(p, fault(p))


# each rewrites a saved twin as save_dataset never writes it


def save_as_version_2(cells, path):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, cells, version=(2, 0))


def save_in_fortran_order(cells, path):
    np.save(path, np.asfortranarray(cells))


def save_big_endian(cells, path):
    np.save(path, cells.astype(">f8"))


def save_one_row_short(cells, path):
    np.save(path, cells[:-1])


def cut_the_last_row(cells, path):
    np.save(path, cells)
    path.write_bytes(path.read_bytes()[:-8 * cells.shape[1]])


@pytest.mark.parametrize("rewrite", [
    save_as_version_2, save_in_fortran_order, save_big_endian,
    save_one_row_short, cut_the_last_row])
def test_a_twin_save_dataset_never_writes_is_refused(tmp_path, rewrite):
    # the sidecar records the rewritten twin's sha256, so only the header
    # and length checks stand between it and the caller
    p = tmp_path / "train.csv"
    save_dataset(make_synthetic(SyntheticSpec(
        n_attack=5, n_benign=4, d=3, informative_idx=(0,), seed=1)), p)
    twin, mp = p.with_suffix(".npy"), meta_path(p)
    rewrite(np.load(twin), twin)
    meta = json.loads(mp.read_text())
    meta["sha256"]["npy"] = sha256_file(twin)
    mp.write_text(json.dumps(meta))
    assert_refused(p, twin)


@pytest.mark.parametrize("edit", [
    lambda meta: meta.update(scaler=[[0.0, 99.0], [0.0, 1.0]]),
    lambda meta: meta.update(normalized=False),
    lambda meta: meta.update(seed=8),
    lambda meta: meta["sha256"].pop("meta"),
], ids=["scaler", "normalized", "extra-field", "no-fields-hash"])
@pytest.mark.parametrize("load", [load_dataset, load_meta])
def test_an_edited_sidecar_is_a_data_error(tmp_path, edit, load):
    p = tmp_path / "train.csv"
    ds = normalize(make_synthetic(SyntheticSpec(
        n_attack=4, n_benign=4, d=2, informative_idx=(0,), seed=1)))
    save_dataset(ds, p, extra={"seed": 7})
    mp = meta_path(p)
    meta = json.loads(mp.read_text())
    edit(meta)
    mp.write_text(json.dumps(meta, indent=2))
    with pytest.raises(DataError) as err:
        load(p)
    msg = str(err.value)
    assert str(mp) in msg and "rerun the stage that wrote train.csv" in msg


@pytest.mark.parametrize("rewrite", [lambda text: text[:len(text) // 2],
                                     lambda text: "[]"], ids=["cut", "list"])
@pytest.mark.parametrize("load", [load_dataset, load_meta])
def test_a_torn_or_non_object_sidecar_is_a_data_error(tmp_path, rewrite,
                                                      load):
    p = tmp_path / "train.csv"
    save_dataset(make_synthetic(SyntheticSpec(
        n_attack=4, n_benign=4, d=2, informative_idx=(0,), seed=1)), p)
    mp = meta_path(p)
    mp.write_text(rewrite(mp.read_text()))
    with pytest.raises(DataError) as err:
        load(p)
    msg = str(err.value)
    assert str(mp) in msg and "rerun the stage" in msg


@settings(deadline=None)
@given(FEATURES)
def test_normalize_matches_apply_scaler_property(x):
    ds = FlowDataset(x, [f"f{i}" for i in range(x.shape[1])],
                     np.zeros(len(x), dtype=np.int64))
    fitted = normalize(ds)
    again = apply_scaler(ds, fitted.scaler)
    assert again.features.tobytes() == fitted.features.tobytes()
    assert np.all((fitted.features >= 0.0) & (fitted.features <= 1.0))
