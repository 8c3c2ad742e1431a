import contextlib
import faulthandler
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from collective_recourse import dataset
from collective_recourse.dataset import (
    DatasetError,
    LabeledBatch,
    SyntheticSpec,
    load_csv,
    load_embeddings,
    save_csv,
    synth_blobs,
)
from collective_recourse.model import fit


def test_iris_shape(iris_batch):
    assert iris_batch.num_rows == 150
    assert iris_batch.dim == 4
    assert iris_batch.num_classes == 3
    assert np.bincount(iris_batch.labels).tolist() == [50, 50, 50]


def test_iris_label_order_is_first_appearance(iris_batch):
    # canonical file lists setosa rows first, then versicolor, then virginica
    assert iris_batch.labels[0] == 0
    assert iris_batch.labels[50] == 1
    assert iris_batch.labels[100] == 2


def test_feature_subset(iris_path):
    batch = load_csv(iris_path, "species", feature_columns=["sepal_length", "sepal_width"])
    assert batch.dim == 2
    assert batch.num_rows == 150
    assert batch.num_classes == 3
    full = load_csv(iris_path, "species")
    assert np.array_equal(batch.features, full.features[:, :2])


def test_bom_prefixed_csv_names_first_column(iris_path, tmp_path):
    path = tmp_path / "iris_bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + iris_path.read_bytes())
    batch = load_csv(path, "species", feature_columns=["sepal_length"])
    full = load_csv(iris_path, "species")
    assert np.array_equal(batch.features, full.features[:, :1])


def test_one_row_per_class_fit_recovers_rows(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("a,b,label\n1,0,x\n-1,0,y\n0,2,z\n")
    batch = load_csv(path, "label")
    assert batch.num_classes == 3
    theta = fit(batch)
    assert np.array_equal(theta.mu, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]]))


def test_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="missing file"):
        load_csv(tmp_path / "nope.csv", "label")
    # An empty path names no file, though Path("") is the current directory.
    with pytest.raises(DatasetError, match="^missing file: $"):
        load_csv("", "label")
    with pytest.raises(DatasetError, match="^missing file: $"):
        load_embeddings("")


def test_missing_label_column(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DatasetError, match="missing column 'label'"):
        load_csv(path, "label")


def test_missing_feature_column(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,label\n1,2,u\n3,4,v\n")
    with pytest.raises(DatasetError, match="missing feature column"):
        load_csv(path, "label", feature_columns=["a", "c"])


def test_unparsable_cell_reports_location(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,label\n1,2,u\n3,oops,v\n")
    with pytest.raises(DatasetError, match="line 3, column 'b'"):
        load_csv(path, "label")


def test_non_finite_cell_reports_location(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,label\n1,inf,u\n3,4,v\n")
    with pytest.raises(DatasetError, match="non-finite value at line 2, column 'b'"):
        load_csv(path, "label")


def test_ragged_row(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,label\n1,2,u\n3,4\n")
    with pytest.raises(DatasetError, match="line 3 has 2 cells"):
        load_csv(path, "label")


@pytest.mark.parametrize(
    "text, why",
    [
        ("a,a,label\n1,10,u\n2,20,v\n3,30,v\n", "header repeats column name(s) ['a']"),
        ("label,b,label\nu,1,v\nv,2,u\n", "header repeats column name(s) ['label']"),
        ("label\nu\nv\n", "no feature columns selected"),
        ("a,label\n", "no data rows"),
        # A case may name the feature columns too, after the file's text.
        (
            ("a,label\n1,0\n2,1\n", ["a", "label"]),
            "label column 'label' is among the feature columns",
        ),
        (("a,label\n1,0\n2,1\n", ["a", "a"]), "feature columns repeat name(s) ['a']"),
        # A blank label, empty or whitespace only, is not a class of its own.
        ("a,label\n1,u\n2,\n3,v\n4, \n", "blank label at line 3, column 'label'"),
        ("label,a\nu,1\n\t,2\nv,3\n", "blank label at line 3, column 'label'"),
    ],
)
def test_load_csv_rejects_layout(tmp_path, text, why):
    text, features = (text, None) if isinstance(text, str) else text
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}: {why}')}$"):
        load_csv(path, "label", features)


def test_single_label_rejected(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,label\n1,u\n2,u\n")
    with pytest.raises(DatasetError, match="1 distinct label"):
        load_csv(path, "label")


def test_load_embeddings(embeddings_path):
    batch = load_embeddings(embeddings_path)
    assert batch.dim == 10
    assert batch.num_classes == 10
    assert batch.num_rows == 400


def test_load_embeddings_empty_file(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("")
    with pytest.raises(DatasetError, match="no rows"):
        load_embeddings(path)


def test_load_embeddings_skipped_class(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("e0,label\n1.0,0\n2.0,2\n3.0,2\n")
    with pytest.raises(DatasetError, match="empty class: no rows with label 1"):
        load_embeddings(path)


def test_load_embeddings_non_integer_label(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("e0,label\n1.0,0.5\n2.0,1\n")
    with pytest.raises(DatasetError, match="nonnegative integer"):
        load_embeddings(path)


def test_load_embeddings_negative_label(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("e0,label\n1.0,-1\n2.0,0\n")
    with pytest.raises(DatasetError, match="nonnegative integer"):
        load_embeddings(path)


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    labels = np.concatenate([np.arange(3), rng.integers(0, 3, 14)])
    batch = LabeledBatch(rng.standard_normal((17, 5)) * 1e3, labels, 3)
    path = tmp_path / "round.csv"
    save_csv(batch, path)
    back = load_embeddings(path)
    assert np.array_equal(back.features, batch.features)
    assert np.array_equal(back.labels, batch.labels)
    # a second save of the re-loaded batch is byte-identical
    path2 = tmp_path / "round2.csv"
    save_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_batch_invariants():
    with pytest.raises(DatasetError, match="at least 2 classes"):
        LabeledBatch(np.zeros((3, 2)), np.zeros(3, dtype=int), 1)
    with pytest.raises(DatasetError, match="does not match row count"):
        LabeledBatch(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)
    with pytest.raises(DatasetError, match="outside"):
        LabeledBatch(np.zeros((3, 2)), np.array([0, 1, 5]), 2)
    with pytest.raises(DatasetError, match="empty class"):
        LabeledBatch(np.zeros((3, 2)), np.array([0, 0, 0]), 2)
    with pytest.raises(DatasetError, match="non-finite feature value at row 1, column 0"):
        LabeledBatch(np.array([[0.0, 0.0], [np.nan, 0.0]]), np.array([0, 1]), 2)
    with pytest.raises(DatasetError, match=r"^features must be 2-D, got shape \(3,\)$"):
        LabeledBatch(np.zeros(3), np.array([0, 1, 1]), 2)
    with pytest.raises(DatasetError, match=r"^labels must be 1-D, got shape \(3, 1\)$"):
        LabeledBatch(np.zeros((3, 2)), np.array([[0], [1], [1]]), 2)
    with pytest.raises(DatasetError, match="^need at least 3 rows for 3 classes, got 2$"):
        LabeledBatch(np.zeros((2, 2)), np.array([0, 1]), 3)


def test_batch_rejects_non_integral_labels():
    with pytest.raises(DatasetError, match=r"^label 1\.7 at row 1 is not an integer$"):
        LabeledBatch(np.zeros((3, 2)), [0, 1.7, 1.2], 2)
    with pytest.raises(DatasetError, match="label nan at row 2 is not an integer"):
        LabeledBatch(np.zeros((3, 2)), [0.0, 1.0, np.nan], 2)
    # Integral floats, as load_embeddings passes them, load as integers.
    batch = LabeledBatch(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0]), 2)
    assert batch.labels.tolist() == [0, 1, 1]
    assert batch.labels.dtype.kind == "i"


def test_batch_is_immutable(iris_batch):
    with pytest.raises(ValueError):
        iris_batch.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        iris_batch.labels[0] = 1


def test_frozen_shares_only_what_nothing_can_write():
    owner = np.arange(6.0).reshape(2, 3).copy()
    owner.setflags(write=False)
    assert dataset._frozen(owner) is owner
    assert dataset._frozen(owner[:, 1:]).base is owner
    writable = np.arange(6.0)
    view = writable[1:]
    view.setflags(write=False)
    over_bytes = np.frombuffer(bytearray(48))
    over_bytes.setflags(write=False)
    for array in (writable, view, over_bytes):
        frozen = dataset._frozen(array)
        assert not np.shares_memory(frozen, array)
        assert not frozen.flags.writeable and np.array_equal(frozen, array)
    # A batch over read-only arrays shares them; over writable ones, copies them.
    batch = LabeledBatch(owner, np.array([0, 1]), 2)
    assert np.shares_memory(batch.features, owner)
    batch = LabeledBatch(writable.reshape(2, 3), np.array([0, 1]), 2)
    assert not np.shares_memory(batch.features, writable)


def test_batch_rejects_a_non_integral_class_count():
    with pytest.raises(DatasetError, match="^num_classes must be an integer, got 2.7$"):
        LabeledBatch(np.zeros((3, 2)), np.array([0, 1, 1]), 2.7)
    with pytest.raises(DatasetError, match="^num_classes must be an integer, got 2.0$"):
        LabeledBatch(np.zeros((3, 2)), np.array([0, 1, 1]), 2.0)
    batch = LabeledBatch(np.zeros((3, 2)), np.array([0, 1, 1]), np.int64(2))
    assert type(batch.num_classes) is int and batch.num_classes == 2


def test_synth_spec_converts_noise_scale_to_a_real():
    centers = np.eye(2)
    spec = SyntheticSpec(centers, 3, "0.1", seed=0)
    assert spec.noise_scale == 0.1 and type(spec.noise_scale) is float
    for bad in ("noise", None, [0.1]):
        why = f"^noise_scale must be a real, got {re.escape(repr(bad))}$"
        with pytest.raises(DatasetError, match=why):
            SyntheticSpec(centers, 3, bad, seed=0)


def test_synth_blobs_draws_each_class_in_place_bit_for_bit():
    centers = 3.0 * np.random.default_rng(5).standard_normal((4, 7))
    spec = SyntheticSpec(centers, 25, 0.7, seed=5)
    rng = np.random.default_rng(5)
    # The rows as drawn before they were drawn in place.
    expected = np.vstack([centers[y] + 0.7 * rng.standard_normal((25, 7)) for y in range(4)])
    assert synth_blobs(spec).features.tobytes() == expected.tobytes()


def _peak_bytes(call):
    """What ``call()`` returns, and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_blobs_holds_one_feature_matrix():
    spec = SyntheticSpec(np.random.default_rng(6).standard_normal((10, 64)), 500, 1.0, seed=6)
    batch, peak = _peak_bytes(lambda: synth_blobs(spec))
    assert peak < 1.2 * (batch.features.nbytes + batch.labels.nbytes)


def test_synth_blobs_zero_noise():
    spec = SyntheticSpec(np.array([[1.0, 0.0], [-1.0, 0.0]]), 5, 0.0, seed=0)
    batch = synth_blobs(spec)
    assert batch.num_rows == 10
    assert np.array_equal(batch.features[:5], np.tile([1.0, 0.0], (5, 1)))
    assert np.array_equal(batch.features[5:], np.tile([-1.0, 0.0], (5, 1)))


def test_synth_blobs_deterministic():
    spec = SyntheticSpec(np.array([[1.0, 0.0], [-1.0, 0.0]]), 4, 0.1, seed=7)
    a = synth_blobs(spec)
    b = synth_blobs(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_blobs_mean_recovery():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    ppc, noise = 400, 0.05
    batch = synth_blobs(SyntheticSpec(centers, ppc, noise, seed=11))
    mu = fit(batch).mu
    # sample mean of ppc draws has std noise/sqrt(ppc) per coordinate
    assert np.all(np.linalg.norm(mu - centers, axis=1) < 3 * noise / np.sqrt(ppc))


def test_synth_spec_validation():
    centers = np.eye(2)
    with pytest.raises(DatasetError):
        SyntheticSpec(centers, 0, 0.1, seed=0)
    with pytest.raises(DatasetError):
        SyntheticSpec(centers, 3, -0.1, seed=0)
    with pytest.raises(DatasetError):
        SyntheticSpec(np.array([np.inf, 0.0])[None, :], 3, 0.1, seed=0)
    with pytest.raises(DatasetError, match=r"^centers must be a k x d matrix, got shape \(2,\)$"):
        SyntheticSpec(np.zeros(2), 3, 0.1, seed=0)
    # Each of these would fail later, inside numpy or in LabeledBatch.
    with pytest.raises(DatasetError, match="^points_per_class must be an integer, got 2.5$"):
        SyntheticSpec(centers, 2.5, 0.1, seed=0)
    with pytest.raises(DatasetError, match="^seed must be an integer, got 1.0$"):
        SyntheticSpec(centers, 3, 0.1, seed=1.0)
    with pytest.raises(DatasetError, match="^seed must be nonnegative, got -1$"):
        SyntheticSpec(centers, 3, 0.1, seed=-1)
    for noise in (np.nan, np.inf):
        why = f"^noise_scale must be finite and >= 0, got {noise}$"
        with pytest.raises(DatasetError, match=why):
            SyntheticSpec(centers, 3, noise, seed=0)
    spec = SyntheticSpec(centers, np.int64(3), 0.1, seed=np.int64(4))
    assert type(spec.points_per_class) is int and type(spec.seed) is int
    assert synth_blobs(spec).num_rows == 6


@pytest.mark.parametrize("huge", ["1e300", "10000000"])
def test_load_embeddings_huge_label_is_an_empty_class(tmp_path, huge):
    path = tmp_path / "x.csv"
    path.write_text(f"e0,label\n1.0,0\n2.0,{huge}\n")
    with pytest.raises(DatasetError, match="empty class: no rows with label 1"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "body, where",
    [
        ("1,inf,0\n3,oops,1\n", "non-finite value at line 2, column 'e1'"),
        ("1,oops,0\n3,inf,1\n", "unparsable value 'oops' at line 2, column 'e1'"),
        ("1,2\n3,oops,1\n", "line 2 has 2 cells, expected 3"),
        ("1,2,0\n3,oops,1\n4,5\n", "unparsable value 'oops' at line 3, column 'e1'"),
        ("1,2,0\n3,4,1,5\n", "line 3 has 4 cells, expected 3"),
        # Blank lines are skipped but still counted.
        ("\n1,oops,0\n3,4,1\n", "unparsable value 'oops' at line 3, column 'e1'"),
        ("1,2,0\n\n\n3,4\n", "line 5 has 2 cells, expected 3"),
        ("1,2,0\n , \n3,4,-1\n", "label must be a nonnegative integer at line 4, got '-1'"),
    ],
)
def test_first_bad_row_or_cell_in_file_order_is_reported(tmp_path, body, where):
    path = tmp_path / "x.csv"
    path.write_text("e0,e1,label\n" + body)
    with pytest.raises(DatasetError, match=re.escape(f"{path}: {where}")):
        load_embeddings(path)


def test_save_csv_reproduces_bundled_embeddings(embeddings_path, tmp_path):
    # The seeded recipe of demos/04_embedding_pipeline.py.
    centers = 1.2 * np.random.default_rng(42).standard_normal((10, 10))
    batch = synth_blobs(SyntheticSpec(centers, points_per_class=40, noise_scale=1.0, seed=7))
    path = tmp_path / "embeddings_d10.csv"
    save_csv(batch, path)
    assert path.read_bytes() == embeddings_path.read_bytes()


_EDGE_REALS = (
    -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308
)


@st.composite
def _batches(draw):
    k = draw(st.integers(2, 4))
    labels = draw(st.permutations(range(k))) + draw(st.lists(st.integers(0, k - 1), max_size=5))
    reals = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_REALS)
    features = draw(arrays(float, (len(labels), draw(st.integers(1, 4))), elements=reals))
    return LabeledBatch(features, np.array(labels), k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batch=_batches())
def test_save_load_round_trip_keeps_every_bit(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("round") / "batch.csv"
    save_csv(batch, path)
    back = load_embeddings(path)
    assert back.features.tobytes() == batch.features.tobytes()
    assert np.array_equal(back.labels, batch.labels)


def _c_read(path):
    """dataset._read_numeric over the file at ``path``, opened as load_embeddings opens it."""
    with open(path, "rb") as data:
        return dataset._read_numeric(data)


def _load_embeddings_by_cells(path):
    """load_embeddings from _read_rows and _read_reals alone: the reference for its fast path.

    It converts every row before it checks any label, so it stays independent
    of the loader's one pass; the two agree on every file with a single fault.
    """
    with dataset._opened(path) as data:
        rows = dataset._read_rows(path, data)
        _, header = next(rows)
        if len(header) < 2:
            raise DatasetError(f"{path}: need at least one embedding column plus a label column")
        read = [(line, row, dataset._read_reals(path, line, row, header)) for line, row in rows]
    if not read:
        raise DatasetError(f"{path}: no rows")
    values = np.array([reals for _, _, reals in read])
    labels = values[:, -1]
    for (line, row, _), label in zip(read, labels):
        if label < 0 or label != np.floor(label):
            raise DatasetError(
                f"{path}: label must be a nonnegative integer at line {line}, got {row[-1]!r}"
            )
    counts = np.bincount(np.minimum(labels, len(labels)).astype(int))
    if np.any(counts == 0):
        raise DatasetError(f"{path}: empty class: no rows with label {int(np.argmin(counts))}")
    batch = LabeledBatch(values[:, :-1], labels, len(counts))
    return batch.features, batch.labels


# (file bytes, whether numpy's C reader parses it; load_embeddings still
# reads a parsed file again when a label or the column count is wrong)
_PARSE_CASES = {
    "plain": (b"e0,e1,label\n1,2,0\n3.5,-4e-3,1\n", True),
    "bom": (b"\xef\xbb\xbfe0,label\n1,0\n2,1\n", True),
    "crlf": (b"e0,label\r\n1,0\r\n2,1\r\n", True),
    "lone-cr": (b"e0,label\r1,0\r2,1\r", True),
    "no-final-newline": (b"e0,label\n1,0\n2,1", True),
    "blank-lines": (b"\n\ne0,label\n1,0\n\n2,1\n\n", True),
    "bom-then-blank-lines": (b"\xef\xbb\xbf\n\ne0,label\n1,0\n2,1\n", True),
    "commas-before-header": (b",,\ne0,label\n1,0\n2,1\n", True),
    "spaces-before-header": (b"  \t\ne0,label\n1,0\n2,1\n", True),
    # A byte order mark past the file's start is a cell, so this line is the header.
    "bom-line-after-blank-line": (b"\n\xef\xbb\xbf\ne0,label\n1,0\n2,1\n", False),
    # The header is read a line at a time, so the cell reader reads these.
    "quoted-header-line-break": (b'"e\n0",label\n1,0\n2,1\n', False),
    "quote-left-open-in-header": (b'x,"a,b\n1,0\n2,1\n', False),
    "spaces-around-values": (b"e0,label\n 1 ,0\n\t2,1 \n", True),
    "no-break-space": ("e0,label\n\xa01,0\n2,1\n".encode(), True),
    "whitespace-row": (b"e0,label\n1,0\n   \n2,1\n", False),
    "commas-row": (b"e0,e1,label\n1,2,0\n,,\n3,4,1\n", False),
    "quoted-cells": (b'e0,label\n"1",0\n2,"1"\n', True),
    "quoted-spaces": (b'e0,e1,label\n" 1 ","2" ,0\n3,4,1\n', True),
    "quoted-multiline-cell": (b'e0,label\n"1\n",0\n2,1\n', False),
    "underscore-digits": (b"e0,label\n1_000,0\n2,1\n", False),
    "fullwidth-digit": ("e0,label\n\uff11,0\n2,1\n".encode(), False),
    "arabic-indic-digit": ("e0,label\n2,0\n\u0661,1\n".encode(), False),
    "underscore-after-space": (b"e0,e1,label\n1,2,0\n3, 4_0,1\n", False),
    "thin-space-around-value": ("e0,label\n\u20091,0\n2\u2009,1\n".encode(), True),
    "hash-cell": (b"e0,label\n#3,0\n2,1\n", False),
    "hash-after-value": (b"e0,label\n0 # c,0\n2,1\n", False),
    "fortran-exponent": (b"e0,label\n1D2,0\n2,1\n", False),
    "hex": (b"e0,label\n0x10,0\n2,1\n", False),
    "two-numbers": (b"e0,label\n1 2,0\n2,1\n", False),
    "empty-cell": (b"e0,e1,label\n1,,0\n2,3,1\n", False),
    "separator-char": (b"e0,label\n1\x1c,0\n2,1\n", False),
    "nul-char": (b"e0,label\n1\x00,0\n2,1\n", False),
    "nan": (b"e0,label\n1,0\nnan,1\n", False),
    "infinity": (b"e0,label\nInfinity,0\n2,1\n", False),
    "overflow": (b"e0,label\n1,0\n1e400,1\n", False),
    "long-row": (b"e0,label\n1,0\n2,1,5\n", False),
    "short-row": (b"e0,e1,label\n1,2,0\n3,1\n", False),
    "every-row-short": (b"e0,e1,label\n1,0\n3,1\n", False),
    "every-row-long": (b"e0,label\n1,2,0\n3,4,1\n", False),
    "trailing-comma": (b"e0,label\n1,0,\n2,1,\n", False),
    "fractional-label": (b"e0,label\n1,0\n2,1.5\n", True),
    "negative-label": (b"e0,label\n1,-1\n2,0\n", True),
    "skipped-class": (b"e0,label\n1,0\n2,2\n", True),
    "one-class": (b"e0,label\n1,0\n2,0\n", True),
    "header-only": (b"e0,label\n", False),
    "single-column": (b"label\n0\n1\n", True),
    "empty-file": (b"", False),
    "not-utf8": (b"e0,label\n1,0\n\xe9,1\n", False),
}


# Cases whose fault is in the labels or the layout that load_embeddings
# requires; load_csv maps labels by their text and checks its own layout.
_LABEL_OR_LAYOUT_FAULTS = {
    "fractional-label", "negative-label", "skipped-class", "one-class", "header-only",
    "single-column", "bom-line-after-blank-line", "quote-left-open-in-header",
}


def _outcome(load, path):
    try:
        features, labels = load(path)
    except DatasetError as err:
        return str(err)
    return np.asarray(features).tobytes(), np.asarray(labels, dtype=float).tobytes()


@pytest.mark.parametrize("name", list(_PARSE_CASES))
def test_load_embeddings_parse_paths_agree(tmp_path, name):
    content, fast = _PARSE_CASES[name]
    path = tmp_path / "x.csv"
    path.write_bytes(content)

    def load(p):
        batch = load_embeddings(p)
        return batch.features, batch.labels

    def load_labeled(p):
        batch = load_csv(p, "label")
        return batch.features, batch.labels

    # No warning may reach the caller, such as numpy's on a file without data rows.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert (_c_read(path) is not None) == fast
        expected = _outcome(_load_embeddings_by_cells, path)
        assert _outcome(load, path) == expected
        # load_csv reads the same cells: but for a fault in the labels or the
        # layout, it loads the same batch or names the same fault.
        if name not in _LABEL_OR_LAYOUT_FAULTS:
            assert _outcome(load_labeled, path) == expected
    assert not caught


# What may be put into a real's text: digits, ASCII or not, the other
# characters of a real, quotes, words and controls, and ASCII and Unicode
# whitespace that either reader might strip; never a comma or a line break,
# so that each text stays one cell of one row.
_CELL_PIECES = (
    "1", "\u0661", "\uff11", ".", "e", "+", "-", "_", '"', "'", "#", "nan", "inf", "x", "d",
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x00", "\x85", "\xa0", "\u2009", "\u3000",
)


@st.composite
def _cells(draw):
    """A real's text (sign, digits, fraction, exponent, each may be empty),
    with up to two pieces put in anywhere."""
    parts = (("", "-"), ("", "25"), ("", ".5"), ("", "e-3"))
    text = "".join(draw(st.sampled_from(options)) for options in parts)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_CELL_PIECES)) + text[at:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cell=_cells())
@example(cell="\u20091\xa0")
@example(cell="\xa0-2.5\u2009")
@example(cell="+1")
@example(cell="-1")
@example(cell=".5")
@example(cell="5.")
@example(cell="1E+05")
@example(cell='"1"2')
@example(cell=' "1"')
@example(cell="1_000")  # float() reads these three; numpy's C reader does not
@example(cell="\u0661")
@example(cell="\uff11")
def test_both_readers_take_one_cell_grammar(tmp_path_factory, cell):
    # One cell beside a label, so that no text makes the row blank: numpy's C
    # reader and the row reader accept the same texts, with the same bits.
    path = tmp_path_factory.mktemp("cell") / "x.csv"
    path.write_text(f"e0,label\n{cell},0\n", encoding="utf-8", newline="")
    fast = _c_read(path)
    try:
        with dataset._opened(path) as data:
            rows = dataset._read_rows(path, data)
            _, header = next(rows)
            slow = np.array([dataset._read_reals(path, line, row, header) for line, row in rows])
    except DatasetError:
        slow = None
    assert (fast is None) == (slow is None)
    if slow is not None:
        assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("cell", ["1_000", "\u0661", "\uff11", " 4_0 ", "1e1_0"])
def test_a_cell_the_c_reader_rejects_no_reader_loads(tmp_path, cell):
    # float() reads digit-group underscores and any script's digits.
    path = tmp_path / "x.csv"
    path.write_text(f"e0,e1,label\n1,2,0\n3,{cell},1\n", encoding="utf-8")
    assert _c_read(path) is None
    message = f"{path}: unparsable value {cell!r} at line 3, column 'e1'"
    for load in (load_embeddings, lambda p: load_csv(p, "label")):
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load(path)


def test_load_embeddings_fast_path_keeps_every_bit(embeddings_path, tmp_path):
    synth = tmp_path / "synth.csv"
    centers = np.random.default_rng(5).standard_normal((4, 16))
    save_csv(synth_blobs(SyntheticSpec(centers, 300, 1.0, seed=5)), synth)
    for path in (embeddings_path, synth):
        assert _c_read(path) is not None
        batch = load_embeddings(path)
        features, labels = _load_embeddings_by_cells(path)
        assert batch.features.tobytes() == features.tobytes()
        assert batch.labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize("rows_before", [0, 3000])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_non_utf8_byte_is_named_by_file_line(tmp_path, rows_before, ending):
    # 3000 rows put the bad byte past the decoder's first 8 KB chunk.
    lines = ["e0,label"] + ["1.25,0"] * rows_before + ["2,1", "caf\u00e9,1"]
    path = tmp_path / "x.csv"
    data = ending.join(lines).encode("utf-8") + ending.encode()
    path.write_bytes(b"\xef\xbb\xbf" + data.replace("\u00e9".encode(), b"\xe9"))
    where = f"{path}: byte 0xe9 at line {rows_before + 3} is not UTF-8"
    with pytest.raises(DatasetError, match=re.escape(where)):
        load_embeddings(path)
    with pytest.raises(DatasetError, match=re.escape(where)):
        load_csv(path, "label")


@pytest.mark.parametrize("line", [1, 2])
def test_cell_over_the_csv_field_limit_is_named_by_file_line(tmp_path, line):
    # The csv module refuses a field over 131 072 characters; here the
    # header or the first data row holds a quoted cell of 200 000.
    lines = ["e0,e1,label", "1.5,2,0", "3,4,1"]
    lines[line - 1] = '"' + "1" * 200_000 + '",' + lines[line - 1].split(",", 1)[1]
    path = tmp_path / "x.csv"
    path.write_text("\n".join(lines) + "\n")
    where = f"{path}: line {line}: field larger than field limit (131072)"
    with pytest.raises(DatasetError, match=f"^{re.escape(where)}$"):
        load_embeddings(path)
    with pytest.raises(DatasetError, match=f"^{re.escape(where)}$"):
        load_csv(path, "label")


@pytest.mark.parametrize(
    "load", [load_embeddings, lambda p: load_csv(p, "label")], ids=["load_embeddings", "load_csv"]
)
def test_a_bad_cell_is_named_before_a_later_bad_byte(tmp_path, load):
    # Rows are converted as they are read, so the first fault in file order
    # is named, whatever its kind.
    path = tmp_path / "x.csv"
    path.write_bytes(b"e0,label\n1,0\n1x,1\n2,1\n2,\xff\n")
    where = f"{path}: unparsable value '1x' at line 3, column 'e0'"
    with pytest.raises(DatasetError, match=f"^{re.escape(where)}$"):
        load(path)


def test_a_header_fault_is_named_before_a_later_bad_byte(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"a,a,label\n1,2,u\n\xff,3,v\n")
    where = f"{path}: header repeats column name(s) ['a']"
    with pytest.raises(DatasetError, match=f"^{re.escape(where)}$"):
        load_csv(path, "label")


def test_a_bad_label_is_named_before_a_later_bad_cell(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("e0,label\n1,0\n2,-1\n3,x\n")
    where = f"{path}: label must be a nonnegative integer at line 3, got '-1'"
    with pytest.raises(DatasetError, match=f"^{re.escape(where)}$"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "load, content",
    [
        (lambda p: load_csv(p, "label"), b"a,a,label\n1,2,u\n3,4,v\n"),
        (lambda p: load_csv(p, "label"), b"a,label\n1,u\n2,u\n"),
        (load_embeddings, b"e0,label\n1,0\n2,-1\n3,1\n"),
        (load_embeddings, b"label\n0\n1\n"),
    ],
)
def test_a_failing_load_closes_its_file_before_raising(tmp_path, load, content):
    # The caller holds the exception, and through its traceback the row
    # reader; the file is closed all the same.
    path = tmp_path / "x.csv"
    path.write_bytes(content)
    fds = _open_fds()
    with pytest.raises(DatasetError) as held:
        load(path)
    assert held.value.__traceback__ is not None
    assert _open_fds() == fds


def test_load_csv_converts_each_row_as_it_reads_it(tmp_path, synth_20k_batch):
    # 20 000 x 64 features with string labels: no list of every row's cells
    # is held, and the stacked matrix is the batch's own, not copied.
    numeric, named = tmp_path / "numeric.csv", tmp_path / "named.csv"
    save_csv(synth_20k_batch, numeric)
    header, *rows = numeric.read_text().splitlines()
    with open(named, "w") as handle:
        handle.write(header + "\n")
        for row in rows:
            cells, _, label = row.rpartition(",")
            handle.write(f"{cells},class{label}\n")
    del rows
    batch, peak = _peak_bytes(lambda: load_csv(named, "label"))
    assert batch.features.tobytes() == synth_20k_batch.features.tobytes()
    assert np.array_equal(batch.labels, synth_20k_batch.labels)
    assert batch.features.base is None and not batch.features.flags.writeable
    assert peak <= 3 * batch.features.nbytes


# Files for a forced split (see _split_forced), as in _PARSE_CASES. The
# row that matters lies in the first range, which a forked child parses,
# but for split-short-row-late, where it ends the last range, which the
# parent parses. Two give only one range: the single row, and rows followed by so many
# blank lines that every later cut falls at the end of the file.
_ONE_RANGE = {"split-one-row", "split-blank-tail", "split-long-blank-tail"}
_SPLIT_CASES = {
    "split-bom": (b"\xef\xbb\xbfe0,e1,label\n" + b"1,2,0\n3,4,1\n" * 4, True),
    # The data start after the header's line break, the byte order mark counted.
    "split-bom-short-header": (b"\xef\xbb\xbf\r\nl\r\n" + b"0\r\n1\r\n" * 4, True),
    "split-crlf": (b"e0,e1,label\r\n" + b"1,2,0\r\n3,4,1\r\n" * 4, True),
    "split-lone-cr": (b"e0,e1,label\r" + b"1,2,0\r3,4,1\r" * 4, True),
    "split-mixed-breaks": (b"e0,label\r\n" + b"1,0\r2,1\n3,1\r\n" * 3, True),
    "split-blank-lines": (b"e0,label\n\n\n" + b"1,0\n\n\r\n2,1\r\r\n" * 4 + b"\n" * 40, True),
    "split-blank-tail": (b"e0,label\n1,0\n2,1\n" + b"\n" * 200, True),
    # A cut target inside a long run of breaks scans it once, not once per byte.
    "split-long-blank-tail": (b"e0,label\n1,0\n2,1\n" + b"\r\n" * 50_000, True),
    "split-bad-cell": (b"e0,e1,label\n1,oops,0\n" + b"3,4,1\n" * 8, False),
    "split-separator": (b"e0,e1,label\n1\x1d,2,0\n" + b"3,4,1\n" * 8, False),
    # Past the first 8 KB, which the header's read already decodes.
    "split-not-utf8": (
        b"e0,e1,label\n" + b"3,4,1\n" * 1500 + b"1,\xe9,0\n" + b"3,4,1\n" * 2000, False
    ),
    "split-short-row-late": (b"e0,e1,label\n" + b"1,2,0\n" * 8 + b"3,1\n", False),
    "split-one-row": (b"e0,label\n1,0\n", True),
    "split-two-rows": (b"e0,label\n1,0\n2,1", True),
}


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned in this process."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _split_forced(monkeypatch, workers):
    monkeypatch.setattr(dataset, "_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
@pytest.mark.parametrize("name", list(_PARSE_CASES) + list(_SPLIT_CASES))
def test_split_read_equals_serial_read(tmp_path, monkeypatch, forks, name, workers):
    content, fast = _PARSE_CASES.get(name) or _SPLIT_CASES[name]
    path = tmp_path / "x.csv"
    path.write_bytes(content)

    def load(p):
        batch = load_embeddings(p)
        return batch.features, batch.labels

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        serial = _c_read(path)
        assert (serial is not None) == fast
        serial_outcome = _outcome(load, path)
        assert not forks
        fds = _open_fds()
        _split_forced(monkeypatch, workers)
        split = _c_read(path)
        assert (split is None) == (serial is None)
        if serial is not None:
            assert split.shape == serial.shape and split.tobytes() == serial.tobytes()
        assert _outcome(load, path) == serial_outcome
        assert _open_fds() == fds
    assert not caught
    assert _no_children_left()
    if name in _SPLIT_CASES:
        assert bool(forks) == (name not in _ONE_RANGE)


@st.composite
def _small_embedding_files(draw):
    """A file of 1 to 4 columns and 2 to 40 rows of reals, each line ended
    by LF, CRLF or a lone CR, with blank lines and a byte order mark drawn,
    and at most one fault: a short row, an unparsable cell or an infinity.
    Gives the file's bytes and whether it holds a fault."""
    width = draw(st.integers(1, 4))
    reals = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = draw(st.lists(st.lists(reals, min_size=width, max_size=width), min_size=2, max_size=40))
    fault = draw(st.sampled_from([None, "short", "unparsable", "inf"]))
    if fault:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        column = draw(st.integers(0, width - 1))
        if fault == "short":
            del row[column]
        else:
            row[column] = "1x" if fault == "unparsable" else "inf"
    header = [f"e{j}" for j in range(width - 1)] + ["label"]
    text = ""
    for cells in [header] + rows:
        text += draw(st.sampled_from(["", "\n", "\r\n"]))  # a blank line, or none
        text += ",".join(cells) + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode(), fault is not None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(file=_small_embedding_files(), workers=st.integers(2, 4), chunk=st.integers(1, 64))
def test_split_read_equals_serial_read_on_drawn_files(tmp_path_factory, file, workers, chunk):
    # Every range's widths and values are checked where it is parsed, in a
    # child or in this process: a split read gives the serial read's bits,
    # or None where the serial read does, and leaves no child or file behind.
    # Chunks of 1 to 64 bytes end inside lines and inside runs of line
    # breaks, which one 64 KiB chunk of these small files never does.
    content, faulty = file
    path = tmp_path_factory.mktemp("split") / "x.csv"
    path.write_bytes(content)
    serial = _c_read(path)
    assert faulty or serial is not None
    fds = _open_fds()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_CHUNK_BYTES", chunk)
        chunked = _c_read(path)
        _split_forced(patch, workers)
        split = _c_read(path)
    for values in (chunked, split):
        assert (values is None) == (serial is None)
        if serial is not None:
            assert values.shape == serial.shape and values.tobytes() == serial.tobytes()
    assert _open_fds() == fds
    assert _no_children_left()


def test_a_range_is_decoded_as_strict_utf8(tmp_path):
    # numpy rejects a replacement character in any cell too, so only the
    # error shows that a byte that is not UTF-8 stops the parse at its decode.
    path = tmp_path / "x.csv"
    path.write_bytes(b"1,2,0\n3,\xe9,1\n")
    with open(path, "rb") as data, pytest.raises(UnicodeDecodeError):
        dataset._parse_range(data.fileno(), 0, path.stat().st_size, 3)


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    """The bytes of _write_large's file, LF line breaks and no quotes."""
    path = tmp_path_factory.mktemp("large") / "x.csv"
    _write_large(path)
    return path.read_bytes()


def _with_long_row(text):
    """``text`` with 3000 spaces before each cell of the row across its
    middle: a row of about 200 KB, which the middle cut's target falls in
    more than a chunk before its end."""
    start = text.rindex(b"\n", 0, len(text) // 2) + 1
    stop = text.index(b"\n", start)
    row = b",".join(b" " * 3000 + cell for cell in text[start:stop].split(b","))
    return text[:start] + row + text[stop:]


# Layouts of a file that two workers read, each made from large_csv.
_LARGE_LAYOUTS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace(b"\n", b"\r\n"),
    "cr": lambda text: text.replace(b"\n", b"\r"),
    "bom-crlf": lambda text: b"\xef\xbb\xbf" + text.replace(b"\n", b"\r\n"),
    "no-final-break": lambda text: text.rstrip(b"\n"),
    "blank-lines": lambda text: text.replace(b"\n", b"\n\n\r\n"),
    "quoted-labels": lambda text: re.sub(rb",(\d+)\n", rb',"\1"\n', text),
    "spaced-cells": lambda text: text.replace(b",", b" , "),
    "row-longer-than-a-chunk": _with_long_row,
}


@pytest.mark.parametrize("layout", list(_LARGE_LAYOUTS))
def test_split_read_of_each_layout_gives_the_cell_readers_bits(
    tmp_path, monkeypatch, forks, large_csv, layout
):
    path = tmp_path / "x.csv"
    path.write_bytes(_LARGE_LAYOUTS[layout](large_csv))
    features, labels = _load_embeddings_by_cells(path)
    cell_reads = []
    read_rows = dataset._read_rows

    def recorded(*args):
        cell_reads.append(args)
        return read_rows(*args)

    monkeypatch.setattr(dataset, "_read_rows", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    batch = load_embeddings(path)
    assert len(forks) == 1 and not cell_reads
    assert batch.features.tobytes() == features.tobytes()
    assert batch.labels.tobytes() == labels.tobytes()
    assert _no_children_left()


@pytest.mark.parametrize("cell", ["1\x1d", '1"5'], ids=["separator", "odd-quote"])
def test_a_bad_row_in_the_last_chunk_is_named_by_line_and_column(
    tmp_path, monkeypatch, forks, large_csv, cell
):
    # The last row, in the last chunk of the range that this process parses.
    *lines, last, end = large_csv.split(b"\n")
    cells = last.split(b",")
    cells[1] = cell.encode()
    path = tmp_path / "x.csv"
    path.write_bytes(b"\n".join([*lines, b",".join(cells), end]))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _c_read(path) is None
    assert len(forks) == 1
    where = f"{path}: unparsable value {cell!r} at line {len(lines) + 1}, column 'e1'"
    with pytest.raises(DatasetError, match=f"^{re.escape(where)}$"):
        load_embeddings(path)
    assert _no_children_left()


def test_split_read_of_a_file_without_data_rows_forks_nothing(tmp_path, monkeypatch, forks):
    # Every cut falls at the end of the file, so no range holds data.
    path = tmp_path / "x.csv"
    path.write_bytes(b"e0,label\n" + b"\n" * 64)
    _split_forced(monkeypatch, 2)
    assert _c_read(path) is None
    assert not forks
    with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}: no rows')}$"):
        load_embeddings(path)
    assert not forks


@pytest.mark.parametrize(
    "name, line", [("split-bad-cell", 2), ("split-separator", 2), ("split-not-utf8", 1502)]
)
def test_split_read_names_a_bad_line_in_a_child_range(tmp_path, monkeypatch, forks, name, line):
    path = tmp_path / "x.csv"
    path.write_bytes(_SPLIT_CASES[name][0])
    _split_forced(monkeypatch, 2)
    seen = []
    parse_range = dataset._parse_range

    def recorded(p, start, stop, width):
        seen.append((start, stop))
        return parse_range(p, start, stop, width)

    monkeypatch.setattr(dataset, "_parse_range", recorded)
    assert _c_read(path) is None
    # This process parsed only the last range, which starts after the bad line.
    assert len(forks) == 1 and len(seen) == 1
    assert path.read_bytes()[: seen[0][0]].count(b"\n") >= line
    with pytest.raises(DatasetError, match=re.escape(f"{path}: ") + f".* line {line}\\b"):
        load_embeddings(path)
    assert _no_children_left()


@pytest.mark.parametrize("where", ["child", "parent"])
def test_failed_split_worker_gives_the_cell_by_cell_answer(tmp_path, monkeypatch, forks, where):
    path = tmp_path / "x.csv"
    save_csv(synth_blobs(SyntheticSpec(np.eye(3), 40, 1.0, seed=3)), path)
    serial = load_embeddings(path)
    parent = os.getpid()
    parse_range = dataset._parse_range

    def failing(p, start, stop, width):
        if (os.getpid() == parent) == (where == "parent"):
            raise ValueError("worker failed")
        return parse_range(p, start, stop, width)

    _split_forced(monkeypatch, 3)
    monkeypatch.setattr(dataset, "_parse_range", failing)
    fds = _open_fds()
    # A read that waits for ever on a child ends the run with a traceback.
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        assert _c_read(path) is None
        batch = load_embeddings(path)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert len(forks) == 4  # two per split read
    assert batch.features.tobytes() == serial.features.tobytes()
    assert batch.labels.tobytes() == serial.labels.tobytes()
    assert _open_fds() == fds
    assert _no_children_left()


def _load_from_fifo(tmp_path, content, load=load_embeddings):
    """``load`` of a FIFO that a thread writes ``content`` to; the thread has
    finished once the FIFO is read to its end, and is joined before any
    worker is counted, since a second Python thread rules out a fork."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(content,))
    worker_count = dataset._worker_count

    def joined(size):
        writer.join(60)
        assert not writer.is_alive()
        return worker_count(size)

    writer.start()
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "_worker_count", joined)
            return load(fifo)
    finally:
        writer.join(60)
        faulthandler.cancel_dump_traceback_later()


def test_fifo_is_spooled_and_parsed_by_the_split_c_reader(tmp_path, monkeypatch, forks):
    # About 5 MB of rows: two ranges of at least _RANGE_BYTES.
    path = tmp_path / "x.csv"
    _write_large(path)
    content = path.read_bytes()
    forks.clear()  # the save's own split, where this host has a second CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    on_path = load_embeddings(path)
    assert len(forks) == 1
    cell_reads = []
    monkeypatch.setattr(dataset, "_read_rows", lambda *args: cell_reads.append(args))
    fds = _open_fds()
    batch, peak = _peak_bytes(lambda: _load_from_fifo(tmp_path, content))
    assert len(forks) == 2 and not cell_reads
    assert batch.features.tobytes() == on_path.features.tobytes()
    assert batch.labels.tobytes() == on_path.labels.tobytes()
    assert peak < 1.6 * batch.features.base.nbytes
    assert _open_fds() == fds
    assert _no_children_left()


@pytest.mark.parametrize(
    "load", [load_embeddings, lambda p: load_csv(p, "label")], ids=["load_embeddings", "load_csv"]
)
def test_fifo_with_a_bad_cell_is_named_by_line_and_column(tmp_path, load):
    where = f"{tmp_path / 'fifo'}: unparsable value 'x' at line 3, column 'e1'"
    with pytest.raises(DatasetError, match=f"^{re.escape(where)}$"):
        _load_from_fifo(tmp_path, b"e0,e1,label\n1,2,0\n3,x,1\n", load)


@pytest.mark.parametrize("tail", [b"", b"3,4,1"], ids=["line-break", "mid-row"])
def test_split_read_of_a_file_shortened_after_its_size_was_read(
    tmp_path, monkeypatch, forks, tail
):
    # The file is cut to a third between the size read and the split, so a
    # cut placed by the old size would lie past the end of the file.
    head = b"e0,e1,label\n" + b"1,2,0\n3,4,10\n" * 666 + b"1,2,0\n" + tail
    path, short = tmp_path / "x.csv", tmp_path / "short.csv"
    path.write_bytes(head + b"3,4,10\n1,2,0\n3,4,10\n" * 1334)
    short.write_bytes(head)
    serial = _c_read(short)
    assert serial is not None and serial[-1, -1] == (1 if tail else 0)

    def shortened(size):
        os.truncate(path, len(head))
        return 2

    monkeypatch.setattr(dataset, "_worker_count", shortened)
    fds = _open_fds()
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        split = _c_read(path)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert split.shape == serial.shape and split.tobytes() == serial.tobytes()
    assert len(forks) == 1
    assert _open_fds() == fds
    assert _no_children_left()


def test_a_file_shortened_during_the_cut_search_fails_the_fast_read(
    tmp_path, monkeypatch, forks
):
    # The cuts are found by reads of the open file, so a file cut short while
    # they are searched is a ValueError, and the rows are read again, never
    # a signal that ends the process.
    head = b"e0,e1,label\n" + b"1,2,0\n3,4,1\n" * 1000
    path = tmp_path / "x.csv"
    path.write_bytes(head + b"1,2,0\n3,4,1\n" * 2000)
    row_starts = dataset._row_starts

    def shortened(fd, pos, stop):
        # The search from byte 0 ends the header; every later one is a cut's.
        if pos > 0:
            os.truncate(path, len(head))
        return row_starts(fd, pos, stop)

    monkeypatch.setattr(dataset, "_row_starts", shortened)
    _split_forced(monkeypatch, 2)
    assert _c_read(path) is None
    assert not forks
    assert load_embeddings(path).num_rows == 2000
    assert _no_children_left()


def test_large_file_loads_by_split_bit_for_bit(tmp_path, monkeypatch, forks):
    # About 4.6 MB of rows: two ranges of at least _RANGE_BYTES.
    path = tmp_path / "synth.csv"
    centers = np.random.default_rng(8).standard_normal((4, 64))
    save_csv(synth_blobs(SyntheticSpec(centers, 850, 1.0, seed=8)), path)
    forks.clear()  # the save's own split, where this host has a second CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    batch = load_embeddings(path)
    assert len(forks) == 1
    monkeypatch.setattr(dataset, "_RANGE_BYTES", path.stat().st_size)
    serial = load_embeddings(path)
    assert len(forks) == 1
    features, labels = _load_embeddings_by_cells(path)
    for reference in (serial.features, features):
        assert batch.features.tobytes() == reference.tobytes()
    for reference in (serial.labels, labels):
        assert batch.labels.tobytes() == reference.tobytes()
    assert _no_children_left()


@pytest.mark.parametrize("why", ["one-cpu", "no-affinity", "second-thread", "little-data"])
def test_split_read_is_used_only_where_it_pays(tmp_path, monkeypatch, forks, why):
    path = tmp_path / "x.csv"
    path.write_bytes(_SPLIT_CASES["split-crlf"][0])
    _split_forced(monkeypatch, 2)
    if why == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif why == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    elif why == "little-data":
        monkeypatch.setattr(dataset, "_RANGE_BYTES", len(path.read_bytes()))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "second-thread":
        thread.start()
    try:
        values = _c_read(path)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    assert values.shape == (8, 3)
    assert not forks


def test_one_worker_receives_its_own_rows_without_a_copy():
    last = np.arange(6.0).reshape(3, 2)
    assert dataset._received(last, []) is last


def test_lines_before_the_header_are_read_once(tmp_path, monkeypatch):
    # Each line before the header ends where the search for the next one
    # left off, so a long run of blank-cell lines costs its bytes, not a
    # window each.
    path = tmp_path / "x.csv"
    path.write_bytes(b",,\n  \n" * 20000 + b"e0,label\n1,0\n2,1\n")
    read = []
    pread = os.pread

    def counted(fd, length, offset):
        read.append(length)
        return pread(fd, length, offset)

    monkeypatch.setattr(os, "pread", counted)
    assert _c_read(path).tolist() == [[1, 0], [2, 1]]
    assert sum(read) < 3 * path.stat().st_size


def test_save_csv_to_a_fifo_writes_the_files_bytes(tmp_path):
    # An output that cannot seek, such as a pipe, is written by this process alone.
    batch = _edge_batch(300)
    path, fifo = tmp_path / "x.csv", tmp_path / "fifo"
    save_csv(batch, path)
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        save_csv(batch, fifo)
    finally:
        reader.join(60)
        faulthandler.cancel_dump_traceback_later()
    assert received == [path.read_bytes()]


def _edge_batch(rows):
    """A seeded two-class batch of ``rows`` rows over the whole float64 range,
    the edge reals included."""
    rng = np.random.default_rng(rows)
    features = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-320, 300, (rows, 5))
    features.flat[: len(_EDGE_REALS)] = _EDGE_REALS[: features.size]
    return LabeledBatch(features, np.arange(rows) % 2, 2)


def _write_one_row(path):
    dataset._write_matrix(path, (np.array([[1.5, -0.0, 5e-324]]),), ["d0", "d1", "d2"])


def _write_centroids(path):
    centers = np.random.default_rng(9).standard_normal((10, 7))
    mu = fit(synth_blobs(SyntheticSpec(centers, 5, 1.0, seed=9))).mu
    dataset._write_matrix(path, (mu,), [f"d{j}" for j in range(mu.shape[1])])


# Writes for a forced split (see _split_forced): (rows, write to a path).
_WRITES = {
    "fewer-rows-than-workers": (3, lambda path: save_csv(_edge_batch(3), path)),
    "one-row": (1, _write_one_row),
    "centroids": (10, _write_centroids),
    "batch": (120, lambda path: save_csv(_edge_batch(120), path)),
}


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
@pytest.mark.parametrize("name", list(_WRITES))
def test_split_write_equals_serial_write(tmp_path, monkeypatch, forks, name, workers):
    rows, write = _WRITES[name]
    serial, split = tmp_path / "serial.csv", tmp_path / "split.csv"
    write(serial)
    assert not forks
    fds = _open_fds()
    _split_forced(monkeypatch, workers)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        write(split)
    assert not caught
    assert split.read_bytes() == serial.read_bytes()
    # One range per worker, but never an empty one; this process writes the first.
    assert len(forks) == min(rows, workers) - 1
    assert _open_fds() == fds
    assert _no_children_left()


def test_block_write_equals_the_row_write(tmp_path):
    # save_csv as it was written before the block writer: one row at a time,
    # each label a Python int.
    batch = _edge_batch(120)
    path = tmp_path / "x.csv"
    save_csv(batch, path)
    line = ",".join(["%.17g"] * (batch.dim + 1)) + "\n"
    rows = zip(batch.features.tolist(), batch.labels.tolist())
    expected = "".join(line % (*row, label) for row, label in rows)
    header = ",".join(f"e{j}" for j in range(batch.dim)) + ",label\n"
    assert path.read_bytes() == (header + expected).encode()


@pytest.mark.parametrize("where", ["child", "parent"])
def test_failed_split_write_is_rewritten_serially(tmp_path, monkeypatch, forks, where):
    batch = _edge_batch(120)
    serial, split = tmp_path / "serial.csv", tmp_path / "split.csv"
    save_csv(batch, serial)
    parent = os.getpid()
    formatted = dataset._formatted

    def failing(line, columns, start, stop):
        blocks = formatted(line, columns, start, stop)
        # A worker fails after its first block; the serial rewrite, which
        # formats every row at once, works.
        if (os.getpid() == parent) == (where == "parent") and stop - start < batch.num_rows:
            yield next(blocks)
            raise OSError("worker failed")
        yield from blocks

    _split_forced(monkeypatch, 3)
    monkeypatch.setattr(dataset, "_formatted", failing)
    fds = _open_fds()
    # A write that waits for ever on a child ends the run with a traceback.
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        save_csv(batch, split)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert len(forks) == 2
    assert split.read_bytes() == serial.read_bytes()
    assert _open_fds() == fds
    assert _no_children_left()


@pytest.mark.parametrize("why", ["second-thread", "one-cpu", "device"])
def test_split_write_is_used_only_where_it_pays(tmp_path, monkeypatch, forks, why):
    batch = _edge_batch(120)
    serial, path = tmp_path / "serial.csv", tmp_path / "x.csv"
    save_csv(batch, serial)
    _split_forced(monkeypatch, 2)
    if why == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "second-thread":
        thread.start()
    try:
        # A device cannot be cut back for a serial rewrite, so it is never split.
        save_csv(batch, os.devnull if why == "device" else path)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    assert not forks
    if why != "device":
        assert path.read_bytes() == serial.read_bytes()


def test_split_save_and_split_load_keep_every_bit(tmp_path, monkeypatch, forks):
    batch = _edge_batch(120)
    path = tmp_path / "x.csv"
    _split_forced(monkeypatch, 3)
    save_csv(batch, path)
    assert len(forks) == 2
    back = load_embeddings(path)
    assert len(forks) == 4
    assert back.features.tobytes() == batch.features.tobytes()
    assert back.labels.tobytes() == batch.labels.tobytes()
    assert _no_children_left()


def _write_large(path):
    """A 4000 x 64 synth_blobs CSV, about 5 MB."""
    centers = np.random.default_rng(12).standard_normal((10, 64))
    save_csv(synth_blobs(SyntheticSpec(centers, 400, 1.0, seed=12)), path)


def test_split_read_fills_one_matrix(tmp_path, monkeypatch, forks):
    # Each child's values are read straight into the rows of the result, so
    # the peak is one matrix and this process's own part, not two matrices.
    path = tmp_path / "x.csv"
    _write_large(path)
    serial = _c_read(path)
    _split_forced(monkeypatch, 2)
    forks.clear()
    values, peak = _peak_bytes(lambda: _c_read(path))
    assert len(forks) == 1
    assert values.tobytes() == serial.tobytes()
    assert peak < 1.6 * values.nbytes
    assert _no_children_left()


def test_load_embeddings_hands_out_views_of_the_parsed_matrix(tmp_path, monkeypatch, forks):
    path = tmp_path / "x.csv"
    _write_large(path)
    _split_forced(monkeypatch, 2)
    forks.clear()
    batch, peak = _peak_bytes(lambda: load_embeddings(path))
    assert len(forks) == 1
    assert peak < 1.6 * (batch.features.nbytes + batch.labels.nbytes)
    assert not batch.features.flags.writeable and not batch.features.base.flags.writeable
    assert batch.features.base.shape == (batch.num_rows, batch.dim + 1)
    assert _no_children_left()


def test_load_embeddings_of_a_fifo_hands_out_views_of_the_parsed_matrix(tmp_path):
    # A pipe is spooled and parsed like a file, into the one matrix the batch then views.
    path, fifo = tmp_path / "x.csv", tmp_path / "fifo"
    save_csv(_edge_batch(120), path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        batch = load_embeddings(fifo)
        writer.join()
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert batch.features.tobytes() == load_embeddings(path).features.tobytes()
    assert not batch.features.flags.writeable and not batch.features.base.flags.writeable
    assert batch.features.base.shape == (batch.num_rows, batch.dim + 1)


@pytest.mark.parametrize("fails", [None, "here", "child", "receive"])
def test_forked_leaves_nothing_behind(forks, fails):
    # Every child is reaped and every part closed, whether the children, this
    # process's own work or the reading of the parts (the with block) fail.
    def child(lo, hi):
        if fails == "child":
            raise ValueError("child failed")
        yield bytes(range(lo, hi))
        yield b"!"

    def here():
        if fails == "here":
            raise ValueError("here failed")
        return "here"

    fds = _open_fds()
    error = ChildProcessError if fails == "child" else ValueError
    match = "2 of 2 forked workers failed" if fails == "child" else f"{fails} failed"
    with pytest.raises(error, match=match) if fails else contextlib.nullcontext():
        with dataset._forked([(0, 3), (3, 5)], child, here) as (last, parts):
            if fails == "receive":
                raise ValueError("receive failed")
            assert last == "here"
            assert [part.read() for part in parts] == [b"\x00\x01\x02!", b"\x03\x04!"]
    assert len(forks) == 2
    assert _open_fds() == fds
    assert _no_children_left()
