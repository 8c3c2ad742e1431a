import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from collective_recourse import dataset
from collective_recourse.dataset import (
    DatasetError,
    LabeledBatch,
    SyntheticSpec,
    load_csv,
    load_embeddings,
    read_reals,
    read_rows,
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


def _load_embeddings_by_cells(path):
    """load_embeddings from read_rows and read_reals alone: the reference for its fast path."""
    (header, *rows), (_, *lines) = read_rows(path)
    if len(header) < 2:
        raise DatasetError(f"{path}: need at least one embedding column plus a label column")
    if not rows:
        raise DatasetError(f"{path}: no rows")
    values = read_reals(path, rows, lines, header)
    labels = values[:, -1]
    for row, label in enumerate(labels):
        if label < 0 or label != np.floor(label):
            raise DatasetError(
                f"{path}: label must be a nonnegative integer at line {lines[row]}, "
                f"got {rows[row][-1]!r}"
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
    "spaces-around-values": (b"e0,label\n 1 ,0\n\t2,1 \n", True),
    "no-break-space": ("e0,label\n\xa01,0\n2,1\n".encode(), True),
    "whitespace-row": (b"e0,label\n1,0\n   \n2,1\n", False),
    "commas-row": (b"e0,e1,label\n1,2,0\n,,\n3,4,1\n", False),
    "quoted-cells": (b'e0,label\n"1",0\n2,"1"\n', False),
    "quoted-multiline-cell": (b'e0,label\n"1\n",0\n2,1\n', False),
    "underscore-digits": (b"e0,label\n1_000,0\n2,1\n", False),
    "fullwidth-digit": ("e0,label\n\uff11,0\n2,1\n".encode(), False),
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

    # No warning may reach the caller, such as numpy's on a file without data rows.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert (dataset._read_numeric(path) is not None) == fast
        assert _outcome(load, path) == _outcome(_load_embeddings_by_cells, path)
    assert not caught


def test_load_embeddings_fast_path_keeps_every_bit(embeddings_path, tmp_path):
    synth = tmp_path / "synth.csv"
    centers = np.random.default_rng(5).standard_normal((4, 16))
    save_csv(synth_blobs(SyntheticSpec(centers, 300, 1.0, seed=5)), synth)
    for path in (embeddings_path, synth):
        assert dataset._read_numeric(path) is not None
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
