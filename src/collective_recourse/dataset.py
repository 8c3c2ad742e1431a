"""Loading, validation, and synthesis of labeled feature batches.

A batch is an immutable (features, labels) pair: N rows of d features plus
one class index per row. Two CSV layouts are supported: a generic labeled
CSV with a named label column (string labels mapped to class indices in
first-appearance order) and the canonical embedding layout ``e0..e{d-1},label``
whose label column already holds integer class indices.

This module is the package's only CSV reader and writer: centroid files,
sweep reports and perturbation files also go through :func:`read_rows`,
:func:`read_reals` and :func:`write_rows`. :func:`load_embeddings` first tries
numpy's C reader, and falls back to those two to report a bad file.
"""

from __future__ import annotations

import codecs
import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Raised for malformed input files or invalid batch contents."""


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LabeledBatch:
    """Feature matrix (N x d), integer labels (N,), and class count k.

    Invariants enforced at construction: finite features, integral labels
    (integer or integral float) in [0, k-1] with every class occupied,
    N >= k >= 2. Arrays are stored read-only, so instances are safely
    shareable.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "biu":
            labels = labels.astype(float)
        if feats.ndim != 2:
            raise DatasetError(f"features must be 2-D, got shape {feats.shape}")
        if labels.ndim != 1:
            raise DatasetError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.shape[0] != feats.shape[0]:
            raise DatasetError(
                f"label count {labels.shape[0]} does not match row count {feats.shape[0]}"
            )
        k = int(self.num_classes)
        if k < 2:
            raise DatasetError(f"need at least 2 classes, got {k}")
        if feats.shape[0] < k:
            raise DatasetError(f"need at least {k} rows for {k} classes, got {feats.shape[0]}")
        if not np.all(np.isfinite(feats)):
            row, col = np.argwhere(~np.isfinite(feats))[0]
            raise DatasetError(f"non-finite feature value at row {row}, column {col}")
        fractional = labels != np.floor(labels)
        if np.any(fractional):
            bad = int(np.argmax(fractional))
            raise DatasetError(f"label {labels[bad]} at row {bad} is not an integer")
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            bad = int(np.argmax((labels < 0) | (labels >= k)))
            raise DatasetError(f"label {labels[bad]} at row {bad} outside [0, {k - 1}]")
        labels = labels.astype(int)
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            raise DatasetError(f"empty class: no rows with label {int(np.argmin(counts))}")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "num_classes", k)

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Blob-sampling recipe: k centers, points per class, noise std, seed."""

    centers: np.ndarray
    points_per_class: int
    noise_scale: float
    seed: int

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim != 2:
            raise DatasetError(f"centers must be a k x d matrix, got shape {centers.shape}")
        if not np.all(np.isfinite(centers)):
            raise DatasetError("centers contain non-finite values")
        if self.points_per_class < 1:
            raise DatasetError(f"points_per_class must be >= 1, got {self.points_per_class}")
        if self.noise_scale < 0:
            raise DatasetError(f"noise_scale must be >= 0, got {self.noise_scale}")
        object.__setattr__(self, "centers", _frozen(centers))


def _blank(row: list[str]) -> bool:
    return not any(cell.strip() for cell in row)


def read_rows(path) -> tuple[list[list[str]], list[int]]:
    """Every non-blank row of a comma-separated file, header row included,
    and the file line number of each (blank lines are counted, not returned).

    A leading UTF-8 byte order mark is dropped, so it cannot become part of
    the first cell. A file that is not UTF-8 is rejected with the line of its
    first bad byte.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"missing file: {path}")
    rows, lines = [], []
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if not _blank(row):
                    rows.append(row)
                    lines.append(reader.line_num)
    except UnicodeDecodeError:
        # The decoder counts its position from the start of its current
        # chunk, so find the first bad byte in the whole file and name its line.
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            head = data[: err.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise DatasetError(
                f"{path}: byte 0x{data[err.start]:02x} at line {line} is not UTF-8"
            ) from None
        raise
    if not rows:
        raise DatasetError(f"{path}: no rows")
    return rows, lines


def _parse_cell(text: str, line: int, column, path) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DatasetError(
            f"{path}: unparsable value {text!r} at line {line}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise DatasetError(f"{path}: non-finite value at line {line}, column {column!r}")
    return value


def read_reals(path, rows, lines, header=None, columns=None) -> np.ndarray:
    """The cells of ``columns`` (default: all) as a finite float matrix.

    ``rows`` are the data rows below ``header``, or every row of a headerless
    file, and ``lines`` their file line numbers (see :func:`read_rows`); each
    row must have one cell per header (or first-row) column. All cells are
    converted in one call. Only if that fails are the rows rescanned, so the
    first short or long row, unparsable cell or non-finite value in file
    order is reported by line and column.
    """
    names = range(len(rows[0])) if header is None else header
    picked = range(len(names)) if columns is None else columns
    if all(len(row) == len(names) for row in rows):
        cells = rows if columns is None else [[row[j] for j in columns] for row in rows]
        try:
            values = np.array(cells, dtype=float).reshape(len(rows), len(picked))
        except ValueError:
            pass
        else:
            if np.all(np.isfinite(values)):
                return values
    values = []
    for line, row in zip(lines, rows):
        if len(row) != len(names):
            raise DatasetError(f"{path}: line {line} has {len(row)} cells, expected {len(names)}")
        values.append([_parse_cell(row[j], line, names[j], path) for j in picked])
    return np.array(values).reshape(len(rows), len(picked))


# ASCII separators that numpy's reader strips from a cell as whitespace,
# while float() rejects a cell that holds one.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _lines_without_separators(lines):
    for line in lines:
        if any(char in line for char in _SEPARATORS):
            raise ValueError("separator character in a cell")
        yield line


def _read_numeric(path) -> np.ndarray | None:
    """The rows below the header as numpy's C reader parses them, or None.

    The header is the first non-blank row, as for :func:`read_rows`. None
    means the reader raised or warned (a file without data rows warns), a
    row's cell count differs from the header's, or a value is non-finite:
    only :func:`read_rows` and :func:`read_reals` then say what is wrong,
    and where. Where it returns values, they are bit for bit those of
    :func:`read_reals`.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            header = next((row for row in csv.reader(handle) if not _blank(row)), [])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                # comments=None: the default would drop a row such as "#3,4,1".
                values = np.loadtxt(
                    _lines_without_separators(handle), delimiter=",", comments=None, ndmin=2
                )
    except (OSError, ValueError, Warning):
        return None
    if values.shape[1] != len(header) or not np.all(np.isfinite(values)):
        return None
    return values


def _format_cell(value) -> str:
    if value is True or value is False:
        return "true" if value else "false"
    return format(value, ".17g")


def _format_row(row) -> str:
    # 17 significant digits round-trip any float64 exactly. A flag is a
    # Python bool, which is also an int that %g would print as 1 or 0, so
    # only a row without flags is formatted in one call.
    cells = tuple(row)
    if bool in map(type, cells):
        return ",".join(map(_format_cell, cells)) + "\n"
    return (",".join(("%.17g",) * len(cells)) + "\n") % cells


def write_rows(path, rows, header=None) -> None:
    """Write rows of cells as comma-separated lines below an optional header.

    Reals (Python or numpy, and integer labels) are printed with 17
    significant digits and flags (Python bools) as ``true``/``false``.
    """
    with open(path, "w", newline="") as handle:
        if header is not None:
            handle.write(",".join(header) + "\n")
        handle.writelines(map(_format_row, rows))


def load_csv(path, label_column: str, feature_columns=None) -> LabeledBatch:
    """Load a labeled CSV into a batch.

    The file must have a header row; cells use ``.`` decimals and comma
    separators. Distinct label strings are mapped to class indices in order
    of first appearance (for the canonical Iris file this yields setosa=0,
    versicolor=1, virginica=2). ``feature_columns`` restricts and orders the
    feature set; by default every non-label column is used in file order.
    No standardization is applied.
    """
    (header, *data_rows), (_, *data_lines) = read_rows(path)
    if label_column not in header:
        raise DatasetError(f"{path}: missing column {label_column!r} (header: {header})")
    if feature_columns is None:
        feature_columns = [name for name in header if name != label_column]
    missing = [name for name in feature_columns if name not in header]
    if missing:
        raise DatasetError(f"{path}: missing feature column(s) {missing}")
    if not feature_columns:
        raise DatasetError(f"{path}: no feature columns selected")
    if not data_rows:
        raise DatasetError(f"{path}: no data rows")

    features = read_reals(
        path, data_rows, data_lines, header, [header.index(name) for name in feature_columns]
    )
    label_idx = header.index(label_column)
    label_to_class: dict[str, int] = {}
    labels = [
        label_to_class.setdefault(row[label_idx].strip(), len(label_to_class))
        for row in data_rows
    ]
    if len(label_to_class) < 2:
        raise DatasetError(f"{path}: found only {len(label_to_class)} distinct label(s)")
    return LabeledBatch(features, np.asarray(labels), len(label_to_class))


def load_embeddings(path) -> LabeledBatch:
    """Load the canonical embedding CSV: columns ``e0..e{d-1}`` then ``label``.

    The label column holds literal class indices; every index 0..max must be
    occupied (a skipped index means an empty class and is rejected).

    numpy's C reader parses the file. A file it rejects, or one with a label
    that is not a nonnegative integer, is read again cell by cell, which
    names the first bad line and column.
    """
    values = _read_numeric(path)
    if values is None or values.shape[1] < 2 or np.any(_bad_labels(values[:, -1])):
        (header, *data_rows), (_, *data_lines) = read_rows(path)
        if len(header) < 2:
            raise DatasetError(f"{path}: need at least one embedding column plus a label column")
        if not data_rows:
            raise DatasetError(f"{path}: no rows")
        values = read_reals(path, data_rows, data_lines, header)
        bad = _bad_labels(values[:, -1])
        if np.any(bad):
            row = int(np.argmax(bad))
            raise DatasetError(
                f"{path}: label must be a nonnegative integer at line {data_lines[row]}, "
                f"got {data_rows[row][-1]!r}"
            )
    labels = values[:, -1]
    # N rows occupy at most N classes, so a label >= N leaves one of 0..N-1
    # empty: counting labels clipped to N finds it without sizing the count
    # by the label's value.
    counts = np.bincount(np.minimum(labels, len(labels)).astype(int))
    if np.any(counts == 0):
        raise DatasetError(f"{path}: empty class: no rows with label {int(np.argmin(counts))}")
    return LabeledBatch(values[:, :-1], labels, len(counts))


def _bad_labels(labels: np.ndarray) -> np.ndarray:
    return (labels < 0) | (labels != np.floor(labels))


def save_csv(batch: LabeledBatch, path) -> None:
    """Write a batch in the canonical embedding layout (``e0..e{d-1},label``).

    Reals are printed with 17 significant digits, so a save/load round trip
    through :func:`load_embeddings` reproduces the batch bit for bit.
    """
    rows = (row.tolist() + [label] for row, label in zip(batch.features, batch.labels.tolist()))
    write_rows(path, rows, [f"e{j}" for j in range(batch.dim)] + ["label"])


def synth_blobs(spec: SyntheticSpec) -> LabeledBatch:
    """Sample isotropic Gaussian blobs, one per center, deterministically.

    Uses numpy's PCG64 generator seeded with ``spec.seed``; class y rows are
    ``centers[y] + noise_scale * standard_normal`` drawn in class order, so a
    fixed spec reproduces the same batch on every run.
    """
    centers = spec.centers
    k, d = centers.shape
    rng = np.random.default_rng(spec.seed)
    per = spec.points_per_class
    features = np.empty((k * per, d))
    for y in range(k):
        noise = spec.noise_scale * rng.standard_normal((per, d))
        features[y * per : (y + 1) * per] = centers[y] + noise
    labels = np.repeat(np.arange(k), per)
    return LabeledBatch(features, labels, k)
