"""Loading, validation, and synthesis of labeled feature batches.

A batch is an immutable (features, labels) pair: N rows of d features plus
one class index per row. Two CSV layouts are supported: a generic labeled
CSV with a named label column (string labels mapped to class indices in
first-appearance order) and the canonical embedding layout ``e0..e{d-1},label``
whose label column already holds integer class indices.

This module is the package's only CSV reader and writer: centroid files,
sweep reports and perturbation files are also read by :func:`read_rows` and
:func:`read_reals`. :func:`load_embeddings` first tries numpy's C reader on
a regular file, and falls back to those two to report a bad file; a pipe or
other non-regular file is read once, by them alone. Float matrices (a
batch's features and labels, centroids, perturbations) are written by
:func:`_write_matrix`, and the sweep report, which mixes reals and flags, by
:func:`write_rows`.

The C reader holds the GIL, so a thread cannot share its work. Where the data
rows fill at least 4 MiB, a usable second CPU exists (``os.sched_getaffinity``)
and no other Python thread runs, :func:`_read_split` cuts the rows at line
breaks into one range per usable CPU (at least 2 MiB each), and each range
but the last is parsed in a child made with ``os.fork()``. Every worker
reads the file that was opened for the header, by offset, so a file
replaced at its path during the read cannot mix two files. The children's
shapes are read first, then their values straight into the rows of the one
result, bit for bit the serial result; this process's own range is copied
in last. The load holds that matrix and one range, never two matrices, and
the batch holds read-only views of it (see :func:`_frozen`). If any worker
fails, the file is read cell by cell, as after a failed serial read.
Otherwise this process alone parses the rows, with :func:`_parse_lines`.

A write is split the same way, through the same fork code (:func:`_forked`).
:func:`_write_matrix` formats 32 rows at a time with one ``%.17g`` line
format, and where :func:`_worker_count` allows for the formatted size,
counted at 25 bytes a cell, and the path is a regular file, it cuts the
rows into one range per usable CPU. This process formats the first range
straight into the file; a forked child formats each other range whole, then
sends it through a pipe, and the pipes are copied into the file in order.
The bytes are those of a serial write, which is also what a failed worker
leads to. README.md gives the times of both on a 20 000 x 64 file.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import mmap
import operator
import os
import re
import stat
import threading
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Raised for malformed input files or invalid batch contents."""


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` read-only, copied only where a writable alias could remain.

    It is copied if it is writable, if an array in its ``.base`` chain is
    writable, or if that chain ends in a buffer that is not an ndarray (a
    bytearray or a memory map, say). Otherwise, a read-only array that owns
    its data or a read-only view of one, it is shared as it is. An owner can
    still be made writable again with ``setflags(write=True)``, as a copy can.
    """
    base = array
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is None:
        return array
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LabeledBatch:
    """Feature matrix (N x d), integer labels (N,), and class count k.

    Invariants enforced at construction: finite features, integral labels
    (integer or integral float) in [0, k-1] with every class occupied,
    N >= k >= 2. Arrays are stored read-only, so instances are safely
    shareable. A read-only array that owns its data, or a read-only view of
    one, is stored as it is, without a copy; any other is copied (see
    :func:`_frozen`). Like a copy, such an owner can still be made writable
    again with ``setflags(write=True)``.
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
        try:
            k = operator.index(self.num_classes)
        except TypeError:
            raise DatasetError(
                f"num_classes must be an integer, got {self.num_classes!r}"
            ) from None
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
        for name in ("points_per_class", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DatasetError(f"{name} must be an integer, got {value!r}") from None
        if self.points_per_class < 1:
            raise DatasetError(f"points_per_class must be >= 1, got {self.points_per_class}")
        if self.seed < 0:
            raise DatasetError(f"seed must be nonnegative, got {self.seed}")
        try:
            noise_scale = float(self.noise_scale)
        except (TypeError, ValueError):
            raise DatasetError(f"noise_scale must be a real, got {self.noise_scale!r}") from None
        if not (math.isfinite(noise_scale) and noise_scale >= 0):
            raise DatasetError(f"noise_scale must be finite and >= 0, got {noise_scale}")
        object.__setattr__(self, "noise_scale", noise_scale)
        object.__setattr__(self, "centers", _frozen(centers))


def _blank(row: list[str]) -> bool:
    return not any(cell.strip() for cell in row)


def read_rows(path) -> tuple[list[list[str]], list[int]]:
    """Every non-blank row of a comma-separated file, header row included,
    and the file line number of each (blank lines are counted, not returned).

    A leading UTF-8 byte order mark is dropped, so it cannot become part of
    the first cell. A file that is not UTF-8 is rejected with the line of its
    first bad byte, and one the csv module cannot split (such as a cell over
    its field size limit) with the line it stopped at. The file is read
    once, so a pipe is named as exactly as a file.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"missing file: {path}")
    rows, lines = [], []
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(_utf8_lines(handle, path))
        try:
            for row in reader:
                if not _blank(row):
                    rows.append(row)
                    lines.append(reader.line_num)
        except csv.Error as err:
            raise DatasetError(f"{path}: line {reader.line_num}: {err}") from None
    if not rows:
        raise DatasetError(f"{path}: no rows")
    return rows, lines


# A byte that is not UTF-8, as the "surrogateescape" error handler decodes it.
_ESCAPED = re.compile("[\udc80-\udcff]")


def _utf8_lines(lines, path):
    """The lines of a file decoded with "surrogateescape", up to the first
    that holds a byte that is not UTF-8, which is rejected by its line.
    """
    for number, line in enumerate(lines, 1):
        # isascii() is a flag lookup: only a line with another character is searched.
        if not line.isascii() and (byte := _ESCAPED.search(line)):
            raise DatasetError(
                f"{path}: byte 0x{ord(byte[0]) - 0xDC00:02x} at line {number} is not UTF-8"
            )
        yield line


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
    # Rows of one length make an N x m matrix that owns its data; a reshape
    # would return a view of a writable array, which _frozen copies.
    if all(len(row) == len(names) for row in rows):
        cells = rows if columns is None else [[row[j] for j in columns] for row in rows]
        try:
            values = np.array(cells, dtype=float)
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
    return np.array(values)


# ASCII separators that numpy's reader strips from a cell as whitespace,
# while float() rejects a cell that holds one.
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# The least data, in bytes, that one worker of a split read is given. A file
# is split only if its data rows fill two such ranges: below that, the fork
# and the pipe cost more than the second CPU saves.
_RANGE_BYTES = 2 << 20


def _lines_without_separators(lines):
    for line in lines:
        if any(char in line for char in _SEPARATORS):
            raise ValueError("separator character in a cell")
        yield line


def _parse_lines(lines) -> np.ndarray:
    """numpy's C reader over the data lines of a file, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # comments=None: the default would drop a row such as "#3,4,1".
        return np.loadtxt(_lines_without_separators(lines), delimiter=",", comments=None, ndmin=2)


def _recorded(lines, seen: list):
    for line in lines:
        seen.append(line)
        yield line


def _read_numeric(path) -> np.ndarray | None:
    """The rows below the header as numpy's C reader parses them, or None.

    The header is the first non-blank row, as for :func:`read_rows`. None
    means the path is not a regular file, the reader raised or warned (a
    file without data rows warns), a row's cell count differs from the
    header's, or a value is non-finite: only :func:`read_rows` and
    :func:`read_reals` then say what is wrong, and where. Where it returns
    values, they are bit for bit those of :func:`read_reals`, also where
    :func:`_read_split` parses them.
    """
    try:
        # A pipe is left unopened, for read_rows to read once: drained here,
        # it would be empty there, and a FIFO opened and closed unread would
        # cut off its writer.
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, newline="", encoding="utf-8-sig") as handle:
            head = []  # the lines up to the header, whose length locates the data
            header = next(
                (row for row in csv.reader(_recorded(handle, head)) if not _blank(row)), []
            )
            start = len("".join(head).encode())
            workers = _worker_count(os.fstat(handle.fileno()).st_size - start)
            if workers < 2:
                values = _parse_lines(handle)
            else:
                values = _read_split(handle.fileno(), start, workers)
    except (OSError, ValueError, Warning, csv.Error):
        return None
    if values is None or values.shape[1] != len(header) or not np.all(np.isfinite(values)):
        return None
    return values


def _worker_count(size: int) -> int:
    """How many processes parse ``size`` bytes of data rows: one per usable
    CPU, each given at least ``_RANGE_BYTES``. A process that runs a second
    Python thread is never forked, and reads alone.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 1
    return min(len(os.sched_getaffinity(0)), size // _RANGE_BYTES)


# A line break followed by a character: its end starts a line with data. One
# character and a lookahead, not a run of breaks, so that a long run of
# breaks at the end of a file is scanned once, without backtracking.
_ROW_START = re.compile(rb"[\r\n](?=[^\r\n])")


def _read_split(fd: int, start: int, workers: int) -> np.ndarray | None:
    """:func:`_parse_lines` over the bytes of an open file from ``start`` to
    its end, in parallel.

    ``start`` follows the header, as its length in UTF-8 without the byte
    order mark. The bytes are cut into at most ``workers`` ranges, each
    beginning on a line with at least one character, so that none is
    without data rows. The cuts are found in a read-only map of the file,
    whose length is the end of the data; a file shortened while they are
    searched can still raise SIGBUS. A forked child parses each range but
    the last, and sends back its shape and float64 values through a pipe;
    this process parses the last range, and :func:`_received` puts the parts
    in file order into one matrix. None if the parts' column counts differ;
    a ChildProcessError if a child failed.
    """
    with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as view:
        if view[: len(codecs.BOM_UTF8)] == codecs.BOM_UTF8:
            start += len(codecs.BOM_UTF8)
        stop = len(view)
        # start - 1 is the header's line break.
        cuts = [
            match.end() if (match := _ROW_START.search(view, target)) else stop
            for target in (start + (stop - start) * i // workers - 1 for i in range(workers))
        ]
    ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:] + [stop]) if lo < hi]
    if not ranges:
        return None  # no data rows: numpy's reader would warn
    return _forked(
        ranges[:-1],
        lambda lo, hi: _send_range(fd, lo, hi),
        lambda: _parse_range(fd, *ranges[-1]),
        _received,
    )


def _forked(ranges, child, here, receive):
    """Run ``child(lo, hi)`` for each range in a forked child, and ``here()``
    in this process meanwhile; then ``receive`` the result of ``here()`` and
    the children's pipes, in order.

    A child writes the buffers that ``child`` returns to its pipe and exits,
    with status 0 only if all of them were sent. Every pipe is closed and
    every child reaped before this returns or raises. Returns what
    ``receive`` returns, or raises a ChildProcessError if a child failed.
    """
    children, pipes = [], []
    try:
        for lo, hi in ranges:
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork whenever another OS thread
                    # exists, such as numpy's BLAS pool. No other Python thread
                    # runs (see _worker_count), and the child only computes,
                    # writes to its pipe and exits.
                    warnings.filterwarnings(
                        "ignore", "This process .* is multi-threaded", DeprecationWarning
                    )
                    pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        with open(write_end, "wb") as sink:
                            sink.writelines(child(lo, hi))
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_end)
            children.append(pid)
        received = receive(here(), pipes)
    finally:
        for pipe in pipes:
            os.close(pipe)
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in children)
    if failed:
        raise ChildProcessError(f"{failed} of {len(children)} forked workers failed")
    return received


class _ByteRange(io.RawIOBase):
    """The bytes ``start..stop`` of an open file, read by offset as a stream."""

    def __init__(self, fd: int, start: int, stop: int):
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = os.preadv(self._fd, [memoryview(buffer)[: self._stop - self._pos]], self._pos)
        self._pos += count
        return count


def _parse_range(fd: int, start: int, stop: int) -> np.ndarray:
    """:func:`_parse_lines` over the bytes ``start..stop`` of an open file,
    read as a stream of strict UTF-8 with the line breaks that
    :func:`_read_numeric` reads.
    """
    stream = io.BufferedReader(_ByteRange(fd, start, stop))
    with io.TextIOWrapper(stream, encoding="utf-8", newline="") as lines:
        return _parse_lines(lines)


def _send_range(fd: int, start: int, stop: int):
    """In a forked child: a range of the open file ``fd`` parsed, as the
    buffers that :func:`_received` reads, its shape and then its values.
    """
    values = _parse_range(fd, start, stop)
    return np.array(values.shape, dtype=np.int64), values


def _received(last: np.ndarray, pipes) -> np.ndarray | None:
    """The matrices the children wrote to ``pipes``, then ``last``, as the
    rows of one matrix; None if a child wrote less than its shape, or if
    the column counts differ.

    Every child's shape is read first, so that the matrix is made once and
    each child's values are read straight into its rows.
    """
    shapes = np.empty((len(pipes), 2), dtype=np.int64)
    if not all(_filled(pipe, shape) for pipe, shape in zip(pipes, shapes)):
        return None
    if np.any(shapes[:, 1] != last.shape[1]):
        return None
    values = np.empty((int(shapes[:, 0].sum()) + len(last), last.shape[1]))
    lo = 0
    for pipe, rows in zip(pipes, shapes[:, 0]):
        if not _filled(pipe, values[lo : lo + rows]):
            return None
        lo += rows
    values[lo:] = last
    return values


def _filled(fd: int, buffer) -> bool:
    """Whether reading the pipe ``fd`` filled ``buffer`` before its end."""
    view = memoryview(buffer).cast("B")
    while view:
        count = os.readv(fd, [view])
        if not count:
            return False
        view = view[count:]
    return True


# An upper bound on the bytes of one cell as written, with its separator:
# "%.17g" prints at most 24 characters, as in -2.2250738585072014e-308.
_CELL_BYTES = 25

# Rows formatted by one % operation, and stacked side by side one block at a
# time, so that no copy of the whole matrix is made.
_BLOCK_ROWS = 32

# The most bytes copied from a child's pipe at once: one Linux pipe buffer.
_PIECE_BYTES = 1 << 16


def _write_matrix(path, columns, header=None) -> None:
    """Write float arrays side by side as comma-separated lines below an
    optional header, each value with 17 significant digits.

    ``columns`` are 2-D or 1-D arrays with one row per line, such as a
    batch's features and its labels (an integral label prints as an
    integer: ``'%.17g' % 3.0 == '3'``). Where :func:`_worker_count` allows
    for the formatted size, sized at ``_CELL_BYTES`` a cell, and the path is
    a regular file, the lines are written in parallel (see
    :func:`_wrote_split`); the bytes are the same either way.
    """
    rows = len(columns[0])
    width = np.column_stack([column[:1] for column in columns]).shape[1]
    line = ",".join(["%.17g"] * width) + "\n"
    with open(path, "wb") as handle:
        if header is not None:
            handle.write((",".join(header) + "\n").encode())
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        workers = _worker_count(rows * width * _CELL_BYTES) if regular else 1
        if workers < 2 or not _wrote_split(handle, line, columns, rows, workers):
            handle.writelines(_formatted(line, columns, 0, rows))


def _formatted(line: str, columns, start: int, stop: int):
    """Rows ``start..stop`` of the columns side by side, formatted by ``line``
    in blocks of ``_BLOCK_ROWS``, as UTF-8 bytes.
    """
    for lo in range(start, stop, _BLOCK_ROWS):
        block = np.column_stack([column[lo : min(lo + _BLOCK_ROWS, stop)] for column in columns])
        yield ((line * len(block)) % tuple(block.ravel().tolist())).encode()


def _wrote_split(handle, line: str, columns, rows: int, workers: int) -> bool:
    """Write the rows to ``handle`` in up to ``workers`` ranges of rows, and
    say whether that worked.

    This process formats the first range straight into the file, while a
    forked child formats each other range whole before it writes it to its
    pipe: a child that wrote while it formatted would wait on its full pipe.
    The pipes are then copied into the file in order. If a worker fails,
    the file is put back to where the rows begin, for a serial write: what
    the split wrote is a prefix of that write, which overwrites all of it.
    """
    start = handle.tell()
    cuts = [rows * i // workers for i in range(workers + 1)]
    ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    try:
        _forked(
            ranges[1:],
            lambda lo, hi: list(_formatted(line, columns, lo, hi)),
            lambda: handle.writelines(_formatted(line, columns, *ranges[0])),
            lambda _, pipes: _copy(pipes, handle),
        )
    except OSError:
        handle.seek(start)
        return False
    return True


def _copy(pipes, sink) -> None:
    """Copy what each child writes to its pipe into ``sink``, in order, a
    piece at a time.
    """
    for pipe in pipes:
        while piece := os.read(pipe, _PIECE_BYTES):
            sink.write(piece)


def _format_cell(value) -> str:
    if value is True or value is False:
        return "true" if value else "false"
    return format(value, ".17g")


def write_rows(path, rows, header=None) -> None:
    """Write rows of cells as comma-separated lines below an optional header.

    Reals are printed with 17 significant digits and flags (Python bools) as
    ``true``/``false``; this serves rows that mix the two, such as the sweep
    report. A float matrix is written by :func:`_write_matrix`.
    """
    with open(path, "w", newline="") as handle:
        if header is not None:
            handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(_format_cell, row)) + "\n" for row in rows)


def load_csv(path, label_column: str, feature_columns=None) -> LabeledBatch:
    """Load a labeled CSV into a batch.

    The file must have a header row that names each column once; cells use
    ``.`` decimals and comma separators. Distinct label strings are mapped
    to class indices in order of first appearance (for the canonical Iris
    file this yields setosa=0, versicolor=1, virginica=2).
    ``feature_columns`` restricts and orders the feature set, naming each
    column once and never the label column; by default every non-label
    column is used in file order. No standardization is applied.
    """
    (header, *data_rows), (_, *data_lines) = read_rows(path)
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise DatasetError(f"{path}: header repeats column name(s) {repeated}")
    if label_column not in header:
        raise DatasetError(f"{path}: missing column {label_column!r} (header: {header})")
    if feature_columns is None:
        feature_columns = [name for name in header if name != label_column]
    missing = [name for name in feature_columns if name not in header]
    if missing:
        raise DatasetError(f"{path}: missing feature column(s) {missing}")
    repeated = [name for name, count in Counter(feature_columns).items() if count > 1]
    if repeated:
        raise DatasetError(f"{path}: feature columns repeat name(s) {repeated}")
    if label_column in feature_columns:
        raise DatasetError(f"{path}: label column {label_column!r} is among the feature columns")
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

    numpy's C reader parses a regular file, in parallel where it holds 4 MiB
    of rows or more (see :func:`_read_numeric`). A file it rejects, or one
    with a label that is not a nonnegative integer, is read again cell by
    cell, which names the first bad line and column; a pipe is read cell by
    cell only, and once.
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
    # Read-only, the parsed matrix is the batch's: its features are a view of it.
    values.setflags(write=False)
    return LabeledBatch(values[:, :-1], labels, len(counts))


def _bad_labels(labels: np.ndarray) -> np.ndarray:
    return (labels < 0) | (labels != np.floor(labels))


def save_csv(batch: LabeledBatch, path) -> None:
    """Write a batch in the canonical embedding layout (``e0..e{d-1},label``).

    Reals are printed with 17 significant digits, so a save/load round trip
    through :func:`load_embeddings` reproduces the batch bit for bit. A batch
    whose cells, counted at 25 bytes each, fill 4 MiB or more is written by
    forked workers where more than one CPU is usable, with the same bytes
    (see the module docstring).
    """
    _write_matrix(
        path, (batch.features, batch.labels), [f"e{j}" for j in range(batch.dim)] + ["label"]
    )


def synth_blobs(spec: SyntheticSpec) -> LabeledBatch:
    """Sample isotropic Gaussian blobs, one per center, deterministically.

    Uses numpy's PCG64 generator seeded with ``spec.seed``; class y rows are
    ``centers[y] + noise_scale * standard_normal`` drawn in class order, so a
    fixed spec reproduces the same batch on every run.

    Each class is drawn, scaled and shifted in its own rows of the one
    feature matrix, which the batch then holds without a copy.
    """
    centers = spec.centers
    k, d = centers.shape
    rng = np.random.default_rng(spec.seed)
    per = spec.points_per_class
    features = np.empty((k * per, d))
    for y in range(k):
        rows = features[y * per : (y + 1) * per]
        rng.standard_normal(out=rows)
        rows *= spec.noise_scale
        rows += centers[y]
    features.setflags(write=False)
    labels = np.repeat(np.arange(k), per)
    return LabeledBatch(features, labels, k)
