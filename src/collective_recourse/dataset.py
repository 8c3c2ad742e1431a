"""Loading, validation, and synthesis of labeled feature batches.

A batch is an immutable (features, labels) pair: N rows of d features plus
one class index per row. Two CSV layouts are supported: a generic labeled
CSV with a named label column (string labels mapped to class indices in
first-appearance order) and the canonical embedding layout ``e0..e{d-1},label``
whose label column already holds integer class indices.

This module is the package's only CSV reader and writer. The package reads
two inputs, a labeled CSV (:func:`load_csv`) and an embedding CSV
(:func:`load_embeddings`), and reads none of the files it writes. Each input
is opened once, by :func:`_opened`, which spools a pipe to an unnamed
temporary file. :func:`load_embeddings` first tries numpy's C reader on that
file. A labeled CSV, and a file the C reader rejects, is read in one pass:
:func:`_read_rows` yields each row as it reads it and :func:`_read_reals`
converts that row, so no reader holds every row's cells, and an error names
the first fault in file order. Float matrices (a batch's features and
labels, perturbation rows) are written by :func:`_write_matrix`, and the
sweep report, which mixes reals and flags, by :func:`write_rows`, each below
a header.

The C reader, fed lines from 64 KiB chunks read by offset (see
:func:`_parse_range`), holds the GIL, so a thread cannot share its work.
:func:`_read_split` parses the rows below the header, cut where
:func:`_row_starts` finds a row (the rule that ends the header too), in one
range per worker (see :func:`_worker_count`), all but the last in children
made with ``os.fork()``, into the one matrix that the batch then views; one
worker forks nothing. :func:`_write_matrix` splits a write of two or more
workers the same way. The values and bytes are the same at any worker
count. Each child writes its part to an unnamed temporary file (see
:func:`_forked`). A failed worker means a read cell by cell, or a write
by this process alone. README.md gives the times on a 20 000 x 64 file.
"""

from __future__ import annotations

import contextlib
import csv
import math
import operator
import os
import re
import shutil
import stat
import tempfile
import threading
import warnings
from collections import Counter
from dataclasses import dataclass

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


def _integer(value, name: str, error=ValueError) -> int:
    """``value`` as an int by ``operator.index``, so that a float such as 1.0
    is rejected, not truncated; ``error`` naming ``name`` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
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
        k = _integer(self.num_classes, "num_classes", DatasetError)
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


@dataclass(frozen=True, eq=False)
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
            object.__setattr__(self, name, _integer(getattr(self, name), name, DatasetError))
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


@contextlib.contextmanager
def _opened(path):
    """The file at ``path``, open for binary reads: a regular file as it is,
    and any other, such as a pipe, read once into an unnamed temporary file
    (in TMPDIR). Every reader reads this one open file, so a file replaced
    at its path meanwhile cannot mix two files.
    """
    if not os.path.exists(path):
        raise DatasetError(f"missing file: {path}")
    with open(path, "rb") as data:
        if stat.S_ISREG(os.fstat(data.fileno()).st_mode):
            yield data
            return
        with tempfile.TemporaryFile() as spool:
            shutil.copyfileobj(data, spool)
            yield spool


def _read_rows(path, data):
    """Each non-blank row of the file at ``path``, open as ``data`` (see
    :func:`_opened`), as ``(line, cells)`` when the csv module reads it from
    the start: the header row first, with ``line`` counting blank lines too.

    A leading UTF-8 byte order mark is dropped, so it cannot become part of
    the first cell. A byte that is not UTF-8, and a line the csv module
    cannot split (such as a cell over its field size limit), are rejected
    by their line when reached; a file without rows, at its end. The caller
    keeps ``data`` open, and so closes it when a row fails.
    """
    data.seek(0)
    found = False
    with open(
        data.fileno(), newline="", encoding="utf-8-sig", errors="surrogateescape", closefd=False
    ) as handle:
        reader = csv.reader(_utf8_lines(handle, path))
        try:
            for row in reader:
                if not _blank(row):
                    found = True
                    yield reader.line_num, row
        except csv.Error as err:
            raise DatasetError(f"{path}: line {reader.line_num}: {err}") from None
    if not found:
        raise DatasetError(f"{path}: no rows")


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
    stripped = text.strip()
    try:
        if not stripped.isascii() or "_" in stripped:
            raise ValueError  # float() reads 1_000, ١ and １; numpy's C reader does not
        value = float(text)
    except ValueError:
        raise DatasetError(
            f"{path}: unparsable value {text!r} at line {line}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise DatasetError(f"{path}: non-finite value at line {line}, column {column!r}")
    return value


def _read_reals(path, line: int, row: list[str], names, columns=None) -> np.ndarray:
    """The cells of ``columns`` (default: all) of the row at file ``line`` as
    finite floats. The row must have one cell per name of the header
    ``names``. A cell holds what numpy's C reader reads: an ASCII real
    without ``_``, spaces around it allowed. A row is converted in one call,
    or else a cell at a time, so that the first bad cell is named with its
    column.
    """
    if len(row) != len(names):
        raise DatasetError(f"{path}: line {line} has {len(row)} cells, expected {len(names)}")
    picked = range(len(names)) if columns is None else columns
    cells = row if columns is None else [row[j] for j in columns]
    if (text := "".join(cells)).isascii() and "_" not in text:
        with contextlib.suppress(ValueError):
            values = np.array(cells, dtype=float)
            if np.all(np.isfinite(values)):
                return values
    return np.array([_parse_cell(row[j], line, names[j], path) for j in picked])


# ASCII separators that numpy's reader strips from a cell as whitespace,
# while float() rejects a cell that holds one.
_SEPARATORS = b"\x1c\x1d\x1e\x1f"

# The least data, in bytes, that one worker of a split read is given. A file
# is split only if its data rows fill two such ranges: below that, the fork
# and the worker's temporary file cost more than the second CPU saves.
_RANGE_BYTES = 2 << 20

# The bytes read by one os.pread of rows to parse, or of a cut's search.
_CHUNK_BYTES = 64 << 10


def _parse_range(fd: int, start: int, stop: int, width: int) -> np.ndarray:
    """numpy's C reader, warnings as errors, over the lines of bytes
    ``start..stop`` of an open file: a ValueError unless every row has
    ``width`` cells and every value is finite, or if the file ends early.

    The bytes are read by offset in chunks, each cut where its last row
    starts, after a whole run of line breaks, so that no line is split.
    Lines break at ``\n``, ``\r`` and ``\r\n``, as for :func:`_read_rows`, and
    are strict UTF-8. A separator, or a line with an odd count of quotes, is
    a ValueError: a cell whose value holds a quote does not parse, so every
    quoted cell ends on its line, and a split read's ranges start outside one.
    """

    def lines():
        pos, held = start, b""
        while pos < stop:
            # At least as much again as is held, so a long line is read in linear time.
            read = os.pread(fd, min(max(_CHUNK_BYTES, len(held)), stop - pos), pos)
            if not read:
                raise ValueError("the file was shortened")
            pos += len(read)
            chunk = held + read
            if pos < stop:
                end = len(chunk.rstrip(b"\r\n"))
                cut = max(chunk.rfind(b"\n", 0, end), chunk.rfind(b"\r", 0, end)) + 1
                chunk, held = chunk[:cut], chunk[cut:]
            if any(char in chunk for char in _SEPARATORS):
                raise ValueError("a separator character")
            rows = chunk.splitlines(True)
            if b'"' in chunk and any(row.count(b'"') % 2 for row in rows):
                raise ValueError("a quoted cell that spans lines")
            yield from map(bytes.decode, rows)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # comments=None keeps a row such as "#3,4,1"; quoted cells read as csv reads them.
        values = np.loadtxt(lines(), delimiter=",", comments=None, quotechar='"', ndmin=2)
    if values.shape[1] != width or not np.all(np.isfinite(values)):
        raise ValueError(f"a row without {width} cells, or a non-finite value")
    return values


def _read_numeric(data) -> np.ndarray | None:
    """The rows below the header of the open regular file ``data``, as
    :func:`_read_split` parses them, or None.

    The header is the first line that holds a cell, as for
    :func:`_read_rows`; a line ends where :func:`_row_starts` finds the next,
    and csv reads it strictly, so that a quoted cell left open is an error,
    not a header that runs on. None means that a parse raised or warned:
    only :func:`_read_rows` and :func:`_read_reals` then say what is wrong,
    and where. Where it returns values, they are bit for bit theirs.
    """
    try:
        fd, start, header = data.fileno(), 0, []
        size = os.fstat(fd).st_size
        ends = _row_starts(fd, 0, size)
        while _blank(header) and start < size:
            lo, start = start, next(ends)
            line = os.pread(fd, start - lo, lo).decode("utf-8-sig" if lo == 0 else "utf-8")
            header = next(csv.reader([line], strict=True), [])
        return _read_split(fd, start, _worker_count(size - start), len(header))
    except (OSError, ValueError, Warning, csv.Error):
        return None


def _worker_count(size: int) -> int:
    """How many processes parse ``size`` bytes of data rows, at least one:
    one per usable CPU, each given at least ``_RANGE_BYTES``. A process that
    runs a second Python thread is never forked, and reads alone.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // _RANGE_BYTES))


# A line break followed by a character: its end starts a line with data. One
# character and a lookahead, not a run of breaks, so that a long run of
# breaks at the end of a file is scanned once, without backtracking.
_ROW_START = re.compile(rb"[\r\n](?=[^\r\n])")


def _read_split(fd: int, start: int, workers: int, width: int) -> np.ndarray:
    """:func:`_parse_range` over the bytes of an open file from ``start``,
    where :func:`_row_starts` found the row after the header, to its end.

    The bytes are cut into at most ``workers`` ranges, each starting a line
    with data (see :func:`_row_starts`). A forked child parses each range but
    the last and writes its float64 rows to its part, this process parses
    the last, and :func:`_received` puts them in file order into one matrix.
    One range forks nothing. A ValueError if no range holds data or the file
    is shortened meanwhile; a ChildProcessError if a child failed.
    """
    stop = os.fstat(fd).st_size
    # start - 1 is the header's line break.
    targets = (start + (stop - start) * i // workers - 1 for i in range(workers))
    cuts = [next(_row_starts(fd, pos, stop)) for pos in targets]
    jobs = [(fd, lo, hi, width) for lo, hi in zip(cuts, cuts[1:] + [stop]) if lo < hi]
    if not jobs:
        raise ValueError("no data rows")
    with _forked(
        jobs[:-1], lambda *job: [_parse_range(*job)], lambda: _parse_range(*jobs[-1])
    ) as (last, parts):
        return _received(last, parts)


def _row_starts(fd: int, pos: int, stop: int):
    """The ends of each ``_ROW_START`` in bytes ``pos..stop`` of an open
    file, in order, then ``stop``: windows that overlap by a byte are read
    as the ends are taken, each once. A ValueError if the file ends early."""
    while pos + 1 < stop:
        window = os.pread(fd, min(_CHUNK_BYTES + 1, stop - pos), pos)
        if len(window) < 2:
            raise ValueError("the file was shortened")
        for match in _ROW_START.finditer(window):
            yield pos + match.end()
        pos += len(window) - 1
    yield stop


@contextlib.contextmanager
def _forked(jobs, child, here):
    """Run ``child(*job)`` for each of ``jobs`` in a forked child, and
    ``here()`` in this process meanwhile; then give the result of ``here()``
    and the children's parts, in order, each at its start.

    A part is an unnamed temporary file made before the fork. A child writes
    the buffers of ``child(*job)`` to its part as they come, and exits
    with status 0 only if all were written. Every child is reaped before the
    parts are given, or a ChildProcessError raised if one failed, and every
    part is closed once the ``with`` block ends.
    """
    with contextlib.ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile()) for _ in jobs]
        children = []
        try:
            for job, part in zip(jobs, parts):
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork whenever another OS thread
                    # exists, such as numpy's BLAS pool. No other Python thread
                    # runs (see _worker_count), and the child only computes,
                    # writes to its part and exits.
                    warnings.filterwarnings(
                        "ignore", "This process .* is multi-threaded", DeprecationWarning
                    )
                    pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        part.writelines(child(*job))
                        part.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children.append(pid)
            last = here()
        finally:
            failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in children)
        if failed:
            raise ChildProcessError(f"{failed} of {len(children)} forked workers failed")
        for part in parts:
            part.seek(0)
        yield last, parts


def _received(last: np.ndarray, parts) -> np.ndarray:
    """The rows the children wrote to ``parts``, then ``last``, as one matrix.

    Every row has ``last``'s width, so a part's size gives its row count:
    the matrix is made once, and each child's rows are read straight into it.
    Where no child ran, ``last`` is the matrix, not copied.
    """
    if not parts:
        return last
    counts = [os.fstat(part.fileno()).st_size // last[0].nbytes for part in parts]
    values = np.empty((sum(counts) + len(last), last.shape[1]))
    *blocks, own = np.split(values, np.cumsum(counts))
    for part, block in zip(parts, blocks):
        part.readinto(block)
    own[:] = last
    return values


# An upper bound on the bytes of one cell as written, with its separator:
# "%.17g" prints at most 24 characters, as in -2.2250738585072014e-308.
_CELL_BYTES = 25

# Rows formatted by one % operation, and stacked side by side one block at a
# time, so that no copy of the whole matrix is made.
_BLOCK_ROWS = 32


def _write_matrix(path, columns, header) -> None:
    """Write float arrays side by side as comma-separated lines below the
    column names ``header``, each value with 17 significant digits.

    ``columns`` are 2-D or 1-D arrays with one row per line, such as a
    batch's features and its labels (an integral label prints as an
    integer: ``'%.17g' % 3.0 == '3'``). Where :func:`_worker_count` gives
    two or more workers for ``_CELL_BYTES`` a cell and the path is a regular
    file, :func:`_wrote_split` writes them in parallel, else this process
    alone, as to a pipe, which cannot seek; the bytes are the same either way.
    """
    rows = len(columns[0])
    width = np.column_stack([column[:1] for column in columns]).shape[1]
    line = ",".join(["%.17g"] * width) + "\n"
    with open(path, "wb") as handle:
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
    forked child writes each other range to its part, a block at a time as
    it is formatted (see :func:`_forked`). The parts are then copied into
    the file in order; one range forks nothing. If a worker fails, the file
    is put back to where the rows begin, for one worker's write: what the
    split wrote is a prefix of it, which overwrites all of it.
    """
    start = handle.tell()
    cuts = [rows * i // workers for i in range(workers + 1)]
    jobs = [(line, columns, lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    try:
        with _forked(
            jobs[1:], _formatted, lambda: handle.writelines(_formatted(*jobs[0]))
        ) as (_, parts):
            for part in parts:
                shutil.copyfileobj(part, handle)
    except OSError:
        handle.seek(start)
        return False
    return True


def _format_cell(value) -> str:
    if value is True or value is False:
        return "true" if value else "false"
    return format(value, ".17g")


def write_rows(path, rows, header) -> None:
    """Write rows of cells as comma-separated lines below the column names ``header``.

    Reals are printed with 17 significant digits and flags (Python bools) as
    ``true``/``false``; this serves rows that mix the two, such as the sweep
    report. A float matrix is written by :func:`_write_matrix`.
    """
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(_format_cell, row)) + "\n" for row in rows)


def load_csv(path, label_column: str, feature_columns=None) -> LabeledBatch:
    """Load a labeled CSV into a batch.

    The file must have a header row that names each column once; its cells
    are reals as :func:`_read_reals` reads them. Distinct labels, stripped and
    never blank, map to class indices in order of first appearance (for the
    canonical Iris file setosa=0, versicolor=1, virginica=2).
    ``feature_columns`` restricts and orders the feature set, naming each
    column once and never the label column; by default every non-label
    column is used in file order. No standardization is applied. Each row
    is converted as it is read, so an error names the first fault in file
    order.
    """
    with _opened(path) as data:
        rows = _read_rows(path, data)
        _, header = next(rows)
        if repeated := [name for name, count in Counter(header).items() if count > 1]:
            raise DatasetError(f"{path}: header repeats column name(s) {repeated}")
        if label_column not in header:
            raise DatasetError(f"{path}: missing column {label_column!r} (header: {header})")
        if feature_columns is None:
            feature_columns = [name for name in header if name != label_column]
        if missing := [name for name in feature_columns if name not in header]:
            raise DatasetError(f"{path}: missing feature column(s) {missing}")
        if repeated := [name for name, count in Counter(feature_columns).items() if count > 1]:
            raise DatasetError(f"{path}: feature columns repeat name(s) {repeated}")
        if label_column in feature_columns:
            raise DatasetError(
                f"{path}: label column {label_column!r} is among the feature columns"
            )
        if not feature_columns:
            raise DatasetError(f"{path}: no feature columns selected")
        columns = [header.index(name) for name in feature_columns]
        label_idx = header.index(label_column)
        label_to_class: dict[str, int] = {}
        features, labels = [], []
        for line, row in rows:
            features.append(_read_reals(path, line, row, header, columns))
            if not (label := row[label_idx].strip()):
                raise DatasetError(f"{path}: blank label at line {line}, column {label_column!r}")
            labels.append(label_to_class.setdefault(label, len(label_to_class)))
    if not features:
        raise DatasetError(f"{path}: no data rows")
    if len(label_to_class) < 2:
        raise DatasetError(f"{path}: found only {len(label_to_class)} distinct label(s)")
    # Read-only, the stacked matrix is the batch's own: it is not copied.
    features = np.array(features)
    features.setflags(write=False)
    return LabeledBatch(features, np.asarray(labels), len(label_to_class))


def load_embeddings(path) -> LabeledBatch:
    """Load the canonical embedding CSV: columns ``e0..e{d-1}`` then ``label``.

    The label column holds literal class indices; every index 0..max must be
    occupied (a skipped index means an empty class and is rejected).

    The input is opened once (see :func:`_opened`), so a pipe is spooled to
    a temporary file and read like a file. numpy's C reader parses it, in
    parallel where it holds 4 MiB of rows or more (see
    :func:`_read_numeric`). A file it rejects, or one with a label that is
    not a nonnegative integer, is read again row by row from the same file,
    which names the first fault in file order by its line and column.
    """
    with _opened(path) as data:
        values = _read_numeric(data)
        if values is None or values.shape[1] < 2 or np.any(_bad_labels(values[:, -1])):
            rows = _read_rows(path, data)
            _, header = next(rows)
            if len(header) < 2:
                raise DatasetError(
                    f"{path}: need at least one embedding column plus a label column"
                )
            values = []
            for line, row in rows:
                values.append(_read_reals(path, line, row, header))
                if _bad_labels(values[-1][-1]):
                    where = f"at line {line}, got {row[-1]!r}"
                    raise DatasetError(f"{path}: label must be a nonnegative integer {where}")
            if not values:
                raise DatasetError(f"{path}: no rows")
            values = np.array(values)
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
