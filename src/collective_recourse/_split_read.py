"""The parallel half of :func:`~collective_recourse.dataset.load_embeddings`.

A file with enough data rows is cut at line breaks into ranges, and forked
children parse all but the last with the serial reader's
:func:`~collective_recourse.dataset._parse_lines`. Every process reads the
file that :func:`~collective_recourse.dataset._read_numeric` opened, through
its descriptor and by offset, so a file replaced at its path during the read
cannot mix two files. The module is imported only when
:func:`~collective_recourse.dataset._read_numeric` splits a file.
"""

from __future__ import annotations

import codecs
import io
import mmap
import os
import re
import warnings

import numpy as np

from .dataset import _parse_lines

# A line break followed by a character: its end starts a line with data. One
# character and a lookahead, not a run of breaks, so that a long run of
# breaks at the end of a file is scanned once, without backtracking.
_ROW_START = re.compile(rb"[\r\n](?=[^\r\n])")


def read_split(fd: int, start: int, workers: int) -> np.ndarray | None:
    """:func:`_parse_lines` over the bytes of an open file from ``start`` to
    its end, in parallel.

    ``start`` follows the header, as its length in UTF-8 without the byte
    order mark. The bytes are cut into at most ``workers`` ranges, each
    beginning on a line with at least one character, so that none is
    without data rows. The cuts are found in a read-only map of the file,
    whose length is the end of the data; a file shortened while they are
    searched can still raise SIGBUS. A forked child parses each range but
    the last, and sends back its shape and float64 values through a pipe;
    this process parses the last range and joins the parts in file order.
    None if a child failed, or if the parts' column counts differ.
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
    children, pipes = [], []
    try:
        for lo, hi in ranges[:-1]:
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork whenever another OS thread
                    # exists, such as numpy's BLAS pool. No other Python thread
                    # runs (see dataset._worker_count), and the child only
                    # parses, writes to its pipe and exits.
                    warnings.filterwarnings(
                        "ignore", "This process .* is multi-threaded", DeprecationWarning
                    )
                    pid = os.fork()
                if pid == 0:
                    _send_range(fd, lo, hi, write_end)
            finally:
                os.close(write_end)
            children.append(pid)
        last = _parse_range(fd, *ranges[-1])
        parts = [_receive(pipe) for pipe in pipes] + [last]
    finally:
        for pipe in pipes:
            os.close(pipe)
        failed = [os.waitpid(pid, 0)[1] != 0 for pid in children]
    if any(failed) or any(part is None for part in parts):
        return None
    return np.concatenate(parts) if len({part.shape[1] for part in parts}) == 1 else None


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
    :func:`~collective_recourse.dataset._read_numeric` reads.
    """
    stream = io.BufferedReader(_ByteRange(fd, start, stop))
    with io.TextIOWrapper(stream, encoding="utf-8", newline="") as lines:
        return _parse_lines(lines)


def _send_range(fd: int, start: int, stop: int, pipe: int):
    """In a forked child: parse a range of the open file ``fd``, write its
    shape and values to ``pipe``, and exit, with status 0 only if all of it
    was sent.
    """
    status = 1
    try:
        values = _parse_range(fd, start, stop)
        with open(pipe, "wb") as sink:
            sink.write(np.array(values.shape, dtype=np.int64))
            sink.write(values)
        status = 0
    finally:
        os._exit(status)


def _receive(fd: int) -> np.ndarray | None:
    """The matrix a child wrote to the pipe ``fd``, or None if it wrote less."""
    with open(fd, "rb", closefd=False) as pipe:
        shape = np.empty(2, dtype=np.int64)
        if pipe.readinto(shape) != shape.nbytes:
            return None
        values = np.empty(tuple(shape))
        return values if pipe.readinto(values) == values.nbytes else None
