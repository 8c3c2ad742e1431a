"""The parallel half of :func:`~collective_recourse.dataset.load_embeddings`.

A file with enough data rows is cut at line breaks into ranges, and forked
children parse all but the last with the serial reader's
:func:`~collective_recourse.dataset._parse_lines`. The module is imported
only when :func:`~collective_recourse.dataset._read_numeric` splits a file.
"""

from __future__ import annotations

import codecs
import io
import os
import re
import warnings

import numpy as np

from .dataset import _parse_lines


def read_split(path, start: int, stop: int, workers: int) -> np.ndarray | None:
    """:func:`_parse_lines` over the bytes ``start..stop`` of a file, in parallel.

    ``start`` follows the header, as its length in UTF-8 without the byte
    order mark. The bytes are cut into at most ``workers`` ranges, each
    beginning on a line with at least one character, so that none is
    without data rows. A forked child parses each range but the last, and
    sends back its shape and float64 values through a pipe; this process
    parses the last range and joins the parts in file order. None if a child
    failed, or if the parts' column counts differ.
    """
    with open(path, "rb") as raw:
        if raw.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8:
            start += len(codecs.BOM_UTF8)
        # start - 1 is the header's line break.
        cuts = [
            _row_start(raw, start + (stop - start) * i // workers - 1, stop)
            for i in range(workers)
        ]
    cuts = list(dict.fromkeys(cuts))
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
                    _send_range(path, lo, hi, write_end)
            finally:
                os.close(write_end)
            children.append(pid)
        last = _parse_range(path, *ranges[-1])
        parts = [_receive(fd) for fd in pipes] + [last]
    finally:
        for fd in pipes:
            os.close(fd)
        failed = [os.waitpid(pid, 0)[1] != 0 for pid in children]
    if any(failed) or any(part is None for part in parts):
        return None
    return np.concatenate(parts) if len({part.shape[1] for part in parts}) == 1 else None


def _row_start(raw, pos: int, stop: int) -> int:
    """The offset of the first line with a character that starts after the
    first line break at or past ``pos`` in an open binary file, or ``stop``.
    """
    raw.seek(pos)
    found = False
    while pos < stop:
        block = raw.read(min(1 << 16, stop - pos))
        if not found:
            match = re.search(rb"[\r\n]", block)
            if match is None:
                pos += len(block)
                continue
            found = True
            block, pos = block[match.start() :], pos + match.start()
        rest = block.lstrip(b"\r\n")
        if rest:
            return pos + len(block) - len(rest)
        pos += len(block)
    return stop


class _ByteRange(io.RawIOBase):
    """The next ``size`` bytes of an unbuffered binary file, as a stream."""

    def __init__(self, raw, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(memoryview(buffer)[: self._left])
        self._left -= count
        return count


def _parse_range(path, start: int, stop: int) -> np.ndarray:
    """:func:`_parse_lines` over the bytes ``start..stop`` of a file, read as
    a stream of strict UTF-8 with the line breaks that
    :func:`~collective_recourse.dataset._read_numeric` reads.
    """
    with open(path, "rb", buffering=0) as raw:
        raw.seek(start)
        stream = io.BufferedReader(_ByteRange(raw, stop - start))
        with io.TextIOWrapper(stream, encoding="utf-8", newline="") as lines:
            return _parse_lines(lines)


def _send_range(path, start: int, stop: int, fd: int):
    """In a forked child: parse a range, write its shape and values to the
    pipe ``fd``, and exit, with status 0 only if all of it was sent.
    """
    status = 1
    try:
        values = _parse_range(path, start, stop)
        with open(fd, "wb") as pipe:
            pipe.write(np.array(values.shape, dtype=np.int64))
            pipe.write(values)
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
