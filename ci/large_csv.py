"""Split write and read of a large CSV, end to end.

Run from the repository root, with the package importable (installed, or
``src`` on ``PYTHONPATH``)::

    python -X dev -W error ci/large_csv.py

``-X dev -W error`` fails the run on a leaked pipe or file, or on a fork
warning; each process it starts runs with the same flags. It writes
``synth30k.csv``, ``synth30k_named.csv``, ``synth30k_sweep.csv``,
``synth30k_sweep.svg`` and ``synth30k_collective.csv`` to the working
directory, and exits with an AssertionError at the first failed check:

1. ``save_csv`` writes a 30k-row ``synth_blobs`` CSV in forked workers, and
   those bytes equal a serial write's. ``_read_numeric`` parses it in forked
   workers, with a traced peak below 1.6 times the matrix it returns (the
   children's values are received into the rows of that one matrix).
   ``load_embeddings`` reads copies with CRLF and with lone CR line breaks
   (``synth30k_crlf.csv``, ``synth30k_cr.csv``) by the same split read, each
   to the same matrix bytes, under the same bound, and without the cell
   reader.
2. A ``sweep`` on it exits 0.
3. A ``fit`` of the file piped through ``cat`` prints the lines of a fit of
   the file and peaks within 1 MB of it: the pipe is spooled to a temporary
   file and parsed like the file. A collective ``recourse`` written to a
   file peaks less than 1 MB above that fit: the solver holds k class moves,
   the N x d rows are built only after the batch is freed, and a split
   write's workers write each block to a temporary file as they format it.
   A ``--label-col`` fit of a copy whose labels are ``class0``..``class9``
   prints the numeric fit's lines and peaks less than 20 MB above it: that
   copy is read row by row, each row converted as it is read. Peaks are
   ``os.wait4``'s, which count forked workers too.

Check 1 runs in a process of its own. A child's peak, as ``os.wait4``
reports it, is at least the peak of the process that started it, so the
process that starts the CLI runs of check 3 imports neither numpy nor the
package.
"""

import os
import subprocess
import sys

PYTHON = [sys.executable, "-X", "dev", "-W", "error"]


def split_write_and_read():
    import tracemalloc

    import numpy as np

    from collective_recourse import SyntheticSpec, dataset, save_csv, synth_blobs

    centers = 0.5 * np.random.default_rng(30).standard_normal((10, 64))
    batch = synth_blobs(SyntheticSpec(centers, 3000, 1.0, seed=30))
    fork, forks = os.fork, []

    def counted():
        forks.append(fork())
        return forks[-1]

    os.fork = counted
    try:
        save_csv(batch, "synth30k.csv")
        assert forks, "no split write"
        assert dataset._worker_count(os.path.getsize("synth30k.csv")) >= 2, "no split read"
        written = len(forks)
        tracemalloc.start()
        with open("synth30k.csv", "rb") as data:
            values = dataset._read_numeric(data)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(forks) > written, "no split read"
    finally:
        os.fork = fork
    assert values.shape == (30000, 65), values.shape
    assert peak < 1.6 * values.nbytes, f"read peak {peak / values.nbytes:.2f}x its result"
    worker_count = dataset._worker_count
    dataset._worker_count = lambda size: 1
    try:
        save_csv(batch, "serial30k.csv")
    finally:
        dataset._worker_count = worker_count
    with open("synth30k.csv", "rb") as split, open("serial30k.csv", "rb") as serial:
        assert split.read() == serial.read(), "the split write differs from a serial write"
    os.remove("serial30k.csv")
    cell_reads, read_rows = [], dataset._read_rows

    def recorded(*args):
        cell_reads.append(args)
        return read_rows(*args)

    for name, ending in [("synth30k_crlf.csv", b"\r\n"), ("synth30k_cr.csv", b"\r")]:
        with open("synth30k.csv", "rb") as source, open(name, "wb") as copy:
            for block in iter(lambda: source.read(1 << 20), b""):
                copy.write(block.replace(b"\n", ending))
        forks.clear()
        dataset._read_rows, os.fork = recorded, counted
        tracemalloc.start()
        try:
            loaded = dataset.load_embeddings(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            dataset._read_rows, os.fork = read_rows, fork
        assert forks and not cell_reads, f"{name}: no split read, or the cell reader ran"
        assert loaded.features.base.tobytes() == values.tobytes(), f"{name}: other values"
        assert peak < 1.6 * values.nbytes, f"{name}: read peak {peak / values.nbytes:.2f}x"


def run(*args, stdin=None):
    """The CLI's stdout below the config line, which echoes --data, and its peak in MB."""
    argv = [*PYTHON, "-m", "collective_recourse", *args]
    with subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE) as child:
        lines = child.stdout.read().splitlines()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, args
    return lines[1:], usage.ru_maxrss / 1024


def sweep():
    run(
        "sweep", "--data", "synth30k.csv", "--goal-class", "1", "--base-class", "2",
        "--eps-grid", "0:0.3:0.1", "--out", "synth30k_sweep.csv", "--plot", "synth30k_sweep.svg",
    )


def fit_peaks():
    data = ["--data", "synth30k.csv"]
    lines, fit = run("fit", *data)
    with subprocess.Popen(["cat", "synth30k.csv"], stdout=subprocess.PIPE) as cat:
        piped_lines, piped = run("fit", "--data", "/dev/stdin", stdin=cat.stdout)
    assert piped_lines == lines, "a piped fit prints other lines than a fit of the file"
    assert abs(piped - fit) < 1, f"a piped fit peaks at {piped:.1f} MB, the file fit at {fit:.1f} MB"
    query = ["--goal-class", "1", "--base-class", "2", "--kind", "collective"]
    out = ["--epsilon", "0.2", "--out", "synth30k_collective.csv"]
    _, collective = run("recourse", *data, *query, *out)
    assert collective < fit + 1, f"recourse peaks at {collective:.1f} MB, fit at {fit:.1f} MB"
    with open("synth30k.csv") as numeric, open("synth30k_named.csv", "w") as copy:
        copy.write(next(numeric))
        for line in numeric:
            cells, _, label = line.rstrip("\n").rpartition(",")
            copy.write(f"{cells},class{label}\n")
    named_lines, named = run("fit", "--data", "synth30k_named.csv", "--label-col", "label")
    assert named_lines == lines, "a --label-col fit prints other lines than the numeric fit"
    assert named < fit + 20, f"a --label-col fit peaks at {named:.1f} MB, the numeric fit at {fit:.1f} MB"
    return {"fit": fit, "piped fit": piped, "collective": collective, "--label-col fit": named}


if __name__ == "__main__":
    if sys.argv[1:] == ["split"]:
        split_write_and_read()
        sys.exit()
    subprocess.run([*PYTHON, __file__, "split"], check=True)
    sweep()
    peaks = fit_peaks()
    print("large CSV checks passed; peaks:", ", ".join(f"{k} {v:.1f} MB" for k, v in peaks.items()))
