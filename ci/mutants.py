"""Mutation check of the solvers, the model kernel and the CSV readers:
every listed mutant must fail a test.

Run from the repository root::

    python ci/mutants.py

It copies ``src/``, ``tests/``, ``data/`` and ``pyproject.toml`` to a
temporary directory and, with that copy of ``src`` first on ``PYTHONPATH``,
runs the tests that ``TESTS`` gives for each mutated file (the solver,
model, harness and acceptance tests for ``recourse.py`` and ``model.py``,
the dataset tests for ``dataset.py``) once unchanged, where they must pass,
and once per mutant in ``MUTANTS``. A mutant replaces one text, which must
occur exactly once in its file, by another. A mutant is killed when a test
fails or its tests run past ``TIMEOUT_FACTOR`` times their unchanged run.
The script exits 1 if a mutant survives that ``EQUIVALENT`` does not list,
if a mutant it lists is killed (its proof no longer holds), if a text is
not found, or if the tests stop without a failed test (a mutant that does
not import, say). It reads and writes only in the temporary directory,
never in ``src/``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "data", "pyproject.toml")
TIMEOUT_FACTOR = 10
RECOURSE = "src/collective_recourse/recourse.py"
MODEL = "src/collective_recourse/model.py"
DATASET = "src/collective_recourse/dataset.py"
SOLVER_TESTS = ("tests/test_recourse.py", "tests/test_model.py", "tests/test_harness.py",
                "tests/test_acceptance.py")
# mutated file -> the tests run on its mutants.
TESTS = {RECOURSE: SOLVER_TESTS, MODEL: SOLVER_TESTS, DATASET: ("tests/test_dataset.py",)}

# (file, old text, new text, reason).
MUTANTS = [
    (RECOURSE, "_ARMIJO = 1e-4", "_ARMIJO = 0.5", "a stricter Armijo constant"),
    (RECOURSE, "_STOP = 2**-26", "_STOP = 2**-12", "a coarser step tolerance"),
    (RECOURSE, "if trial_loss >= loss:", "if trial_loss > loss:",
     "a search that goes on after a step that does not lower the loss"),
    (RECOURSE, "_LAMBDA_MIN, _LAMBDA_MAX = 1e-30, 1e30", "_LAMBDA_MIN, _LAMBDA_MAX = 1e-30, 1e-2",
     "a low cap on the Barzilai-Borwein step"),
    (RECOURSE, "_LAMBDA_MIN, _LAMBDA_MAX = 1e-30, 1e30", "_LAMBDA_MIN, _LAMBDA_MAX = 1e2, 1e30",
     "a high floor under the Barzilai-Borwein step"),
    (RECOURSE, "_SHRINK = 1.0 - 2.0**-53", "_SHRINK = 1.0 - 2.0**-20",
     "a coarser shrink of a norm that rounds above the budget"),
    (RECOURSE, "        v *= min(_SHRINK, epsilon / norm)", "        break",
     "no shrink loop in _project"),
    (RECOURSE, "    units[:, 0] = 1.0", "    units[:, -1] = 1.0",
     "another unit for a centroid on the query"),
    (RECOURSE, "            if loss < best_loss:", "            if loss <= best_loss:",
     "the winner's tie going to the last point"),
    (RECOURSE, "_project(c, eps, mode) for c in candidates), goal_start]",
     "_project(c, eps, mode) for c in candidates)]", "no step toward the goal centroid"),
    (RECOURSE, "reaches_goal = goal_start is to_goal", "reaches_goal = False",
     "a search from a start on the goal centroid"),
    (RECOURSE, "                s = trial - delta\n", "",
     "a backtracked step taken as the full one in the Armijo test and the BB quotient"),
    (RECOURSE, 'if mode == "sphere" and eps > 0:', "if False:", "no second sphere search"),
    (RECOURSE, "for sign in (1.0, -1.0)]", "for sign in (1.0,)]", "frame starts +q only"),
    (RECOURSE, "abs(d_g - eps * f_g) < d_g", "abs(d_g - eps * f_g) <= d_g",
     "the sphere goal rule moving on a tie"),
    (MODEL, "norms = dists if nearest > GRAD_NORM_FLOOR else np.maximum(dists, GRAD_NORM_FLOOR)",
     "norms = dists", "no distance floor in the gradient"),
    (MODEL, "GRAD_NORM_FLOOR = 1e-12", "GRAD_NORM_FLOOR = 1e-3", "a distance floor that bites"),
    (MODEL, "    probs[target] = p_target\n    return", "    return",
     "the target's probability left at p - 1"),
    (MODEL, "buffer = np.empty((min(len(points), _BLOCK_ROWS), theta.dim))",
     "buffer = np.empty_like(points[:_BLOCK_ROWS])", "a block buffer in the input's memory order"),
    (MODEL, "    if len(far):\n", "    if False:\n", "no finiteness check in training_accuracy"),
    (MODEL, 'with np.errstate(over="ignore"):\n        for lo', "with np.errstate():\n        for lo",
     "no np.errstate in distances"),
    (DATASET, "if any(char in chunk for char in _SEPARATORS):", "if False:",
     "no separator check in a chunk"),
    (DATASET, "if b'\"' in chunk and any(row.count(b'\"') % 2 for row in rows):", "if False:",
     "no odd-quote check in a chunk"),
    (DATASET, 'cut = max(chunk.rfind(b"\\n", 0, end), chunk.rfind(b"\\r", 0, end)) + 1',
     "cut = len(chunk)", "a chunk cut after its last byte, not where a row starts"),
    (DATASET, "yield from map(bytes.decode, rows)",
     'yield from (row.decode(errors="replace") for row in rows)',
     'errors="replace" in the chunk decode'),
    (DATASET, "    if not parts:\n        return last\n", "", "a lone range copied into a new matrix"),
    (DATASET, "return max(1, min(len(os.sched_getaffinity(0)), size // _RANGE_BYTES))",
     "return min(len(os.sched_getaffinity(0)), size // _RANGE_BYTES)",
     "no worker at all for under _RANGE_BYTES of rows"),
    (DATASET, "if number == 1 else line", "if True else line",
     "a byte order mark dropped from a line past the file's start"),
    (DATASET, 'line.removeprefix(b"\\xef\\xbb\\xbf")', "line",
     "a byte order mark kept in the first line"),
    (DATASET, "yield line.decode()", 'yield line.decode(errors="replace")',
     'errors="replace" in the line decode'),
    (DATASET, "            spool.flush()\n", "", "a spooled pipe not flushed"),
    (DATASET, "islice(_lines(fd), line)", "islice(_lines(fd), line - 1)",
     "the data started a line early"),
    (DATASET, "if workers < 2 or not _wrote_split(", "if not _wrote_split(",
     "one worker's write put through the split, which seeks"),
]

# reason -> why no test can kill the mutant.
EQUIVALENT = {
    "the sphere goal rule moving on a tie": (
        "on a tie |d_g - eps*f_g| = d_g moving leaves the goal centroid at distance d_g, as "
        "staying does, so every distance, loss and flip is the same; only the moves differ"
    ),
}


def _run(work, tests, timeout):
    """The outcome of ``tests`` in ``work`` and their wall time.

    The outcome is "passed", "timed out" past ``timeout``, the first failed
    test, or "error" when pytest stopped for another reason (a mutant that
    does not import, say), which kills nothing.
    """
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=work, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "passed", seconds
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    if done.returncode == 1 and failed:
        return failed[0], seconds
    return "error", seconds


def main():
    failures = []
    unknown = set(EQUIVALENT) - {reason for *_, reason in MUTANTS}
    if unknown:
        failures.append(f"EQUIVALENT names no listed mutant: {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        where = subprocess.run(
            [sys.executable, "-c", "import collective_recourse; print(collective_recourse.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(work.resolve()):
            sys.exit(f"the tests would import the package from {where}, not from the copy")
        timeouts = {}
        for tests in dict.fromkeys(TESTS.values()):
            outcome, seconds = _run(work, tests, None)
            if outcome != "passed":
                sys.exit(f"the unchanged tests {' '.join(tests)} do not pass: {outcome}")
            print(f"unchanged: {' '.join(tests)} passed in {seconds:.1f} s")
            timeouts[tests] = TIMEOUT_FACTOR * seconds
        for file, old, new, reason in MUTANTS:
            path = work / file
            text = path.read_text()
            if text.count(old) != 1:
                failures.append(f"{reason}: {old!r} occurs {text.count(old)} times in {file}")
                continue
            path.write_text(text.replace(old, new))
            try:
                outcome, seconds = _run(work, TESTS[file], timeouts[TESTS[file]])
            finally:
                path.write_text(text)
            verdict = {"passed": "survived", "error": "error"}.get(outcome, "killed")
            killer = f" ({outcome})" if verdict == "killed" else ""
            print(f"{verdict:8} {seconds:5.1f} s  {reason}{killer}")
            if verdict == "error":
                failures.append(f"{reason}: the tests did not run")
            elif verdict == "survived" and reason not in EQUIVALENT:
                failures.append(f"{reason}: survived, and is not listed as equivalent")
            elif verdict == "killed" and reason in EQUIVALENT:
                failures.append(f"{reason}: killed, though listed as equivalent")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
