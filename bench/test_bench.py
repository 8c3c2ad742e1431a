"""Tests of the benchmark itself: python3 -m pytest bench -q

Each workload runs at a tiny size; metric names must match BENCHMARK.json;
the failure counter must trip on results corrupted here, in the test.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_runner():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_and_repeats_call_counts(workload):
    results = {}
    for trace, seed in ((0, 3), (1, 3), (1, 4)):
        result = last_json(bench(workload, seed, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        spec = SPEC["per_layer" if trace else "end_to_end"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        results[trace, seed] = result["metrics"]
    calls = [{k: v["value"] for k, v in results[1, s].items() if k.endswith(".calls")} for s in (3, 4)]
    assert calls[0] == calls[1]
    assert all(float(v).is_integer() for v in calls[0].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _report(rows):
    lines = [",".join(checks.REPORT_HEADER)]
    lines += [",".join(repr(float(v)) for v in row) + ",false,false" for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _clean_sweep():
    mu = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    x_q = checks.query_point(mu, 0, 1)
    eps = [0.0, 0.5, 1.0]
    best = checks.optimum(x_q, 0, mu, eps)
    base = best[0]  # eps = 0 leaves the centroids where they are
    rows = [[e, base, min(b + 0.1 * e, base), b] for e, b in zip(eps, best)]
    return rows, eps, best


def test_clean_sweep_passes():
    rows, eps, best = _clean_sweep()
    report = _report(rows)
    assert checks.sweep_failures(0, report, b"<svg/>", (report, b"<svg/>"), eps, best) == []


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (lambda r: r[1].__setitem__(2, float("nan")), "non-finite loss"),
        (lambda r: r[1].__setitem__(2, r[1][1] + 0.5), "loss above baseline"),
        (lambda r: r[2].__setitem__(3, r[2][2] + 1e-3), "collective above individual"),
        (lambda r: r[2].__setitem__(2, r[1][2] + 1e-3), "non-monotone sweep"),
        (lambda r: r[2].__setitem__(3, r[2][3] - 1e-6), "loss below the closed-form optimum"),
        (lambda r: [row.__setitem__(1, row[1] + 1e-6) for row in r], "baseline differs from the reference"),
    ],
)
def test_failure_counter_trips_on_corrupted_report(corrupt, reason):
    rows, eps, best = _clean_sweep()
    corrupt(rows)
    result = run.Run(tracer=None, speed=run.HostSpeed(0))
    reasons = checks.sweep_failures(0, _report(rows), b"<svg/>", None, eps, best)
    result.check(reasons)
    assert reason in reasons
    assert (result.attempted, result.failed) == (1, 1)


def test_failure_counter_trips_on_loss_under_an_inflated_baseline():
    rows, eps, best = _clean_sweep()
    for row in rows:
        row[1] += 1.0
    rows[1][2] = best[0] + 0.5  # below the reported baseline, above the true one
    reasons = checks.sweep_failures(0, _report(rows), b"<svg/>", None, eps, best)
    assert {"baseline differs from the reference", "loss above baseline"} <= set(reasons)


def test_failure_counter_trips_on_exit_code_grid_and_bytes():
    rows, eps, best = _clean_sweep()
    report = _report(rows)
    first = (report, b"<svg/>")
    assert checks.sweep_failures(2, report, b"<svg/>", first, eps, best) == ["exit code 2"]
    assert checks.sweep_failures(0, report, b"<svg />", first, eps, best) == [
        "report or plot differs from the first run"
    ]
    assert checks.sweep_failures(0, _report(rows[:2]), b"<svg/>", first, eps, best)
    assert checks.sweep_failures(0, b"", b"", first, eps, best)


def test_failure_counter_trips_on_corrupted_solve():
    assert checks.solve_failures(1.0, 2.0, 2.0, 0.5, None) == []
    assert checks.solve_failures(float("nan"), 2.0, 2.0, 0.5, None) == ["non-finite loss"]
    assert checks.solve_failures(2.5, 2.0, 2.0, 0.5, None) == ["loss above baseline"]
    assert checks.solve_failures(0.4, 2.0, 2.0, 0.5, None) == ["loss below the closed-form optimum"]
    assert checks.solve_failures(1.0, 2.0, 2.0, 0.5, 1.1) == ["loss differs from the first pass"]
    # An inflated baseline from the solver trips the check, and so does a loss above the true one.
    assert checks.solve_failures(1.0, 3.0, 2.0, 0.5, None) == ["baseline differs from the reference"]
    assert checks.solve_failures(2.5, 3.0, 2.0, 0.5, None) == [
        "baseline differs from the reference", "loss above baseline"
    ]


def test_optimum_matches_the_collective_solver_and_bounds_the_individual():
    import collective_recourse as cr

    features, labels = checks.read_labeled_csv(run.IRIS, "species")
    mu = checks.centroids(features, labels)
    batch = cr.load_csv(run.IRIS, "species")
    np.testing.assert_allclose(mu, cr.fit(batch).mu, rtol=0, atol=1e-12)
    query = cr.make_query(cr.fit(batch), 1, 2, 0.25)
    best = checks.optimum(checks.query_point(mu, 1, 2), 1, mu, [0.0, 0.3])
    np.testing.assert_allclose(checks.query_point(mu, 1, 2), query.features, rtol=0, atol=1e-12)
    assert abs(best[0] - cr.nll_loss(query.features, 1, cr.fit(batch))) < 1e-12
    budget = cr.EpsilonBudget(0.3)
    collective = cr.collective_recourse(batch, query, budget).achieved_loss
    individual = cr.individual_recourse(query, cr.fit(batch), budget).achieved_loss
    assert abs(collective - best[1]) < 1e-9
    assert individual > best[1]


def test_self_time_subtracts_children():
    spans = {
        "names": ["a", "b"],
        "name": np.array([0, 1, 1], dtype=np.int32),
        "start": np.array([0.0, 1.0, 4.0]),
        "end": np.array([10.0, 3.0, 8.0]),
        "parent": np.array([-1, 0, 0], dtype=np.int32),
    }
    assert self_times(spans).tolist() == [4.0, 2.0, 4.0]
    assert summarize(spans)["b"] == {"calls": 2, "self_s": 6.0, "total_s": 6.0}


def test_tracer_wraps_every_lookup_name_and_restores():
    import collective_recourse as cr
    from collective_recourse import model, recourse

    original = model.fit
    batch = cr.LabeledBatch(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]]), np.array([0, 1, 2]), 3)
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert recourse.refit_with_perturbation is model.refit_with_perturbation is not original
        cr.refit_with_perturbation(batch, np.zeros((3, 2)))
    finally:
        restore()
    assert model.fit is original and cr.fit is original
    spans = tracer.arrays()
    names = [spans["names"][i] for i in spans["name"]]
    assert names == ["model.refit", "model.fit"]
    assert spans["parent"].tolist() == [-1, 0]
    assert tracer.counters == {"model.refit.bytes_computed": 2 * 3 * 2 * 8}
