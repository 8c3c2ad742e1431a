"""End-to-end acceptance checks.

Each test prints exactly one verdict line of the form

    [criterion N] PASS - detail

(via the ``verdict`` fixture, which suspends capture so the line reaches
the real stdout) and then asserts, so a red run still shows which
criterion failed and why.
"""

import math
import subprocess
import sys
import time

import numpy as np

from collective_recourse import (
    Centroids,
    EpsilonBudget,
    LabeledBatch,
    QuerySpec,
    SyntheticSpec,
    cli_main,
    collective_recourse,
    fit,
    individual_recourse,
    load_embeddings,
    make_query,
    nll_loss,
    refit_with_perturbation,
    sweep_epsilon,
    synth_blobs,
    training_accuracy,
)
from collective_recourse.harness import read_report_csv
from collective_recourse.model import grad_centroids, grad_input
from collective_recourse.oracle import (
    GridSpec,
    finite_diff_grad,
    grid_collective,
    grid_individual,
    lipschitz_slack,
)


def _tenths_grid():
    return [round(0.1 * i, 10) for i in range(11)]


def _dominance(report):
    """(holds everywhere within 1e-6, number of strictly better interior rows)."""
    gaps = [row.individual_loss - row.collective_loss for row in report.rows]
    everywhere = all(g >= -1e-6 for g in gaps)
    hi = report.rows[-1].epsilon
    strict = sum(
        1 for row, g in zip(report.rows, gaps) if 0.0 < row.epsilon < hi and g > 1e-9
    )
    return everywhere, strict


def test_criterion_1_training_accuracy(iris_batch, verdict):
    t0 = time.perf_counter()
    theta = fit(iris_batch)
    acc = training_accuracy(iris_batch, theta)
    runtime = time.perf_counter() - t0
    ok = 0.90 <= acc <= 0.97 and runtime < 1.0
    verdict(1, ok, f"nearest-centroid training accuracy {acc:.4f} in [0.90, 0.97], runtime {runtime:.3f}s < 1s")


def test_criterion_2_collective_dominates_individual(iris_batch, verdict):
    t0 = time.perf_counter()
    theta = fit(iris_batch)
    query = make_query(theta, class_a=1, class_b=2, alpha=0.25)
    report = sweep_epsilon(theta, query, _tenths_grid())
    runtime = time.perf_counter() - t0
    everywhere, strict = _dominance(report)
    ok = everywhere and strict >= 1 and runtime < 10.0
    verdict(
        2,
        ok,
        f"collective <= individual + 1e-6 at all 11 budgets: {everywhere}; "
        f"strictly better at {strict}/9 interior budgets; runtime {runtime:.2f}s < 10s",
    )


def test_criterion_3_gradients_match_finite_differences(verdict):
    rng = np.random.default_rng(10)
    combos = [(d, k) for d in (2, 4, 10) for k in (2, 3, 10)]
    h = 1e-6
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 10_000:
        attempts += 1
        d, k = combos[checked % len(combos)]
        mu = rng.uniform(-2, 2, (k, d))
        x = rng.uniform(-2, 2, d)
        if np.min(np.linalg.norm(x - mu, axis=1)) < 0.1:
            continue  # too close to a centroid: the norm floor kinks the loss
        theta = Centroids(mu)
        target = int(rng.integers(k))
        fd_x = finite_diff_grad(lambda z: nll_loss(z, target, theta), x, h)
        if np.linalg.norm(fd_x) < 1e-4:
            continue  # saturated softmax: relative comparison is meaningless
        rel_x = np.linalg.norm(grad_input(x, target, theta) - fd_x) / np.linalg.norm(fd_x)
        fd_mu = finite_diff_grad(
            lambda flat: nll_loss(x, target, Centroids(flat.reshape(k, d))), mu.ravel(), h
        ).reshape(k, d)
        rel_mu = np.linalg.norm(grad_centroids(x, target, theta) - fd_mu) / max(
            np.linalg.norm(fd_mu), 1e-8
        )
        worst = max(worst, rel_x, rel_mu)
        checked += 1
    runtime = time.perf_counter() - t0
    ok = checked == 100 and worst <= 1e-5 and runtime < 5.0
    verdict(
        3,
        ok,
        f"worst relative error {worst:.2e} <= 1e-5 over {checked} instances "
        f"(d in {{2,4,10}} x k in {{2,3,10}}, h=1e-6); runtime {runtime:.2f}s < 5s",
    )


def test_criterion_4_refit_equals_direct_fit(verdict):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(2, 8))
        per_class = int(rng.integers(1, 7))
        features = rng.uniform(-3, 3, (k * per_class, d))
        labels = np.repeat(np.arange(k), per_class)
        batch = LabeledBatch(features, labels, k)
        delta = rng.standard_normal(features.shape)
        refit = refit_with_perturbation(batch, delta)
        direct = fit(LabeledBatch(features + delta, labels, k))
        worst = max(worst, float(np.max(np.abs(refit.mu - direct.mu))))
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-12 and runtime < 1.0
    verdict(
        4,
        ok,
        f"worst |refit - direct fit| {worst:.2e} <= 1e-12 over 100 instances; "
        f"runtime {runtime:.2f}s < 1s",
    )


def _oracle_gap_ratio(batch, query, eps, spec):
    """Worst |solver - grid oracle| over both solvers, as a fraction of the slack."""
    theta = fit(batch)
    slack = lipschitz_slack(batch.num_classes, spec.resolution)
    ind = individual_recourse(query, theta, EpsilonBudget(eps))
    col = collective_recourse(batch, query, EpsilonBudget(eps))
    _, oracle_ind = grid_individual(query, theta, eps, spec)
    _, oracle_col = grid_collective(batch, query, eps, spec)
    gap = max(abs(ind.achieved_loss - oracle_ind), abs(col.achieved_loss - oracle_col))
    return gap / slack


def test_criterion_5_solver_losses_sandwiched_by_oracles(collinear_pair, three_blob_pair, verdict):
    rng = np.random.default_rng(0)
    spec = GridSpec(0.01)
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 4))
        centers = rng.uniform(-2, 2, size=(k, 2))
        per_class = int(rng.integers(1, 7))
        noise = float(rng.uniform(0, 0.4))
        batch = synth_blobs(SyntheticSpec(centers, per_class, noise, seed=int(rng.integers(0, 1000))))
        query = QuerySpec(rng.uniform(-2, 2, size=2), int(rng.integers(0, k)))
        eps = float(rng.uniform(0.1, 0.6))
        worst_ratio = max(worst_ratio, _oracle_gap_ratio(batch, query, eps, spec))
    for batch, query in (collinear_pair, three_blob_pair):
        worst_ratio = max(worst_ratio, _oracle_gap_ratio(batch, query, 0.3, spec))
    runtime = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 and runtime < 60.0
    verdict(
        5,
        ok,
        f"worst |solver - oracle| is {worst_ratio:.3f} x the k*0.01*sqrt(2) slack "
        f"(<= 1.0) over 20 random + 2 constructed instances; runtime {runtime:.1f}s < 60s",
    )


def test_criterion_6_collinear_equality_and_flip_threshold(collinear_pair, verdict):
    batch, query = collinear_pair
    theta = fit(batch)
    expected = math.log(1 + math.exp(0.4))
    ind = individual_recourse(query, theta, EpsilonBudget(0.3))
    col = collective_recourse(batch, query, EpsilonBudget(0.3))
    err_ind = abs(ind.achieved_loss - expected)
    err_col = abs(col.achieved_loss - expected)
    below = (
        individual_recourse(query, theta, EpsilonBudget(0.45)).flipped,
        collective_recourse(batch, query, EpsilonBudget(0.45)).flipped,
    )
    above = (
        individual_recourse(query, theta, EpsilonBudget(0.55)).flipped,
        collective_recourse(batch, query, EpsilonBudget(0.55)).flipped,
    )
    ok = err_ind < 1e-4 and err_col < 1e-4 and not any(below) and all(above)
    verdict(
        6,
        ok,
        f"both losses within 1e-4 of log(1+e^0.4)={expected:.6f} at eps=0.3 "
        f"(ind {err_ind:.1e}, col {err_col:.1e}); no flip at 0.45, flip at 0.55: "
        f"{not any(below) and all(above)}",
    )


def test_criterion_7_zero_budget_identity_and_monotone_sweep(three_blob_pair, verdict):
    batch, query = three_blob_pair
    theta = fit(batch)
    base = nll_loss(query.features, query.goal_class, theta)
    ind0 = individual_recourse(query, theta, EpsilonBudget(0.0))
    col0 = collective_recourse(batch, query, EpsilonBudget(0.0))
    identity = (
        np.all(ind0.perturbation == 0.0)
        and np.all(col0.perturbation.delta == 0.0)
        and abs(ind0.achieved_loss - base) <= 1e-12
        and abs(col0.achieved_loss - base) <= 1e-12
    )
    report = sweep_epsilon(theta, query, _tenths_grid())
    monotone = all(
        b.individual_loss <= a.individual_loss + 1e-9
        and b.collective_loss <= a.collective_loss + 1e-9
        for a, b in zip(report.rows, report.rows[1:])
    )
    ok = bool(identity and monotone)
    verdict(
        7,
        ok,
        f"eps=0 gives zero perturbations and baseline loss within 1e-12: {bool(identity)}; "
        f"ball-mode sweep losses monotone non-increasing within 1e-9: {monotone}",
    )


def test_criterion_8_cli_outputs_are_deterministic(iris_path, tmp_path, verdict):
    t0 = time.perf_counter()
    codes = []
    outputs = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"report_{tag}.csv"
        svg_path = tmp_path / f"plot_{tag}.svg"
        cmd = [
            sys.executable, "-m", "collective_recourse", "sweep",
            "--data", str(iris_path), "--label-col", "species",
            "--goal-class", "1", "--base-class", "2",
            "--eps-grid", "0:0.4:0.2", "--init", "random", "--seed", "3",
            "--out", str(csv_path), "--plot", str(svg_path),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        codes.append(proc.returncode)
        outputs.append(
            (csv_path.read_bytes(), svg_path.read_bytes())
            if csv_path.exists() and svg_path.exists()
            else None
        )
    runtime = time.perf_counter() - t0
    identical = outputs[0] is not None and outputs[0] == outputs[1]
    ok = codes == [0, 0] and identical
    verdict(
        8,
        ok,
        f"two identical CLI sweep runs: exit codes {codes}, byte-identical CSV and "
        f"SVG: {identical}; runtime {runtime:.1f}s",
    )


def test_criterion_9_embedding_pipeline_end_to_end(embeddings_path, tmp_path, verdict):
    t0 = time.perf_counter()
    report_path = tmp_path / "embedding_report.csv"
    codes = [
        cli_main(["fit", "--data", str(embeddings_path)]),
        cli_main(
            [
                "query", "--data", str(embeddings_path),
                "--goal-class", "0", "--base-class", "1",
            ]
        ),
        cli_main(
            [
                "sweep", "--data", str(embeddings_path),
                "--goal-class", "0", "--base-class", "1",
                "--eps-grid", "0:1:0.1", "--out", str(report_path),
            ]
        ),
    ]
    everywhere = strict = False
    if report_path.exists():
        everywhere, strict = _dominance(read_report_csv(report_path))
    batch = load_embeddings(embeddings_path)
    acc = training_accuracy(batch, fit(batch))
    runtime = time.perf_counter() - t0
    ok = codes == [0, 0, 0] and everywhere and strict >= 1
    verdict(
        9,
        ok,
        f"d=10 embedding CLI fit/query/sweep exit codes {codes}; collective dominates "
        f"with {strict} strictly better interior budgets; training accuracy {acc:.4f} "
        f"(informational); runtime {runtime:.1f}s",
    )
