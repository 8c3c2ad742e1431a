import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from collective_recourse.dataset import load_embeddings
from collective_recourse.harness import (
    REPORT_COLUMNS,
    SweepReport,
    SweepRow,
    describe_query,
    make_query,
    render_plot_svg,
    sweep_epsilon,
    write_report_csv,
)
from collective_recourse.model import distances, fit, predict
from collective_recourse.recourse import (
    EpsilonBudget,
    QuerySpec,
    SolverConfig,
    collective_recourse,
    individual_recourse,
)


def _row(eps, base, ind, col, fi=False, fc=False):
    return SweepRow(eps, base, ind, col, fi, fc)


def test_make_query_interpolation(collinear_pair):
    batch, _ = collinear_pair
    theta = fit(batch)
    q = make_query(theta, 0, 1, 0.25)
    assert np.allclose(q.features, [-0.5, 0.0], atol=1e-15)
    assert q.goal_class == 0


def test_make_query_endpoint(collinear_pair):
    batch, _ = collinear_pair
    theta = fit(batch)
    q = make_query(theta, 0, 1, 1.0)
    assert np.array_equal(q.features, theta.mu[0])
    assert predict(q.features, theta) == 0


def test_make_query_validation(collinear_pair):
    batch, _ = collinear_pair
    theta = fit(batch)
    with pytest.raises(ValueError, match="^goal class and base class must differ$"):
        make_query(theta, 0, 0, 0.25)
    with pytest.raises(ValueError):
        make_query(theta, 0, 5, 0.25)
    with pytest.raises(ValueError):
        make_query(theta, 0, 1, 1.5)
    with pytest.raises(ValueError, match=r"^goal class must be an integer, got 1\.5$"):
        make_query(theta, 1.5, 0, 0.25)
    with pytest.raises(ValueError, match=r"^base class 5 outside \[0, 1\]$"):
        make_query(theta, 0, 5, 0.25)


def test_iris_query_needs_flip(iris_batch):
    theta = fit(iris_batch)
    q = make_query(theta, 1, 2, 0.25)
    facts = describe_query(theta, q)
    assert facts["base_prediction"] == 2
    assert facts["goal_class"] == 1
    assert facts["needs_flip"]


def test_describe_query_predicts_the_nearest_centroid_on_a_near_tie(near_tie_triple):
    batch, query = near_tie_triple
    theta = fit(batch)
    facts = describe_query(theta, query)
    assert facts["base_prediction"] == distances(query.features[None], theta)[0].argmin() == 2
    assert facts["needs_flip"] is True


def test_describe_query_names_an_out_of_range_goal_as_the_solvers_do(iris_batch):
    theta = fit(iris_batch)
    query = QuerySpec(theta.mu[0], 7)
    for ask in (
        lambda: describe_query(theta, query),
        lambda: individual_recourse(query, theta, EpsilonBudget(0.1)),
        lambda: collective_recourse(iris_batch, query, EpsilonBudget(0.1)),
        lambda: sweep_epsilon(theta, query, [0.1]),
        lambda: make_query(theta, 7, 0, 0.25),
    ):
        with pytest.raises(ValueError, match=r"goal class 7 outside \[0, 2\]$"):
            ask()


def test_sweep_report_invariants():
    with pytest.raises(ValueError, match="ascending"):
        SweepReport((_row(0.2, 1, 1, 1), _row(0.1, 1, 1, 1)))
    with pytest.raises(ValueError, match="ascending"):
        SweepReport((_row(0.1, 1, 1, 1), _row(0.1, 1, 1, 1)))
    with pytest.raises(ValueError, match="negative"):
        SweepReport((_row(0.1, 1, -0.5, 1),))
    with pytest.raises(ValueError, match="zero-budget"):
        SweepReport((_row(0.0, 1.0, 0.7, 1.0),))
    report = SweepReport((_row(0.0, 1.0, 1.0, 1.0), _row(0.5, 1.0, 0.8, 0.7)))
    assert [row.epsilon for row in report.rows] == [0.0, 0.5]


def test_sweep_single_zero_epsilon(collinear_pair):
    batch, query = collinear_pair
    report = sweep_epsilon(fit(batch), query, [0.0])
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.individual_loss == row.baseline_loss
    assert row.collective_loss == row.baseline_loss


def test_sweep_three_blob_dominance(three_blob_pair):
    batch, query = three_blob_pair
    report = sweep_epsilon(fit(batch), query, [0.0, 0.15, 0.3, 0.45])
    for row in report.rows:
        assert row.collective_loss <= row.individual_loss + 1e-6
    assert any(r.collective_loss < r.individual_loss for r in report.rows)
    # ball-mode sweeps with warm starts are monotone
    ind = [r.individual_loss for r in report.rows]
    col = [r.collective_loss for r in report.rows]
    assert all(b <= a + 1e-9 for a, b in zip(ind, ind[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(col, col[1:]))


def test_sweep_input_validation(collinear_pair):
    batch, query = collinear_pair
    theta = fit(batch)
    with pytest.raises(ValueError, match="non-empty"):
        sweep_epsilon(theta, query, [])
    with pytest.raises(ValueError, match="ascending"):
        sweep_epsilon(theta, query, [0.3, 0.1])
    with pytest.raises(ValueError, match="nonnegative"):
        sweep_epsilon(theta, query, [-0.1, 0.2])


def test_sweep_error_names_offending_epsilon(collinear_pair):
    batch, _ = collinear_pair
    bad_query = QuerySpec(np.zeros(3), 0)  # wrong dimension
    with pytest.raises(ValueError, match=r"epsilon=0\.25"):
        sweep_epsilon(fit(batch), bad_query, [0.25])


def _sequential_individual(query, theta, epsilons, cfg):
    """One individual_recourse call per budget, each warm-started from the last."""
    results, warm = [], ()
    for eps in epsilons:
        results.append(individual_recourse(query, theta, EpsilonBudget(eps), cfg, warm))
        warm = (results[-1].perturbation,)
    return results


def _assert_sweep_matches_sequential(batch, query, epsilons, cfg):
    theta = fit(batch)
    reference = _sequential_individual(query, theta, epsilons, cfg)
    report = sweep_epsilon(theta, query, epsilons, cfg)
    assert len(report.rows) == len(reference)
    for ref, row in zip(reference, report.rows):
        assert np.float64(row.individual_loss).tobytes() == np.float64(ref.achieved_loss).tobytes()
        assert row.individual_flipped == ref.flipped
    return reference


@pytest.mark.parametrize("data", ["iris", "embeddings"])
@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_sweep_matches_sequential_individual_chain_bitwise(iris_batch, embeddings_path, data, mode):
    batch = iris_batch if data == "iris" else load_embeddings(embeddings_path)
    query = make_query(fit(batch), 1, 2, 0.25)
    cfg = SolverConfig(projection_mode=mode)
    _assert_sweep_matches_sequential(batch, query, [0.1 * i for i in range(11)], cfg)


@pytest.mark.parametrize("data", ["iris", "embeddings"])
def test_sweep_matches_sequential_chain_where_warm_start_wins(iris_batch, embeddings_path, data):
    batch = iris_batch if data == "iris" else load_embeddings(embeddings_path)
    query = make_query(fit(batch), 1, 2, 0.25)
    # Once the budget reaches the goal centroid (at 1.2 on iris, 2.7 on
    # embeddings), the previous answer is the step onto it, which ties with
    # this budget's own goal step; the warm start comes first and wins.
    epsilons = [0.5 * i for i in range(8)]
    reference = _assert_sweep_matches_sequential(batch, query, epsilons, SolverConfig())
    warm_wins = [
        r.loss_trace.argmin() == 1 and r.perturbation.tobytes() == prev.perturbation.tobytes()
        for prev, r in zip(reference, reference[1:])
    ]
    assert any(warm_wins)


def test_sweep_keeps_warm_start_on_a_tie(collinear_pair):
    # In sphere mode the previous answer rescaled to 0.21 and the step toward
    # the goal centroid differ in the last bit but have the same loss; the
    # warm start comes first, so it must win the tie.
    batch, query = collinear_pair
    theta = fit(batch)
    cfg = SolverConfig(projection_mode="sphere")
    reference = _assert_sweep_matches_sequential(batch, query, [0.01, 0.21], cfg)
    cold = individual_recourse(query, theta, EpsilonBudget(0.21), cfg)
    assert cold.achieved_loss == reference[1].achieved_loss
    assert cold.perturbation.tobytes() != reference[1].perturbation.tobytes()


@pytest.mark.parametrize("data", ["iris", "embeddings", "synth"])
@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_sweep_collective_column_matches_collective_recourse_bitwise(
    iris_batch, embeddings_path, synth_20k_batch, data, mode
):
    if data == "embeddings":
        batch = load_embeddings(embeddings_path)
    else:
        batch = iris_batch if data == "iris" else synth_20k_batch
    theta = fit(batch)
    query = make_query(theta, 1, 2, 0.25)
    cfg = SolverConfig(steps=50, projection_mode=mode)
    for row in sweep_epsilon(theta, query, [0.1 * i for i in range(11)], cfg).rows:
        col = collective_recourse(batch, query, EpsilonBudget(row.epsilon), cfg)
        assert np.float64(row.collective_loss).tobytes() == np.float64(col.achieved_loss).tobytes()
        assert row.collective_flipped == col.flipped


@pytest.mark.parametrize("data", ["iris", "embeddings"])
@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_sweep_flags_match_public_predict(iris_batch, embeddings_path, data, mode):
    # The sweep reads both flags without the public argument check.
    batch = iris_batch if data == "iris" else load_embeddings(embeddings_path)
    theta = fit(batch)
    query = make_query(theta, 1, 2, 0.25)
    x_q, goal = query.features, query.goal_class
    epsilons = [0.1 * i for i in range(21)]
    cfg = SolverConfig(projection_mode=mode)
    reference = _sequential_individual(query, theta, epsilons, cfg)
    rows = sweep_epsilon(theta, query, epsilons, cfg).rows
    for row, ind in zip(rows, reference):
        post = collective_recourse(batch, query, EpsilonBudget(row.epsilon), cfg).post_centroids
        assert row.collective_flipped == (predict(x_q, post) == goal)
        assert row.individual_flipped == (predict(x_q + ind.perturbation, theta) == goal)
        # The batch distances: a reference that does not go through predict.
        assert row.collective_flipped == (distances(x_q[None], post)[0].argmin() == goal)
        at_answer = distances((x_q + ind.perturbation)[None], theta)[0]
        assert row.individual_flipped == (at_answer.argmin() == goal)
    for flags in ([r.collective_flipped for r in rows], [r.individual_flipped for r in rows]):
        assert any(flags) and not all(flags)


@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_overflowing_collective_budget_is_a_solver_error_without_warnings(iris_batch, mode):
    theta = fit(iris_batch)
    query = make_query(theta, 1, 2, 0.25)
    cfg = SolverConfig(projection_mode=mode)
    # The refit centroids stay finite; the query's squared distances to them do not.
    overflow = "the refit centroids lie so far from the query that its squared distances overflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (1e200, 1e308):
            with pytest.raises(ValueError, match=f"^{overflow}$"):
                collective_recourse(iris_batch, query, EpsilonBudget(eps), cfg)
            failed = re.escape(f"sweep failed at epsilon={eps}: {overflow}")
            with pytest.raises(ValueError, match=f"^{failed}$"):
                sweep_epsilon(theta, query, [0.5, eps], cfg)


def test_report_csv_empty(tmp_path):
    path = tmp_path / "r.csv"
    write_report_csv(SweepReport(()), path)
    assert path.read_text().splitlines() == [
        "epsilon,baseline_loss,individual_loss,collective_loss,individual_flipped,collective_flipped"
    ]


def test_report_csv_round_trip(tmp_path):
    # Reals with 17 significant digits, which numpy's reader parses back bit for bit.
    report = SweepReport(
        (
            _row(0.0, 1.25, 1.25, 1.25),
            _row(1 / 3, 1.25, 0.75, 0.5, True, True),
        )
    )
    path = tmp_path / "r.csv"
    write_report_csv(report, path)
    assert path.read_text().splitlines()[0] == ",".join(REPORT_COLUMNS)
    flag = {"true": 1.0, "false": 0.0}.__getitem__
    back = np.loadtxt(path, delimiter=",", skiprows=1, converters={4: flag, 5: flag})
    assert back.tobytes() == np.array([astuple(row) for row in report.rows], dtype=float).tobytes()


@pytest.mark.parametrize(
    "write, what", [(write_report_csv, "report"), (render_plot_svg, "plot")]
)
def test_unwritable_output_names_its_path(tmp_path, write, what):
    path = tmp_path / "missing" / "out"
    with pytest.raises(OSError, match=f"^{re.escape(f'cannot write {what} to {path}: ')}"):
        write(SweepReport((_row(0.0, 1.25, 1.25, 1.25),)), path)


def _series_points(svg: str, label: str):
    m = re.search(rf'<polyline points="([^"]+)"[^>]*data-series="{label}"', svg)
    assert m, f"no polyline for {label}"
    return [tuple(map(float, p.split(","))) for p in m.group(1).split()]


def test_render_plot_structure(tmp_path):
    report = SweepReport(
        (_row(0.0, 1.0, 1.0, 1.0), _row(0.5, 1.0, 0.8, 0.6), _row(1.0, 1.0, 0.5, 0.3))
    )
    path = tmp_path / "plot.svg"
    render_plot_svg(report, path)
    svg = path.read_text()
    assert svg.count("<polyline") == 2
    assert 'data-series="individual"' in svg
    assert 'data-series="collective"' in svg
    assert "epsilon" in svg  # axis label text


def test_render_plot_orders_series_correctly(tmp_path):
    # collective strictly below individual in loss -> strictly below in the
    # plot, which in SVG coordinates means a strictly larger y value.
    report = SweepReport(
        (_row(0.25, 1.0, 1.0, 0.9), _row(0.5, 1.0, 0.8, 0.6), _row(1.0, 1.0, 0.5, 0.2))
    )
    path = tmp_path / "plot.svg"
    render_plot_svg(report, path)
    svg = path.read_text()
    ind = _series_points(svg, "individual")
    col = _series_points(svg, "collective")
    assert len(ind) == len(col) == 3
    for (xi, yi), (xc, yc) in zip(ind, col):
        assert xi == xc
        assert yc > yi


def test_render_plot_single_row(tmp_path):
    report = SweepReport((_row(0.3, 1.0, 0.9, 0.8),))
    path = tmp_path / "plot.svg"
    render_plot_svg(report, path)
    svg = path.read_text()
    assert "<polyline" not in svg
    assert svg.count("<circle") == 2


def _coordinates(svg: str):
    numbers = re.findall(r'\s(?:x|y|x1|y1|x2|y2|cx|cy|points)="([^"]+)"', svg)
    return [float(v) for text in numbers for pair in text.split() for v in pair.split(",")]


@pytest.mark.parametrize("eps", [0.3, 2.0**52 + 2, 1e17])
def test_render_plot_single_budget_is_centred(tmp_path, eps):
    # A single budget is widened by 0.5 each way, or by one unit in the last
    # place where rounding would absorb the 0.5 and leave an empty range.
    path = tmp_path / "plot.svg"
    render_plot_svg(SweepReport((_row(eps, 1.0, 1.0, 1.0),)), path)
    svg = path.read_text()
    assert re.findall(r'cx="([^"]+)"', svg) == ["345.000", "345.000"]
    assert all(np.isfinite(_coordinates(svg)))


def test_render_plot_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        render_plot_svg(SweepReport(()), tmp_path / "x.svg")


def test_render_plot_deterministic(tmp_path):
    report = SweepReport((_row(0.0, 1.0, 1.0, 1.0), _row(0.4, 1.0, 0.7, 0.6)))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_plot_svg(report, a)
    render_plot_svg(report, b)
    assert a.read_bytes() == b.read_bytes()
