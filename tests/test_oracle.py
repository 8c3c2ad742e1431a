import numpy as np
import pytest

from collective_recourse.model import fit, nll_loss, grad_input
from collective_recourse.oracle import (
    GridSpec,
    ball_grid,
    finite_diff_grad,
    grid_collective,
    grid_collective_product,
    grid_individual,
    lipschitz_slack,
)
from collective_recourse.recourse import QuerySpec

L_COLLINEAR = 0.9130152523999526


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0)
    with pytest.raises(ValueError):
        GridSpec(-0.1)
    with pytest.raises(TypeError, match="dims"):
        GridSpec(0.01, dims=3)


def test_finite_diff_known_gradient():
    fd = finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]), 1e-6)
    assert np.allclose(fd, [2.0, 4.0], atol=1e-6)


def test_finite_diff_constant():
    fd = finite_diff_grad(lambda v: 3.25, np.array([0.3, -0.7, 1.1]), 1e-6)
    assert np.array_equal(fd, np.zeros(3))


def test_finite_diff_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        finite_diff_grad(lambda v: float("nan"), np.zeros(2), 1e-6)


def test_finite_diff_matches_analytic_loss_gradient(collinear_pair):
    batch, _ = collinear_pair
    theta = fit(batch)
    x = np.array([0.37, -0.21])
    fd = finite_diff_grad(lambda v: nll_loss(v, 0, theta), x, 1e-6)
    g = grad_input(x, 0, theta)
    assert np.linalg.norm(fd - g) <= 1e-5 * np.linalg.norm(g)


def test_ball_grid_zero_epsilon():
    assert np.array_equal(ball_grid(0.0, 0.01), np.zeros((1, 2)))


def test_ball_grid_candidates_feasible_and_cover_boundary():
    grid = ball_grid(0.3, 0.01)
    norms = np.linalg.norm(grid, axis=1)
    assert np.all(norms <= 0.3 + 1e-12)
    assert np.isclose(norms.max(), 0.3, atol=1e-12)  # boundary ring present
    assert np.any(np.all(grid == 0.0, axis=1))  # origin present
    # fixed candidate order: repeated construction is identical
    assert np.array_equal(grid, ball_grid(0.3, 0.01))


def test_lipschitz_slack_formula():
    assert lipschitz_slack(3, 0.01) == pytest.approx(3 * 0.01 * np.sqrt(2))


def test_grid_individual_zero_epsilon(collinear_pair):
    batch, query = collinear_pair
    theta = fit(batch)
    delta, loss = grid_individual(query, theta, 0.0, GridSpec(0.01))
    assert np.array_equal(delta, np.zeros(2))
    assert loss == nll_loss(query.features, 0, theta)


def test_grid_individual_collinear(collinear_pair):
    batch, query = collinear_pair
    delta, loss = grid_individual(query, fit(batch), 0.3, GridSpec(0.01))
    assert abs(loss - L_COLLINEAR) < lipschitz_slack(2, 0.01)
    assert np.allclose(delta, [0.3, 0.0], atol=0.02)


def test_grid_individual_guard():
    from collective_recourse.model import Centroids

    theta = Centroids(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="2-D"):
        grid_individual(QuerySpec(np.zeros(3), 0), theta, 0.1, GridSpec(0.05))


def test_grid_collective_zero_epsilon(collinear_pair):
    batch, query = collinear_pair
    shifts, loss = grid_collective(batch, query, 0.0, GridSpec(0.01))
    assert np.array_equal(shifts, np.zeros((2, 2)))
    assert loss == nll_loss(query.features, 0, fit(batch))


def test_grid_collective_collinear(collinear_pair):
    batch, query = collinear_pair
    shifts, loss = grid_collective(batch, query, 0.3, GridSpec(0.01))
    assert abs(loss - L_COLLINEAR) < lipschitz_slack(2, 0.01)
    # goal centroid moves toward the query, the other away: both along -x
    assert np.allclose(shifts, [[-0.3, 0.0], [-0.3, 0.0]], atol=0.02)


def test_grid_collective_beats_individual_on_three_blobs(three_blob_pair):
    batch, query = three_blob_pair
    _, li = grid_individual(query, fit(batch), 0.3, GridSpec(0.01))
    _, lc = grid_collective(batch, query, 0.3, GridSpec(0.01))
    assert lc < li


def test_grid_collective_matches_product_enumeration(three_blob_pair):
    batch, query = three_blob_pair
    spec = GridSpec(0.15)
    _, fast = grid_collective(batch, query, 0.3, spec)
    _, slow = grid_collective_product(batch, query, 0.3, spec)
    assert fast == slow


def test_grid_collective_matches_product_on_random_instances():
    from collective_recourse.dataset import SyntheticSpec, synth_blobs

    rng = np.random.default_rng(13)
    for _ in range(3):
        centers = rng.uniform(-2, 2, size=(2, 2))
        batch = synth_blobs(SyntheticSpec(centers, 3, 0.2, seed=int(rng.integers(100))))
        query = QuerySpec(rng.uniform(-1, 1, size=2), 0)
        spec = GridSpec(0.2)
        _, fast = grid_collective(batch, query, 0.5, spec)
        _, slow = grid_collective_product(batch, query, 0.5, spec)
        assert fast == slow


def test_oracle_monotone_in_epsilon(three_blob_pair):
    batch, query = three_blob_pair
    theta = fit(batch)
    spec = GridSpec(0.01)
    tol = lipschitz_slack(3, 0.01)
    prev_i = prev_c = np.inf
    for eps in (0.1, 0.2, 0.3, 0.4):
        _, li = grid_individual(query, theta, eps, spec)
        _, lc = grid_collective(batch, query, eps, spec)
        assert li <= prev_i + tol
        assert lc <= prev_c + tol
        prev_i, prev_c = li, lc


@pytest.mark.parametrize("solver", [grid_collective, grid_collective_product])
@pytest.mark.parametrize(
    "features, labels, why",
    [
        (np.eye(3), [0, 1, 2], "grid search requires 2-D features, got d=3"),
        (
            np.arange(8.0).reshape(4, 2),
            [0, 1, 2, 3],
            "grid search requires k <= 3 classes, got k=4",
        ),
    ],
    ids=["d3", "k4"],
)
def test_grid_collective_oracles_reject_what_they_cannot_search(solver, features, labels, why):
    from collective_recourse.dataset import LabeledBatch

    batch = LabeledBatch(features, np.array(labels), len(labels))
    query = QuerySpec(np.zeros(batch.dim), 0)
    with pytest.raises(ValueError, match=f"^{why}$"):
        solver(batch, query, 0.1, GridSpec(0.05))


def test_grid_collective_guard_many_classes():
    from collective_recourse.dataset import LabeledBatch

    batch = LabeledBatch(np.arange(8, dtype=float).reshape(4, 2), np.arange(4), 4)
    with pytest.raises(ValueError, match="k <= 3"):
        grid_collective(batch, QuerySpec(np.zeros(2), 0), 0.1, GridSpec(0.05))
