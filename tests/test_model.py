import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from collective_recourse import model
from collective_recourse.dataset import LabeledBatch, SyntheticSpec, _write_matrix, synth_blobs
from collective_recourse.model import (
    GRAD_NORM_FLOOR,
    Centroids,
    distances,
    fit,
    grad_centroids,
    grad_input,
    nll_from_distances,
    nll_loss,
    predict,
    predict_proba,
    refit_with_perturbation,
    training_accuracy,
)
from collective_recourse.recourse import (
    EpsilonBudget,
    QuerySpec,
    collective_recourse,
    individual_recourse,
)

TWO = Centroids(np.array([[1.0, 0.0], [-1.0, 0.0]]))

# hand-evaluated softmax values for the two-centroid line geometry
P_NEAR = 0.7310585786300049  # 1 / (1 + e^-1)
L_NEAR = 0.3132616875182228  # -log of the above
L_GAP2 = 0.1269280110429725  # log(1 + e^-2)


def _random_batch(rng, n_per_class, k, d):
    feats = rng.standard_normal((n_per_class * k, d))
    labels = np.repeat(np.arange(k), n_per_class)
    return LabeledBatch(feats, labels, k)


def test_fit_one_point_per_class():
    batch = LabeledBatch(np.array([[3.0, 1.0], [0.0, -2.0]]), np.array([0, 1]), 2)
    assert np.array_equal(fit(batch).mu, batch.features)


def test_fit_is_class_mean():
    batch = LabeledBatch(
        np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0]]), np.array([0, 0, 1]), 2
    )
    assert np.array_equal(fit(batch).mu[0], np.array([1.0, 1.0]))
    assert np.array_equal(fit(batch).mu[1], np.array([5.0, 5.0]))


def test_centroids_validation():
    with pytest.raises(ValueError):
        Centroids(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        Centroids(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Centroids(np.zeros(3))


def test_predict_proba_symmetry():
    assert np.allclose(predict_proba(np.array([0.0, 0.0]), TWO), [0.5, 0.5], atol=1e-15)


def test_predict_proba_equidistant_three():
    # equilateral triangle: its centroid is equidistant from all vertices
    tri = Centroids(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3)]]))
    center = np.array([1.0, math.sqrt(3) / 3])
    assert np.allclose(predict_proba(center, tri), np.full(3, 1 / 3), atol=1e-12)


def test_predict_proba_hand_value():
    probs = predict_proba(np.array([0.5, 0.0]), TWO)
    assert abs(probs[0] - P_NEAR) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-12


def test_predict_proba_sums_to_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mu = Centroids(rng.standard_normal((4, 3)))
        p = predict_proba(rng.standard_normal(3) * 5, mu)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all((p >= 0) & (p <= 1))


def test_predict_matches_nearest_centroid():
    rng = np.random.default_rng(2)
    for _ in range(50):
        mu = Centroids(rng.standard_normal((5, 3)))
        x = rng.standard_normal(3)
        d = np.linalg.norm(x - mu.mu, axis=1)
        if abs(np.sort(d)[0] - np.sort(d)[1]) < 1e-9:
            continue
        assert predict(x, mu) == int(np.argmin(d))


def test_predict_examples():
    tri = Centroids(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]))
    assert predict(np.array([1.0, 2.0]), tri) == 2
    assert predict(np.array([0.0, 0.0]), TWO) == 0  # exact tie -> lowest index
    assert predict(np.array([-0.5, 0.0]), TWO) == 1


def test_nll_loss_uniform_point():
    assert abs(nll_loss(np.array([0.0, 0.0]), 0, TWO) - math.log(2)) < 1e-12
    tri = Centroids(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3)]]))
    center = np.array([1.0, math.sqrt(3) / 3])
    for target in range(3):
        assert abs(nll_loss(center, target, tri) - math.log(3)) < 1e-12


def test_nll_loss_hand_values():
    assert abs(nll_loss(np.array([0.5, 0.0]), 0, TWO) - L_NEAR) < 1e-12
    gap2 = Centroids(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert abs(nll_loss(np.array([0.0, 0.0]), 0, gap2) - L_GAP2) < 1e-12


def test_nll_loss_finite_when_probability_underflows():
    far = Centroids(np.array([[0.0, 0.0], [1e4, 0.0]]))
    loss = nll_loss(np.array([1e4, 0.0]), 0, far)
    assert math.isfinite(loss)
    assert loss > 9000


def test_nll_loss_validation():
    with pytest.raises(ValueError):
        nll_loss(np.zeros(3), 0, TWO)
    with pytest.raises(ValueError):
        nll_loss(np.zeros(2), 2, TWO)
    with pytest.raises(ValueError, match=r"^target class must be an integer, got 1\.7$"):
        nll_loss(np.zeros(2), 1.7, TWO)
    with pytest.raises(ValueError, match="target class must be an integer"):
        grad_input(np.zeros(2), 1.0, TWO)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: nll_loss(x, 0, TWO),
        lambda x: predict(x, TWO),
        lambda x: predict_proba(x, TWO),
        lambda x: grad_input(x, 0, TWO),
        lambda x: grad_centroids(x, 0, TWO),
    ],
    ids=["nll_loss", "predict", "predict_proba", "grad_input", "grad_centroids"],
)
def test_non_finite_point_is_rejected(call, bad):
    with pytest.raises(ValueError, match="^point contains non-finite values$"):
        call(np.array([bad, 0.0]))


@pytest.mark.parametrize(
    "call",
    [
        lambda x, theta: nll_loss(x, 0, theta),
        lambda x, theta: predict(x, theta),
        lambda x, theta: predict_proba(x, theta),
        lambda x, theta: grad_input(x, 0, theta),
        lambda x, theta: grad_centroids(x, 0, theta),
        lambda x, theta: individual_recourse(QuerySpec(x, 0), theta, EpsilonBudget(1.0)),
        lambda x, theta: collective_recourse(
            LabeledBatch(theta.mu, np.arange(theta.num_classes), theta.num_classes),
            QuerySpec(x, 0),
            EpsilonBudget(1.0),
        ),
    ],
    ids=[
        "nll_loss", "predict", "predict_proba", "grad_input", "grad_centroids",
        "individual_recourse", "collective_recourse",
    ],
)
def test_point_whose_squared_distances_overflow_is_rejected(call):
    # Per model, both points are finite; only the second one's squared
    # distances pass the float range, where the loss would be NaN. With the
    # far third centroid only that centroid's square overflows (2.25e308),
    # the near ones' stay finite (2.5e307), and the point is still rejected.
    far = Centroids(np.array([[1.0, 0.0], [-1.0, 0.0], [-1e154, 0.0]]))
    cases = [(TWO, [1e153, 0.0], [1e160, 0.0]), (far, [0.0, 0.0], [5e153, 0.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta, finite, overflowing in cases:
            call(np.array(finite), theta)
            with pytest.raises(
                ValueError, match="^point lies so far from the centroids that its squared distances overflow$"
            ):
                call(np.array(overflowing), theta)


def test_grad_input_hand_value():
    g = grad_input(np.array([0.0, 0.0]), 0, TWO)
    assert np.allclose(g, [-1.0, 0.0], atol=1e-15)


def test_grad_centroids_hand_value():
    gc = grad_centroids(np.array([0.0, 0.0]), 0, TWO)
    assert np.allclose(gc, [[0.5, 0.0], [0.5, 0.0]], atol=1e-15)


def test_grad_identity_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        mu = Centroids(rng.standard_normal((4, 5)))
        x = rng.standard_normal(5)
        total = grad_input(x, 1, mu) + grad_centroids(x, 1, mu).sum(axis=0)
        assert np.all(total == 0.0)  # exact by construction, not just close


def test_grad_saturated_softmax():
    mu = Centroids(np.array([[0.0, 0.0], [50.0, 0.0]]))
    x = np.array([0.1, 0.0])
    assert np.linalg.norm(grad_input(x, 0, mu)) < 1e-12
    assert np.linalg.norm(grad_centroids(x, 0, mu)) < 1e-12


def test_grad_bounded_at_centroid():
    g = grad_input(np.array([1.0, 0.0]), 0, TWO)
    assert np.all(np.isfinite(g))
    gc = grad_centroids(np.array([1.0, 0.0]), 1, TWO)
    assert np.all(np.isfinite(gc))


@st.composite
def _kernel_points(draw):
    k, d = draw(st.integers(2, 6)), draw(st.integers(1, 12))
    reals = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    mu = draw(arrays(float, (k, d), elements=reals))
    # Half the points sit on a centroid or within GRAD_NORM_FLOOR of one,
    # where the floor applies; the others are anywhere, where it is skipped.
    on = draw(st.one_of(st.none(), st.integers(0, k - 1)))
    if on is None:
        return draw(arrays(float, d, elements=reals)), draw(st.integers(0, k - 1)), Centroids(mu)
    if draw(st.booleans()):
        # A first coordinate of at most 1 in size moves by an offset of
        # 1e-14..1e-13 with a rounding error below 2.3e-16: a distance
        # strictly between 0 and the floor.
        mu[on, 0] = draw(st.floats(-1.0, 1.0))
        x = mu[on].copy()
        x[0] += draw(st.floats(1e-14, 1e-13))
        assert 0.0 < np.linalg.norm(x - mu[on]) < GRAD_NORM_FLOOR
    else:
        x = mu[on].copy()
    return x, draw(st.integers(0, k - 1)), Centroids(mu)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_kernel_points())
def test_fused_loss_and_grad_equals_public_pair_bitwise(point):
    x, target, theta = point
    loss, grad, *_ = model._evaluate(x, theta.mu, target)
    # References outside the single-point kernel: the batch loss form and the
    # negated column sum of the centroid gradient.
    reference = nll_from_distances(distances(x[None], theta), target)[0]
    assert np.float64(loss).tobytes() == np.float64(reference).tobytes()
    assert np.float64(loss).tobytes() == np.float64(nll_loss(x, target, theta)).tobytes()
    assert grad.tobytes() == (-grad_centroids(x, target, theta).sum(axis=0)).tobytes()
    assert grad.tobytes() == grad_input(x, target, theta).tobytes()
    d = np.linalg.norm(x - theta.mu, axis=1)
    weights = np.exp(np.min(d) - d)
    p = weights / weights.sum()
    assert predict_proba(x, theta).tobytes() == p.tobytes()
    # The gradient written out here, with the floor always applied: unit
    # offsets weighted by p - onehot, negated column sum for the input.
    units = (x - theta.mu) / np.maximum(d, 1e-12)[:, None]
    rows = (p - np.eye(theta.num_classes)[target])[:, None] * units
    assert grad_centroids(x, target, theta).tobytes() == rows.tobytes()
    assert grad.tobytes() == (-rows.sum(axis=0)).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_kernel_points())
def test_kernel_probabilities_and_distances_do_not_depend_on_the_class(point):
    # predict_proba reads the probabilities of the kernel for class 0.
    x, _, theta = point
    answers = [model._evaluate(x, theta.mu, target) for target in range(theta.num_classes)]
    for _, _, probs, dists, _ in answers:
        assert probs.tobytes() == answers[0][2].tobytes()
        assert dists.tobytes() == answers[0][3].tobytes()
    assert predict_proba(x, theta).tobytes() == answers[0][2].tobytes()


def test_answered_checks_the_shape_then_the_class_then_the_point():
    # The kernel indexes by the class, so the class is checked before the
    # point's values are; the shape comes first of all.
    for target in (0, 2, 1.0):
        with pytest.raises(ValueError, match=r"^expected a vector of dimension 2, got shape \(3,\)$"):
            model._answered(np.array([np.nan, 0.0, 0.0]), target, TWO)
    with pytest.raises(ValueError, match=r"^goal class 2 outside \[0, 1\]$"):
        model._answered(np.array([np.nan, 0.0]), 2, TWO, "goal class")
    with pytest.raises(ValueError, match=r"^target class must be an integer, got inf$"):
        model._answered(np.array([np.inf, 0.0]), math.inf, TWO)
    with pytest.raises(ValueError, match="^point contains non-finite values$"):
        model._answered(np.array([np.inf, 0.0]), 1, TWO)


def test_grad_input_matches_finite_differences():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(20):
        mu = Centroids(rng.standard_normal((3, 4)) * 2)
        x = rng.standard_normal(4) * 2
        if np.min(np.linalg.norm(x - mu.mu, axis=1)) < 0.1:
            continue
        g = grad_input(x, 0, mu)
        fd = np.empty(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[j] = (nll_loss(x + e, 0, mu) - nll_loss(x - e, 0, mu)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(np.linalg.norm(g), 1e-8)


def test_grad_centroids_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(10):
        mu = rng.standard_normal((3, 2)) * 2
        x = rng.standard_normal(2) * 2
        if np.min(np.linalg.norm(x - mu, axis=1)) < 0.1:
            continue
        gc = grad_centroids(x, 1, Centroids(mu))
        fd = np.empty_like(gc)
        for y in range(3):
            for j in range(2):
                bumped = mu.copy()
                bumped[y, j] += h
                up = nll_loss(x, 1, Centroids(bumped))
                bumped[y, j] -= 2 * h
                down = nll_loss(x, 1, Centroids(bumped))
                fd[y, j] = (up - down) / (2 * h)
        assert np.linalg.norm(fd - gc) <= 1e-5 * max(np.linalg.norm(gc), 1e-8)


def test_refit_zero_delta_is_identity(iris_batch):
    base = fit(iris_batch)
    refit = refit_with_perturbation(iris_batch, np.zeros_like(iris_batch.features))
    assert np.array_equal(base.mu, refit.mu)


def test_refit_uniform_class_shift():
    rng = np.random.default_rng(6)
    batch = _random_batch(rng, 5, 3, 4)
    v = np.array([0.5, -1.0, 2.0, 0.25])
    delta = np.zeros_like(batch.features)
    delta[batch.labels == 1] = v
    base = fit(batch).mu
    shifted = refit_with_perturbation(batch, delta).mu
    assert np.allclose(shifted[1], base[1] + v, atol=1e-12)
    assert np.array_equal(shifted[0], base[0])
    assert np.array_equal(shifted[2], base[2])


def test_refit_equals_direct_fit():
    rng = np.random.default_rng(7)
    for _ in range(25):
        batch = _random_batch(rng, int(rng.integers(1, 6)), 3, 3)
        delta = rng.standard_normal(batch.features.shape)
        refit = refit_with_perturbation(batch, delta)
        direct = fit(LabeledBatch(batch.features + delta, batch.labels, 3))
        assert np.max(np.abs(refit.mu - direct.mu)) <= 1e-12


def test_refit_shape_mismatch():
    rng = np.random.default_rng(8)
    batch = _random_batch(rng, 3, 2, 2)
    with pytest.raises(ValueError, match="shape"):
        refit_with_perturbation(batch, np.zeros((2, 2)))


def test_translation_equivariance():
    rng = np.random.default_rng(9)
    batch = _random_batch(rng, 4, 3, 3)
    v = np.array([10.0, -3.0, 0.5])
    moved = LabeledBatch(batch.features + v, batch.labels, 3)
    assert np.allclose(fit(moved).mu, fit(batch).mu + v, atol=1e-12)
    x = rng.standard_normal(3)
    theta = fit(batch)
    shifted_theta = Centroids(theta.mu + v)
    assert abs(nll_loss(x + v, 1, shifted_theta) - nll_loss(x, 1, theta)) < 1e-12


def test_iris_training_accuracy(iris_batch):
    acc = training_accuracy(iris_batch, fit(iris_batch))
    assert acc == 139 / 150


def test_distances_matrix(iris_batch):
    theta = fit(iris_batch)
    d = distances(iris_batch.features, theta)
    assert d.shape == (150, 3)
    assert np.all(d >= 0)
    one = np.linalg.norm(iris_batch.features[7] - theta.mu[2])
    assert abs(d[7, 2] - one) < 1e-12
    points = np.array([[-1.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
    assert np.array_equal(distances(points, TWO), [[2.0, 0.0], [1.0, 1.0], [0.5, 1.5]])


def test_distances_equal_the_broadcast_formula_without_its_memory():
    rng = np.random.default_rng(14)
    for n, k, d in [(1, 2, 1), (37, 3, 5), (200, 10, 64), (50, 4, 130)]:
        points, theta = rng.standard_normal((n, d)), Centroids(rng.standard_normal((k, d)))
        for layout in (points, np.asfortranarray(points), points[::-1, ::2]):
            diffs = layout[:, None, :] - theta.mu[None, :, : layout.shape[1]]
            reference = np.sqrt(np.sum(diffs * diffs, axis=2))
            trimmed = Centroids(theta.mu[:, : layout.shape[1]])
            assert distances(layout, trimmed).tobytes() == reference.tobytes()
    # The n x k x d difference tensor alone would take 10 times the points' bytes.
    points, theta = rng.standard_normal((4000, 64)), Centroids(rng.standard_normal((10, 64)))
    tracemalloc.start()
    try:
        distances(points, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * points.nbytes


def test_distances_hold_one_block_of_rows_whatever_the_row_count():
    rng = np.random.default_rng(15)
    block = model._BLOCK_ROWS
    for n in (block - 1, block, block + 1, 3 * block + 37):
        points, theta = rng.standard_normal((n, 16)), Centroids(rng.standard_normal((4, 16)))
        for layout in (points, np.asfortranarray(points), points[::-1, ::2]):
            diffs = layout[:, None, :] - theta.mu[None, :, : layout.shape[1]]
            reference = np.sqrt(np.sum(diffs * diffs, axis=2))
            trimmed = Centroids(theta.mu[:, : layout.shape[1]])
            assert distances(layout, trimmed).tobytes() == reference.tobytes()
    # Beyond the n x k result: one block of differences, here a tenth of the
    # points, and numpy's own buffers, such as the one for a strided output.
    points, theta = rng.standard_normal((10 * block, 64)), Centroids(rng.standard_normal((10, 64)))
    tracemalloc.start()
    try:
        out = distances(points, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * block * 64 * 8


def test_training_accuracy_holds_no_copy_of_the_batch():
    centers = np.random.default_rng(16).standard_normal((10, 64))
    batch = synth_blobs(SyntheticSpec(centers, 1000, 1.0, seed=16))
    theta = fit(batch)
    tracemalloc.start()
    try:
        training_accuracy(batch, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The n x k distances (a sixth of the features here) and one block.
    assert peak < 0.4 * batch.features.nbytes


def test_centroids_csv_round_trip(tmp_path, iris_batch):
    # fit --out writes the centroids so; numpy's reader parses them back bit for bit.
    theta = fit(iris_batch)
    path = tmp_path / "centroids.csv"
    _write_matrix(path, (theta.mu,))
    assert np.loadtxt(path, delimiter=",").tobytes() == theta.mu.tobytes()
