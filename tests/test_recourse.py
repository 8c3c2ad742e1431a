import itertools
import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective_recourse import model, recourse
from collective_recourse.dataset import (
    LabeledBatch,
    SyntheticSpec,
    load_csv,
    load_embeddings,
    synth_blobs,
)
from collective_recourse.harness import describe_query, make_query, sweep_epsilon
from collective_recourse.model import (
    Centroids,
    distances,
    fit,
    grad_input,
    nll_from_distances,
    nll_loss,
    predict,
    refit_with_perturbation,
)
from collective_recourse.oracle import (
    GridSpec,
    ball_grid,
    grid_collective,
    grid_individual,
    lipschitz_slack,
)
from collective_recourse.recourse import (
    EpsilonBudget,
    PerturbationMatrix,
    QuerySpec,
    SolverConfig,
    _project,
    collective_recourse,
    individual_recourse,
)

L_COLLINEAR = 0.9130152523999526  # log(1 + e^0.4), the symmetric-instance optimum


def test_query_spec_validation():
    with pytest.raises(ValueError):
        QuerySpec(np.array([np.inf, 0.0]), 0)
    with pytest.raises(ValueError):
        QuerySpec(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        QuerySpec(np.zeros(2), -1)
    with pytest.raises(ValueError, match=r"^goal class must be an integer, got 1\.9$"):
        QuerySpec(np.zeros(2), 1.9)
    assert QuerySpec(np.zeros(2), np.int64(1)).goal_class == 1


def test_budget_validation():
    assert EpsilonBudget(0.0).epsilon == 0.0
    with pytest.raises(ValueError):
        EpsilonBudget(-0.1)
    with pytest.raises(TypeError, match="norm_order"):
        EpsilonBudget(1.0, norm_order=1)


def test_perturbation_matrix_rejects_bad_parts():
    moves, labels, mask = np.eye(2), np.array([0, 1, 1]), np.array([True, False, True])
    PerturbationMatrix(moves, labels, mask)
    with pytest.raises(ValueError, match=r"^moves must be 2-D, got shape \(2,\)$"):
        PerturbationMatrix(np.ones(2), labels, mask)
    with pytest.raises(ValueError, match="^moves contain non-finite values$"):
        PerturbationMatrix([[1.0, np.nan], [0.0, 0.0]], labels, mask)
    for bad in (labels.astype(float), labels[None], [0, 2, 1], [0, -1, 1]):
        with pytest.raises(ValueError, match=r"^labels must be a vector of class indices in \[0, 1\]$"):
            PerturbationMatrix(moves, np.array(bad), mask)
    with pytest.raises(ValueError, match=r"^mask shape \(2,\) does not match 3 rows$"):
        PerturbationMatrix(moves, labels, mask[:2])


def test_perturbation_matrix_rows_are_class_moves_built_on_access():
    moves = np.array([[-0.0, 1.5], [2.0, -3.0], [0.25, 0.0]])
    labels = np.array([2, 0, 1, 1, 0])
    mask = np.array([True, True, False, True, False])
    pm = PerturbationMatrix(moves, labels, mask)
    delta = pm.delta
    # Row by row: the class's move where the row takes part, +0.0 elsewhere.
    expected = np.zeros((5, 2))
    for i, (y, taking_part) in enumerate(zip(labels, mask)):
        if taking_part:
            expected[i] = moves[y]
    assert delta.tobytes() == expected.tobytes()
    assert not delta.flags.writeable
    assert pm.delta is not delta
    assert not pm.moves.flags.writeable and not pm.participation_mask.flags.writeable


def test_row_norms_equal_numpy_norm_of_delta():
    # At d = 64 a Fortran-order row sums in another order than a C-order one.
    rng = np.random.default_rng(0)
    moves = rng.standard_normal((7, 64)) * 10.0 ** rng.integers(-150, 150, (7, 64))
    labels = rng.integers(0, 7, 2 * model._BLOCK_ROWS + 1)
    mask = rng.random(len(labels)) < 0.7
    for layout in (moves, np.asfortranarray(moves), moves[::-1, ::2]):
        pm = PerturbationMatrix(layout, labels, mask)
        assert pm.row_norms().tobytes() == np.linalg.norm(pm.delta, axis=1).tobytes()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(steps=0)
    with pytest.raises(ValueError):
        SolverConfig(projection_mode="cube")
    assert [f.name for f in fields(SolverConfig)] == ["steps", "projection_mode"]


@pytest.mark.parametrize("init", ["zero", "random"])
def test_solver_config_rejects_infinite_step_and_negative_seed(init):
    # No step size, start or seed can be set at all: the solver picks its
    # own step lengths and derives its starts from its inputs.
    for step_size in (math.inf, 0.5):
        with pytest.raises(TypeError, match="step_size"):
            SolverConfig(step_size=step_size)
    with pytest.raises(TypeError, match="init"):
        SolverConfig(init=init)
    with pytest.raises(TypeError, match="seed"):
        SolverConfig(seed=-1)


def test_solver_config_rejects_non_integral_steps_and_seed():
    with pytest.raises(ValueError, match=r"^steps must be an integer, got 2\.5$"):
        SolverConfig(steps=2.5)
    with pytest.raises(TypeError, match="seed"):
        SolverConfig(seed=1.5)
    assert type(SolverConfig(steps=np.int64(3)).steps) is int


def test_out_of_range_goal_class_is_rejected_by_both_solvers(collinear_pair):
    batch, _ = collinear_pair
    query = QuerySpec(np.zeros(2), 2)
    with pytest.raises(ValueError, match=r"^goal class 2 outside \[0, 1\]$"):
        individual_recourse(query, fit(batch), EpsilonBudget(0.1))
    with pytest.raises(ValueError, match=r"^goal class 2 outside \[0, 1\]$"):
        collective_recourse(batch, query, EpsilonBudget(0.1))


def test_project_ball():
    assert np.array_equal(_project(np.array([0.1, 0.0]), 1.0, "ball"), [0.1, 0.0])
    assert np.allclose(_project(np.array([3.0, 4.0]), 1.0, "ball"), [0.6, 0.8], atol=1e-15)
    assert np.array_equal(_project(np.zeros(2), 0.7, "ball"), [0.0, 0.0])
    # A feasible vector comes back as the very same object, and only such a
    # one: _individual reads from this whether the budget reaches the goal
    # centroid. A vector on the boundary is feasible.
    for inside in (np.array([0.1, 0.0]), np.array([0.6, 0.8]), np.zeros(2)):
        assert _project(inside, 1.0, "ball") is inside
    outside = np.array([3.0, 4.0])
    projected = _project(outside, 1.0, "ball")
    assert projected is not outside and not np.shares_memory(projected, outside)
    assert np.array_equal(outside, [3.0, 4.0])


def test_normalize_sphere():
    assert np.allclose(_project(np.array([3.0, 4.0]), 1.0, "sphere"), [0.6, 0.8], atol=1e-15)
    # unlike the ball projection, interior points are pushed out to the sphere
    assert np.allclose(_project(np.array([0.1, 0.0]), 1.0, "sphere"), [1.0, 0.0], atol=1e-15)
    assert np.array_equal(_project(np.zeros(2), 1.0, "sphere"), [0.0, 0.0])
    # Sphere mode never returns its input, not even a vector already on the sphere.
    for v in (np.array([3.0, 4.0]), np.array([0.1, 0.0]), np.array([0.6, 0.8]), np.zeros(2)):
        copy = v.copy()
        projected = _project(v, 1.0, "sphere")
        assert projected is not v and not np.shares_memory(projected, v)
        assert np.array_equal(v, copy)


@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_no_answer_exceeds_its_budget_by_rounding(embeddings_path, mode):
    # Zero slack, by the norms the package reports, on every goal/base pair
    # of embeddings_d10 at five budgets: unclipped, 374 of the 450 collective
    # answers per mode and 61 sphere-mode individual answers read above eps.
    batch = load_embeddings(embeddings_path)
    theta = fit(batch)
    cfg = SolverConfig(projection_mode=mode)
    for goal, base in itertools.permutations(range(batch.num_classes), 2):
        query = make_query(theta, goal, base, 0.25)
        for eps in (0.1, 0.3, 0.7, 1.3, 3.0):
            budget = EpsilonBudget(eps)
            individual = individual_recourse(query, theta, budget, cfg)
            assert np.linalg.norm(individual.perturbation) <= eps, (goal, base, eps)
            collective = collective_recourse(batch, query, budget, cfg)
            assert collective.perturbation.row_norms().max() <= eps, (goal, base, eps)
    # Every row asking for the next class. With a ball rescale by eps / norm
    # alone, 6 of these 2 000 ball-mode answers read above eps, such as row
    # 181 asking for class 5 at eps 0.3 (norm 0.30000000000000004).
    for row, label in enumerate(batch.labels):
        query = QuerySpec(batch.features[row], (label + 1) % batch.num_classes)
        for eps in (0.1, 0.3, 0.7, 1.3, 3.0):
            individual = individual_recourse(query, theta, EpsilonBudget(eps), cfg)
            assert np.linalg.norm(individual.perturbation) <= eps, (row, eps)


_VECTORS = st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=16).map(np.array)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(v=_VECTORS, eps=st.floats(0.0, 1e100))
def test_projections_never_leave_the_budget(v, eps):
    # Rescaled by eps / norm alone, 38 326 of 198 306 seeded normal vectors
    # outside the ball (d 1 to 16) read above eps.
    assert np.linalg.norm(_project(np.array(v, dtype=float), eps, "ball")) <= eps
    assert np.linalg.norm(_project(np.array(v, dtype=float), eps, "sphere")) <= eps


def test_individual_zero_budget(collinear_pair):
    batch, query = collinear_pair
    theta = fit(batch)
    res = individual_recourse(query, theta, EpsilonBudget(0.0))
    assert np.array_equal(res.perturbation, np.zeros(2))
    assert res.achieved_loss == nll_loss(query.features, 0, theta)
    assert res.loss_trace[0] == res.achieved_loss


def test_individual_collinear_optimum(collinear_pair):
    batch, query = collinear_pair
    res = individual_recourse(query, fit(batch), EpsilonBudget(0.3))
    assert np.allclose(res.perturbation, [0.3, 0.0], atol=1e-6)
    assert abs(res.achieved_loss - L_COLLINEAR) < 1e-9
    assert not res.flipped


def test_individual_flip_at_larger_budget(collinear_pair):
    batch, query = collinear_pair
    res = individual_recourse(query, fit(batch), EpsilonBudget(0.6))
    assert res.flipped
    assert predict(query.features + res.perturbation, fit(batch)) == 0


def test_individual_budget_feasible():
    rng = np.random.default_rng(0)
    for _ in range(10):
        theta = fit(
            LabeledBatch(rng.standard_normal((6, 3)), np.repeat(np.arange(3), 2), 3)
        )
        query = QuerySpec(rng.standard_normal(3), int(rng.integers(0, 3)))
        eps = float(rng.uniform(0.05, 1.0))
        res = individual_recourse(query, theta, EpsilonBudget(eps))
        assert np.linalg.norm(res.perturbation) <= eps + 1e-9
        assert res.achieved_loss <= nll_loss(query.features, query.goal_class, theta)


def test_individual_sphere_mode(collinear_pair):
    batch, query = collinear_pair
    res = individual_recourse(
        query, fit(batch), EpsilonBudget(0.3), SolverConfig(projection_mode="sphere")
    )
    norm = np.linalg.norm(res.perturbation)
    assert norm < 1e-9 or abs(norm - 0.3) < 1e-9


def test_individual_deterministic(collinear_pair):
    batch, query = collinear_pair
    theta = fit(batch)
    cfg = SolverConfig(projection_mode="sphere")
    a = individual_recourse(query, theta, EpsilonBudget(0.4), cfg)
    b = individual_recourse(query, theta, EpsilonBudget(0.4), cfg)
    assert np.array_equal(a.perturbation, b.perturbation)
    assert a.achieved_loss == b.achieved_loss
    assert np.array_equal(a.loss_trace, b.loss_trace)


def test_individual_monotone_with_warm_start(collinear_pair):
    batch, query = collinear_pair
    theta = fit(batch)
    prev = None
    prev_loss = math.inf
    for eps in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        cands = () if prev is None else (prev,)
        res = individual_recourse(
            query, theta, EpsilonBudget(eps), extra_candidates=cands
        )
        assert res.achieved_loss <= prev_loss + 1e-9
        prev, prev_loss = res.perturbation, res.achieved_loss


def test_individual_infeasible_candidate_is_projected(collinear_pair):
    batch, query = collinear_pair
    res = individual_recourse(
        query,
        fit(batch),
        EpsilonBudget(0.2),
        extra_candidates=(np.array([5.0, 5.0]),),
    )
    assert np.linalg.norm(res.perturbation) <= 0.2 + 1e-9


@pytest.mark.parametrize(
    "bad",
    [-1.0, [np.nan, 0.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]],
    ids=["scalar", "nan", "wrong-length", "2-d"],
)
def test_individual_rejects_a_malformed_candidate_by_index(collinear_pair, bad):
    # A scalar would broadcast into a move of every feature, past the budget.
    batch, query = collinear_pair
    message = r"^extra candidate 1 is not a finite vector of dimension 2$"
    with pytest.raises(ValueError, match=message):
        individual_recourse(
            query, fit(batch), EpsilonBudget(0.2), extra_candidates=(np.array([0.1, 0.0]), bad)
        )


def test_individual_dimension_errors(collinear_pair):
    batch, _ = collinear_pair
    theta = fit(batch)
    with pytest.raises(ValueError):
        individual_recourse(QuerySpec(np.zeros(3), 0), theta, EpsilonBudget(0.1))
    with pytest.raises(ValueError):
        individual_recourse(QuerySpec(np.zeros(2), 5), theta, EpsilonBudget(0.1))


def _reference_individual(query, theta, budget, cfg, extra_candidates=()):
    """The individual solver written with the public, argument-checking calls:
    one nll_loss and one grad_input evaluation per point."""
    x_q, goal, eps, mode = query.features, query.goal_class, budget.epsilon, cfg.projection_mode

    def project(v, eps):
        return _project(np.array(v, dtype=float), eps, mode)

    trace, points = [], []

    def evaluate(delta):
        trace.append(nll_loss(x_q + delta, goal, theta))
        points.append(delta)
        return trace[-1], grad_input(x_q + delta, goal, theta)

    to_goal = theta.mu[goal] - x_q
    rounds = [[np.zeros_like(x_q)] + [project(c, eps) for c in extra_candidates]]
    rounds[0].append(project(to_goal, eps))
    if mode == "sphere":
        # The second search's starts: +-eps along each column of the reduced
        # QR factor of the centroid offsets.
        q = np.linalg.qr((theta.mu - x_q).T, mode="reduced")[0]
        rounds.append([project(sign * q[:, i], eps) for i in range(q.shape[1]) for sign in (1, -1)])
    for starts in rounds:
        start = None
        for delta in starts:
            loss, grad = evaluate(delta)
            if (mode == "ball" or delta.any()) and (start is None or loss < start[1]):
                start = delta, loss, grad
        if start is None or (mode == "ball" and np.linalg.norm(to_goal) <= eps):
            continue
        delta, loss, grad = start
        lam = min(1e30, eps / max(np.linalg.norm(grad), 1e-12))
        for _ in range(cfg.steps):
            # A full step evaluates the projected point itself.
            full = project(delta - lam * grad, eps)
            direction = full - delta
            length, alpha = np.linalg.norm(direction), 1.0
            accepted = False
            while alpha * length > 2**-26 * eps:
                trial = full if alpha == 1 else project(delta + alpha * direction, eps)
                trial_loss, trial_grad = evaluate(trial)
                if trial_loss <= loss + 1e-4 * grad.dot(trial - delta):
                    accepted = True
                    break
                alpha /= 2
            # The search ends when no step is accepted, or the accepted one
            # does not lower the loss.
            if not accepted or trial_loss >= loss:
                break
            s, y = trial - delta, trial_grad - grad
            lam = min(1e30, max(1e-30, s.dot(s) / s.dot(y))) if s.dot(y) > 0 else 1e30
            delta, loss, grad = trial, trial_loss, trial_grad
    best = int(np.argmin(trace))
    return np.asarray(trace), points[best], predict(x_q + points[best], theta) == goal


def _random_start(start, dim, eps, seed):
    """No candidate for ``start == "zero"``; for ``"random"``, one seeded random
    point on the budget sphere, which a caller may pass as an extra candidate."""
    if start == "zero":
        return ()
    with np.errstate(over="ignore"):  # the norm of a point of norm 1e308 overflows
        return (_project(np.random.default_rng(seed).standard_normal(dim), eps, "sphere"),)


@pytest.fixture
def searches(monkeypatch):
    """A list that gets, for each search the individual solver runs, the list
    of the losses that search evaluates."""
    searches, spg = [], recourse._spg

    def recorded(*args):
        searches.append([])
        for point in spg(*args):
            searches[-1].append(point[0])
            yield point

    monkeypatch.setattr(recourse, "_spg", recorded)
    return searches


def _rounds(trace, starts, searches):
    """``trace`` cut into its rounds, each a pair (starts, search) of bytes.

    ``starts`` holds each round's number of starts and ``searches`` the
    losses of each search run; a round with no search has to be the last.
    """
    rounds, at = [], 0
    for count, search in itertools.zip_longest(starts, searches, fillvalue=()):
        search = np.asarray(search, dtype=float).tobytes()
        end = at + count + len(search) // 8
        assert trace[at + count : end].tobytes() == search
        rounds.append((trace[at : at + count].tobytes(), search))
        at = end
    assert at == len(trace)
    return rounds


@pytest.mark.parametrize("data", ["iris", "embeddings"])
@pytest.mark.parametrize("mode", ["ball", "sphere"])
@pytest.mark.parametrize("start", ["zero", "random"])
def test_individual_matches_per_step_reference_bitwise(iris_batch, embeddings_path, data, mode, start):
    batch = iris_batch if data == "iris" else load_embeddings(embeddings_path)
    theta = fit(batch)
    # Misclassified rows, asking for their own label, plus a row asking for another class.
    rows = np.flatnonzero(distances(batch.features, theta).argmin(axis=1) != batch.labels)[:2]
    queries = [QuerySpec(batch.features[r], batch.labels[r]) for r in rows]
    queries.append(QuerySpec(batch.features[0], (batch.labels[0] + 1) % batch.num_classes))
    for query in queries:
        warm = None
        # Each larger budget is warm-started from the previous answer and from
        # an infeasible candidate, which must be projected; the last budget
        # runs one iteration per search.
        for eps, steps in ((0.3, 500), (1.0, 500), (1.5, 1)):
            budget = EpsilonBudget(eps)
            cfg = SolverConfig(steps=steps, projection_mode=mode)
            cands = _random_start(start, batch.dim, eps, 7)
            cands += () if warm is None else (warm, np.full(batch.dim, 3.0))
            res = individual_recourse(query, theta, budget, cfg, extra_candidates=cands)
            trace, delta, flipped = _reference_individual(query, theta, budget, cfg, cands)
            assert res.loss_trace.tobytes() == trace.tobytes()
            assert res.perturbation.tobytes() == delta.tobytes()
            assert res.flipped == flipped
            warm = res.perturbation


class _PreviousStop(float):
    """The stop threshold 1e-13 * max(1, eps) that the solver used before, as
    a ``_STOP`` whose product with eps gives it."""

    def __mul__(self, eps):
        return float(self) * max(1.0, eps)


def test_individual_stop_rule_saves_evaluations_without_losing_loss(
    embeddings_path, monkeypatch, searches
):
    # A budget-relative step tolerance stops earlier on the same iterates:
    # the starts are the same, one of each two searches is a prefix of the
    # other, and the loss it gives up is rounding.
    batch = load_embeddings(embeddings_path)
    theta = fit(batch)
    frame = 2 * min(theta.dim, theta.num_classes)
    rows = np.flatnonzero(distances(batch.features, theta).argmin(axis=1) != batch.labels)
    cases = [
        (QuerySpec(batch.features[r], batch.labels[r]), eps, SolverConfig(projection_mode=m))
        for r in rows
        for eps in (0.1, 0.3, 1.0)
        for m in ("ball", "sphere")
    ]

    def solve_all():
        solved = []
        for q, e, cfg in cases:
            del searches[:]
            res = individual_recourse(q, theta, EpsilonBudget(e), cfg)
            starts = [2] if cfg.projection_mode == "ball" else [2, frame]
            solved.append((res, _rounds(res.loss_trace, starts, searches)))
        return solved

    shipped = solve_all()
    monkeypatch.setattr(recourse, "_STOP", _PreviousStop(1e-13))
    previous = solve_all()
    for (new, new_rounds), (old, old_rounds) in zip(shipped, previous):
        assert len(new_rounds) == len(old_rounds)
        for (starts, search), (old_starts, old_search) in zip(new_rounds, old_rounds):
            assert starts == old_starts
            short, long = sorted((search, old_search), key=len)
            assert long.startswith(short)
        assert abs(new.achieved_loss - old.achieved_loss) <= 1e-14
        assert new.flipped == old.flipped
    evaluations = [sum(len(r.loss_trace) for r, _ in results) for results in (shipped, previous)]
    assert evaluations[0] < evaluations[1]


@pytest.mark.parametrize("mode", ["ball", "sphere"])
@pytest.mark.parametrize("start", ["zero", "random"])
def test_individual_huge_budget_stays_finite(iris_batch, mode, start):
    # Squared norms overflow past about 1e154, so points that far out
    # evaluate to inf or NaN; they must be passed over, without a warning.
    theta = fit(iris_batch)
    query = make_query(theta, 1, 2, 0.25)
    cfg = SolverConfig(projection_mode=mode)
    baseline = nll_loss(query.features, 1, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moderate, huge = (
            individual_recourse(
                query, theta, EpsilonBudget(eps), cfg, _random_start(start, theta.dim, eps, 3)
            )
            for eps in (1e6, 1e308)
        )
    assert math.isfinite(huge.achieved_loss)
    assert huge.achieved_loss <= baseline
    assert np.all(np.isfinite(huge.perturbation))
    for res in (moderate, huge):
        assert res.flipped == (predict(query.features + res.perturbation, theta) == 1)
    if mode == "ball":
        # Both budgets reach the goal centroid, where the loss is lowest.
        assert huge.achieved_loss <= moderate.achieved_loss
        assert huge.flipped
        assert np.array_equal(huge.perturbation, theta.mu[1] - query.features)


@pytest.mark.parametrize("eps", [1e155, 1e200, 1e307])
def test_individual_sphere_mode_beyond_overflow_returns_baseline(iris_batch, eps):
    # Every point of a sphere this large has squared distances that overflow,
    # so no point on it has a finite loss: the answer is delta = 0.
    theta = fit(iris_batch)
    query = make_query(theta, 1, 2, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = individual_recourse(
            query, theta, EpsilonBudget(eps), SolverConfig(projection_mode="sphere")
        )
    assert not res.perturbation.any()
    assert res.achieved_loss == res.loss_trace[0] == nll_loss(query.features, 1, theta)
    assert not res.flipped


@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_individual_answers_where_a_far_centroid_overflows(mode):
    # The query's squared distances are finite, but at the answer the one to
    # the far third centroid overflows. The loss there is still finite (that
    # centroid gets probability 0), so the solver reports its answer.
    mu = np.array([[2e150, 0.0], [-1e150, 0.0], [-1.34065e154, 0.0]])
    query = QuerySpec(np.array([-0.9e150, 0.0]), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = individual_recourse(
            query, Centroids(mu), EpsilonBudget(2.5e150), SolverConfig(projection_mode=mode)
        )
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum((query.features + res.perturbation - mu[2]) ** 2))
    assert res.achieved_loss == 0.0
    assert res.flipped


@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_flipped_matches_public_predict(embeddings_path, mode):
    # Both solvers read flipped without the public argument check; it must
    # agree with predict on every misclassified row.
    batch = load_embeddings(embeddings_path)
    theta = fit(batch)
    rows = np.flatnonzero(distances(batch.features, theta).argmin(axis=1) != batch.labels)
    cfg = SolverConfig(projection_mode=mode)
    flips = []
    for r in rows:
        x_q, goal = batch.features[r], int(batch.labels[r])
        query = QuerySpec(x_q, goal)
        for eps in (0.1, 0.3, 1.0):
            ind = individual_recourse(query, theta, EpsilonBudget(eps), cfg)
            assert ind.flipped == (predict(x_q + ind.perturbation, theta) == goal)
            col = collective_recourse(batch, query, EpsilonBudget(eps), cfg)
            assert col.flipped == (predict(x_q, col.post_centroids) == goal)
            flips += [ind.flipped, col.flipped]
    assert any(flips) and not all(flips)


@pytest.mark.parametrize("mode", ["ball", "sphere"])
@pytest.mark.parametrize("start", ["zero", "random"])
def test_each_point_is_evaluated_once(embeddings_path, count_calls, mode, start):
    # The query is checked and answered from one evaluation, every further
    # trace entry is one evaluation, and flipped reads the winner's. The
    # collective solver evaluates the query once per model, fitted and refit.
    # A sweep answers the query once for all its budgets.
    batch = load_embeddings(embeddings_path)
    theta = fit(batch)
    row = np.flatnonzero(distances(batch.features, theta).argmin(axis=1) != batch.labels)[0]
    query = QuerySpec(batch.features[row], batch.labels[row])
    cfg = SolverConfig(projection_mode=mode)
    warm = individual_recourse(query, theta, EpsilonBudget(0.3), cfg).perturbation
    calls = count_calls("_evaluate")
    for eps, warm_start in ((0.3, ()), (1.0, (warm,))):
        budget, candidates = EpsilonBudget(eps), _random_start(start, theta.dim, eps, 3) + warm_start
        del calls[:]
        res = individual_recourse(query, theta, budget, cfg, extra_candidates=candidates)
        assert len(res.loss_trace) > 2 + len(candidates)
        assert len(calls) == len(res.loss_trace)
        del calls[:]
        collective_recourse(batch, query, budget, cfg)
        assert len(calls) == 2
    del calls[:]
    describe_query(theta, query)
    assert len(calls) == 1
    epsilons, lengths, warm = (0.0, 0.3, 1.0), [], ()
    for eps in epsilons:  # the sweep's individual solves, each warm-started from the last
        res = individual_recourse(query, theta, EpsilonBudget(eps), cfg, extra_candidates=warm)
        lengths.append(len(res.loss_trace))
        warm = (res.perturbation,)
    del calls[:]
    sweep_epsilon(theta, query, epsilons, cfg)
    assert len(calls) == 1 + sum(n - 1 for n in lengths) + len(epsilons)


@pytest.mark.parametrize(
    "data, eps, evaluations",
    [
        ("iris", 1e-160, None),
        ("iris", 1e-20, None),
        ("iris", 3e-16, None),
        ("embeddings", 1e-160, None),
        # Above rounding the losses move: the first round is 2 starts and a
        # search of 26 points.
        ("iris", 1e-15, 28),
    ],
)
def test_sphere_solve_below_rounding_stops_early(
    iris_batch, embeddings_path, count_calls, searches, data, eps, evaluations
):
    # Below rounding every sphere point has the baseline loss, and the Armijo
    # term, of order eps times the gradient, rounds away against it: the
    # first trial passes the test while its step stays about eps long, and
    # since it does not lower the loss each search stops there, not at the
    # step tolerance or the steps cap.
    if data == "iris":
        theta = fit(iris_batch)
        query = make_query(theta, 1, 2, 0.25)
    else:
        theta = fit(load_embeddings(embeddings_path))
        query = QuerySpec(np.zeros(theta.dim), 1)
    baseline = nll_loss(query.features, query.goal_class, theta)
    calls = count_calls("_evaluate")
    res = individual_recourse(
        query, theta, EpsilonBudget(eps), SolverConfig(projection_mode="sphere")
    )
    assert len(calls) == len(res.loss_trace)
    rounds = [2 + len(searches[0]), 2 * min(theta.dim, theta.num_classes) + len(searches[1])]
    assert sum(rounds) == len(calls)
    if evaluations is None:
        assert [len(search) for search in searches] == [1, 1]
        assert res.achieved_loss == baseline and not res.flipped
    else:
        # Then the second round: 6 frame starts and a search of 26 points.
        assert rounds == [evaluations, 6 + 26]
        assert res.achieved_loss < baseline


def test_frame_search_finds_the_sphere_minimum_the_first_search_misses(iris_path, searches):
    # On a circle (d = 2, k = 3) the sphere-mode problem has two local
    # minima. The first search settles in the worse one; the second, from
    # the centroid frame, reaches the circle's minimum and flips the query.
    batch = load_csv(iris_path, "species", ["sepal_length", "sepal_width"])
    theta = fit(batch)
    x_q = np.array([4.9, 2.4])  # a training row of class 1, predicted 0
    assert predict(x_q, theta) == 0
    query, budget = QuerySpec(x_q, 1), EpsilonBudget(2.0)
    angles = np.linspace(0.0, 2.0 * np.pi, 400_001)
    circle = x_q + 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    grid = nll_from_distances(distances(circle, theta), 1).min()
    res = individual_recourse(query, theta, budget, SolverConfig(projection_mode="sphere"))
    assert abs(res.achieved_loss - grid) <= 1e-9 and res.flipped
    first = res.loss_trace[: 2 + len(searches[0])]
    assert first.min() > grid + 0.1


def test_frame_search_is_never_beaten_by_a_random_start(embeddings_path):
    # 2m = 20 frame starts in d = 10 with k = 10. A seeded random point,
    # passed as an extra candidate, never leads to a lower loss.
    batch = load_embeddings(embeddings_path)
    theta = fit(batch)
    rows = np.flatnonzero(distances(batch.features, theta).argmin(axis=1) != batch.labels)
    cfg = SolverConfig(projection_mode="sphere")
    for r in rows:
        query = QuerySpec(batch.features[r], batch.labels[r])
        for eps in (0.1, 1.0, 3.0):
            budget = EpsilonBudget(eps)
            default = individual_recourse(query, theta, budget, cfg).achieved_loss
            seeded = min(
                individual_recourse(
                    query, theta, budget, cfg, (rng.standard_normal(theta.dim) * eps,)
                ).achieved_loss
                for rng in map(np.random.default_rng, range(5))
            )
            assert default <= seeded + 1e-12


@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_individual_query_on_goal_centroid_stays(three_blob_pair, mode):
    # The loss is lowest at the goal centroid, so no budget improves on it.
    batch, _ = three_blob_pair
    theta = fit(batch)
    query = QuerySpec(theta.mu[0], 0)
    res = individual_recourse(query, theta, EpsilonBudget(0.4), SolverConfig(projection_mode=mode))
    assert res.perturbation.tobytes() == np.zeros(2).tobytes()
    assert res.achieved_loss == nll_loss(query.features, 0, theta)


@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_individual_query_on_competitor_centroid(three_blob_pair, mode):
    # The competitor's distance has a kink at the query; the grid oracle
    # bounds the answer all the same.
    batch, _ = three_blob_pair
    theta = fit(batch)
    query = QuerySpec(theta.mu[1], 0)
    spec = GridSpec(0.01)
    res = individual_recourse(query, theta, EpsilonBudget(0.4), SolverConfig(projection_mode=mode))
    norm = np.linalg.norm(res.perturbation)
    assert norm <= 0.4 + 1e-12 and (mode == "ball" or abs(norm - 0.4) <= 1e-12)
    assert res.achieved_loss < nll_loss(query.features, 0, theta)
    oracle = _span_oracle(query, theta, 0.4, mode, spec)
    assert abs(res.achieved_loss - oracle) <= lipschitz_slack(3, spec.resolution)


@pytest.mark.parametrize("eps", [3.0, 4.0])
def test_individual_sphere_search_runs_on_the_sphere(eps):
    # The step toward the goal centroid overshoots it and loses to the
    # baseline, yet another sphere point beats the baseline. The search must
    # start from the sphere, since from delta = 0 every step lands on one point.
    theta = Centroids(np.array([[-0.5, 0.0], [-2.0, 1.0], [1.7, -1.0]]))
    query = QuerySpec(np.array([0.8, 0.0]), 0)
    spec = GridSpec(0.01)
    res = individual_recourse(query, theta, EpsilonBudget(eps), SolverConfig(projection_mode="sphere"))
    assert res.loss_trace[1] > res.loss_trace[0]  # the goal step
    assert abs(np.linalg.norm(res.perturbation) - eps) <= 1e-12
    oracle = _span_oracle(query, theta, eps, "sphere", spec)
    assert oracle < res.loss_trace[0] - 0.1
    assert abs(res.achieved_loss - oracle) <= lipschitz_slack(3, spec.resolution)


@pytest.mark.parametrize("mode", ["ball", "sphere"])
@pytest.mark.parametrize("start", ["zero", "random"])
def test_individual_zero_budget_is_exactly_zero(three_blob_pair, mode, start):
    batch, query = three_blob_pair
    theta = fit(batch)
    cfg = SolverConfig(projection_mode=mode)
    cands = (np.array([-3.0, 1.0]), *_random_start(start, 2, 0.0, 5))
    res = individual_recourse(query, theta, EpsilonBudget(0.0), cfg, extra_candidates=cands)
    # Only the first round's starts: no search moves, and no frame is searched.
    assert len(res.loss_trace) == 2 + len(cands)
    assert res.perturbation.tobytes() == np.zeros(2).tobytes()
    assert res.achieved_loss == nll_loss(query.features, 0, theta)
    assert not res.flipped


@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_individual_steps_cap_the_iterations(iris_batch, mode, searches):
    # From the same starts, one iteration of each search evaluates a prefix
    # of what the full search evaluates.
    theta = fit(iris_batch)
    query = make_query(theta, 1, 2, 0.25)
    starts = [2] if mode == "ball" else [2, 2 * min(theta.dim, theta.num_classes)]
    solved = []
    for steps in (500, 1):
        del searches[:]
        cfg = SolverConfig(steps=steps, projection_mode=mode)
        res = individual_recourse(query, theta, EpsilonBudget(1.0), cfg)
        solved.append((res, _rounds(res.loss_trace, starts, searches)))
    (full, full_rounds), (one, one_rounds) = solved
    assert len(full_rounds) == len(one_rounds) == len(starts)
    for (starts, search), (one_starts, one_search) in zip(full_rounds, one_rounds):
        assert one_starts == starts
        assert 0 < len(one_search) < len(search)
        assert search.startswith(one_search)
    assert one.achieved_loss >= full.achieved_loss


def _span_oracle(query, theta, eps, mode, spec):
    """Grid optimum of a two-class individual problem in any dimension.

    At a KKT point delta lies in the span of the mu_y - x_q, so the problem
    on a plane through that span has the same optimum, and the 2-D grid
    oracle solves it there. The first two columns of a complete QR factor
    span a plane through the offsets, even when they are parallel or zero.
    """
    offsets = theta.mu - query.features
    basis = np.linalg.qr(offsets.T, mode="complete")[0][:, :2]
    plane = Centroids(offsets @ basis)
    assert np.allclose(plane.mu @ basis.T, offsets, atol=1e-12 * np.abs(offsets).max())
    if mode == "ball":
        return grid_individual(QuerySpec(np.zeros(2), query.goal_class), plane, eps, spec)[1]
    grid = ball_grid(eps, spec.resolution)
    sphere = np.vstack([np.zeros((1, 2)), grid[np.linalg.norm(grid, axis=1) >= eps - 1e-12]])
    return float(nll_from_distances(distances(sphere, plane), query.goal_class).min())


@pytest.mark.parametrize("mode", ["ball", "sphere"])
@pytest.mark.parametrize("data", ["iris", "embeddings", "synth"])
def test_individual_matches_span_oracle_in_any_dimension(iris_batch, embeddings_path, data, mode):
    if data == "synth":
        centers = 0.5 * np.random.default_rng(4).standard_normal((2, 64))
        pair = synth_blobs(SyntheticSpec(centers, 20, 1.0, seed=4))
    else:
        # The most confused class pair of each file.
        if data == "iris":
            batch, (a, b) = iris_batch, (1, 2)
        else:
            batch, (a, b) = load_embeddings(embeddings_path), (2, 4)
        keep = (batch.labels == a) | (batch.labels == b)
        pair = LabeledBatch(batch.features[keep], (batch.labels[keep] == b).astype(int), 2)
    theta = fit(pair)
    wrong = np.flatnonzero(distances(pair.features, theta).argmin(axis=1) != pair.labels)[:2]
    queries = [make_query(theta, 0, 1, 0.25), QuerySpec(pair.features[0], 1)]
    queries += [QuerySpec(pair.features[r], pair.labels[r]) for r in wrong]
    spec = GridSpec(0.01)
    slack = lipschitz_slack(2, spec.resolution)
    cfg = SolverConfig(projection_mode=mode)
    for query in queries:
        for eps in (0.3, 1.0, 3.0):
            res = individual_recourse(query, theta, EpsilonBudget(eps), cfg)
            assert abs(res.achieved_loss - _span_oracle(query, theta, eps, mode, spec)) <= slack


def test_collective_zero_budget(collinear_pair):
    batch, query = collinear_pair
    res = collective_recourse(batch, query, EpsilonBudget(0.0))
    # Bytes, not values: a row that does not move is +0.0, never -0.0.
    assert res.perturbation.delta.tobytes() == np.zeros((2, 2)).tobytes()
    assert np.array_equal(res.post_centroids.mu, fit(batch).mu)
    assert res.achieved_loss == nll_loss(query.features, 0, fit(batch))


def test_collective_collinear_matches_individual(collinear_pair):
    batch, query = collinear_pair
    ind = individual_recourse(query, fit(batch), EpsilonBudget(0.3))
    col = collective_recourse(batch, query, EpsilonBudget(0.3))
    assert abs(col.achieved_loss - L_COLLINEAR) < 1e-9
    assert abs(col.achieved_loss - ind.achieved_loss) < 1e-6


def test_collective_beats_individual_on_three_blobs(three_blob_pair):
    batch, query = three_blob_pair
    ind = individual_recourse(query, fit(batch), EpsilonBudget(0.3))
    col = collective_recourse(batch, query, EpsilonBudget(0.3))
    assert col.achieved_loss < ind.achieved_loss


def test_collective_budget_feasible_and_mean_shift():
    batch = synth_blobs(
        SyntheticSpec(np.array([[1.5, 0.0], [-1.5, 0.5], [0.0, 2.0]]), 4, 0.2, seed=5)
    )
    query = QuerySpec(np.array([0.2, 0.3]), 0)
    eps = 0.35
    res = collective_recourse(batch, query, EpsilonBudget(eps))
    assert np.all(res.perturbation.row_norms() <= eps + 1e-9)
    base = fit(batch).mu
    for y in range(batch.num_classes):
        mean_shift = res.perturbation.delta[batch.labels == y].mean(axis=0)
        assert np.allclose(res.post_centroids.mu[y] - base[y], mean_shift, atol=1e-12)


@pytest.mark.parametrize("mask", ["all", "two-thirds"])
def test_collective_recourse_builds_no_rows(mask):
    centers = np.random.default_rng(22).standard_normal((10, 64))
    batch = synth_blobs(SyntheticSpec(centers, 400, 1.0, seed=22))
    query = make_query(fit(batch), 1, 2, 0.25)
    rows = np.arange(batch.num_rows) % 3 > (-1 if mask == "all" else 0)
    tracemalloc.start()
    try:
        res = collective_recourse(batch, query, EpsilonBudget(0.3), mask=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One class's rows, which the fit copies to average them; no N x d rows.
    assert peak < 0.25 * batch.features.nbytes
    pm = res.perturbation
    assert np.array_equal(pm.labels, batch.labels) and np.array_equal(pm.participation_mask, rows)
    expected = np.zeros_like(batch.features)
    expected[rows] = pm.moves[batch.labels[rows]]
    assert pm.delta.tobytes() == expected.tobytes()


def test_collective_mask_freezes_class(three_blob_pair):
    batch, query = three_blob_pair
    mask = batch.labels != 2  # class 2 does not participate
    res = collective_recourse(batch, query, EpsilonBudget(0.4), mask=mask)
    assert np.array_equal(res.perturbation.delta[~mask], np.zeros((1, 2)))
    assert np.array_equal(res.post_centroids.mu[2], fit(batch).mu[2])
    # participating classes still move
    assert np.linalg.norm(res.perturbation.delta[mask]) > 0


@pytest.mark.parametrize("data", ["iris", "embeddings", "synth", "blob1d"])
@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_collective_post_centroids_are_closed_form_within_refit_rounding(
    iris_batch, embeddings_path, synth_20k_batch, data, mode
):
    """The refit centroids are mu_y + f_y * v_y, and agree with the N x d refit to rounding.

    Here f_y = m_y / n_y is class y's participating share and v_y the move of
    each of its participating rows, read from the returned perturbation. The
    solver must compute exactly that formula, bit for bit.

    :func:`refit_with_perturbation` instead sums the n_y rows delta_i of class
    y, m_y of them v_y and the rest zero. Per coordinate, with unit roundoff u
    and gamma_k = k * u / (1 - k * u), any order of summing n_y terms errs by
    at most gamma_{n_y - 1} * sum|delta_i| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 4.2): numpy adds rows one
    after another for d > 1 and sums the single column pairwise for d = 1.
    Dividing by n_y adds one rounding; on the closed-form side m_y / n_y and
    f_y * v_y add one each. So the two means differ from each other by at most
    gamma_{n_y + 2} * sum|delta_i| / n_y. The final mu + mean on each side
    rounds once more, by at most u times its own result.
    """
    if data == "embeddings":
        batch = load_embeddings(embeddings_path)
    elif data == "blob1d":
        batch = synth_blobs(SyntheticSpec(np.array([[-1.0], [0.5], [2.0]]), 300, 0.7, seed=3))
    else:
        batch = iris_batch if data == "iris" else synth_20k_batch
    theta = fit(batch)
    queries = {
        "between": make_query(theta, 1, 2, 0.25),
        "on-goal-centroid": QuerySpec(theta.mu[1], 1),
        "on-competitor-centroid": QuerySpec(theta.mu[2], 1),
    }
    masks = {
        "all": None,
        "random": np.random.default_rng(4).random(batch.num_rows) < 0.5,
        "goal-out": batch.labels != 1,
    }
    u = np.finfo(float).eps / 2
    cfg = SolverConfig(projection_mode=mode)
    for (where, query), (participation, mask) in itertools.product(queries.items(), masks.items()):
        away = theta.mu - query.features
        norms = np.linalg.norm(away, axis=1)
        for eps in (0.0, 0.1, 0.5, 1.0, 3.0):
            res = collective_recourse(batch, query, EpsilonBudget(eps), cfg, mask=mask)
            delta, taking_part = res.perturbation.delta, res.perturbation.participation_mask
            post = res.post_centroids.mu
            refit = refit_with_perturbation(batch, delta).mu
            case = (where, participation, eps)
            for y in range(batch.num_classes):
                rows = batch.labels == y
                n, m = rows.sum(), (rows & taking_part).sum()
                v = delta[rows & taking_part][0] if m else np.zeros(batch.dim)
                assert np.all(delta[rows & taking_part] == v), case
                # A participating competitor moves eps straight away from the query
                # (one that sits on the query moves along e0 instead); where that
                # move's row norm rounds above eps, it is shrunk by a few ulps.
                if m and y != query.goal_class and away[y].any():
                    w = eps * (away[y] / norms[y])
                    if np.linalg.norm(w[None], axis=1)[0] <= eps:
                        assert np.array_equal(v, w), (case, y)
                    else:
                        assert np.all(np.abs(v - w) <= 4 * u * np.abs(w)), (case, y)
                        assert np.all(np.abs(v) <= np.abs(w)), (case, y)
                assert np.all(res.perturbation.row_norms() <= eps), case
                expected = theta.mu[y] + (m / n) * v
                assert post[y].tobytes() == expected.tobytes(), (case, y)
                gamma = (n + 2) * u / (1 - (n + 2) * u)
                bound = gamma * m * np.abs(v) / n + u * (np.abs(post[y]) + np.abs(refit[y]))
                assert np.all(np.abs(post[y] - refit[y]) <= bound), (case, y)


def test_collective_sphere_mode(three_blob_pair):
    batch, query = three_blob_pair
    res = collective_recourse(
        batch, query, EpsilonBudget(0.3), SolverConfig(projection_mode="sphere")
    )
    norms = res.perturbation.row_norms()
    assert np.all((norms < 1e-9) | (np.abs(norms - 0.3) < 1e-9))


def test_collective_deterministic(three_blob_pair):
    batch, query = three_blob_pair
    cfg = SolverConfig(projection_mode="sphere")
    a = collective_recourse(batch, query, EpsilonBudget(0.25), cfg)
    b = collective_recourse(batch, query, EpsilonBudget(0.25), cfg)
    assert np.array_equal(a.perturbation.delta, b.perturbation.delta)
    assert a.achieved_loss == b.achieved_loss


def test_collective_monotone_with_warm_start(three_blob_pair):
    # The exact solver needs no warm start to be monotone in the budget.
    batch, query = three_blob_pair
    prev_loss = math.inf
    for eps in (0.0, 0.15, 0.3, 0.45):
        res = collective_recourse(batch, query, EpsilonBudget(eps))
        assert res.achieved_loss <= prev_loss + 1e-9
        prev_loss = res.achieved_loss


def test_collective_trace_starts_at_baseline(three_blob_pair):
    batch, query = three_blob_pair
    res = collective_recourse(batch, query, EpsilonBudget(0.3))
    baseline = nll_loss(query.features, query.goal_class, fit(batch))
    assert abs(res.loss_trace[0] - baseline) < 1e-12
    assert res.achieved_loss == res.loss_trace.min()


def test_collective_shape_errors(three_blob_pair):
    batch, query = three_blob_pair
    with pytest.raises(ValueError):
        collective_recourse(batch, QuerySpec(np.zeros(5), 0), EpsilonBudget(0.1))
    # Named before the share is counted, not by np.bincount.
    for mask, shape in ((np.ones(7, dtype=bool), r"\(7,\)"), (np.ones((3, 1), dtype=bool), r"\(3, 1\)")):
        with pytest.raises(ValueError, match=rf"^mask shape {shape} does not match 3 rows$"):
            collective_recourse(batch, query, EpsilonBudget(0.1), mask=mask)


def test_uniform_shift_bound(collinear_pair):
    batch, query = collinear_pair
    baseline = nll_loss(query.features, 0, fit(batch))
    assert abs(grid_collective(batch, query, 0.0, GridSpec(0.01))[1] - baseline) < 1e-12
    _, bound = grid_collective(batch, query, 0.3, GridSpec(0.01))
    assert abs(bound - L_COLLINEAR) < 0.03  # one-cell slack at this resolution
    col = collective_recourse(batch, query, EpsilonBudget(0.3))
    assert abs(col.achieved_loss - bound) < 0.03


def test_collective_competitor_on_query_moves_along_first_axis():
    # Class 1 sits exactly on the query, where the centroid gradient vanishes
    # and gradient descent would leave it still; the exact solver pushes it
    # away along e0.
    batch = LabeledBatch(
        np.array([[1.0, 0.0], [-0.5, 0.0], [0.0, 2.0]]), np.array([0, 1, 2]), 3
    )
    query = QuerySpec(np.array([-0.5, 0.0]), 0)
    res = collective_recourse(batch, query, EpsilonBudget(0.3))
    assert np.array_equal(res.perturbation.delta[1], [0.3, 0.0])
    still = collective_recourse(batch, query, EpsilonBudget(0.3), mask=batch.labels != 1)
    assert res.achieved_loss < still.achieved_loss


@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_collective_goal_on_query_stays(three_blob_pair, mode):
    batch, _ = three_blob_pair
    query = QuerySpec(np.array([1.0, 0.0]), 0)  # the goal centroid itself
    res = collective_recourse(
        batch, query, EpsilonBudget(0.4), SolverConfig(projection_mode=mode)
    )
    assert np.array_equal(res.perturbation.delta[0], [0.0, 0.0])
    assert np.array_equal(res.post_centroids.mu[0], [1.0, 0.0])


@pytest.mark.parametrize("eps", [0.5, 4.0])
def test_collective_masked_goal_rows_move_at_most_the_distance_left(eps):
    # Goal class 0 has n_g = 4 rows with mean (1, 0), of which m_g = 2 move;
    # d_g = 1.5, so each moving row needs at most d_g * n_g / m_g = 3.
    features = np.array(
        [[1.0, 0.1], [1.0, -0.1], [1.0, 0.2], [1.0, -0.2], [-1.0, 0.0], [0.0, 2.0]]
    )
    batch = LabeledBatch(features, np.array([0, 0, 0, 0, 1, 2]), 3)
    query = QuerySpec(np.array([-0.5, 0.0]), 0)
    mask = np.array([True, True, False, False, True, True])
    res = collective_recourse(batch, query, EpsilonBudget(eps), mask=mask)
    norms = res.perturbation.row_norms()
    assert np.allclose(norms[:2], min(eps, 3.0), atol=1e-12)
    assert np.all(norms <= eps + 1e-12)
    assert np.array_equal(norms[2:4], [0.0, 0.0])
    goal_distance = np.linalg.norm(res.post_centroids.mu[0] - query.features)
    assert abs(goal_distance - max(0.0, 1.5 - eps * 2 / 4)) < 1e-12


@pytest.mark.parametrize("eps, moves", [(2.5, True), (3.5, False)])
def test_collective_sphere_single_row_goal_moves_only_if_closer(collinear_pair, eps, moves):
    # One goal row at distance d_g = 1.5: a full eps step lands it at
    # |1.5 - eps|, which is closer only while eps < 2 * d_g.
    batch, query = collinear_pair
    res = collective_recourse(
        batch, query, EpsilonBudget(eps), SolverConfig(projection_mode="sphere")
    )
    goal_norm = res.perturbation.row_norms()[0]
    assert abs(goal_norm - (eps if moves else 0.0)) < 1e-12
    baseline = nll_loss(query.features, 0, fit(batch))
    assert res.achieved_loss <= baseline


def test_collective_zero_budget_sphere_masked_identity(three_blob_pair):
    batch, query = three_blob_pair
    res = collective_recourse(
        batch,
        query,
        EpsilonBudget(0.0),
        SolverConfig(projection_mode="sphere"),
        mask=batch.labels != 2,
    )
    assert np.array_equal(res.perturbation.delta, np.zeros((3, 2)))
    assert np.array_equal(res.post_centroids.mu, fit(batch).mu)
    assert res.achieved_loss == nll_loss(query.features, 0, fit(batch))


_COORD = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _collective_instances(draw):
    k = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    points = draw(st.lists(st.tuples(_COORD, _COORD), min_size=sum(sizes), max_size=sum(sizes)))
    batch = LabeledBatch(np.array(points), np.repeat(np.arange(k), sizes), k)
    query = QuerySpec(np.array(draw(st.tuples(_COORD, _COORD))), draw(st.integers(0, k - 1)))
    return batch, query, draw(st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_collective_instances())
def test_collective_matches_grid_oracle_and_beats_individual(instance):
    batch, query, eps = instance
    spec = GridSpec(0.05)
    col = collective_recourse(batch, query, EpsilonBudget(eps)).achieved_loss
    _, grid = grid_collective(batch, query, eps, spec)
    assert grid - lipschitz_slack(batch.num_classes, spec.resolution) <= col <= grid + 1e-12
    ind = individual_recourse(query, fit(batch), EpsilonBudget(eps)).achieved_loss
    assert col <= ind + 1e-12
