"""Budgeted recourse solvers for the nearest-centroid model.

Two ways to lower the model's loss on a query point for a desired class:

* individual: the query subject perturbs their own features within an L2
  budget while the model stays fixed;
* collective: every training row perturbs within the same per-row budget and
  the model is refit, so the query's prediction changes through the updated
  centroids. The refit is closed form, which collapses the nested
  train-then-attack problem into a single constrained minimization.

The individual solver runs the spectral projected gradient method to
convergence from the best of a few candidate points, one of them the step
toward the goal centroid, and reports the best point it evaluated. Each
evaluation is one query-to-centroid distance computation, which gives both
the loss and the gradient there. The collective problem splits into one
small problem per class and is solved exactly in closed form. Budgets are
per-vector L2 balls; ``sphere`` mode instead puts every nonzero
perturbation on the budget sphere.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledBatch
from .model import (
    GRAD_NORM_FLOOR,
    Centroids,
    _check_point,
    _check_target,
    _loss_and_grad,
    fit,
    nll_loss,
    predict,
    # Not called here; bench/test_bench.py looks the refit reference up on this module.
    refit_with_perturbation,  # noqa: F401
)

_ZERO_NORM = 1e-12
# Spectral projected gradient: non-monotone memory, Armijo constant, stop
# threshold (times max(1, eps)) and Barzilai-Borwein step safeguards.
_MEMORY = 10
_ARMIJO = 1e-4
_STOP = 1e-13
_LAMBDA_MIN, _LAMBDA_MAX = 1e-30, 1e30


@dataclass(frozen=True)
class QuerySpec:
    """Query subject's features plus the class they want predicted."""

    features: np.ndarray
    goal_class: int

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"query features must be a vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("query features contain non-finite values")
        goal = _check_target(self.goal_class, name="goal class")
        frozen = np.array(x, copy=True)
        frozen.setflags(write=False)
        object.__setattr__(self, "features", frozen)
        object.__setattr__(self, "goal_class", goal)


@dataclass(frozen=True)
class EpsilonBudget:
    """Per-vector L2 budget: a finite, nonnegative radius."""

    epsilon: float

    def __post_init__(self):
        epsilon = float(self.epsilon)
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ValueError(f"epsilon must be a nonnegative real, got {epsilon}")
        object.__setattr__(self, "epsilon", epsilon)


@dataclass(frozen=True)
class PerturbationMatrix:
    """Per-row perturbations (N x d) with a participation mask.

    Rows whose mask entry is False are exactly zero.
    """

    delta: np.ndarray
    participation_mask: np.ndarray

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        mask = np.asarray(self.participation_mask, dtype=bool)
        if delta.ndim != 2:
            raise ValueError(f"delta must be 2-D, got shape {delta.shape}")
        if mask.shape != (delta.shape[0],):
            raise ValueError(
                f"mask shape {mask.shape} does not match {delta.shape[0]} rows"
            )
        if np.any(delta[~mask] != 0.0):
            raise ValueError("non-participating rows must be exactly zero")
        fd = np.array(delta, copy=True)
        fd.setflags(write=False)
        fm = np.array(mask, copy=True)
        fm.setflags(write=False)
        object.__setattr__(self, "delta", fd)
        object.__setattr__(self, "participation_mask", fm)

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.delta, axis=1)


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    ``projection_mode`` applies to both solvers. ``steps``, ``init`` and
    ``seed`` drive the individual solver only; the collective solver is
    exact and ignores them. ``steps`` caps the individual solver's
    iterations. ``init="random"`` adds a seeded random point to the
    candidates it starts from.
    """

    steps: int = 500
    projection_mode: str = "ball"
    init: str = "zero"
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.projection_mode not in ("ball", "sphere"):
            raise ValueError(f"projection_mode must be 'ball' or 'sphere', got {self.projection_mode!r}")
        if self.init not in ("zero", "random"):
            raise ValueError(f"init must be 'zero' or 'random', got {self.init!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class RecourseResult:
    """Best perturbation found, its loss, and the resulting model state.

    ``loss_trace`` starts with the unperturbed baseline loss. For individual
    recourse it continues with one entry per extra candidate, one for the
    random start if any, and then one per further evaluation (the step
    toward the goal centroid first, then each point the iterations try),
    and ``achieved_loss`` is its minimum. For collective recourse it is exactly
    ``[baseline, achieved_loss]``. ``post_centroids`` equals
    the base centroids for individual recourse and the refit centroids under
    the best perturbation for collective recourse.
    """

    perturbation: np.ndarray | PerturbationMatrix
    achieved_loss: float
    flipped: bool
    loss_trace: np.ndarray = field(repr=False)
    post_centroids: Centroids = field(repr=False)


def _project(v: np.ndarray, epsilon: float, mode: str) -> np.ndarray:
    """:func:`project_ball` or :func:`normalize_sphere` of a float vector, by ``mode``.

    Makes no copy: in ball mode a feasible ``v`` is returned as is.
    """
    norm = math.sqrt(v.dot(v))
    if mode == "ball":
        return v if norm <= epsilon else v * (epsilon / norm)
    return v * (epsilon / norm) if norm > _ZERO_NORM else np.zeros_like(v)


def project_ball(v: np.ndarray, epsilon: float) -> np.ndarray:
    """Nearest point of the L2 ball of radius epsilon: rescale only if outside."""
    return _project(np.array(v, dtype=float), epsilon, "ball")


def normalize_sphere(v: np.ndarray, epsilon: float) -> np.ndarray:
    """Rescale onto the radius-epsilon sphere; the zero vector stays zero."""
    return _project(np.array(v, dtype=float), epsilon, "sphere")


def _check_query(query: QuerySpec, theta: Centroids):
    """The query's features and goal class, checked against the model."""
    x_q = _check_point(query.features, theta)
    return x_q, _check_target(query.goal_class, theta.num_classes, "goal class")


def _spg(x_q, goal, mu, delta, loss, grad, eps, mode, steps):
    """Yield each point the spectral projected gradient method evaluates, with its loss.

    Starts from the feasible ``delta`` with the given loss and gradient. Each
    iteration projects a Barzilai-Borwein step, then halves the way to that
    point until a point passes a non-monotone Armijo test against the worst
    of the last ``_MEMORY`` accepted losses. It stops once the step falls to
    1e-13 * max(1, eps) or below, or after ``steps`` iterations.
    """
    tol = _STOP * max(1.0, eps)
    recent = deque([loss], maxlen=_MEMORY)
    lam = min(_LAMBDA_MAX, eps / max(math.sqrt(grad.dot(grad)), _ZERO_NORM))
    for _ in range(steps):
        direction = _project(delta - lam * grad, eps, mode) - delta
        length, ceiling, alpha = math.sqrt(direction.dot(direction)), max(recent), 1.0
        while alpha * length > tol:
            trial = _project(delta + alpha * direction, eps, mode)
            loss, trial_grad = _loss_and_grad(x_q + trial, goal, mu)
            yield trial, loss
            if loss <= ceiling + _ARMIJO * grad.dot(trial - delta):
                break
            alpha *= 0.5
        else:
            return
        s, y = trial - delta, trial_grad - grad
        sy = s.dot(y)
        lam = min(_LAMBDA_MAX, max(_LAMBDA_MIN, s.dot(s) / sy)) if sy > 0 else _LAMBDA_MAX
        delta, grad = trial, trial_grad
        recent.append(loss)


def individual_recourse(
    query: QuerySpec,
    theta: Centroids,
    budget: EpsilonBudget,
    cfg: SolverConfig = SolverConfig(),
    extra_candidates=(),
) -> RecourseResult:
    """Find a budgeted perturbation of the query's own features.

    Evaluates these candidates in turn: delta = 0, each of
    ``extra_candidates`` (for example the answer under a smaller budget,
    which is what makes loss-versus-budget sweeps monotone) projected onto
    the budget, the seeded random point when ``cfg.init`` is ``"random"``,
    and the step toward the goal centroid. From the best of them it runs the
    spectral projected gradient method (Birgin, Martinez & Raydan, SIAM J.
    Optim. 2000) for at most ``cfg.steps`` iterations; in sphere mode it
    starts from the best candidate on the sphere, since delta = 0 is an
    isolated point there. Every evaluated point is feasible, and the
    returned perturbation is the best of them (the first, on a tie), so the
    achieved loss never exceeds the baseline.

    The loss is lowest at the goal centroid: by the triangle inequality each
    other centroid is at most its distance to the goal centroid farther
    from a point than the goal centroid is, and at the goal centroid all of
    these bounds hold with equality. So in ball mode a budget that reaches
    the goal centroid returns the step onto it without iterating.
    """
    x_q, goal = _check_query(query, theta)
    mu = theta.mu
    eps, mode = budget.epsilon, cfg.projection_mode
    to_goal = mu[goal] - x_q
    reaches_goal = mode == "ball" and math.sqrt(to_goal.dot(to_goal)) <= eps
    trace = []
    best_loss = start_loss = math.inf
    # Past a norm of about 1e154 squared norms overflow: such a point
    # evaluates to inf or NaN, and so never wins or passes the Armijo test.
    with np.errstate(over="ignore", invalid="ignore"):
        starts = [np.zeros_like(x_q)]
        starts += [_project(np.array(c, dtype=float), eps, mode) for c in extra_candidates]
        if cfg.init == "random":
            noise = np.random.default_rng(cfg.seed).standard_normal(x_q.shape)
            starts.append(_project(noise * eps, eps, mode))
        # Without this step the iterates stall at the kink on the goal centroid.
        starts.append(_project(to_goal, eps, mode))
        for delta in starts:
            loss, grad = _loss_and_grad(x_q + delta, goal, mu)
            trace.append(loss)
            if loss < best_loss:
                best_loss, best_delta = loss, delta
            if loss < start_loss and (mode == "ball" or delta.any()):
                start_loss, start = loss, (delta, loss, grad)
        if start_loss < math.inf and not reaches_goal:
            for delta, loss in _spg(x_q, goal, mu, *start, eps, mode, cfg.steps):
                trace.append(loss)
                if loss < best_loss:
                    best_loss, best_delta = loss, delta

    return RecourseResult(
        perturbation=best_delta,
        achieved_loss=best_loss,
        flipped=predict(x_q + best_delta, theta) == goal,
        loss_trace=np.asarray(trace),
        post_centroids=theta,
    )


def _collective_centroids(theta, sizes, movers, x_q, goal, eps, mode):
    """Refit centroids under the exact collective answer, and each class's row move.

    ``sizes`` and ``movers`` count each class's rows and its participating
    rows. Every participating row of class y moves by row y of the returned
    k x d moves (zero where the class does not move), so centroid y moves by
    the mean of its class's moved rows. numpy adds those rows one after
    another, as it adds the rows of the N x d perturbation in
    :func:`refit_with_perturbation`, where a mask's zero rows add exactly
    nothing: the centroids are the refit's bit for bit. The exception is
    d = 1 with a partial mask: there numpy sums the refit's single column
    pairwise, zeros included, and the last bit may differ.
    """
    away = theta.mu - x_q
    dists = np.linalg.norm(away, axis=1)
    units = np.zeros_like(away)
    units[:, 0] = 1.0
    off = dists > GRAD_NORM_FLOOR
    units[off] = away[off] / dists[off, None]

    # A budget near the float range overflows eps * m_g and the class sums
    # to inf: the sphere test below then keeps the goal rows still, and an
    # infinite centroid is rejected by Centroids.
    with np.errstate(over="ignore"):
        # Signed distance each participating row of a class moves along its unit.
        steps = np.full(theta.num_classes, eps)
        d_g, n_g, m_g = dists[goal], sizes[goal], movers[goal]
        if m_g == 0:
            steps[goal] = 0.0
        elif mode == "ball":
            steps[goal] = -min(eps, d_g * n_g / m_g)
        else:
            steps[goal] = -eps if abs(d_g - eps * m_g / n_g) < d_g else 0.0

        moves = np.zeros_like(units)
        moving = steps != 0.0
        moves[moving] = steps[moving, None] * units[moving]
        mu = theta.mu.copy()
        for y in range(theta.num_classes):
            mu[y] += np.broadcast_to(moves[y], (movers[y], theta.dim)).sum(axis=0) / sizes[y]
    return Centroids(mu), moves


def collective_recourse(
    batch: LabeledBatch,
    query: QuerySpec,
    budget: EpsilonBudget,
    cfg: SolverConfig = SolverConfig(),
    mask=None,
) -> RecourseResult:
    """Exact budgeted training-row perturbations that help the query via refit.

    Each refit centroid moves by its class's mean perturbation, so with m_y
    of its n_y rows participating, centroid y can reach any point of the
    ball of radius r_y = eps * m_y / n_y around it, and no further. The
    query loss increases with the goal centroid's distance to the query
    and decreases with every other centroid's distance, so the problem
    splits per class and has a closed form: every participating competitor
    row moves eps straight away from the query, and every participating
    goal row moves min(eps, d_g * n_g / m_g) straight toward it, which
    carries the goal centroid min(r_g, d_g) closer. A centroid that sits
    on the query moves along the first basis vector.

    In ``sphere`` mode every row has norm exactly eps or stays zero, and
    rows still move in lockstep: competitors move as above, while the goal
    rows move the full eps toward the query only if that brings the goal
    centroid closer (|d_g - r_g| < d_g), and otherwise stay zero. That is
    the best lockstep move; it is not always the sphere-mode optimum, since
    two or more goal rows pointing different ways can shorten the goal
    centroid's step where one lockstep step would overshoot.

    ``mask`` selects participating rows (default: all). Masked-out rows stay
    exactly zero; a fully masked-out class simply leaves that centroid fixed.
    Of ``cfg`` only ``projection_mode`` is read.

    The refit centroids are computed from the k x d centroids and the class
    sizes alone, bit for bit those of :func:`refit_with_perturbation` of the
    returned perturbation (for d = 1 with a partial mask, to the last bit);
    the N x d perturbation is built only to be returned.
    """
    theta = fit(batch)
    x_q, goal = _check_query(query, theta)
    if mask is None:
        mask = np.ones(batch.num_rows, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (batch.num_rows,):
            raise ValueError(f"mask shape {mask.shape} does not match {batch.num_rows} rows")
    sizes = np.bincount(batch.labels, minlength=batch.num_classes)
    movers = np.bincount(batch.labels[mask], minlength=batch.num_classes)
    post, moves = _collective_centroids(
        theta, sizes, movers, x_q, goal, budget.epsilon, cfg.projection_mode
    )
    delta = np.zeros_like(batch.features)
    delta[mask] = moves[batch.labels[mask]]

    baseline = nll_loss(x_q, goal, theta)
    achieved = nll_loss(x_q, goal, post)
    return RecourseResult(
        perturbation=PerturbationMatrix(delta, mask),
        achieved_loss=achieved,
        flipped=predict(x_q, post) == goal,
        loss_trace=np.array([baseline, achieved]),
        post_centroids=post,
    )
