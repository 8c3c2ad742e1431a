"""Budgeted recourse solvers for the nearest-centroid model.

Two ways to lower the model's loss on a query point for a desired class:

* individual: the query subject perturbs their own features within an L2
  budget while the model stays fixed;
* collective: every training row perturbs within the same per-row budget and
  the model is refit, so the query's prediction changes through the updated
  centroids. The refit is closed form, which collapses the nested
  train-then-attack problem into a single constrained minimization.

The individual solver runs deterministic projected gradient descent with
normalized descent directions and a linearly decaying step size, and
reports the best iterate seen. It checks its inputs once per solve, and
each step makes one query-to-centroid distance evaluation, which gives
both the loss at the new iterate and the gradient for the next step. A
budget sweep runs the individual solves of all its budgets as one batched
loop over a budgets x d iterate matrix, bit for bit the same iterates; a
single solve keeps the one-vector loop, since a batched step costs over
twice a single step and pays only from about three budgets on. The
collective problem splits into one small problem per class and is solved
exactly in closed form. Budgets are per-vector L2 balls; ``sphere`` mode
instead puts every nonzero perturbation on the budget sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledBatch
from .model import (
    GRAD_NORM_FLOOR,
    Centroids,
    _loss_and_grad,
    _loss_and_grad_rows,
    fit,
    nll_loss,
    predict,
    refit_with_perturbation,
)

_ZERO_NORM = 1e-12


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
        if int(self.goal_class) < 0:
            raise ValueError(f"goal class must be nonnegative, got {self.goal_class}")
        frozen = np.array(x, copy=True)
        frozen.setflags(write=False)
        object.__setattr__(self, "features", frozen)
        object.__setattr__(self, "goal_class", int(self.goal_class))


@dataclass(frozen=True)
class EpsilonBudget:
    """Per-vector L2 budget. Only norm order 2 is supported."""

    epsilon: float
    norm_order: int = 2

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be a nonnegative real, got {self.epsilon}")
        if self.norm_order != 2:
            raise ValueError(
                f"only the L2 norm is supported (norm_order=2), got {self.norm_order}"
            )
        object.__setattr__(self, "epsilon", float(self.epsilon))


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

    ``projection_mode`` applies to both solvers. ``steps``, ``step_size``,
    ``init`` and ``seed`` drive the individual solver's projected gradient
    descent only; the collective solver is exact and ignores them.
    ``step_size`` is the initial step; it decays linearly to
    ``step_size / steps`` over the run. When left as None it resolves to
    ``0.05 * epsilon`` (or an absolute 1e-3 when the budget is zero).
    """

    steps: int = 500
    step_size: float | None = None
    projection_mode: str = "ball"
    init: str = "zero"
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.step_size is not None and not (
            self.step_size > 0 and math.isfinite(self.step_size)
        ):
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if self.projection_mode not in ("ball", "sphere"):
            raise ValueError(f"projection_mode must be 'ball' or 'sphere', got {self.projection_mode!r}")
        if self.init not in ("zero", "random"):
            raise ValueError(f"init must be 'zero' or 'random', got {self.init!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def resolved_step_size(self, epsilon: float) -> float:
        if self.step_size is not None:
            return self.step_size
        return 0.05 * epsilon if epsilon > 0 else 1e-3


@dataclass
class RecourseResult:
    """Best perturbation found, its loss, and the resulting model state.

    ``loss_trace`` starts with the unperturbed baseline loss. For individual
    recourse it continues with any extra candidate evaluations, the random
    initial point if any, and then one entry per solver step, and
    ``achieved_loss`` is its minimum. For collective recourse it is exactly
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


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``math.sqrt(row.dot(row))`` of each row, bit for bit.

    Stacked 1 x d by d x 1 products run the same BLAS dot as ``row.dot(row)``;
    ``einsum`` or ``(v * v).sum(1)`` add in another order and differ in the
    last bit for a large share of rows.
    """
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _project_rows(v: np.ndarray, epsilon: np.ndarray, mode: str) -> np.ndarray:
    """:func:`_project` of each row of ``v`` onto its own radius ``epsilon[b]``,
    bit for bit the one-row result."""
    norm = _row_norms(v)
    if mode == "ball":
        scale = np.divide(epsilon, norm, out=np.ones_like(norm), where=~(norm <= epsilon))
        return v * scale[:, None]
    keep = norm > _ZERO_NORM
    scale = np.divide(epsilon, norm, out=np.zeros_like(norm), where=keep)
    return np.where(keep[:, None], v * scale[:, None], 0.0)


def project_ball(v: np.ndarray, epsilon: float) -> np.ndarray:
    """Nearest point of the L2 ball of radius epsilon: rescale only if outside."""
    return _project(np.array(v, dtype=float), epsilon, "ball")


def normalize_sphere(v: np.ndarray, epsilon: float) -> np.ndarray:
    """Rescale onto the radius-epsilon sphere; the zero vector stays zero."""
    return _project(np.array(v, dtype=float), epsilon, "sphere")


def _check_query(query: QuerySpec, theta: Centroids) -> None:
    if query.features.shape != (theta.dim,):
        raise ValueError(
            f"query dimension {query.features.shape[0]} does not match model dim {theta.dim}"
        )
    if query.goal_class >= theta.num_classes:
        raise ValueError(
            f"goal class {query.goal_class} outside [0, {theta.num_classes - 1}]"
        )


def individual_recourse(
    query: QuerySpec,
    theta: Centroids,
    budget: EpsilonBudget,
    cfg: SolverConfig = SolverConfig(),
    extra_candidates=(),
) -> RecourseResult:
    """Find a budgeted perturbation of the query's own features.

    Projected gradient descent on delta: each step moves along the normalized
    loss gradient at ``x_q + delta`` and projects back onto the budget ball
    (or sphere). The returned perturbation is the best iterate, which always
    includes delta = 0, so the achieved loss never exceeds the baseline.

    The query and goal are checked once per solve. Each step then makes one
    distance evaluation, which yields both the loss at the new iterate and
    the gradient that the next step follows; the results are bit for bit
    those of calling :func:`~collective_recourse.model.nll_loss` and
    :func:`~collective_recourse.model.grad_input` at every iterate.

    ``extra_candidates`` are additional feasible perturbations (for example a
    solution found under a smaller budget) evaluated into the candidate set;
    this is what makes loss-versus-budget sweeps monotone.
    """
    _check_query(query, theta)
    x_q = query.features
    goal = query.goal_class
    mu = theta.mu
    eps = budget.epsilon
    eta0 = cfg.resolved_step_size(eps)
    mode = cfg.projection_mode

    baseline, grad = _loss_and_grad(x_q, goal, mu)
    best_delta = delta = np.zeros_like(x_q)
    best_loss = baseline
    trace = [baseline]

    for candidate in extra_candidates:
        cand = _project(np.array(candidate, dtype=float), eps, mode)
        loss, _ = _loss_and_grad(x_q + cand, goal, mu)
        trace.append(loss)
        if loss < best_loss:
            best_loss, best_delta = loss, cand

    if cfg.init == "random":
        rng = np.random.default_rng(cfg.seed)
        delta = _project(rng.standard_normal(x_q.shape) * eps, eps, mode)
        loss, grad = _loss_and_grad(x_q + delta, goal, mu)
        trace.append(loss)
        if loss < best_loss:
            best_loss, best_delta = loss, delta

    # delta is rebound, never written in place, so best_delta needs no copy.
    for step in range(cfg.steps):
        norm = math.sqrt(grad.dot(grad))
        if norm <= _ZERO_NORM:
            break
        eta = eta0 * (cfg.steps - step) / cfg.steps
        delta = _project(delta - eta * (grad / norm), eps, mode)
        loss, grad = _loss_and_grad(x_q + delta, goal, mu)
        trace.append(loss)
        if loss < best_loss:
            best_loss, best_delta = loss, delta

    flipped = predict(x_q + best_delta, theta) == goal
    return RecourseResult(
        perturbation=best_delta,
        achieved_loss=best_loss,
        flipped=flipped,
        loss_trace=np.asarray(trace),
        post_centroids=theta,
    )


def _individual_batch(
    query: QuerySpec, theta: Centroids, epsilons, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Best PGD iterate of :func:`individual_recourse` at every budget, in one loop.

    Row b of the B x d iterate matrix follows, bit for bit, the iterates of
    ``individual_recourse(query, theta, EpsilonBudget(epsilons[b]), cfg)``
    with no extra candidates: its own step size and radius, the same random
    start, and its own stop once its gradient norm is at most 1e-12.
    Returns the B best losses and the B x d best perturbations, each the
    first strict improvement on the baseline loss at delta = 0 (which is
    returned where nothing improves on it). A warm-start candidate sits
    between the baseline and the trajectory in the single solve's order, so
    the caller can replay it against these results and get the same answer.

    One batched step costs over twice a single step, so this pays only when
    about three or more budgets are solved together.
    """
    _check_query(query, theta)
    x_q, goal, mu = query.features, query.goal_class, theta.mu
    eps = np.array(epsilons, dtype=float)
    eta0 = np.array([cfg.resolved_step_size(e) for e in eps])
    mode = cfg.projection_mode

    baseline, grad0 = _loss_and_grad(x_q, goal, mu)
    best_loss = np.full(eps.shape, baseline)
    best_delta = np.zeros((eps.size, x_q.size))
    delta, grad = np.zeros_like(best_delta), np.tile(grad0, (eps.size, 1))
    # Indices of the rows still stepping; the working arrays hold only those.
    rows = np.arange(eps.size)

    def keep_best(loss):
        better = loss < best_loss[rows]
        best_loss[rows[better]] = loss[better]
        best_delta[rows[better]] = delta[better]

    if cfg.init == "random":
        start = np.random.default_rng(cfg.seed).standard_normal(x_q.shape)
        delta = _project_rows(start * eps[:, None], eps, mode)
        loss, grad = _loss_and_grad_rows(x_q + delta, goal, mu)
        keep_best(loss)

    for step in range(cfg.steps):
        norm = _row_norms(grad)
        stopped = norm <= _ZERO_NORM
        if stopped.any():
            going = ~stopped
            rows, delta, grad, norm = rows[going], delta[going], grad[going], norm[going]
            eps, eta0 = eps[going], eta0[going]
            if rows.size == 0:
                break
        eta = eta0 * (cfg.steps - step) / cfg.steps
        delta = _project_rows(delta - eta[:, None] * (grad / norm[:, None]), eps, mode)
        loss, grad = _loss_and_grad_rows(x_q + delta, goal, mu)
        keep_best(loss)
    return best_loss, best_delta


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
    """
    x_q = query.features
    if x_q.shape != (batch.dim,):
        raise ValueError(f"query dimension {x_q.shape[0]} does not match batch dim {batch.dim}")
    if query.goal_class >= batch.num_classes:
        raise ValueError(
            f"goal class {query.goal_class} outside [0, {batch.num_classes - 1}]"
        )
    if mask is None:
        mask = np.ones(batch.num_rows, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (batch.num_rows,):
            raise ValueError(f"mask shape {mask.shape} does not match {batch.num_rows} rows")
    goal = query.goal_class
    eps = budget.epsilon
    theta = fit(batch)

    away = theta.mu - x_q
    dists = np.linalg.norm(away, axis=1)
    units = np.zeros_like(away)
    units[:, 0] = 1.0
    off = dists > GRAD_NORM_FLOOR
    units[off] = away[off] / dists[off, None]

    # Signed distance each participating row of a class moves along its unit.
    steps = np.full(batch.num_classes, eps)
    sizes = np.bincount(batch.labels, minlength=batch.num_classes)
    movers = np.bincount(batch.labels[mask], minlength=batch.num_classes)
    d_g, n_g, m_g = dists[goal], sizes[goal], movers[goal]
    if m_g == 0:
        steps[goal] = 0.0
    elif cfg.projection_mode == "ball":
        steps[goal] = -min(eps, d_g * n_g / m_g)
    else:
        steps[goal] = -eps if abs(d_g - eps * m_g / n_g) < d_g else 0.0

    delta = np.zeros_like(batch.features)
    moving = mask & (steps[batch.labels] != 0.0)
    delta[moving] = (steps[:, None] * units)[batch.labels[moving]]

    baseline = nll_loss(x_q, goal, theta)
    post = refit_with_perturbation(batch, delta)
    achieved = nll_loss(x_q, goal, post)
    return RecourseResult(
        perturbation=PerturbationMatrix(delta, mask),
        achieved_loss=achieved,
        flipped=predict(x_q, post) == goal,
        loss_trace=np.array([baseline, achieved]),
        post_centroids=post,
    )
