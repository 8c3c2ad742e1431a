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
toward the goal centroid, in sphere mode a second time from the best of
the points the budget away along the centroid offsets' orthonormal frame,
and reports the best point it evaluated. Each
evaluation is one query-to-centroid distance computation, which gives the
loss, the gradient and the class probabilities there. The collective problem
splits into one small problem per class and is solved exactly in closed
form: with a share f_y of class y's rows each moving by move_y, centroid y
refits to mu_y + f_y * move_y, all k at once, and the answer is those k moves,
not N x d rows. Budgets are per-vector L2 balls; ``sphere`` mode instead puts
every nonzero perturbation on the budget sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledBatch, _frozen, _integer
from .model import (
    GRAD_NORM_FLOOR,
    Centroids,
    _answered,
    _check_target,
    _evaluate,
    fit,
    # Not called here; bench/test_bench.py looks the refit reference up on this module.
    refit_with_perturbation,  # noqa: F401
)

_ZERO_NORM = 1e-12
# What SolverConfig takes, and the CLI offers, as projection_mode.
_MODES = ("ball", "sphere")
# Rounding can leave a vector rescaled to norm eps just above eps. Scaled by
# min(_SHRINK, eps / norm), each nonzero normal float moves at least half an
# ulp toward zero, so the norm falls to eps or below within a few steps.
_SHRINK = 1.0 - 2.0**-53
# Spectral projected gradient: Armijo constant, stop threshold (times eps)
# and Barzilai-Borwein step safeguards. The line search is monotone: a step
# is tested against the loss at the current point. Once steps are below
# sqrt(machine epsilon) of the budget, the loss has settled to rounding (the
# usual step tolerance of Gill, Murray & Wright, Practical Optimization,
# 1981, section 8.2.3); scaling by eps alone keeps small budgets iterating.
_ARMIJO = 1e-4
_STOP = 2**-26
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
        object.__setattr__(self, "features", _frozen(x))
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


def _row_mask(mask, labels) -> np.ndarray:
    """``mask`` as booleans; a ValueError unless it holds one flag per label."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != labels.shape:
        raise ValueError(f"mask shape {mask.shape} does not match {labels.size} rows")
    return mask


@dataclass(frozen=True)
class PerturbationMatrix:
    """Per-row perturbations held as one move per class: row i of the N x d
    perturbation is ``moves[labels[i]]`` (a row of the finite k x d moves)
    where ``participation_mask[i]`` is set, and exactly zero elsewhere.
    """

    moves: np.ndarray
    labels: np.ndarray
    participation_mask: np.ndarray

    def __post_init__(self):
        moves = np.ascontiguousarray(self.moves, dtype=float)
        labels = np.asarray(self.labels)
        if moves.ndim != 2:
            raise ValueError(f"moves must be 2-D, got shape {moves.shape}")
        if not np.isfinite(moves).all():
            raise ValueError("moves contain non-finite values")
        indices = labels.ndim == 1 and labels.dtype.kind in "iu"
        if not indices or labels.size and not 0 <= labels.min() <= labels.max() < len(moves):
            raise ValueError(f"labels must be a vector of class indices in [0, {len(moves) - 1}]")
        mask = _row_mask(self.participation_mask, labels)
        object.__setattr__(self, "moves", _frozen(moves))
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "participation_mask", _frozen(mask))

    @property
    def delta(self) -> np.ndarray:
        """The N x d rows, read-only, built anew on each access."""
        delta = self.moves[self.labels]
        delta[~self.participation_mask] = 0.0
        delta.setflags(write=False)
        return delta

    def row_norms(self) -> np.ndarray:
        """``np.linalg.norm(delta, axis=1)``, bit for bit, from the k move norms:
        a row's norm reads that row alone, laid out in C order in both."""
        norms = np.linalg.norm(self.moves, axis=1)[self.labels]
        norms[~self.participation_mask] = 0.0
        return norms


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    ``projection_mode`` applies to both solvers. ``steps`` caps each search
    of the individual solver; the collective solver is exact and ignores it.
    The individual solver derives its starts from its inputs, so no start
    or seed can be set.
    """

    steps: int = 500
    projection_mode: str = "ball"
    # Not a field, so no constructor argument: the one start rule, kept only
    # for bench/tracer.py, whose _solver_counts reads cfg.init under
    # --trace 1. ROADMAP item 1b deletes it together with that read.
    init = "zero"

    def __post_init__(self):
        object.__setattr__(self, "steps", _integer(self.steps, "steps"))
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.projection_mode not in _MODES:
            allowed = " or ".join(map(repr, _MODES))
            raise ValueError(f"projection_mode must be {allowed}, got {self.projection_mode!r}")


@dataclass
class RecourseResult:
    """Best perturbation found, its loss, and the resulting model state.

    ``loss_trace`` starts with the unperturbed baseline loss. For individual
    recourse it continues with one entry per extra candidate, one for the
    step toward the goal centroid and one per point the first search
    evaluates; in sphere mode at a positive budget one per centroid-frame
    start and one per point the second search evaluates follow. ``achieved_loss`` is its minimum.
    For collective recourse it is exactly ``[baseline, achieved_loss]``.
    ``perturbation`` is the query's own d-vector for individual recourse and
    a :class:`PerturbationMatrix` of class moves for collective recourse.
    ``post_centroids`` equals the base centroids for individual recourse and
    the refit centroids under the best perturbation for collective recourse.
    """

    perturbation: np.ndarray | PerturbationMatrix
    achieved_loss: float
    flipped: bool
    loss_trace: np.ndarray = field(repr=False)
    post_centroids: Centroids = field(repr=False)


def _project(v: np.ndarray, epsilon: float, mode: str) -> np.ndarray:
    """A float vector put on the radius-``epsilon`` L2 ball or sphere, by ``mode``.

    Ball mode returns a feasible ``v`` as is, without a copy; sphere mode
    gives zeros for a norm of at most ``_ZERO_NORM``. Any other ``v`` is
    rescaled onto the sphere, and a finite norm rounding above ``epsilon`` shrunk.
    So the result is ``v`` itself exactly when ball mode holds and ``v`` is
    feasible: :func:`_individual` reads from this whether the budget reaches
    the goal centroid.
    """
    norm = math.sqrt(v.dot(v))
    if mode == "ball" and norm <= epsilon:
        return v
    if mode == "sphere" and norm <= _ZERO_NORM:
        return np.zeros_like(v)
    v = v * (epsilon / norm)
    while epsilon < (norm := math.sqrt(v.dot(v))) < math.inf:
        v *= min(_SHRINK, epsilon / norm)
    return v


def _spg(x_q, goal, mu, delta, loss, grad, eps, mode, steps):
    """Yield the loss, the point and the class probabilities of each point the
    spectral projected gradient method evaluates.

    Starts from the feasible ``delta`` with the given loss and gradient. Each
    iteration evaluates a projected Barzilai-Borwein step, then halves the way
    to it, projecting again, until a point passes the Armijo test against the
    loss at the current point. The accepted step and its squared length make
    the next Barzilai-Borwein quotient: an accepted full step is the
    projected step itself, so only a halved one recomputes them. It stops
    once the step falls to ``_STOP * eps`` or below, once an accepted point
    does not lower that loss (a step on a sphere below rounding stays about
    eps long, but moves no loss), or after ``steps`` iterations.
    """
    tol = _STOP * eps
    lam = min(_LAMBDA_MAX, eps / max(math.sqrt(grad.dot(grad)), _ZERO_NORM))
    for _ in range(steps):
        trial = _project(delta - lam * grad, eps, mode)
        s = direction = trial - delta
        # As Python floats: the same IEEE values, without numpy scalar overhead.
        ss, alpha = float(direction.dot(direction)), 1.0
        length = math.sqrt(ss)
        while alpha * length > tol:
            if alpha < 1.0:
                trial = _project(delta + alpha * direction, eps, mode)
                s = trial - delta
            trial_loss, trial_grad, probs, _, _ = _evaluate(x_q + trial, mu, goal)
            yield trial_loss, trial, probs
            if trial_loss <= loss + _ARMIJO * float(grad.dot(s)):
                break
            alpha *= 0.5
        else:
            return
        if trial_loss >= loss:
            return
        y = trial_grad - grad
        sy = float(s.dot(y))
        if alpha < 1.0:
            ss = float(s.dot(s))
        lam = min(_LAMBDA_MAX, max(_LAMBDA_MIN, ss / sy)) if sy > 0 else _LAMBDA_MAX
        delta, loss, grad = trial, trial_loss, trial_grad


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
    which is what makes loss-versus-budget sweeps monotone; each must be a
    finite vector of the query's dimension) projected onto the budget, and
    the step toward the goal centroid. From the best of them it runs the
    spectral projected gradient method (Birgin, Martinez & Raydan, SIAM J.
    Optim. 2000) for at most ``cfg.steps`` iterations; in sphere mode it
    starts from the best candidate on the sphere, since delta = 0 is an
    isolated point there. The method is local, and the sphere holds several
    local minima, so at a positive budget sphere mode then runs a second
    search of at most ``cfg.steps`` iterations from the best of the 2m points
    +-eps * q_i (each +-q_i projected onto the sphere), where q_1..q_m are the
    columns of the reduced QR factor of the centroid offsets (mu - x_q)^T and
    m = min(d, k).
    Every evaluated point is feasible, by the norm ``np.linalg.norm``
    reports, and the returned perturbation is the best of them (the first,
    on a tie), so the achieved loss never exceeds the baseline.

    The loss is lowest at the goal centroid: by the triangle inequality each
    other centroid is at most its distance to the goal centroid farther
    from a point than the goal centroid is, and at the goal centroid all of
    these bounds hold with equality. So in ball mode a budget that reaches
    the goal centroid returns the step onto it without iterating.

    Sphere mode has a limit at huge budgets: beyond about 1.3e154 (the square
    root of the largest float, plus the query's distance to the centroids)
    every point of the sphere has squared distances that overflow, so none
    of them has a finite loss, and the solver returns delta = 0 at the
    baseline loss.
    """
    x_q = query.features
    answer = _answered(x_q, query.goal_class, theta, "goal class")
    return _individual(x_q, theta, answer, budget, cfg, extra_candidates)


def _individual(x_q, theta, answer, budget, cfg, extra_candidates):
    """:func:`individual_recourse` from the query's ``_answered``, which gives
    the loss, gradient and probabilities at delta = 0."""
    goal = answer[0]
    candidates = [np.array(c, dtype=float) for c in extra_candidates]
    for i, candidate in enumerate(candidates):
        if candidate.shape != x_q.shape or not np.isfinite(candidate).all():
            raise ValueError(f"extra candidate {i} is not a finite vector of dimension {x_q.size}")
    mu, eps, mode = theta.mu, budget.epsilon, cfg.projection_mode
    to_goal = mu[goal] - x_q
    evaluated = []
    # Past a norm of about 1e154 squared norms overflow: such a point
    # evaluates to inf or NaN, and so never wins or passes the Armijo test.
    with np.errstate(over="ignore", invalid="ignore"):
        zero = np.zeros(x_q.shape)
        goal_start = _project(to_goal, eps, mode)
        # _project returns to_goal itself exactly when ball mode holds and the
        # budget reaches the goal centroid.
        reaches_goal = goal_start is to_goal
        # Without the goal step the iterates stall at the kink on the goal centroid.
        first = [zero, *(_project(c, eps, mode) for c in candidates), goal_start]
        rounds = [first]
        if mode == "sphere" and eps > 0:
            # A second search, from the centroid frame: on the sphere the
            # first one can settle in a worse local minimum.
            frame = np.linalg.qr((mu - x_q).T)[0].T
            rounds.append([_project(sign * q, eps, mode) for q in frame for sign in (1.0, -1.0)])
        for starts in rounds:
            start_loss = math.inf
            for delta in starts:
                loss, grad, probs = (
                    answer[1:4] if delta is zero else _evaluate(x_q + delta, mu, goal)[:3]
                )
                evaluated.append((loss, delta, probs))
                if loss < start_loss and (mode == "ball" or delta.any()):
                    start_loss, start = loss, (delta, loss, grad)
            if start_loss < math.inf and not reaches_goal:
                evaluated.extend(_spg(x_q, goal, mu, *start, eps, mode, cfg.steps))
        best_loss = math.inf
        for loss, delta, probs in evaluated:
            if loss < best_loss:
                best_loss, best_delta, best_probs = loss, delta, probs
        # The winner is the query or has a finite loss, so its probabilities
        # are finite (a centroid at an overflowing distance gets 0).
        flipped = int(best_probs.argmax()) == goal

    return RecourseResult(
        perturbation=best_delta,
        achieved_loss=best_loss,
        flipped=flipped,
        loss_trace=np.array([loss for loss, _, _ in evaluated]),
        post_centroids=theta,
    )


def _collective_answer(theta, share, x_q, answer, eps, mode):
    """Refit centroids under the exact collective answer, each class's row move,
    and the query's loss and flip there, from one checked evaluation. The goal
    and the distances to the fitted centroids are read from the query's ``_answered``.

    ``share`` holds each class's participating share f_y = m_y / n_y of its
    rows. Every participating row of class y moves by row y of the returned
    k x d moves (zero where the class does not move), so centroid y moves by
    the mean of its class's rows, f_y times that row: the refit centroids are
    mu + f * moves. With full participation that is exact up to one rounding
    of mu + move.
    """
    goal, dists = answer[0], answer[4]
    away = theta.mu - x_q
    units = np.zeros_like(away)
    units[:, 0] = 1.0
    off = dists > GRAD_NORM_FLOOR
    units[off] = away[off] / dists[off, None]

    # Near the float range mu + f * moves can overflow to inf, which Centroids rejects.
    with np.errstate(over="ignore"):
        # Signed distance each participating row of a class moves along its unit.
        steps = np.full(theta.num_classes, eps)
        d_g, f_g = dists[goal], share[goal]
        if f_g == 0:
            steps[goal] = 0.0
        elif mode == "ball":
            steps[goal] = -min(eps, d_g / f_g)
        else:
            steps[goal] = -eps if abs(d_g - eps * f_g) < d_g else 0.0

        moves = np.zeros_like(units)
        moving = steps != 0.0
        moves[moving] = steps[moving, None] * units[moving]
        # A finite row norm, as PerturbationMatrix.row_norms reads it, that
        # rounds above eps is shrunk.
        norms = np.linalg.norm(moves, axis=1)
        while np.any(over := (eps < norms) & (norms < math.inf)):
            moves[over] *= np.minimum(_SHRINK, eps / norms[over, None])
            norms = np.linalg.norm(moves, axis=1)
        mu = theta.mu + share[:, None] * moves
    post = Centroids(mu)
    try:
        _, loss, _, probs, *_ = _answered(x_q, goal, post)
    except ValueError:
        # The query passed this check against the fitted centroids; only the refit can fail it.
        raise ValueError(
            "the refit centroids lie so far from the query that its squared distances overflow"
        ) from None
    return post, moves, loss, int(probs.argmax()) == goal


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

    The refit centroids are computed from the k x d centroids and each
    class's participating share f_y = m_y / n_y alone, as mu_y + f_y * move_y:
    with full participation that is exact up to one rounding of mu + move.
    The perturbation is returned as those k moves, not as N x d rows.
    """
    theta = fit(batch)
    answer = _answered(query.features, query.goal_class, theta, "goal class")
    k, labels = batch.num_classes, batch.labels
    mask = np.ones(len(labels), dtype=bool) if mask is None else _row_mask(mask, labels)
    # LabeledBatch guarantees that every class has a row to divide by.
    share = np.bincount(labels, weights=mask, minlength=k) / np.bincount(labels, minlength=k)
    post, moves, achieved, flipped = _collective_answer(
        theta, share, query.features, answer, budget.epsilon, cfg.projection_mode
    )
    return RecourseResult(
        perturbation=PerturbationMatrix(moves, labels, mask),
        achieved_loss=achieved,
        flipped=flipped,
        loss_trace=np.array([answer[1], achieved]),
        post_centroids=post,
    )
