"""Brute-force and numerical references used to validate gradients and solvers.

Everything here is deliberately independent of the solvers: gradients are
checked by central finite differences, and the two recourse problems are
solved on small 2-D instances by exhaustive evaluation over a dense grid of
the feasible ball. Candidate points are enumerated in a fixed
order (row-major interior square grid, then the boundary ring), so argmin
tie-breaking is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledBatch
from .model import Centroids, distances, fit, nll_from_distances


@dataclass(frozen=True)
class GridSpec:
    """Grid spacing for the exhaustive 2-D searches."""

    resolution: float

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")


def finite_diff_grad(objective, x, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function at x with step h."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        bump = np.zeros_like(x)
        bump[j] = h
        hi = objective(x + bump)
        lo = objective(x - bump)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError(f"objective is non-finite near coordinate {j}")
        grad[j] = (hi - lo) / (2.0 * h)
    return grad


def ball_grid(epsilon: float, resolution: float) -> np.ndarray:
    """Candidate points covering the radius-epsilon disk.

    Interior: the square lattice of the given spacing clipped to the disk.
    Boundary: an explicit angular ring at arc spacing ~resolution, because
    the optima of budgeted problems usually sit on the boundary and a bare
    lattice would systematically miss it.
    """
    if epsilon <= 0:
        return np.zeros((1, 2))
    n = int(math.floor(epsilon / resolution))
    offsets = np.arange(-n, n + 1) * resolution
    xx, yy = np.meshgrid(offsets, offsets, indexing="ij")
    interior = np.column_stack([xx.ravel(), yy.ravel()])
    interior = interior[np.linalg.norm(interior, axis=1) <= epsilon + 1e-12]
    m = max(8, int(math.ceil(2.0 * math.pi * epsilon / resolution)))
    angles = np.arange(m) * (2.0 * math.pi / m)
    ring = epsilon * np.column_stack([np.cos(angles), np.sin(angles)])
    return np.vstack([interior, ring])


def lipschitz_slack(num_classes: int, resolution: float) -> float:
    """Loss slack for one grid cell: gradient norm bound k times cell diagonal."""
    return num_classes * resolution * math.sqrt(2.0)


def grid_individual(query, theta: Centroids, epsilon: float, spec: GridSpec):
    """Exhaustive search of the query-perturbation problem on a 2-D grid.

    Evaluates the goal-class loss at ``x_q + delta`` for every candidate
    delta in the epsilon disk and returns ``(best_delta, best_loss)``.
    """
    if theta.dim != 2:
        raise ValueError(f"grid search requires 2-D features, got d={theta.dim}")
    candidates = ball_grid(epsilon, spec.resolution)
    points = query.features[None, :] + candidates
    losses = nll_from_distances(distances(points, theta), query.goal_class)
    best = int(np.argmin(losses))
    return candidates[best].copy(), float(losses[best])


def _per_class_distance_tables(query, theta: Centroids, epsilon: float, resolution: float):
    """The disk's candidates c and, as row y, the query's distances to mu_y + c."""
    candidates = ball_grid(epsilon, resolution)
    return candidates, distances(query.features - candidates, theta).T


def grid_collective(batch: LabeledBatch, query, epsilon: float, spec: GridSpec):
    """Minimum query loss over per-class centroid shifts from the product grid.

    A shift moves one centroid within its own epsilon disk. The query loss is
    strictly increasing in the goal centroid's distance and strictly
    decreasing in every other centroid's distance, so over a product of
    identical candidate grids the minimum is attained by picking, per class,
    the shift that minimizes (goal) or maximizes (others) that distance.
    This returns exactly the best combination of the full product grid
    without enumerating it; :func:`grid_collective_product` is the literal
    enumeration used to cross-check this reduction on coarse grids.

    Returns ``(shifts, best_loss)`` with ``shifts`` a k x 2 matrix.
    """
    if batch.dim != 2:
        raise ValueError(f"grid search requires 2-D features, got d={batch.dim}")
    if batch.num_classes > 3:
        raise ValueError(f"grid search requires k <= 3 classes, got k={batch.num_classes}")
    theta = fit(batch)
    goal = query.goal_class
    candidates, tables = _per_class_distance_tables(query, theta, epsilon, spec.resolution)
    shifts = np.empty((theta.num_classes, 2))
    chosen = np.empty(theta.num_classes)
    for y in range(theta.num_classes):
        pick = int(np.argmin(tables[y]) if y == goal else np.argmax(tables[y]))
        shifts[y] = candidates[pick]
        chosen[y] = tables[y][pick]
    loss = float(nll_from_distances(chosen[None, :], goal)[0])
    return shifts, loss


def grid_collective_product(batch: LabeledBatch, query, epsilon: float, spec: GridSpec):
    """Literal product-grid enumeration of per-class shifts (coarse grids only).

    Cost grows as (grid size)^k; intended for validating
    :func:`grid_collective` at coarse resolution, not for fine searches.
    """
    if batch.dim != 2:
        raise ValueError(f"grid search requires 2-D features, got d={batch.dim}")
    if batch.num_classes > 3:
        raise ValueError(f"grid search requires k <= 3 classes, got k={batch.num_classes}")
    theta = fit(batch)
    goal = query.goal_class
    k = theta.num_classes
    candidates, tables = _per_class_distance_tables(query, theta, epsilon, spec.resolution)
    best_loss = math.inf
    best_combo = None
    for combo in np.ndindex(*([len(candidates)] * k)):
        dists = np.array([tables[y][combo[y]] for y in range(k)])
        loss = float(nll_from_distances(dists[None, :], goal)[0])
        if loss < best_loss:
            best_loss = loss
            best_combo = combo
    shifts = np.stack([candidates[i] for i in best_combo])
    return shifts, best_loss
