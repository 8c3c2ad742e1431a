"""Nearest-centroid classifier with analytic gradients and closed-form refit.

The model keeps one centroid per class and scores a point by its negative
Euclidean distance to each centroid; class probabilities are the softmax of
those scores. Fitting is the per-class mean, which makes the post-update
parameters under a training-set perturbation available in closed form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledBatch, read_reals, read_rows, write_rows

# Shared floor for distance denominators: keeps gradients bounded at a
# centroid and makes the input/centroid gradient identity exact.
GRAD_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class Centroids:
    """Model parameters: a k x d matrix with one centroid row per class."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 2:
            raise ValueError(f"centroids must be a k x d matrix, got shape {mu.shape}")
        if mu.shape[0] < 2 or mu.shape[1] < 1:
            raise ValueError(f"need k >= 2 and d >= 1, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("centroids contain non-finite values")
        frozen = np.array(mu, copy=True)
        frozen.setflags(write=False)
        object.__setattr__(self, "mu", frozen)

    @property
    def num_classes(self) -> int:
        return self.mu.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]


def _check_point(x, theta: Centroids) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (theta.dim,):
        raise ValueError(f"expected a vector of dimension {theta.dim}, got shape {x.shape}")
    return x


def _check_target(target, num_classes=math.inf, name="target class") -> int:
    """``target`` as an int; a ValueError unless it is an integer in [0, num_classes).

    The package's one class-index check. An integral float such as 1.0 is
    rejected too, so a class is never silently truncated.
    """
    try:
        index = operator.index(target)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {target!r}") from None
    if not 0 <= index < num_classes:
        raise ValueError(f"{name} {index} outside [0, {num_classes - 1}]")
    return index


def fit(batch: LabeledBatch) -> Centroids:
    """Fit centroids as per-class feature means (the risk minimizer)."""
    mu = np.empty((batch.num_classes, batch.dim))
    for y in range(batch.num_classes):
        mu[y] = batch.features[batch.labels == y].mean(axis=0)
    return Centroids(mu)


def distances(points: np.ndarray, theta: Centroids) -> np.ndarray:
    """Euclidean distances from each row of ``points`` to each centroid (n x k)."""
    points = np.asarray(points, dtype=float)
    diffs = points[:, None, :] - theta.mu[None, :, :]
    return np.sqrt(np.sum(diffs * diffs, axis=2))


def class_scores(x, theta: Centroids) -> np.ndarray:
    """Per-class scores: negative Euclidean distance to each centroid."""
    x = _check_point(x, theta)
    return -np.linalg.norm(x - theta.mu, axis=1)


def predict_proba(x, theta: Centroids) -> np.ndarray:
    """Class probabilities: softmax of the scores, max-shifted for stability."""
    scores = class_scores(x, theta)
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def predict(x, theta: Centroids) -> int:
    """Most probable class, i.e. the nearest centroid; ties go to the lowest index."""
    return int(np.argmax(predict_proba(x, theta)))


def nll_from_distances(dists: np.ndarray, target: int) -> np.ndarray:
    """Vectorized negative log-likelihood of ``target`` given an n x k distance matrix.

    Evaluated in log-sum-exp form, which equals -log(softmax prob) but stays
    finite even when the target's probability underflows.
    """
    scores = -np.asarray(dists, dtype=float)
    top = scores.max(axis=1, keepdims=True)
    lse = np.log(np.exp(scores - top).sum(axis=1)) + top[:, 0]
    return lse - scores[:, target]


def nll_loss(x, target: int, theta: Centroids) -> float:
    """Negative log-likelihood of ``target`` at ``x``; always finite."""
    x = _check_point(x, theta)
    target = _check_target(target, theta.num_classes)
    return float(nll_from_distances(distances(x[None, :], theta), target)[0])


def _coefficients_and_units(x, target, mu):
    """Softmax coefficients (p_y - 1[y=target]), unit vectors toward x, and
    the loss, all from one evaluation of the distances ||x - mu_y||.

    The loss is the log-sum-exp of :func:`nll_from_distances`, bit for bit:
    its scores - max(scores) is exactly min(norms) - norms.
    """
    diffs = x - mu
    # The value np.linalg.norm(diffs, axis=1) computes, without its call overhead.
    norms = np.sqrt(np.add.reduce(diffs * diffs, axis=1))
    nearest = np.minimum.reduce(norms)
    units = diffs / np.maximum(norms, GRAD_NORM_FLOOR)[:, None]
    shifted = np.exp(nearest - norms)
    total = np.add.reduce(shifted)
    coef = shifted / total
    coef[target] -= 1.0
    return coef, units, np.log(total) - nearest + norms[target]


def _loss_and_grad(x, target: int, mu: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`nll_loss` and :func:`grad_input` at ``x`` from one distance evaluation.

    Bit for bit the values of the public pair, which stay the checked
    entry points: arguments are not validated here.
    """
    coef, units, loss = _coefficients_and_units(x, target, mu)
    return float(loss), -np.add.reduce(coef[:, None] * units, axis=0)


def grad_centroids(x, target: int, theta: Centroids) -> np.ndarray:
    """Loss gradient with respect to each centroid row.

    Row y is (p_y - 1[y=target]) * (x - mu_y) / max(||x - mu_y||, floor).
    """
    x = _check_point(x, theta)
    target = _check_target(target, theta.num_classes)
    coef, units, _ = _coefficients_and_units(x, target, theta.mu)
    return coef[:, None] * units


def grad_input(x, target: int, theta: Centroids) -> np.ndarray:
    """Loss gradient with respect to the input point.

    Computed as the negated column sum of :func:`grad_centroids`, so the
    identity grad_input + sum_y grad_centroids[y] == 0 holds exactly.
    """
    return -grad_centroids(x, target, theta).sum(axis=0)


def refit_with_perturbation(batch: LabeledBatch, delta: np.ndarray) -> Centroids:
    """Post-update centroids after adding row perturbations to the batch.

    The per-class mean is linear, so each centroid moves by the mean of its
    class's perturbation rows: this equals ``fit`` on the perturbed batch.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != batch.features.shape:
        raise ValueError(
            f"perturbation shape {delta.shape} does not match batch {batch.features.shape}"
        )
    mu = fit(batch).mu.copy()
    for y in range(batch.num_classes):
        mu[y] += delta[batch.labels == y].mean(axis=0)
    return Centroids(mu)


def training_accuracy(batch: LabeledBatch, theta: Centroids) -> float:
    """Fraction of batch rows whose nearest centroid matches their label."""
    dists = distances(batch.features, theta)
    return float(np.mean(np.argmin(dists, axis=1) == batch.labels))


def save_centroids_csv(theta: Centroids, path) -> None:
    """Write the centroid matrix as k rows x d comma-separated columns."""
    write_rows(path, theta.mu)


def load_centroids_csv(path) -> Centroids:
    """Read a centroid matrix written by :func:`save_centroids_csv`."""
    return Centroids(read_reals(path, *read_rows(path)))
