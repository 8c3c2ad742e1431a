"""Nearest-centroid classifier with analytic gradients and closed-form refit.

The model keeps one centroid per class and scores a point by its negative
Euclidean distance to each centroid (``-distances(x[None], theta)[0]``);
class probabilities are the softmax of those scores. Fitting is the
per-class mean, which makes the post-update parameters under a training-set
perturbation available in closed form.

The single-point layer is one unchecked kernel, ``_evaluate(x, mu, target)``,
which gives the loss, both gradients and the probabilities from the point's
distances to the centroids, and ``_answered``, which checks the point and the
class and answers from one such evaluation. :func:`distances`, equal to its
distances row by row, and :func:`nll_from_distances` are the batch forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledBatch, _frozen, _integer

# Shared floor for distance denominators: keeps gradients bounded at a
# centroid and makes the input/centroid gradient identity exact.
GRAD_NORM_FLOOR = 1e-12

# The most rows whose squares :func:`distances` holds at once.
_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "mu", _frozen(mu))

    @property
    def num_classes(self) -> int:
        return self.mu.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]


def _check_target(target, num_classes=math.inf, name="target class") -> int:
    """``target`` as an int; a ValueError unless it is an integer in [0, num_classes).

    The package's one class-index check. An integral float such as 1.0 is
    rejected too, so a class is never silently truncated.
    """
    index = _integer(target, name)
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
    """Euclidean distances from each row of ``points`` to each centroid (n x k).

    Filled one centroid at a time, a block of ``_BLOCK_ROWS`` rows at a time,
    through one C-ordered buffer of a block's rows, not through an n x k x d
    tensor or an n x d buffer. Each row sums its squares as :func:`_evaluate`
    does, so row i equals ``_evaluate(points[i], theta.mu, y)[3]`` bit for bit
    whatever the layout of ``points``. A squared distance that overflows is inf.
    """
    points = np.asarray(points, dtype=float)
    out = np.empty((len(points), theta.num_classes))
    buffer = np.empty((min(len(points), _BLOCK_ROWS), theta.dim))
    with np.errstate(over="ignore"):
        for lo in range(0, len(points), _BLOCK_ROWS):
            diffs = buffer[: len(points) - lo]
            for y, centroid in enumerate(theta.mu):
                np.subtract(points[lo : lo + _BLOCK_ROWS], centroid, out=diffs)
                np.multiply(diffs, diffs, out=diffs)
                np.add.reduce(diffs, axis=1, out=out[lo : lo + _BLOCK_ROWS, y])
    return np.sqrt(out, out=out)


def _evaluate(x, mu, target):
    """The model at one point for class ``target``, unchecked: the loss, the
    input gradient, the probabilities, the distances d_y = ||x - mu_y|| and
    the :func:`grad_centroids` rows, all from x - mu_y and those distances.

    The loss is the log-sum-exp of :func:`nll_from_distances`, bit for bit:
    its scores - max(scores) is exactly min(dists) - dists. The max-shifted
    softmax weights exp(min(d) - d_y) become the probabilities, and the
    differences the rows, built with p - onehot; the floor is applied only
    when the nearest distance is at or below it, since elsewhere it changes
    no value.
    """
    diffs = x - mu
    # The value np.linalg.norm(diffs, axis=1) computes, without its call
    # overhead; every in-place step below acts on an array made here.
    dists = np.add.reduce(diffs * diffs, axis=1)
    np.sqrt(dists, out=dists)
    nearest = np.minimum.reduce(dists)
    probs = np.subtract(nearest, dists)
    np.exp(probs, out=probs)
    total = np.add.reduce(probs)
    probs /= total
    p_target = probs[target]
    probs[target] = p_target - 1.0
    norms = dists if nearest > GRAD_NORM_FLOOR else np.maximum(dists, GRAD_NORM_FLOOR)
    diffs /= norms[:, None]
    diffs *= probs[:, None]
    probs[target] = p_target
    return float(np.log(total) - nearest + dists[target]), -np.add.reduce(diffs, axis=0), probs, dists, diffs


def _answered(x, target, theta: Centroids, name="target class"):
    """The checked ``target``, then :func:`_evaluate` at ``x`` for it; a ValueError
    unless ``x`` is a vector of the model's dimension, ``target`` a class index
    (checked before the kernel, which indexes by it) and every squared distance
    finite.

    Each public single-point function answers from this, so its answer and its
    check come from one evaluation. A NaN or infinite feature fails the check,
    and so does a finite point far enough out (about 1e154) that a squared
    distance overflows and the loss would be NaN. The solvers' unchecked kernel
    evaluates such points inside the search, where they lose.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (theta.dim,):
        raise ValueError(f"expected a vector of dimension {theta.dim}, got shape {x.shape}")
    target = _check_target(target, theta.num_classes, name)
    # Overflowing squares are inf; with no finite distance the softmax takes inf - inf.
    with np.errstate(over="ignore", invalid="ignore"):
        answer = _evaluate(x, theta.mu, target)
        farthest = np.maximum.reduce(answer[3])
    if not math.isfinite(farthest):
        if not np.isfinite(x).all():
            raise ValueError("point contains non-finite values")
        raise ValueError("point lies so far from the centroids that its squared distances overflow")
    return (target, *answer)


def predict_proba(x, theta: Centroids) -> np.ndarray:
    """Class probabilities: softmax of the negative distances, max-shifted for stability."""
    # The probabilities do not depend on the class asked for.
    return _answered(x, 0, theta)[3]


def predict(x, theta: Centroids) -> int:
    """Most probable class, i.e. the nearest centroid; ties go to the lowest index."""
    return int(predict_proba(x, theta).argmax())


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
    return _answered(x, target, theta)[1]


def grad_centroids(x, target: int, theta: Centroids) -> np.ndarray:
    """Loss gradient with respect to each centroid row.

    Row y is (p_y - 1[y=target]) * (x - mu_y) / max(||x - mu_y||, floor).
    """
    return _answered(x, target, theta)[5]


def grad_input(x, target: int, theta: Centroids) -> np.ndarray:
    """Loss gradient with respect to the input point.

    Computed as the negated column sum of :func:`grad_centroids`, so the
    identity grad_input + sum_y grad_centroids[y] == 0 holds exactly.
    """
    return _answered(x, target, theta)[2]


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
    """Fraction of batch rows whose nearest centroid (ties to the lowest index)
    is their label, read from the distances :func:`predict` reads, bit for bit.

    A ValueError, in :func:`_answered`'s words, names the first row whose
    squared distances overflow, rather than count rows by infinite distances.
    """
    dists = distances(batch.features, theta)
    far = np.flatnonzero(~np.isfinite(dists).all(axis=1))
    if len(far):
        raise ValueError(f"row {far[0]} lies so far from the centroids that its squared distances overflow")
    return float(np.mean(np.argmin(dists, axis=1) == batch.labels))
