"""Independent references and the correctness checks behind ``failed``.

Nothing here calls the library: inputs are parsed with the stdlib ``csv``
module and the optimum is computed from first principles, so a defect in
the program cannot hide in its own reference.

The reference is the closed-form optimum of the collective problem with
every row participating in ball mode: the goal centroid steps toward the
query by min(eps, d_goal) and every other centroid steps away from it by
eps. An individual perturbation of norm at most eps moves each
query-to-centroid distance by at most eps, so the same value is also a
lower bound on the individual loss. At eps = 0 it is the baseline loss,
the loss of the unmoved query and centroids.
"""

from __future__ import annotations

import csv
import math

import numpy as np

GAP_FLOOR = -1e-9  # a loss this far below the optimum beats a proven bound
DOMINANCE_SLACK = 1e-6  # collective may not exceed individual by more
BASELINE_TOL = 1e-9  # rounding allowed between the program's baseline and ours
REPORT_HEADER = [
    "epsilon", "baseline_loss", "individual_loss", "collective_loss",
    "individual_flipped", "collective_flipped",
]


def read_labeled_csv(path, label_column=None):
    """Features (N x d) and labels (N,) from a headed CSV.

    With ``label_column`` the named column holds labels, numbered in order
    of first appearance; without it the last column holds integer labels.
    """
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    header, body = rows[0], rows[1:]
    label_at = header.index(label_column) if label_column else len(header) - 1
    classes: dict[str, int] = {}
    labels = []
    for row in body:
        raw = row[label_at].strip()
        labels.append(classes.setdefault(raw, len(classes)) if label_column else int(raw))
    features = [[float(v) for j, v in enumerate(row) if j != label_at] for row in body]
    return np.array(features), np.array(labels)


def centroids(features, labels):
    return np.stack([features[labels == y].mean(axis=0) for y in range(labels.max() + 1)])


def query_point(mu, goal, base, alpha=0.25):
    """The CLI's default query: alpha of the way from the base to the goal centroid."""
    return alpha * mu[goal] + (1.0 - alpha) * mu[base]


def nll(dists, goal):
    """Negative log-likelihood of ``goal`` under softmax(-dists), row-wise."""
    scores = -np.atleast_2d(dists)
    top = scores.max(axis=1)
    return np.log(np.exp(scores - top[:, None]).sum(axis=1)) + top - scores[:, goal]


def optimum(x_q, goal, mu, epsilons):
    """Closed-form collective optimum (= individual lower bound) per budget."""
    eps = np.asarray(epsilons, dtype=float)[:, None]
    d = np.linalg.norm(mu - x_q, axis=1)[None, :]
    moved = d + eps
    moved[:, goal] = np.maximum(d[0, goal] - eps[:, 0], 0.0)
    return nll(moved, goal)


def parse_report(text: str):
    """Rows of a sweep report as (eps, baseline, individual, collective) floats."""
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != REPORT_HEADER:
        raise ValueError(f"unexpected report header {rows[:1]}")
    return np.array([[float(v) for v in row[:4]] for row in rows[1:] if row])


def baseline_failures(reported, losses, baseline) -> list[str]:
    """Reasons the reported baseline or the losses disagree with ``baseline``,
    the independently computed loss of the unmoved query."""
    reasons = []
    if np.any(np.abs(np.asarray(reported) - baseline) > BASELINE_TOL):
        reasons.append("baseline differs from the reference")
    if np.any(np.asarray(losses) > baseline + BASELINE_TOL):
        reasons.append("loss above baseline")
    return reasons


def sweep_failures(returncode, report_bytes, plot_bytes, first, epsilons, best) -> list[str]:
    """Reasons one CLI sweep run fails its checks (empty when it passes).

    ``first`` holds the (report, plot) bytes of the workload's first run in
    this process, ``epsilons`` the expected budget grid and ``best`` the
    closed-form optimum at each budget; the grid starts at eps = 0, so
    ``best[0]`` is the baseline loss.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        table = parse_report(report_bytes.decode())
    except (UnicodeDecodeError, ValueError) as err:
        return [f"unreadable report: {err}"]
    if table.shape[0] != len(epsilons) or not np.allclose(table[:, 0], epsilons, rtol=0, atol=1e-12):
        return [f"budget grid {table[:, 0].tolist() if table.size else []} != {list(epsilons)}"]
    reasons = []
    losses = table[:, 2:4]
    if not np.all(np.isfinite(table)):
        reasons.append("non-finite loss")
    reasons += baseline_failures(table[:, 1], losses, best[0])
    if np.any(table[:, 3] > table[:, 2] + DOMINANCE_SLACK):
        reasons.append("collective above individual")
    if np.any(np.diff(losses, axis=0) > 0):
        reasons.append("non-monotone sweep")
    if np.any(losses - np.asarray(best)[:, None] < GAP_FLOOR):
        reasons.append("loss below the closed-form optimum")
    if first is not None and (report_bytes, plot_bytes) != first:
        reasons.append("report or plot differs from the first run")
    return reasons


def solve_failures(loss, reported_base, base, best, first) -> list[str]:
    """Reasons one individual solve fails its checks (empty when it passes).

    ``reported_base`` is the solver's own baseline, ``base`` the
    independently computed one. ``first`` is the loss the same (row,
    budget) reached in the first pass, or None during the first pass.
    """
    reasons = []
    if not math.isfinite(loss):
        reasons.append("non-finite loss")
    reasons += baseline_failures(reported_base, loss, base)
    if loss - best < GAP_FLOOR:
        reasons.append("loss below the closed-form optimum")
    if first is not None and loss != first:
        reasons.append("loss differs from the first pass")
    return reasons
