"""Experiment driver: build query points, sweep budgets, report and plot.

The sweep and the query report take the fitted model, so a run fits once
and asks every question of that one model. The sweep runs both solvers over
an ascending list of budgets with identical settings and collects one row
per budget. The individual solver receives the previous budget's solution as
an extra candidate, and the collective solver is exact, so in ball mode the
reported losses of both are monotone non-increasing in the budget. Reports
serialize to CSV with 17-significant-digit reals and render to a small
self-contained SVG.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .dataset import write_rows
from .model import Centroids, _answered, _check_target
from .recourse import EpsilonBudget, QuerySpec, SolverConfig, _collective_answer, _individual


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    baseline_loss: float
    individual_loss: float
    collective_loss: float
    individual_flipped: bool
    collective_flipped: bool


REPORT_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepReport:
    """Rows of a budget sweep, sorted by strictly increasing epsilon."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        eps = [row.epsilon for row in rows]
        if any(e2 <= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError(f"epsilons must be strictly ascending, got {eps}")
        for row in rows:
            values = (row.epsilon, row.baseline_loss, row.individual_loss, row.collective_loss)
            if not all(np.isfinite(v) and v >= 0 for v in values):
                raise ValueError(f"non-finite or negative value in row {row}")
            if row.epsilon == 0.0 and (
                abs(row.individual_loss - row.baseline_loss) > 1e-9
                or abs(row.collective_loss - row.baseline_loss) > 1e-9
            ):
                raise ValueError("zero-budget row must match the baseline loss")
        object.__setattr__(self, "rows", rows)


def check_query_args(goal_class: int, base_class: int, alpha: float) -> None:
    """Reject a class pair or weight that no dataset makes valid for :func:`make_query`."""
    for name, index in (("goal class", goal_class), ("base class", base_class)):
        if index < 0:
            raise ValueError(f"{name} must be nonnegative, got {index}")
    if goal_class == base_class:
        raise ValueError("goal class and base class must differ")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def make_query(theta: Centroids, goal_class: int, base_class: int, alpha: float) -> QuerySpec:
    """Query point interpolated between two centroids, asking for the goal class.

    ``x_q = alpha * mu_goal + (1 - alpha) * mu_base``; small alpha places the
    query deep inside the base class's region while asking for the goal
    class, so reaching the goal requires flipping the prediction.
    """
    goal_class = _check_target(goal_class, theta.num_classes, "goal class")
    base_class = _check_target(base_class, theta.num_classes, "base class")
    check_query_args(goal_class, base_class, alpha)
    x_q = alpha * theta.mu[goal_class] + (1.0 - alpha) * theta.mu[base_class]
    return QuerySpec(features=x_q, goal_class=goal_class)


def sweep_epsilon(
    theta: Centroids,
    query: QuerySpec,
    epsilons,
    cfg: SolverConfig = SolverConfig(),
) -> SweepReport:
    """Run both solvers at every budget and collect a report.

    Takes the fitted model ``theta``, not the data, so the sweep fits
    nothing. Budgets must be nonnegative, finite, and strictly ascending.
    Both solvers share ``cfg``; each individual run evaluates the previous
    budget's solution as a warm-start candidate and the collective solver is
    exact, so the reported losses cannot increase with the budget (ball mode).

    Each budget's collective loss and flip come from the helper that
    :func:`~collective_recourse.recourse.collective_recourse` answers from,
    with every row participating, so they are bit for bit its answer on the
    batch ``theta`` was fitted to; only its class moves are not returned.
    """
    budgets = [EpsilonBudget(e) for e in epsilons]
    if not budgets:
        raise ValueError("epsilon list must be non-empty")
    if any(b2.epsilon <= b1.epsilon for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError(f"epsilons must be strictly ascending, got {[b.epsilon for b in budgets]}")

    everyone = np.ones(theta.num_classes)
    x_q, answer, rows, warm = query.features, None, [], ()
    for budget in budgets:
        eps = budget.epsilon
        try:
            # One checked answer per query; a query the model rejects fails the first budget.
            answer = answer or _answered(x_q, query.goal_class, theta, "goal class")
            ind = _individual(x_q, theta, answer, budget, cfg, warm)
            *_, collective_loss, collective_flipped = _collective_answer(
                theta, everyone, x_q, answer, eps, cfg.projection_mode
            )
        except ValueError as err:
            raise ValueError(f"sweep failed at epsilon={eps}: {err}") from err
        warm = (ind.perturbation,)
        rows.append(
            SweepRow(
                epsilon=eps,
                baseline_loss=answer[1],
                individual_loss=ind.achieved_loss,
                collective_loss=collective_loss,
                individual_flipped=ind.flipped,
                collective_flipped=collective_flipped,
            )
        )
    return SweepReport(tuple(rows))


def write_report_csv(report: SweepReport, path) -> None:
    """Write the sweep as CSV: 17-significant-digit reals, true/false flags."""
    try:
        write_rows(path, map(astuple, report.rows), REPORT_COLUMNS)
    except OSError as err:
        raise OSError(f"cannot write report to {path}: {err}") from err


# Fixed plot geometry; coordinates are emitted with a stable format so the
# same report always produces byte-identical SVG.
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_SERIES = (("individual", "individual_loss", "#d62728"), ("collective", "collective_loss", "#1f77b4"))


def _span(values) -> tuple[float, float]:
    """The range of ``values``, widened around a single value v to v ± 0.5, or
    to v ± ulp(v) where rounding absorbs the 0.5 (possible from |v| = 2^52 on)."""
    lo, hi = min(values), max(values)
    if hi > lo:
        return lo, hi
    half = 0.5 if lo - 0.5 < lo + 0.5 else math.ulp(lo)
    return lo - half, hi + half


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_plot_svg(report: SweepReport, path) -> None:
    """Render loss versus budget for both solvers into a standalone SVG.

    Two labeled series with markers; polylines are drawn only when there are
    at least two rows. Lower loss means better recourse.
    """
    if not report.rows:
        raise ValueError("cannot plot an empty report")
    xs = [row.epsilon for row in report.rows]
    ys = [getattr(row, col) for _, col, _ in _SERIES for row in report.rows]
    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span(ys)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    def fmt(v):
        return f"{v:.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = fmt(sx(tick))
        parts.append(
            f'<line x1="{px}" y1="{_H - _MB}" x2="{px}" y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px}" y="{_H - _MB + 18}" font-size="11" text-anchor="middle">{tick:.3g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = fmt(sy(tick))
        parts.append(f'<line x1="{_ML - 5}" y1="{py}" x2="{_ML}" y2="{py}" stroke="black"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{py}" font-size="11" text-anchor="end" '
            f'dominant-baseline="middle">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" font-size="13" '
        f'text-anchor="middle">perturbation budget (epsilon)</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">loss at query for goal class</text>'
    )
    for label, column, color in _SERIES:
        points = [(sx(row.epsilon), sy(getattr(row, column))) for row in report.rows]
        if len(points) >= 2:
            coords = " ".join(f"{fmt(px)},{fmt(py)}" for px, py in points)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="2" data-series="{label}"/>'
            )
        for px, py in points:
            parts.append(
                f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="3" fill="{color}" data-series="{label}"/>'
            )
    legend_x = _W - _MR - 150
    for i, (label, _, color) in enumerate(_SERIES):
        ly = _MT + 16 + 18 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 32}" y="{ly + 4}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    try:
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(parts) + "\n")
    except OSError as err:
        raise OSError(f"cannot write plot to {path}: {err}") from err


def describe_query(theta: Centroids, query: QuerySpec) -> dict:
    """Base-model facts about a query: prediction (the nearest centroid, ties to
    the lowest index), baseline loss and flip need, all from one checked
    evaluation of the query. Takes the fitted model ``theta``, not the data."""
    _, loss, _, _, dists, _ = _answered(query.features, query.goal_class, theta, "goal class")
    base_pred = int(dists.argmin())
    return {
        "base_prediction": base_pred,
        "goal_class": query.goal_class,
        "needs_flip": base_pred != query.goal_class,
        "baseline_loss": loss,
    }
