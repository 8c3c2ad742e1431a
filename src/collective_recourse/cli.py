"""Command-line front end.

Four subcommands: ``fit`` prints centroids and training accuracy, ``query``
builds and describes an interpolated query point, ``recourse`` runs one solver
at a single budget, and ``sweep`` runs both solvers over a budget grid and
writes the CSV report (plus an optional SVG plot). Exit codes: 0 success,
1 usage error, 2 data or solver error. Every run prints a one-line config
echo of every flag, in ``--help`` order, so results can be reproduced from
logs alone. Reals and flags are printed as in the CSV files the package
writes: 17 significant digits, which round-trip any float64, and
``true``/``false``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from .dataset import LabeledBatch, _format_cell, _write_matrix, load_csv, load_embeddings
from .harness import (
    check_query_args,
    describe_query,
    make_query,
    render_plot_svg,
    standardize_features,
    sweep_epsilon,
    write_report_csv,
)
from .model import fit, training_accuracy
from .recourse import _MODES, EpsilonBudget, SolverConfig, collective_recourse, individual_recourse

# The snap of a grid's last point to its stop, relative to the stop.
_GRID_SNAP = 1e-12
MAX_GRID_POINTS = 10_000


def parse_eps_grid(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an ascending grid, endpoints inclusive.

    The grid ends at its first point at or past ``stop``. That last point
    snaps to ``stop`` when it lands past it or within ``1e-12 * stop`` below
    it, so grids like ``0:1:0.1`` include exactly 1.0 despite float
    accumulation, and the snap scales with the grid: ``0:1.4e-12:1e-12``
    ends at 1e-12, as ``0:1.4:1`` ends at 1.0.
    Grids of more than ``MAX_GRID_POINTS`` points are rejected, and so is a
    step too small to move ``start + i * step`` at the grid's scale before
    the grid reaches ``stop``, which would repeat budgets; a one-point grid
    such as ``1:1:1e-17`` is ``[1.0]``. No more than ``MAX_GRID_POINTS + 1``
    points are built either way.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-numeric component in {text!r}") from None
    if not all(np.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"non-finite component in {text!r}")
    if start < 0:
        raise ValueError(f"grid start must be nonnegative, got {start}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"grid stop {stop} below start {start}")
    snap = _GRID_SNAP * stop
    values = []
    for i in range(MAX_GRID_POINTS + 1):
        value = start + i * step
        if value > stop + snap:
            break
        if values and values[-1] >= stop:
            break
        if values and value <= values[-1]:
            raise ValueError(f"grid step {step} is too small to move a budget of {value}")
        values.append(value)
    else:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    if values and stop - values[-1] <= snap:
        values[-1] = stop
    return values


def _parse_feature_list(text: str) -> list[str]:
    names = [cell.strip() for cell in text.split(",")]
    if any(not name for name in names):
        raise ValueError(f"empty feature name in {text!r}")
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise ValueError(f"repeated feature name(s) {repeated} in {text!r}")
    return names


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """The solver flags, with the defaults of :class:`SolverConfig`."""
    defaults = SolverConfig()
    parser.add_argument("--steps", type=int, default=defaults.steps, help="iteration cap per search")
    parser.add_argument(
        "--mode",
        choices=_MODES,
        default=defaults.projection_mode,
        help="ball: perturbation norms up to the budget; sphere: 0 or the budget",
    )


def build_parser() -> argparse.ArgumentParser:
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="input CSV path")
    data.add_argument(
        "--label-col",
        default=None,
        help="label column name; omit to treat the last column as an integer label",
    )
    data.add_argument(
        "--features",
        default=None,
        help="comma-separated subset of feature columns (requires --label-col)",
    )
    data.add_argument(
        "--standardize",
        action="store_true",
        help="z-score features before fitting",
    )

    querying = argparse.ArgumentParser(add_help=False)
    querying.add_argument(
        "--alpha", type=float, default=0.25, help="interpolation weight toward the goal centroid"
    )
    querying.add_argument(
        "--goal-class",
        type=int,
        required=True,
        help="class the query should be pushed toward",
    )
    querying.add_argument(
        "--base-class",
        type=int,
        required=True,
        help="class whose region the query starts in",
    )

    parser = argparse.ArgumentParser(
        prog="collective-recourse",
        description="Individual and collective recourse for a nearest-centroid classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[data], help="fit centroids, print them and accuracy")
    p_fit.add_argument("--out", default=None, help="write fitted centroids to this CSV")
    p_fit.set_defaults(run=_run_fit)

    p_query = sub.add_parser(
        "query", parents=[data, querying], help="build and describe a query point"
    )
    p_query.set_defaults(run=_run_query)

    p_rec = sub.add_parser("recourse", parents=[data, querying], help="solve one budget")
    p_rec.add_argument("--kind", choices=("individual", "collective"), required=True)
    p_rec.add_argument("--epsilon", type=float, required=True, help="perturbation budget")
    _add_solver_flags(p_rec)
    p_rec.add_argument("--out", default=None, help="write the perturbation rows to this CSV")
    p_rec.set_defaults(run=_run_recourse)

    p_sweep = sub.add_parser("sweep", parents=[data, querying], help="sweep a budget grid")
    p_sweep.add_argument("--eps-grid", required=True, help="budget grid as start:stop:step")
    _add_solver_flags(p_sweep)
    p_sweep.add_argument("--out", required=True, help="write the report CSV here")
    p_sweep.add_argument("--plot", default=None, help="also render an SVG plot here")
    p_sweep.set_defaults(run=_run_sweep)

    return parser


def _echo_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, (bool, float)):
        return _format_cell(value)
    return str(value)


def _config_line(args) -> str:
    """Every flag as ``key=value`` in ``--help`` order: argparse puts the
    defaults in the namespace in the order the flags were added."""
    pairs = [f"{key}={_echo_value(value)}" for key, value in vars(args).items() if key != "run"]
    return "config: " + " ".join(pairs)


def _load_batch(args) -> LabeledBatch:
    if args.label_col is None:
        batch = load_embeddings(args.data)
    else:
        batch = load_csv(args.data, args.label_col, feature_columns=args.feature_columns)
    if args.standardize:
        batch = standardize_features(batch)
    return batch


def _run_fit(args) -> int:
    batch, theta = args.batch, args.theta
    print(f"rows={batch.num_rows} dim={batch.dim} classes={batch.num_classes}")
    for y in range(theta.num_classes):
        print(f"centroid[{y}]=" + ",".join(map(_format_cell, theta.mu[y])))
    print(f"training_accuracy={_format_cell(training_accuracy(batch, theta))}")
    if args.out is not None:
        _write_matrix(args.out, (theta.mu,))
        print(f"wrote centroids: {args.out}")
    return 0


def _run_query(args) -> int:
    facts = describe_query(args.theta, args.query)
    print("query_features=" + ",".join(map(_format_cell, args.query.features)))
    print(f"goal_class={facts['goal_class']}")
    print(f"base_prediction={facts['base_prediction']}")
    print(f"needs_flip={_format_cell(facts['needs_flip'])}")
    print(f"baseline_loss={_format_cell(facts['baseline_loss'])}")
    return 0


def _run_recourse(args) -> int:
    if args.kind == "individual":
        result = individual_recourse(args.query, args.theta, args.budget, args.cfg)
        size = f"perturbation_norm={_format_cell(np.linalg.norm(result.perturbation))}"
    else:
        result = collective_recourse(args.batch, args.query, args.budget, args.cfg)
        size = f"max_row_norm={_format_cell(result.perturbation.row_norms().max())}"
    print(f"baseline_loss={_format_cell(result.loss_trace[0])}")
    print(size)
    print(f"achieved_loss={_format_cell(result.achieved_loss)}")
    print(f"flipped={_format_cell(result.flipped)}")
    if args.out is not None:
        # Freed before the N x d rows are built and the write's workers fork.
        del args.batch
        perturbation = result.perturbation
        delta = perturbation[None, :] if args.kind == "individual" else perturbation.delta
        _write_matrix(args.out, (delta,), [f"d{j}" for j in range(delta.shape[1])])
        print(f"wrote perturbation: {args.out}")
    return 0


def _run_sweep(args) -> int:
    report = sweep_epsilon(args.theta, args.query, args.eps_values, cfg=args.cfg)
    for row in report.rows:
        print(
            f"epsilon={_format_cell(row.epsilon)}"
            f" individual={_format_cell(row.individual_loss)}"
            f" collective={_format_cell(row.collective_loss)}"
            f" flipped={_format_cell(row.individual_flipped)}"
            f"/{_format_cell(row.collective_flipped)}"
        )
    write_report_csv(report, args.out)
    print(f"wrote report: {args.out}")
    if args.plot is not None:
        render_plot_svg(report, args.plot)
        print(f"wrote plot: {args.plot}")
    return 0


def _validate_flags(args) -> None:
    """Build the solver inputs from the flags; raises ValueError on bad ones."""
    if args.features is not None and args.label_col is None:
        raise ValueError("--features requires --label-col")
    args.feature_columns = _parse_feature_list(args.features) if args.features else None
    if args.command != "fit":
        check_query_args(args.goal_class, args.base_class, args.alpha)
    if args.command in ("recourse", "sweep"):
        args.cfg = SolverConfig(steps=args.steps, projection_mode=args.mode)
    if args.command == "recourse":
        args.budget = EpsilonBudget(args.epsilon)
    if args.command == "sweep":
        args.eps_values = parse_eps_grid(args.eps_grid)


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    # Taken before _validate_flags adds the inputs it derives to args.
    config = _config_line(args)

    # Checks argparse cannot express, made before any data is read; a
    # failure here is a usage error.
    try:
        _validate_flags(args)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1

    print(config)
    try:
        # The runners read the inputs from args, so a runner can free the batch.
        args.batch = _load_batch(args)
        args.theta = fit(args.batch)
        if args.command != "fit":
            args.query = make_query(args.theta, args.goal_class, args.base_class, args.alpha)
        return args.run(args)
    except (OSError, ValueError) as err:  # DatasetError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
