"""Command-line front end.

Four subcommands: ``fit`` prints centroids and training accuracy, ``query``
builds and describes an interpolated query point, ``recourse`` runs one solver
at a single budget, and ``sweep`` runs both solvers over a budget grid and
writes the CSV report (plus an optional SVG plot). Exit codes: 0 success,
1 usage error, 2 data or solver error. Every run prints a one-line config
echo so results can be reproduced from logs alone. Reals and flags are
printed as in the CSV files the package writes: 17 significant digits, which
round-trip any float64, and ``true``/``false``.
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
from .model import fit, nll_loss, save_centroids_csv, training_accuracy
from .recourse import (
    EpsilonBudget,
    SolverConfig,
    collective_recourse,
    individual_recourse,
)

_GRID_SNAP = 1e-12
MAX_GRID_POINTS = 10_000


def parse_eps_grid(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an ascending grid, endpoints inclusive.

    The grid ends at its first point at or past ``stop``. That last point
    snaps to ``stop`` when it lands past it or within 1e-12 below it, so
    grids like ``0:1:0.1`` include exactly 1.0 despite float accumulation,
    and a step below 1e-12 cannot carry the grid past ``stop``.
    Grids of more than ``MAX_GRID_POINTS`` points are rejected, and so is a
    step too small to move ``start + i * step`` at the grid's scale, which
    would repeat budgets; no more than ``MAX_GRID_POINTS + 1`` points are
    built either way.
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
    values = []
    for i in range(MAX_GRID_POINTS + 1):
        value = start + i * step
        if value > stop + _GRID_SNAP:
            break
        if values and value <= values[-1]:
            raise ValueError(f"grid step {step} is too small to move a budget of {value}")
        if values and values[-1] >= stop:
            break
        values.append(value)
    else:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    if values and stop - values[-1] <= _GRID_SNAP:
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
        "--class-a",
        dest="goal_class",
        type=int,
        required=True,
        help="class the query should be pushed toward",
    )
    querying.add_argument(
        "--base-class",
        "--class-b",
        dest="base_class",
        type=int,
        required=True,
        help="class whose region the query starts in",
    )

    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument(
        "--steps", type=int, default=500, help="iteration cap of the individual solver"
    )
    solving.add_argument("--mode", choices=("ball", "sphere"), default="ball")
    solving.add_argument("--init", choices=("zero", "random"), default="zero")
    solving.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="collective-recourse",
        description="Individual and collective recourse for a nearest-centroid classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[data], help="fit centroids, print them and accuracy")
    p_fit.add_argument("--out", default=None, help="write fitted centroids to this CSV")

    sub.add_parser("query", parents=[data, querying], help="build and describe a query point")

    p_rec = sub.add_parser("recourse", parents=[data, querying, solving], help="solve one budget")
    p_rec.add_argument("--kind", choices=("individual", "collective"), required=True)
    p_rec.add_argument("--epsilon", type=float, required=True, help="perturbation budget")
    p_rec.add_argument("--out", default=None, help="write the perturbation rows to this CSV")

    p_sweep = sub.add_parser("sweep", parents=[data, querying, solving], help="sweep a budget grid")
    p_sweep.add_argument("--eps-grid", required=True, help="budget grid as start:stop:step")
    p_sweep.add_argument("--out", required=True, help="write the report CSV here")
    p_sweep.add_argument("--plot", default=None, help="also render an SVG plot here")

    return parser


def _echo_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, (bool, float)):
        return _format_cell(value)
    return str(value)


_ECHO_KEYS = {
    "fit": ("data", "label_col", "features", "standardize", "out"),
    "query": ("data", "label_col", "features", "standardize", "alpha", "goal_class", "base_class"),
    "recourse": (
        "data", "label_col", "features", "standardize", "alpha", "goal_class", "base_class",
        "kind", "epsilon", "steps", "mode", "init", "seed", "out",
    ),
    "sweep": (
        "data", "label_col", "features", "standardize", "alpha", "goal_class", "base_class",
        "eps_grid", "steps", "mode", "init", "seed", "out", "plot",
    ),
}


def _print_config(args) -> None:
    pairs = [f"command={args.command}"]
    pairs += [f"{key}={_echo_value(getattr(args, key))}" for key in _ECHO_KEYS[args.command]]
    print("config: " + " ".join(pairs))


def _load_batch(args) -> LabeledBatch:
    if args.label_col is None:
        batch = load_embeddings(args.data)
    else:
        batch = load_csv(args.data, args.label_col, feature_columns=args.feature_columns)
    if args.standardize:
        batch = standardize_features(batch)
    return batch


def _run_fit(args) -> int:
    batch = _load_batch(args)
    theta = fit(batch)
    print(f"rows={batch.num_rows} dim={batch.dim} classes={batch.num_classes}")
    for y in range(theta.num_classes):
        print(f"centroid[{y}]=" + ",".join(map(_format_cell, theta.mu[y])))
    print(f"training_accuracy={_format_cell(training_accuracy(batch, theta))}")
    if args.out is not None:
        save_centroids_csv(theta, args.out)
        print(f"wrote centroids: {args.out}")
    return 0


def _run_query(args) -> int:
    batch = _load_batch(args)
    theta = fit(batch)
    query = make_query(theta, args.goal_class, args.base_class, args.alpha)
    facts = describe_query(batch, query)
    print("query_features=" + ",".join(map(_format_cell, query.features)))
    print(f"goal_class={facts['goal_class']}")
    print(f"base_prediction={facts['base_prediction']}")
    print(f"needs_flip={_format_cell(facts['needs_flip'])}")
    print(f"baseline_loss={_format_cell(facts['baseline_loss'])}")
    return 0


def _run_recourse(args) -> int:
    batch = _load_batch(args)
    theta = fit(batch)
    query = make_query(theta, args.goal_class, args.base_class, args.alpha)
    print(f"baseline_loss={_format_cell(nll_loss(query.features, query.goal_class, theta))}")
    if args.kind == "individual":
        result = individual_recourse(query, theta, args.budget, args.cfg)
        delta = result.perturbation[None, :]
        print(f"perturbation_norm={_format_cell(np.linalg.norm(result.perturbation))}")
    else:
        result = collective_recourse(batch, query, args.budget, args.cfg)
        delta = result.perturbation.delta
        print(f"max_row_norm={_format_cell(result.perturbation.row_norms().max())}")
    print(f"achieved_loss={_format_cell(result.achieved_loss)}")
    print(f"flipped={_format_cell(result.flipped)}")
    if args.out is not None:
        _write_matrix(args.out, (delta,), [f"d{j}" for j in range(delta.shape[1])])
        print(f"wrote perturbation: {args.out}")
    return 0


def _run_sweep(args) -> int:
    batch = _load_batch(args)
    theta = fit(batch)
    query = make_query(theta, args.goal_class, args.base_class, args.alpha)
    report = sweep_epsilon(batch, query, args.eps_values, cfg=args.cfg)
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
        args.cfg = SolverConfig(
            steps=args.steps, projection_mode=args.mode, init=args.init, seed=args.seed
        )
    if args.command == "recourse":
        args.budget = EpsilonBudget(args.epsilon)
    if args.command == "sweep":
        args.eps_values = parse_eps_grid(args.eps_grid)


_RUNNERS = {"fit": _run_fit, "query": _run_query, "recourse": _run_recourse, "sweep": _run_sweep}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    # Checks argparse cannot express, made before any data is read; a
    # failure here is a usage error.
    try:
        _validate_flags(args)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1

    _print_config(args)
    try:
        return _RUNNERS[args.command](args)
    except (OSError, ValueError) as err:  # DatasetError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
