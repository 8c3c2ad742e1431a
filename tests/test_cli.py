import contextlib
import io
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective_recourse.cli import MAX_GRID_POINTS, cli_main, parse_eps_grid
from collective_recourse.dataset import _format_cell, load_csv
from collective_recourse.harness import (
    make_query,
    sweep_epsilon,
    write_report_csv,
)
from collective_recourse.model import fit
from collective_recourse.recourse import (
    EpsilonBudget,
    SolverConfig,
    collective_recourse,
    individual_recourse,
)


def test_parse_eps_grid_inclusive_endpoints():
    grid = parse_eps_grid("0:1:0.1")
    assert len(grid) == 11
    assert grid[0] == 0.0
    assert grid[-1] == 1.0  # snapped to the stop endpoint exactly
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert grid == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6000000000000001,
                    0.7000000000000001, 0.8, 0.9, 1.0]


def test_parse_eps_grid_single_point():
    assert parse_eps_grid("0.5:0.5:0.1") == [0.5]


def test_parse_eps_grid_rejects_garbage():
    for bad in ("0:1", "0:1:0", "a:1:0.1", "0:-1:0.1", "-0.2:1:0.1", "1:0:0.1",
                "0:inf:0.1", "nan:1:0.1"):
        with pytest.raises(ValueError):
            parse_eps_grid(bad)


def test_parse_eps_grid_rejects_huge_grid():
    assert len(parse_eps_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
    for bad in (f"0:{MAX_GRID_POINTS}:1", "0:1e6:1e-6", "0:1:5e-324"):
        with pytest.raises(ValueError, match="more than"):
            parse_eps_grid(bad)


@pytest.mark.parametrize(
    "text, expected",
    [
        # A step below the 1e-12 snap used to carry the grid past stop
        # (21 points ending 1.9e-12, 1e-12), or repeat it (3e-12 twice).
        ("0:1e-12:1e-13", [i * 1e-13 for i in range(10)] + [1e-12]),
        ("0:3e-12:1e-12", [0.0, 1e-12, 2e-12, 3e-12]),
        # Grids that always worked keep their values.
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ("0:1:0.3", [0.0, 0.3, 0.6, 0.8999999999999999]),
        ("0.2:0.4:0.2", [0.2, 0.4]),
        # The snap is relative to stop: this ended 1.4e-12 under a 1e-12 snap.
        ("0:1.4e-12:1e-12", [0.0, 1e-12]),
        ("0:1.4:1", [0.0, 1.0]),
        # A one-point grid ends at its start, however small the step.
        ("1:1:1e-17", [1.0]),
        ("1e17:1e17:1", [1e17]),
        ("1e21:1e21:1", [1e21]),
        ("1e300:1e300:1", [1e300]),
    ],
)
def test_parse_eps_grid_ends_at_stop(text, expected):
    assert parse_eps_grid(text) == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scale=st.floats(1e-15, 1e15))
def test_parse_eps_grid_snap_scales_with_the_grid(scale):
    # 0:1.4:1 gives [0, 1.0]; so does the same grid at any scale, not
    # [0, s, 1.4 s] where 0.4 s falls below an absolute snap.
    assert parse_eps_grid(f"0:{1.4 * scale!r}:{scale!r}") == [0.0, scale]


@pytest.mark.parametrize("text", ["1e17:2e17:1", "1e21:2e21:1", "1e300:2e300:1", "0.5:1:1e-17"])
def test_parse_eps_grid_rejects_a_step_that_repeats_budgets(text):
    # start + i * step rounds back to start: the budget would repeat without end.
    start, _, step = map(float, text.split(":"))
    message = f"grid step {step} is too small to move a budget of {start}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_eps_grid(text)


def test_cli_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "fit" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["fit", "query", "recourse", "sweep"])
def test_cli_subcommand_help_exits_zero(capsys, command):
    assert cli_main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: collective-recourse {command} ")


def _echo(argv, capsys):
    assert cli_main(argv) == 0
    return capsys.readouterr().out.splitlines()[0]


def test_cli_config_echo_of_defaults(embeddings_path, tmp_path, capsys):
    data = f"--data={embeddings_path}"
    common = f"config: command={{}} data={embeddings_path} label_col=auto features=auto"
    query = "alpha=0.25 goal_class=0 base_class=1"
    solver = "steps=500 mode=ball"
    report = tmp_path / "report.csv"
    classes = ["--goal-class", "0", "--base-class", "1"]
    assert _echo(["fit", data], capsys) == common.format("fit")
    assert _echo(["query", data, *classes], capsys) == f"{common.format('query')} {query}"
    argv = ["recourse", data, *classes, "--kind", "individual", "--epsilon", "0.5"]
    assert _echo(argv, capsys) == (
        f"{common.format('recourse')} {query} kind=individual epsilon=0.5 {solver} out=auto"
    )
    argv = ["sweep", data, *classes, "--eps-grid", "0:0.5:0.5", "--out", str(report)]
    assert _echo(argv, capsys) == (
        f"{common.format('sweep')} {query} eps_grid=0:0.5:0.5 {solver} out={report} plot=auto"
    )


def test_cli_config_echo_of_every_flag(iris_path, tmp_path, capsys):
    # The flags are given out of the parser's order, which the echo keeps.
    out, plot = tmp_path / "out.csv", tmp_path / "plot.svg"
    data = ["--features", "petal_width,sepal_length"]
    data += ["--label-col", "species", "--data", str(iris_path)]
    common = f"config: command={{}} data={iris_path} label_col=species"
    common += " features=petal_width,sepal_length"
    query = ["--base-class", "2", "--goal-class", "1", "--alpha", "0.5"]
    echo_query = "alpha=0.5 goal_class=1 base_class=2"
    solver = ["--mode", "sphere", "--steps", "30"]
    echo_solver = "steps=30 mode=sphere"
    assert _echo(["fit", *data], capsys) == common.format("fit")
    assert _echo(["query", *query, *data], capsys) == f"{common.format('query')} {echo_query}"
    argv = ["recourse", "--out", str(out), *solver, "--epsilon", "0.25", "--kind", "collective"]
    assert _echo([*argv, *query, *data], capsys) == (
        f"{common.format('recourse')} {echo_query} kind=collective epsilon=0.25"
        f" {echo_solver} out={out}"
    )
    argv = ["sweep", "--plot", str(plot), "--out", str(out), *solver, "--eps-grid", "0:0.2:0.1"]
    assert _echo([*argv, *query, *data], capsys) == (
        f"{common.format('sweep')} {echo_query} eps_grid=0:0.2:0.1"
        f" {echo_solver} out={out} plot={plot}"
    )


def test_cli_unknown_flag(capsys):
    assert cli_main(["fit", "--data", "x.csv", "--bogus"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage" in err


def test_cli_missing_required_flag(capsys):
    assert cli_main(["fit"]) == 1
    assert "usage" in capsys.readouterr().err


def test_cli_missing_data_file(tmp_path, capsys):
    # An empty path names no file, though Path("") is the current directory.
    for data in (str(tmp_path / "nope.csv"), ""):
        code = cli_main(["fit", "--data", data, "--label-col", "x"])
        assert code == 2
        assert f"error: missing file: {data}\n" in capsys.readouterr().err


def test_cli_fit(iris_path, capsys):
    assert cli_main(["fit", "--data", str(iris_path), "--label-col", "species"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("config: command=fit")
    assert "training_accuracy=0.92666666666666664" in text
    printed = [line for line in text.splitlines() if line.startswith("centroid[")]
    assert [line.split("=")[0] for line in printed] == [f"centroid[{y}]" for y in range(3)]
    # The printed centroids parse back bit for bit to the fitted ones.
    mu = fit(load_csv(iris_path, "species")).mu
    parsed = np.array([[float(cell) for cell in line.split("=")[1].split(",")] for line in printed])
    assert parsed.tobytes() == mu.tobytes()


@pytest.mark.parametrize(
    "flags", [["--standardize"], ["--out", "centroids.csv"]], ids=["standardize", "out"]
)
def test_cli_fit_rejects_removed_flags(iris_path, tmp_path, monkeypatch, capsys, flags):
    # fit prints its centroids and writes no file; features are fitted as read.
    monkeypatch.chdir(tmp_path)
    assert cli_main(["fit", "--data", str(iris_path), "--label-col", "species", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    assert not any(tmp_path.iterdir())


def test_cli_fit_embeddings_without_label_col(embeddings_path, capsys):
    assert cli_main(["fit", "--data", str(embeddings_path)]) == 0
    assert "classes=10" in capsys.readouterr().out


def test_cli_features_requires_label_col(embeddings_path, capsys):
    code = cli_main(["fit", "--data", str(embeddings_path), "--features", "e0,e1"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""  # no config echo before a usage error
    assert "--features requires --label-col" in err


def test_cli_feature_subset(iris_path, capsys):
    code = cli_main(
        [
            "fit",
            "--data", str(iris_path),
            "--label-col", "species",
            "--features", "sepal_length,sepal_width",
        ]
    )
    assert code == 0
    assert "dim=2" in capsys.readouterr().out


def test_cli_query(iris_path, capsys):
    code = cli_main(
        [
            "query",
            "--data", str(iris_path),
            "--label-col", "species",
            "--goal-class", "1",
            "--base-class", "2",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "base_prediction=2" in text
    assert "needs_flip=true" in text


def test_cli_recourse_deterministic_stdout(iris_path, capsys):
    argv = [
        "recourse",
        "--data", str(iris_path),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "2",
        "--kind", "collective",
        "--epsilon", "0.3",
    ]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == first
    assert "achieved_loss=" in first
    assert "flipped=" in first


@pytest.mark.parametrize("kind", ["individual", "collective"])
def test_cli_recourse_stdout_matches_result(iris_path, iris_batch, capsys, count_calls, kind):
    argv = [
        "recourse",
        "--data", str(iris_path),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "2",
        "--kind", kind,
        "--epsilon", "0.3",
    ]
    evaluations = count_calls("_evaluate")
    assert cli_main(argv) == 0
    evaluated = len(evaluations)
    lines = capsys.readouterr().out.splitlines()
    theta = fit(iris_batch)
    query = make_query(theta, 1, 2, 0.25)
    if kind == "individual":
        result = individual_recourse(query, theta, EpsilonBudget(0.3), SolverConfig())
    else:
        result = collective_recourse(iris_batch, query, EpsilonBudget(0.3), SolverConfig())
    # The baseline is the solver's first trace entry, not an evaluation of its
    # own; a collective trace is [baseline, achieved], one entry per model.
    assert evaluated == len(result.loss_trace)
    assert lines[-4] == f"baseline_loss={_format_cell(result.loss_trace[0])}"
    assert lines[-2:] == [
        f"achieved_loss={_format_cell(result.achieved_loss)}",
        f"flipped={_format_cell(result.flipped)}",
    ]


@pytest.mark.parametrize("kind", ["individual", "collective"])
def test_cli_recourse_out_writes_the_solvers_rows(iris_path, iris_batch, tmp_path, capsys, kind):
    out = tmp_path / "delta.csv"
    argv = ["recourse", "--data", str(iris_path), "--label-col", "species", "--goal-class", "1",
            "--base-class", "2", "--kind", kind, "--mode", "sphere", "--epsilon", "0.3",
            "--out", str(out)]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.endswith(f"wrote perturbation: {out}\n")
    theta = fit(iris_batch)
    query = make_query(theta, 1, 2, 0.25)
    cfg = SolverConfig(projection_mode="sphere")
    if kind == "individual":
        rows = individual_recourse(query, theta, EpsilonBudget(0.3), cfg).perturbation[None, :]
    else:
        rows = collective_recourse(iris_batch, query, EpsilonBudget(0.3), cfg).perturbation.delta
    header, *lines = out.read_text().splitlines()
    assert header == "d0,d1,d2,d3"
    written = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    assert written.tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "command, fits",
    [
        (["fit"], 1),
        (["query"], 1),
        (["sweep", "--eps-grid", "0:1:0.1", "--out", "{tmp}/sweep.csv"], 1),
        (["recourse", "--kind", "individual", "--epsilon", "0.3"], 1),
        # The collective solver refits the batch its answer is defined on.
        (["recourse", "--kind", "collective", "--epsilon", "0.3"], 2),
    ],
    ids=["fit", "query", "sweep", "recourse-individual", "recourse-collective"],
)
def test_cli_fits_once_per_run(iris_path, tmp_path, capsys, count_calls, command, fits):
    calls = count_calls("fit")
    name, *flags = command
    argv = [name, "--data", str(iris_path), "--label-col", "species"]
    if name != "fit":
        argv += ["--goal-class", "1", "--base-class", "2"]
    assert cli_main(argv + [flag.format(tmp=tmp_path) for flag in flags]) == 0
    capsys.readouterr()
    assert len(calls) == fits


def test_cli_recourse_individual_writes_delta(iris_path, tmp_path, capsys):
    out = tmp_path / "delta.csv"
    argv = [
        "recourse",
        "--data", str(iris_path),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "2",
        "--kind", "individual",
        "--epsilon", "0.25",
        "--out", str(out),
    ]
    assert cli_main(argv) == 0
    capsys.readouterr()
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (1, 4)
    assert np.linalg.norm(rows[0]) <= 0.25 + 1e-9


def test_cli_recourse_negative_epsilon(iris_path, capsys):
    argv = [
        "recourse",
        "--data", str(iris_path),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "2",
        "--kind", "individual",
        "--epsilon", "-0.5",
    ]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage error" in err


def _report_bytes(tmp_path, batch, epsilons, cfg=SolverConfig()):
    """The report CSV that the library writes for the README query (goal 1,
    base 2, alpha 0.25) on ``batch``: what a CLI sweep on its file must write."""
    theta = fit(batch)
    path = tmp_path / "library.csv"
    write_report_csv(sweep_epsilon(theta, make_query(theta, 1, 2, 0.25), epsilons, cfg), path)
    return path.read_bytes()


def test_cli_sweep_writes_report_and_plot(iris_path, tmp_path, capsys):
    out, plot = tmp_path / "report.csv", tmp_path / "plot.svg"
    argv = [
        "sweep",
        "--data", str(iris_path),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "2",
        "--eps-grid", "0:0.4:0.2",
        "--out", str(out),
        "--plot", str(plot),
    ]
    assert cli_main(argv) == 0
    printed = capsys.readouterr().out.splitlines()[1:4]
    cells = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert printed == [
        f"epsilon={c[0]} individual={c[2]} collective={c[3]} flipped={c[4]}/{c[5]}" for c in cells
    ]
    batch = load_csv(iris_path, "species")
    assert out.read_bytes() == _report_bytes(tmp_path, batch, [0.0, 0.2, 0.4])
    assert plot.read_text().startswith("<svg")


def test_cli_sweep_bad_grid(iris_path, capsys):
    argv = [
        "sweep",
        "--data", str(iris_path),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "2",
        "--eps-grid", "0:1",
        "--out", "/tmp/never.csv",
    ]
    assert cli_main(argv) == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_sweep_sphere(iris_path, tmp_path):
    out = tmp_path / "report.csv"
    argv = [
        "sweep",
        "--data", str(iris_path),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "2",
        "--eps-grid", "0.2:0.4:0.2",
        "--mode", "sphere",
        "--steps", "50",
        "--out", str(out),
    ]
    assert cli_main(argv) == 0
    batch = load_csv(iris_path, "species")
    cfg = SolverConfig(steps=50, projection_mode="sphere")
    assert out.read_bytes() == _report_bytes(tmp_path, batch, [0.2, 0.4], cfg)


def _iris_argv(iris_path, command, *extra):
    return [
        command,
        "--data", str(iris_path),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "2",
        *extra,
    ]


def test_cli_sweep_huge_grid_is_usage_error(iris_path, capsys):
    argv = _iris_argv(iris_path, "sweep", "--eps-grid", "0:1e6:1e-6", "--out", "/tmp/never.csv")
    assert cli_main(argv) == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_sweep_repeating_grid_is_usage_error(iris_path, tmp_path, capsys):
    argv = _iris_argv(
        iris_path, "sweep", "--eps-grid", "1e17:2e17:1", "--out", str(tmp_path / "never.csv")
    )
    assert cli_main(argv) == 1
    assert "usage error: grid step 1.0 is too small" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def test_cli_sweep_grid_with_a_step_below_the_snap(iris_path, tmp_path, capsys):
    out = tmp_path / "tiny.csv"
    argv = _iris_argv(iris_path, "sweep", "--eps-grid", "0:1e-12:1e-13", "--out", str(out))
    assert cli_main(argv) == 0
    capsys.readouterr()
    grid = parse_eps_grid("0:1e-12:1e-13")
    assert len(grid) == 11
    assert out.read_bytes() == _report_bytes(tmp_path, load_csv(iris_path, "species"), grid)


def test_cli_sweep_plots_a_single_huge_budget(iris_path, tmp_path, capsys):
    plot = tmp_path / "h.svg"
    argv = _iris_argv(
        iris_path, "sweep", "--eps-grid", "1e17:1e17:1e3",
        "--out", str(tmp_path / "h.csv"), "--plot", str(plot),
    )
    assert cli_main(argv) == 0
    svg = plot.read_text()
    coords = re.findall(r'\s(?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', svg)
    assert coords and all(np.isfinite(float(c)) for c in coords)
    assert f"wrote plot: {plot}" in capsys.readouterr().out


def test_cli_zero_steps_is_usage_error(iris_path, capsys):
    argv = _iris_argv(
        iris_path, "recourse", "--kind", "individual", "--epsilon", "0.3", "--steps", "0"
    )
    assert cli_main(argv) == 1
    assert "usage error: steps must be >= 1" in capsys.readouterr().err


def test_cli_solver_flags_checked_before_data_is_read(tmp_path, capsys):
    argv = [
        "sweep",
        "--data", str(tmp_path / "nope.csv"),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "2",
        "--eps-grid", "0:1:0.1",
        "--steps", "0",
        "--out", str(tmp_path / "never.csv"),
    ]
    assert cli_main(argv) == 1
    assert "usage error: steps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("step-size", "0.1"), ("init", "random"), ("seed", "3")])
def test_cli_step_size_flag_is_rejected(iris_path, capsys, flag, value):
    # The individual solver picks its own step lengths and derives its starts.
    argv = _iris_argv(iris_path, "recourse", "--kind", "individual", "--epsilon", "0.3")
    assert cli_main([*argv, f"--{flag}", value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: --{flag} {value}" in err


@pytest.mark.parametrize("alpha", ["-0.1", "1.5", "nan"])
def test_cli_alpha_out_of_range_is_usage_error(iris_path, capsys, alpha):
    assert cli_main(_iris_argv(iris_path, "query", "--alpha", alpha)) == 1
    assert "usage error: alpha must lie in [0, 1]" in capsys.readouterr().err


def test_cli_goal_equals_base_is_usage_error(iris_path, capsys):
    argv = [
        "query",
        "--data", str(iris_path),
        "--label-col", "species",
        "--goal-class", "1",
        "--base-class", "1",
    ]
    assert cli_main(argv) == 1
    assert "usage error: goal class and base class must differ" in capsys.readouterr().err


@pytest.mark.parametrize("goal, base, name", [("-1", "2", "goal class"), ("1", "-1", "base class")])
def test_cli_negative_class_is_usage_error_before_data_is_read(tmp_path, capsys, goal, base, name):
    # No dataset has a class -1, so the flag is rejected before the missing file is opened.
    argv = ["query", "--data", str(tmp_path / "nope.csv"), "--label-col", "species",
            "--goal-class", goal, "--base-class", base]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"usage error: {name} must be nonnegative, got -1" in err


@pytest.mark.parametrize("features", ["", ",", "a,,b"])
def test_cli_empty_feature_name_is_usage_error(iris_path, capsys, features):
    argv = ["fit", "--data", str(iris_path), "--label-col", "species", "--features", features]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage error: empty feature name" in err


def test_cli_repeated_feature_name_is_usage_error(iris_path, capsys):
    argv = ["fit", "--data", str(iris_path), "--label-col", "species",
            "--features", "sepal_length,petal_width,sepal_length"]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage error: repeated feature name(s) ['sepal_length'] in" in err


def test_cli_repeated_header_name_is_data_error(tmp_path, capsys):
    # The second column named a used to be read as a copy of the first.
    path = tmp_path / "x.csv"
    path.write_text("a,a,label\n1,10,u\n2,20,v\n3,30,v\n")
    assert cli_main(["fit", "--data", str(path), "--label-col", "label"]) == 2
    assert f"error: {path}: header repeats column name(s) ['a']" in capsys.readouterr().err


def test_cli_label_among_features_is_data_error(tmp_path, capsys):
    # A model fitted on its own labels would look perfect.
    path = tmp_path / "x.csv"
    path.write_text("a,label\n1,0\n2,1\n3,1\n")
    argv = ["fit", "--data", str(path), "--label-col", "label", "--features", "a,label"]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: label column 'label' is among the feature columns" in err


def _fit(data, stdin=None, flags=()):
    command = [sys.executable, "-m", "collective_recourse", "fit", "--data", str(data), *flags]
    return subprocess.run(command, input=stdin, capture_output=True)


def test_cli_reads_a_pipe_once(embeddings_path):
    # subprocess gives the child a pipe as stdin, which can be read only
    # once: a bad file must be named from that one read.
    piped = _fit("/dev/stdin", embeddings_path.read_bytes())
    on_path = _fit(embeddings_path)
    assert piped.returncode == on_path.returncode == 0
    # Only the config echo, which names the path, differs.
    assert piped.stdout.splitlines()[1:] == on_path.stdout.splitlines()[1:]
    bad = _fit("/dev/stdin", b"e0,e1,label\n1,2,0\n3,x,1\n")
    assert bad.returncode == 2
    assert b"error: /dev/stdin: unparsable value 'x' at line 3, column 'e1'" in bad.stderr


@pytest.mark.parametrize("flags", [(), ("--label-col", "label")], ids=["embeddings", "label-col"])
def test_cli_names_the_line_of_a_non_utf8_byte_in_a_pipe(flags):
    # The pipe is read once, so the bad byte must be found in that read.
    bad = _fit("/dev/stdin", b"e0,e1,label\n1,2,0\n3,\xff,1\n", flags)
    assert bad.returncode == 2
    assert b"error: /dev/stdin: byte 0xff at line 3 is not UTF-8" in bad.stderr


def test_cli_huge_label_is_data_error(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("e0,label\n1.0,0\n2.0,1e300\n")
    assert cli_main(["fit", "--data", str(path)]) == 2
    assert "empty class: no rows with label 1" in capsys.readouterr().err


def test_cli_fit_refuses_a_batch_whose_squared_distances_overflow(tmp_path, capsys):
    # This fit used to warn of an overflow and print an accuracy of 0.5
    # read from infinite distances.
    path = tmp_path / "big.csv"
    path.write_text("e0,label\n1e300,0\n-1e300,0\n1e300,1\n3e299,1\n")
    assert cli_main(["fit", "--data", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == f"config: command=fit data={path} label_col=auto features=auto\n"
    assert err == "error: row 0 lies so far from the centroids that its squared distances overflow\n"


_HOSTILE = [0.0, 1.0, -2.5, 1e300, -1e300, 9e299, 1e-300, -1e-300]


@st.composite
def _hostile_runs(draw):
    """A tiny CSV (one to three features, values near 0, 1 and +-1e300, equal
    rows, classes of one row) and the argv of a fit or query run on it."""
    k = draw(st.integers(2, 3))
    dim = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(_HOSTILE), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=k, max_size=6))
    labels = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=len(rows) - k,
                                            max_size=len(rows) - k))
    lines = [",".join([*(f"e{j}" for j in range(dim)), "label"])]
    lines += [",".join([*map(repr, values), str(label)]) for values, label in zip(rows, labels)]
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        return text, ["fit"]
    goal = draw(st.integers(0, k - 1))
    base = (goal + draw(st.integers(1, k - 1))) % k
    alpha = draw(st.sampled_from(["0", "0.25", "1"]))
    return text, ["query", "--goal-class", str(goal), "--base-class", str(base), "--alpha", alpha]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run=_hostile_runs())
def test_cli_fit_and_query_on_hostile_files_exit_cleanly(tmp_path_factory, run):
    text, command = run
    path = tmp_path_factory.mktemp("hostile") / "x.csv"
    path.write_text(text)
    argv = [command[0], "--data", str(path), *command[1:]]
    code, out, err = _captured(argv)
    assert code in (0, 1, 2)
    if code:
        prefix = "usage error: " if code == 1 else "error: "
        assert len(err.splitlines()) == 1 and err.startswith(prefix), err
        assert "Traceback" not in err
    else:
        assert err == ""
        for line in out.splitlines()[1:]:
            for value in ",".join(re.findall("=([^ ]*)", line)).split(","):
                try:
                    real = float(value)
                except ValueError:
                    continue
                assert math.isfinite(real), line
    assert _captured(argv)[:2] == (code, out)


def _captured(argv):
    """``cli_main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", ["individual", "collective"])
def test_cli_query_too_far_for_the_model_is_data_error(tmp_path, capsys, kind):
    path = tmp_path / "x.csv"
    path.write_text("e0,e1,label\n1e160,0,0\n-1e160,0,1\n")
    argv = ["recourse", "--data", str(path), "--goal-class", "0", "--base-class", "1",
            "--kind", kind, "--epsilon", "1"]
    assert cli_main(argv) == 2
    assert "error: point lies so far from the centroids" in capsys.readouterr().err


@pytest.mark.parametrize("label_flags", [[], ["--label-col", "label"]])
def test_cli_cell_over_the_csv_field_limit_is_data_error(tmp_path, capsys, label_flags):
    path = tmp_path / "x.csv"
    path.write_text('e0,label\n"' + "1" * 200_000 + '",0\n2.0,1\n')
    assert cli_main(["fit", "--data", str(path), *label_flags]) == 2
    assert f"error: {path}: line 2: field larger than field limit" in capsys.readouterr().err


def test_cli_non_utf8_file_is_data_error_naming_its_line(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_bytes(b"e0,label\n1.0,0\n2.0,1\ncaf\xe9,1\n")
    assert cli_main(["fit", "--data", str(path)]) == 2
    assert f"error: {path}: byte 0xe9 at line 4 is not UTF-8" in capsys.readouterr().err
