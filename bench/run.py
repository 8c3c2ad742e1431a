"""Layered benchmark for the collective-recourse library.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads (see bench/README.md for why each exists):

* ``sweep-bundled``: the ``collective-recourse sweep`` CLI, as a
  subprocess, on the bundled iris and embeddings files;
* ``sweep-synth-20k``: the same CLI sweep on a seeded 20 000 x 64, 10-class
  ``synth_blobs`` instance written with ``save_csv`` during set-up;
* ``individual-misclassified``: in-process ``individual_recourse`` for every
  misclassified row of the embeddings file at three budgets.

The load is a closed loop from this one process: each call starts after
the previous one returned. Repetitions run until ``--seconds`` have passed
(at least two). With ``--trace 0`` the end-to-end metrics are measured;
with ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics come from the traced ones. Every output is checked
against an independent closed-form reference (``checks.py``). The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (named as in BENCHMARK.json). Results, stored losses,
provenance and spans go to ``.bench_out/`` in the repository root.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads; children inherit the setting.
THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, load_spans, save_spans, summarize  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
IRIS = ROOT / "data" / "iris.csv"
EMBEDDINGS = ROOT / "data" / "embeddings_d10.csv"
OUT = ROOT / ".bench_out"
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

SETUP_REPEATS = 3
MIN_REPS = 2
CLI_TIMEOUT_S = 100.0  # keeps a hung CLI run inside the 180 s a run may take
SWEEP_GRID = "0:1:0.1"
SYNTH_GRID = "0:0.3:0.1"
MISCLASSIFIED_BUDGETS = (0.1, 0.3, 1.0)
SOLVES_PER_BLOCK = 20  # in-process solves timed between two host-speed marks
PROBE_CALLS = 8000
PROBE_REF_S = 0.020  # the probe's time on the reference host, its fast state


def probe():
    """Seconds a fixed mix of interpreter and small-numpy work takes now.

    The work resembles the solvers' per-step kernels: one small-array
    numpy call per loop turn.
    """
    start = perf_counter()
    x = np.linspace(0.0, 1.0, 10)
    total = 0.0
    for i in range(PROBE_CALLS):
        total += float(np.linalg.norm(x - i))
    return perf_counter() - start


class HostSpeed:
    """Converts measured seconds into reference seconds.

    The reference host is a shared VM whose speed drifts by up to 2x over
    seconds to minutes, and a single 20 ms probe lands in a fast or a slow
    phase. Each timed unit (a set-up, a CLI run, a block of in-process
    solves) is bracketed by two marks of ``probes_per_mark`` probes each.
    Its time is scaled by PROBE_REF_S over the mean probe time: the time it
    would have taken at the reference speed. With no probes per mark it
    leaves times in measured seconds.

    The scaling holds only while the unit's time follows the probe, that
    is while interpreter-bound small-array work dominates it. Large-array
    work is slowed less by the drift, so a change that turns a calibrated
    workload into such work (a closed form, batching) makes its reference
    seconds swing with the host's phase. Such a change compares the
    measured seconds too, which every result records.
    """

    def __init__(self, probes_per_mark):
        self.probes_per_mark = probes_per_mark
        self.before = None
        self.probes = []

    def _mark(self):
        probes = [probe() for _ in range(self.probes_per_mark)]
        self.probes.extend(probes)
        return statistics.fmean(probes)

    def mark(self):
        """Probe right before a timed unit starts."""
        if self.probes_per_mark:
            self.before = self._mark()

    def factor(self):
        """Reference seconds per measured second for the unit just timed."""
        if not self.probes_per_mark:
            return 1.0
        return PROBE_REF_S / ((self.before + self._mark()) / 2)


def grid_values(text):
    """Budgets of a ``start:stop:step`` grid, as the CLI documents it."""
    start, stop, step = (float(v) for v in text.split(":"))
    count = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(count - 1)] + [stop]


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    tracer: Tracer | None
    speed: HostSpeed
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    walls: list = field(default_factory=list)  # untraced, reference seconds, one per repetition
    raw_walls: list = field(default_factory=list)  # the same, as measured
    traced_walls: list = field(default_factory=list)  # measured seconds, like the spans
    rss_mb: list = field(default_factory=list)
    individual_gaps: list = field(default_factory=list)
    collective_gaps: list = field(default_factory=list)
    results: list = field(default_factory=list)  # achieved losses of the first repetition
    cli_walls: list = field(default_factory=list)  # untraced (input, measured s, reference s) per CLI run

    def check(self, reasons):
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)


def run_cli(argv, log_path):
    """Run one subprocess to completion; returns (exit code, wall s, peak RSS MB)."""
    start = perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=CHILD_ENV)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class Sweep:
    """One CLI sweep invocation and the reference its output is checked against."""

    name: str
    flags: list
    epsilons: list
    best: np.ndarray
    first: tuple | None = None


class CliSweeps:
    """Workloads that run ``collective-recourse sweep`` as a subprocess."""

    def __init__(self, name, seed, tiny):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.work = OUT / "work" / name
        self.inputs = []
        self.sweeps = []

    def _sweep(self, name, data, label_col, goal, base, grid, extra, table=None):
        features, labels = table or checks.read_labeled_csv(data, label_col)
        mu = checks.centroids(features, labels)
        epsilons = grid_values(grid)
        best = checks.optimum(checks.query_point(mu, goal, base), goal, mu, epsilons)
        flags = ["--data", str(data)] + (["--label-col", label_col] if label_col else [])
        flags += ["--goal-class", str(goal), "--base-class", str(base), "--eps-grid", grid] + extra
        self.inputs.append({
            "name": name, "rows": len(labels), "dim": features.shape[1],
            "classes": int(labels.max()) + 1, "csv_bytes": data.stat().st_size,
        })
        return Sweep(name, flags, epsilons, best)

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        if self.name == "sweep-bundled":
            grid, extra = ("0:1:0.5", ["--steps", "20"]) if self.tiny else (SWEEP_GRID, [])
            sweeps = [
                self._sweep("iris", IRIS, "species", 1, 2, grid, extra),
                self._sweep("embeddings_d10", EMBEDDINGS, None, 0, 1, grid, extra),
            ]
        else:
            sweeps = [self._synth()]
        # The seed only fixes the order the sweeps run in, which changes no output.
        order = np.random.default_rng(self.seed).permutation(len(sweeps))
        self.sweeps = [sweeps[i] for i in order]
        # Page in the interpreter, numpy and the package, as any earlier run would have.
        run_cli([sys.executable, "-m", "collective_recourse", "--help"], self.work / "warmup.log")

    def _synth(self):
        from collective_recourse import SyntheticSpec, save_csv, synth_blobs

        k, per, d, steps = (10, 10, 8, 5) if self.tiny else (10, 2000, 64, 50)
        rng = np.random.default_rng(self.seed)
        batch = synth_blobs(SyntheticSpec(0.5 * rng.standard_normal((k, d)), per, 1.0, self.seed))
        path = self.work / "synth.csv"
        save_csv(batch, path)
        return self._sweep(
            f"synth_N{k * per}_d{d}_k{k}", path, None, 1, 2, SYNTH_GRID, ["--steps", str(steps)],
            table=(batch.features, batch.labels),
        )

    def rep(self, run, traced):
        """One repetition; returns its (reference, measured) seconds."""
        wall, raw, rss = 0.0, 0.0, 0.0
        for sweep in self.sweeps:
            out_csv, out_svg = self.work / f"{sweep.name}.csv", self.work / f"{sweep.name}.svg"
            cli_args = ["sweep", *sweep.flags, "--out", str(out_csv), "--plot", str(out_svg)]
            for stale in (out_csv, out_svg):
                stale.unlink(missing_ok=True)
            spans_path = self.work / "spans.npz"
            if traced:
                argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *cli_args]
            else:
                argv = [sys.executable, "-m", "collective_recourse", *cli_args]
            run.speed.mark()
            call = run.tracer.open("bench.call") if traced else None
            code, seconds, peak = run_cli(argv, self.work / f"{sweep.name}.log")
            if traced:
                run.tracer.close(call)
            factor = run.speed.factor()
            if traced:
                if spans_path.exists():
                    run.tracer.merge(load_spans(spans_path), call)
                    spans_path.unlink()
                run.tracer.request += 1
            else:
                run.cli_walls.append((sweep.name, seconds, seconds * factor))
            wall += seconds * factor
            raw += seconds
            rss = max(rss, peak)
            outputs = tuple(p.read_bytes() if p.exists() else b"" for p in (out_csv, out_svg))
            reasons = checks.sweep_failures(code, *outputs, sweep.first, sweep.epsilons, sweep.best)
            run.check(reasons)
            if sweep.first is None:
                sweep.first = outputs
            if reasons:
                continue
            table = checks.parse_report(outputs[0].decode())
            interior = table[:, 0] > 0
            run.individual_gaps.extend((table[:, 2] - sweep.best)[interior])
            run.collective_gaps.extend((table[:, 3] - sweep.best)[interior])
            if len(run.results) < len(self.sweeps):
                run.results.append({"input": sweep.name, "rows": table.tolist(), "optimum": sweep.best.tolist()})
        if not traced:
            run.rss_mb.append(rss)
        return wall, raw

    def timings(self, run):
        """Median repetition time, solves per second, and latency samples in ms.

        A solve cannot be timed from outside the CLI: each repetition gives
        one sample, its wall time over its solve count (a sweep row is two).
        On these workloads ``solve_ms.*`` are therefore derived from the
        repetition times that ``wall_s`` summarizes, not from single solves.
        """
        solves = sum(2 * len(sweep.epsilons) for sweep in self.sweeps)
        wall = statistics.median(run.walls)
        return wall, solves / wall, [1e3 * rep / solves for rep in run.walls]


class Misclassified:
    """In-process individual recourse for every misclassified embeddings row."""

    def __init__(self, name, seed, tiny):
        self.seed, self.tiny = seed, tiny
        self.inputs = []
        self.solve_ms = []  # untraced solve latencies

    def setup(self):
        import collective_recourse as cr

        batch = cr.load_embeddings(EMBEDDINGS)
        self.theta = cr.fit(batch)
        self.cfg = cr.SolverConfig(steps=20) if self.tiny else cr.SolverConfig()
        features, labels = checks.read_labeled_csv(EMBEDDINGS)
        mu = checks.centroids(features, labels)
        dists = np.linalg.norm(features[:, None, :] - mu[None, :, :], axis=2)
        rows = np.flatnonzero(dists.argmin(axis=1) != labels)[: 4 if self.tiny else None]
        jobs = [(int(r), eps) for r in rows for eps in MISCLASSIFIED_BUDGETS]
        order = np.random.default_rng(self.seed).permutation(len(jobs))
        self.jobs = []
        for j in order:
            row, eps = jobs[j]
            goal = int(labels[row])
            self.jobs.append({
                "row": row, "epsilon": eps,
                "query": cr.QuerySpec(features[row], goal),
                "budget": cr.EpsilonBudget(eps),
                "base": float(checks.nll(dists[row], goal)[0]),
                "best": float(checks.optimum(features[row], goal, mu, [eps])[0]),
                "first": None,
            })
        self.inputs = [{
            "name": "embeddings_d10", "rows": len(labels), "dim": features.shape[1],
            "classes": int(labels.max()) + 1, "csv_bytes": EMBEDDINGS.stat().st_size,
            "misclassified_rows": len(rows), "solves_per_pass": len(self.jobs),
        }]
        cr.individual_recourse(self.jobs[0]["query"], self.theta, self.jobs[0]["budget"], self.cfg)

    def rep(self, run, traced):
        """One pass; returns its (reference, measured) seconds."""
        wall, raw = 0.0, 0.0
        for first in range(0, len(self.jobs), SOLVES_PER_BLOCK):
            run.speed.mark()
            block = [self._solve(job, run, traced) for job in self.jobs[first : first + SOLVES_PER_BLOCK]]
            factor = run.speed.factor()
            raw += sum(block)
            wall += factor * sum(block)
            if not traced:
                self.solve_ms.extend(1e3 * factor * seconds for seconds in block)
        if not traced:
            run.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return wall, raw

    def _solve(self, job, run, traced):
        """Run and check one solve; returns its measured seconds."""
        import collective_recourse as cr

        start = perf_counter()
        call = run.tracer.open("bench.call") if traced else None
        try:
            # Looked up on the package each time so the traced wrapper is used.
            result = cr.individual_recourse(job["query"], self.theta, job["budget"], self.cfg)
        except ValueError as err:
            run.check([f"raised {type(err).__name__}"])
            return perf_counter() - start
        finally:
            if traced:
                run.tracer.close(call)
                run.tracer.request += 1
        seconds = perf_counter() - start
        loss = result.achieved_loss
        reasons = checks.solve_failures(loss, float(result.loss_trace[0]), job["base"], job["best"], job["first"])
        run.check(reasons)
        if job["first"] is None:
            job["first"] = loss
            run.results.append({"row": job["row"], "epsilon": job["epsilon"], "loss": loss, "optimum": job["best"]})
        if not reasons:
            run.individual_gaps.append(loss - job["best"])
        return seconds

    def timings(self, run):
        """Median pass time, solves per second, and every solve's latency in ms."""
        wall = statistics.median(run.walls)
        return wall, len(self.jobs) / wall, self.solve_ms


# Workload -> (class, probes per host-speed mark; see README.md). A mark
# should be short next to the unit it brackets: a CLI run lasts seconds, a
# block of solves under one. The probe tracks the host's drift on
# interpreter-bound solver steps, but not the large-array numpy work and
# CSV parsing of sweep-synth-20k, which the drift barely slows.
WORKLOADS = {
    "sweep-bundled": (CliSweeps, 5),
    "sweep-synth-20k": (CliSweeps, 0),
    "individual-misclassified": (Misclassified, 1),
}


def end_to_end(run, setup_times, workload):
    wall, solves_per_s, solve_ms = workload.timings(run)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "solves_per_s": solves_per_s,
        "solve_ms.p50": statistics.median(solve_ms),
        "solve_ms.p90": statistics.quantiles(solve_ms, n=10, method="inclusive")[-1],
        "peak_rss_mb": statistics.median(run.rss_mb),
    }, len(solve_ms)


def per_layer(run, import_s):
    spans = run.tracer.arrays()
    layers = summarize(spans)
    reps = len(run.traced_walls)
    counters = {key: value / reps for key, value in spans["counters"].items()}

    def span(name, key):
        return layers.get(name, {}).get(key, 0) / reps

    metrics = {}
    for name in (
        "model.refit", "model.fit", "recourse.collective", "model.grad_centroids",
        "recourse.individual", "model.nll_loss", "model.grad_input", "dataset.load",
    ):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.self_s"] = span(name, "self_s")
    for solver in ("recourse.individual", "recourse.collective"):
        steps = counters.get(f"{solver}.steps", 0)
        metrics[f"{solver}.steps"] = steps
        metrics[f"{solver}.improving_step_ratio"] = counters.get(f"{solver}.improving_steps", 0) / steps if steps else 0.0
    for key in ("model.refit.bytes_computed", "dataset.load.rows", "dataset.load.bytes", "harness.bytes_written"):
        metrics[key] = counters.get(key, 0)
    metrics["harness.sweep.self_s"] = span("harness.sweep", "self_s")
    metrics["harness.write_s"] = span("harness.write", "total_s")
    metrics["cli.main.self_s"] = span("cli.main", "self_s")
    # A traced CLI run times its own import; in-process, the package was imported once at start.
    metrics["cli.import_s"] = span("cli.import", "total_s") if "cli.import" in layers else import_s
    calls = layers.get("bench.call", {"total_s": 0.0, "self_s": 0.0})
    metrics["trace.wall_s"] = statistics.median(run.traced_walls)
    metrics["trace.accounted_ratio"] = 1.0 - calls["self_s"] / calls["total_s"]
    metrics["trace.overhead_ratio"] = statistics.median(run.traced_walls) / statistics.median(run.raw_walls)
    return metrics, spans


def sha256_of(paths, base):
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.relative_to(base).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload):
    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {
        "git_rev": rev,
        "source_sha256": sha256_of((SRC / "collective_recourse").rglob("*.py"), SRC),
        "bench_sha256": sha256_of(BENCH.glob("*.py"), BENCH),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs": workload.inputs,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "collective_recourse" / "__init__.py", IRIS, EMBEDDINGS) if not p.is_file()]
    if missing:
        print(f"error: not a collective-recourse checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import collective_recourse  # noqa: F401

    import_s = perf_counter() - start

    workload_class, probes_per_mark = WORKLOADS[args.workload]
    workload = workload_class(args.workload, args.seed, args.tiny)
    run = Run(Tracer() if args.trace else None, HostSpeed(probes_per_mark))
    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_REPEATS):
        run.speed.mark()
        start = perf_counter()
        workload.setup()
        raw_setup_times.append(perf_counter() - start)
        setup_times.append(raw_setup_times[-1] * run.speed.factor())

    # A traced run alternates untraced and traced repetitions, one of each at least.
    min_untraced, min_traced = (1, 1) if args.trace else (MIN_REPS, 0)
    deadline = perf_counter() + args.seconds
    while len(run.walls) < min_untraced or len(run.traced_walls) < min_traced or perf_counter() < deadline:
        traced = bool(args.trace) and len(run.traced_walls) < len(run.walls)
        if traced:
            restore = run.tracer.install()
            try:
                run.traced_walls.append(workload.rep(run, True)[1])
            finally:
                restore()
        else:
            wall, raw = workload.rep(run, False)
            run.walls.append(wall)
            run.raw_walls.append(raw)

    if args.trace:
        metrics, spans = per_layer(run, import_s)
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        save_spans(OUT / "traces" / f"{args.workload}.npz", spans)
    else:
        metrics, samples = end_to_end(run, setup_times, workload)
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {[m['name'] for m in wanted]}")

    quality = {
        "failed_ratio": run.failed / run.attempted,
        "failure_reasons": dict(run.reasons),
        "collective_gap.max": max(run.collective_gaps) if run.collective_gaps else None,
        "individual_gap.mean": statistics.fmean(run.individual_gaps) if run.individual_gaps else None,
        "solve_ms.samples": None if args.trace else samples,
        "repetitions": {"untraced": len(run.walls), "traced": len(run.traced_walls)},
        "measured.setup_s": statistics.median(raw_setup_times),
        "measured.wall_s": statistics.median(run.raw_walls),
        "probe_s.median": statistics.median(run.speed.probes) if run.speed.probes else None,
    }
    record = {
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "quality": quality,
        "setup_s": setup_times,
        "measured_setup_s": raw_setup_times,
        "walls_s": run.walls,
        "measured_walls_s": run.raw_walls,
        "traced_walls_s": run.traced_walls,
        "cli_walls_s": run.cli_walls,
        "probes_s": run.speed.probes,
        "provenance": provenance(args, workload),
        "results": run.results,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(run.walls)}+{len(run.traced_walls)} traced")
    for m in wanted:
        print(f"metric {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    for key, value in quality.items():
        print(f"quality {key} = {json.dumps(value)}")
    print(f"provenance {json.dumps(record['provenance'])}")
    print(f"wrote {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
