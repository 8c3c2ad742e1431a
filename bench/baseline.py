"""Run every workload over several seeds and write a BENCH_<n>.json summary.

Usage (from the repository root):

    python3 bench/baseline.py --out bench/BENCH_1.json [--first-seed N]

Each workload runs once per seed (ten seeds from ``--first-seed``) with
``--trace 0`` and once more with ``--trace 1``, one run at a time, for the
``run_seconds`` that BENCHMARK.json fixes. For each end-to-end metric the
summary holds the median, the quartiles and their spread as a share of the
median next to the bound from BENCHMARK.json; the per-layer metrics come
from the traced run. Every run's full output stays in the summary's ``runs``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def bench(workload, seed, seconds, trace):
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "trace": trace, "elapsed_s": elapsed, **result, "provenance": record["provenance"]}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-seed", type=int, default=1, help="use fresh seeds to check a claim")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = range(args.first_seed, args.first_seed + SEEDS)
        runs = []
        for seed in seeds:
            runs.append(bench(workload, seed, seconds, 0))
            print(f"{workload} seed={seed} elapsed={runs[-1]['elapsed_s']:.1f}s "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        traced = bench(workload, seeds[0], seconds, 1)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
            print(f"  {metric['name']:22s} median={median:.6g} {metric['unit']} "
                  f"spread={(q3 - q1) / median:.4f} bound={metric['bound']}", flush=True)
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "provenance": traced["provenance"],
            "runs": runs + [traced],
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
