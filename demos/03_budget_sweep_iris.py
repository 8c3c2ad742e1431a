"""
Sweeping the perturbation budget on Iris
========================================

Runs both kinds of recourse at eleven budgets for the interpolated
query between classes 1 and 2, prints the loss table, and renders the
CSV report and SVG loss curves that the `sweep` CLI subcommand would
produce. Collective recourse matches individual recourse at eps = 0 and
beats it strictly at every interior budget.
"""

from pathlib import Path

from collective_recourse import (
    fit,
    load_csv,
    make_query,
    render_plot_svg,
    sweep_epsilon,
    write_report_csv,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "output"

# 1. Fit and place the query a quarter of the way from class 1 to 2.
batch = load_csv(ROOT / "data" / "iris.csv", label_column="species")
theta = fit(batch)
query = make_query(theta, class_a=1, class_b=2, alpha=0.25)

# 2. Sweep eps = 0, 0.1, ..., 1.0. Each budget warm-starts from the
#    previous solution, so the curves are monotone non-increasing.
grid = [round(0.1 * i, 10) for i in range(11)]
report = sweep_epsilon(theta, query, grid)

print("eps    baseline  individual  collective  gap       flips")
for row in report.rows:
    gap = row.individual_loss - row.collective_loss
    flips = f"{str(row.individual_flipped).lower():5s} {str(row.collective_flipped).lower():5s}"
    print(f"{row.epsilon:4.1f}   {row.baseline_loss:.4f}    {row.individual_loss:.4f}      "
          f"{row.collective_loss:.4f}      {gap:+.4f}   {flips}")

# 3. Persist the report the same way the CLI does; both files are
#    byte-deterministic, so repeated runs diff clean.
OUT.mkdir(exist_ok=True)
write_report_csv(report, OUT / "iris_sweep.csv")
render_plot_svg(report, OUT / "iris_sweep.svg")
print(f"\nwrote {OUT / 'iris_sweep.csv'}")
print(f"wrote {OUT / 'iris_sweep.svg'}")
