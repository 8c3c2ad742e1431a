"""
Recourse on higher-dimensional embeddings
=========================================

The solvers are dimension-agnostic: anything that can be flattened to a
d-dimensional feature vector works. This demo regenerates the bundled
10-class, 10-dimensional embedding dataset from its seeded recipe,
confirms the regeneration is byte-identical to the shipped file, and
runs the fit -> query -> sweep pipeline on it.
"""

from pathlib import Path

import numpy as np

from collective_recourse import (
    SyntheticSpec,
    describe_query,
    fit,
    load_embeddings,
    make_query,
    save_csv,
    sweep_epsilon,
    synth_blobs,
    training_accuracy,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

# 1. Regenerate the dataset: 10 class centers drawn once from a seeded
#    generator, then 40 unit-noise samples per class from a second seed.
centers = 1.2 * np.random.default_rng(42).standard_normal((10, 10))
batch = synth_blobs(SyntheticSpec(centers, points_per_class=40, noise_scale=1.0, seed=7))
regenerated = OUT / "embeddings_d10.csv"
save_csv(batch, regenerated)
shipped = ROOT / "data" / "embeddings_d10.csv"
print(f"regenerated {batch.num_rows} rows, d={batch.dim}, k={batch.num_classes}")
print(f"byte-identical to shipped copy: {regenerated.read_bytes() == shipped.read_bytes()}")

# 2. Fit. With unit noise the blobs overlap, so accuracy is deliberately
#    imperfect -- recourse is only interesting near a boundary.
batch = load_embeddings(shipped)
theta = fit(batch)
print(f"training accuracy: {training_accuracy(batch, theta):.4f}")

# 3. Query between classes 0 and 1, biased toward the class-1 side so the
#    base prediction needs flipping.
query = make_query(theta, class_a=0, class_b=1, alpha=0.25)
for key, value in describe_query(theta, query).items():
    print(f"  {key} = {value}")

# 4. Sweep. The collective advantage grows with the budget: with ten
#    classes there are nine competing centroids to push away, which the
#    query subject alone cannot do.
report = sweep_epsilon(theta, query, [round(0.1 * i, 10) for i in range(11)])
print("\neps    individual  collective  gap")
for row in report.rows:
    print(f"{row.epsilon:4.1f}   {row.individual_loss:.4f}      {row.collective_loss:.4f}      "
          f"{row.individual_loss - row.collective_loss:+.4f}")
