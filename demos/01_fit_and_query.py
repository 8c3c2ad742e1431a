"""
Fitting the classifier and asking for recourse
==============================================

Walks the smallest complete loop: load a labeled CSV, fit the
nearest-centroid model, place a query between two classes, and compare
what the query subject can do alone against what the training cohort
can do for them.
"""

from pathlib import Path

import numpy as np

from collective_recourse import (
    EpsilonBudget,
    collective_recourse,
    describe_query,
    fit,
    individual_recourse,
    load_csv,
    make_query,
    training_accuracy,
)

ROOT = Path(__file__).resolve().parent.parent

# 1. Load the flower measurements and fit one centroid per species.
batch = load_csv(ROOT / "data" / "iris.csv", label_column="species")
theta = fit(batch)
print(f"loaded {batch.num_rows} rows, {batch.num_classes} classes, d={batch.dim}")
print(f"training accuracy: {training_accuracy(batch, theta):.4f}")
for y, center in enumerate(theta.mu):
    print(f"  centroid[{y}] = {np.round(center, 3)}")

# 2. Build a query a quarter of the way from class 1 toward class 2.
#    The subject sits on the wrong side of the boundary and wants class 1.
query = make_query(theta, goal_class=1, base_class=2, alpha=0.25)
info = describe_query(theta, query)
print(f"\nquery features: {np.round(query.features, 3)}")
for key, value in info.items():
    print(f"  {key} = {value}")

# 3. Individual recourse: the subject edits their own features within an
#    L2 ball of radius 0.3.
budget = EpsilonBudget(0.3)
ind = individual_recourse(query, theta, budget)
print(f"\nindividual @ eps=0.3: loss {info['baseline_loss']:.4f} -> "
      f"{ind.achieved_loss:.4f}, flipped={ind.flipped}")
print(f"  feature edit: {np.round(ind.perturbation, 4)} "
      f"(norm {np.linalg.norm(ind.perturbation):.4f})")

# 4. Collective recourse: every training row may move within the same
#    ball; the model is refit, and the refit centroids change the
#    prediction at the untouched query point.
col = collective_recourse(batch, query, budget)
print(f"collective @ eps=0.3: loss {info['baseline_loss']:.4f} -> "
      f"{col.achieved_loss:.4f}, flipped={col.flipped}")
moved = np.count_nonzero(col.perturbation.row_norms() > 1e-9)
print(f"  training rows moved: {moved}/{batch.num_rows}, "
      f"max row norm {col.perturbation.row_norms().max():.4f}")
print(f"  advantage over individual: "
      f"{ind.achieved_loss - col.achieved_loss:+.4f} in loss")
