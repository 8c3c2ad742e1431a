"""
Checking the solvers against brute-force grid oracles
=====================================================

On 2-D problems every candidate perturbation can be enumerated on a
fine lattice, which turns the solvers' outputs into testable claims.
Two tiny constructed instances make the geometry easy to reason about:

* a symmetric 2-class instance with both centroids on the x-axis, where
  the optimal loss has a closed form; and
* a 3-class instance, where jointly moving all three centroids beats
  moving the query point.
"""

import math

import numpy as np

from collective_recourse import (
    EpsilonBudget,
    LabeledBatch,
    QuerySpec,
    collective_recourse,
    fit,
    individual_recourse,
    nll_loss,
)
from collective_recourse.oracle import GridSpec, grid_collective, grid_individual, lipschitz_slack

# 1. The symmetric instance: one training point per class at (+1, 0) and
#    (-1, 0), a query at (-0.5, 0) hoping for class 0. With eps = 0.3 the
#    best either side can do is close a 1.0 distance gap to 0.4, giving a
#    loss of log(1 + e^0.4) exactly.
batch = LabeledBatch(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 1]), 2)
query = QuerySpec(np.array([-0.5, 0.0]), goal_class=0)
theta = fit(batch)
eps, spec = 0.3, GridSpec(0.01)
closed_form = math.log(1 + math.exp(0.4))

ind = individual_recourse(query, theta, EpsilonBudget(eps))
col = collective_recourse(batch, query, EpsilonBudget(eps))
_, oracle_ind = grid_individual(query, theta, eps, spec)
_, oracle_col = grid_collective(batch, query, eps, spec)
slack = lipschitz_slack(batch.num_classes, spec.resolution)

print("symmetric 2-class instance, eps = 0.3")
print(f"  closed form        : {closed_form:.6f}")
print(f"  individual solver  : {ind.achieved_loss:.6f}")
print(f"  collective solver  : {col.achieved_loss:.6f}")
print(f"  individual oracle  : {oracle_ind:.6f}")
print(f"  collective oracle  : {oracle_col:.6f}")
print(f"  grid slack bound   : {slack:.4f} "
      f"(worst gap {max(abs(ind.achieved_loss - oracle_ind), abs(col.achieved_loss - oracle_col)):.2e})")

# 2. Bracket the flip threshold. The query is 0.5 from the midpoint, so
#    eps* = 0.5: just below no budget flips the prediction, just above
#    both kinds of recourse do.
for eps_probe in (0.45, 0.55):
    flips = (
        individual_recourse(query, theta, EpsilonBudget(eps_probe)).flipped,
        collective_recourse(batch, query, EpsilonBudget(eps_probe)).flipped,
    )
    print(f"  eps = {eps_probe}: flipped (individual, collective) = {flips}")

# 3. The 3-class instance: a third centroid at (0, 2) pulls probability
#    mass away from the goal. Individual recourse can only shorten one
#    distance; collective recourse also pushes the competing centroids
#    away, so it wins strictly.
batch3 = LabeledBatch(
    np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]]), np.array([0, 1, 2]), 3
)
theta3 = fit(batch3)
base3 = nll_loss(query.features, query.goal_class, theta3)
ind3 = individual_recourse(query, theta3, EpsilonBudget(eps))
col3 = collective_recourse(batch3, query, EpsilonBudget(eps))
_, oracle_ind3 = grid_individual(query, theta3, eps, spec)
_, oracle_col3 = grid_collective(batch3, query, eps, spec)

print("\n3-class instance, eps = 0.3")
print(f"  baseline loss      : {base3:.6f}")
print(f"  individual solver  : {ind3.achieved_loss:.6f} (oracle {oracle_ind3:.6f})")
print(f"  collective solver  : {col3.achieved_loss:.6f} (oracle {oracle_col3:.6f})")
print(f"  collective margin  : {ind3.achieved_loss - col3.achieved_loss:.6f} strictly > 0")
