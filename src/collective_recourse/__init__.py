"""Individual and collective recourse for an online nearest-centroid classifier.

The model predicts by softmax over negative Euclidean distances to per-class
centroids and refits in closed form (centroids are class means). Individual
recourse perturbs a query point within an L2 budget to lower the loss toward a
goal class; collective recourse perturbs training rows instead, moving the
refit centroids. A budget-sweep harness compares the two strategies.

The package root holds the names a user path needs. The rest is imported from
its module: ``predict``, ``grad_input`` and the other model functions from
``collective_recourse.model``, and the grid oracles that the solvers are
tested against from ``collective_recourse.oracle``.
"""

from .cli import cli_main
from .dataset import (
    DatasetError,
    LabeledBatch,
    SyntheticSpec,
    load_csv,
    load_embeddings,
    save_csv,
    synth_blobs,
)
from .harness import (
    SweepReport,
    SweepRow,
    describe_query,
    make_query,
    render_plot_svg,
    sweep_epsilon,
    write_report_csv,
)
from .model import Centroids, fit, nll_loss, refit_with_perturbation, training_accuracy
from .recourse import (
    EpsilonBudget,
    PerturbationMatrix,
    QuerySpec,
    RecourseResult,
    SolverConfig,
    collective_recourse,
    individual_recourse,
)

__version__ = "0.1.0"

__all__ = [
    "Centroids",
    "DatasetError",
    "EpsilonBudget",
    "LabeledBatch",
    "PerturbationMatrix",
    "QuerySpec",
    "RecourseResult",
    "SolverConfig",
    "SweepReport",
    "SweepRow",
    "SyntheticSpec",
    "cli_main",
    "collective_recourse",
    "describe_query",
    "fit",
    "individual_recourse",
    "load_csv",
    "load_embeddings",
    "make_query",
    "nll_loss",
    "refit_with_perturbation",
    "render_plot_svg",
    "save_csv",
    "sweep_epsilon",
    "synth_blobs",
    "training_accuracy",
    "write_report_csv",
]
