"""Individual and collective recourse for an online nearest-centroid classifier.

The model predicts by softmax over negative Euclidean distances to per-class
centroids and refits in closed form (centroids are class means). Individual
recourse perturbs a query point within an L2 budget to lower the loss toward a
goal class; collective recourse perturbs training rows instead, moving the
refit centroids. Grid oracles and a budget-sweep harness support comparing the
two strategies.
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
    read_report_csv,
    render_plot_svg,
    standardize_features,
    sweep_epsilon,
    write_report_csv,
)
from .model import (
    Centroids,
    class_scores,
    distances,
    fit,
    grad_centroids,
    grad_input,
    load_centroids_csv,
    nll_loss,
    predict,
    predict_proba,
    refit_with_perturbation,
    save_centroids_csv,
    training_accuracy,
)
from .oracle import (
    GridSpec,
    ball_grid,
    finite_diff_grad,
    grid_collective,
    grid_individual,
    lipschitz_slack,
)
from .recourse import (
    EpsilonBudget,
    PerturbationMatrix,
    QuerySpec,
    RecourseResult,
    SolverConfig,
    collective_recourse,
    individual_recourse,
    normalize_sphere,
    project_ball,
)

__version__ = "0.1.0"

__all__ = [
    "Centroids",
    "DatasetError",
    "EpsilonBudget",
    "GridSpec",
    "LabeledBatch",
    "PerturbationMatrix",
    "QuerySpec",
    "RecourseResult",
    "SolverConfig",
    "SweepReport",
    "SweepRow",
    "SyntheticSpec",
    "ball_grid",
    "class_scores",
    "cli_main",
    "collective_recourse",
    "describe_query",
    "distances",
    "finite_diff_grad",
    "fit",
    "grad_centroids",
    "grad_input",
    "grid_collective",
    "grid_individual",
    "individual_recourse",
    "lipschitz_slack",
    "load_centroids_csv",
    "load_csv",
    "load_embeddings",
    "make_query",
    "nll_loss",
    "normalize_sphere",
    "predict",
    "predict_proba",
    "project_ball",
    "read_report_csv",
    "refit_with_perturbation",
    "render_plot_svg",
    "save_centroids_csv",
    "save_csv",
    "standardize_features",
    "sweep_epsilon",
    "synth_blobs",
    "training_accuracy",
    "write_report_csv",
]
