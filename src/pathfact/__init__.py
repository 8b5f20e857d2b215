"""Graph-coupled Bayesian semi-nonnegative tri-matrix factorization.

Learns a nonnegative association matrix between sample clusters and
feature sets from a real-valued observation matrix, a curated membership
mask and a feature interaction graph, by coordinate-ascent variational
inference with a posterior-regularization penalty on known memberships.
"""

from .dist import GammaParams, NormalParams, TruncatedNormalParams
from .graph import InteractionGraph, LaplacianOperator, normalized_laplacian
from .model import (
    AssociationResult,
    ElboTrace,
    Hyperparameters,
    NumericalError,
    ObservationSet,
    VariationalState,
    elbo,
    expected_reconstruction,
    expected_sq_residual,
    mix_cluster,
    regularized_objective,
    summarize,
    z_marginal,
)
from .inference import FitReport, fit, init_state
from .dataio import align, load_edge_list, load_expression, load_gmt
from .synth import (
    PlantedTruth,
    RecoveryMetrics,
    generate,
    generate_planted,
    score,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationResult",
    "ElboTrace",
    "FitReport",
    "GammaParams",
    "Hyperparameters",
    "InteractionGraph",
    "LaplacianOperator",
    "NormalParams",
    "NumericalError",
    "ObservationSet",
    "PlantedTruth",
    "RecoveryMetrics",
    "TruncatedNormalParams",
    "VariationalState",
    "align",
    "elbo",
    "expected_reconstruction",
    "expected_sq_residual",
    "fit",
    "generate",
    "generate_planted",
    "init_state",
    "load_edge_list",
    "load_expression",
    "load_gmt",
    "mix_cluster",
    "normalized_laplacian",
    "regularized_objective",
    "score",
    "summarize",
    "z_marginal",
]
