"""Polynomial graph feature filtering and node-classification toolkit.

Core pieces: a CSR graph type with normalized propagation operators, the
fixed smoothing filter and its adaptive least-squares counterpart, a
two-block SBM denoising benchmark, plain-text dataset ingestion, and the
multi-trial classification protocol with a convex-combination search.
"""

from .data import (
    DatasetError,
    LabeledDataset,
    homophily,
    load_dataset,
    load_from_manifest,
    load_manifest,
    make_splits,
)
from .experiments import (
    METHODS,
    TrialResult,
    aggregate,
    classification_trials,
    combo_search,
    k_sweep,
    run_method,
)
from .filters import (
    asgc_filter,
    blend,
    sgc_filter,
    simplex_grid,
)
from .graph import (
    Graph,
    GraphError,
    degrees,
    laplacian_quadratic_form,
    normalized_adjacency,
    propagate,
)
from .numeric import (
    accuracy,
    fit_logistic,
    least_squares,
    predict,
)
from .parallel import spawn_seed
from .synthetic import (
    SbmConfig,
    denoise_metrics,
    denoise_trial,
    generate_sbm,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "Graph",
    "GraphError",
    "LabeledDataset",
    "METHODS",
    "SbmConfig",
    "TrialResult",
    "accuracy",
    "aggregate",
    "asgc_filter",
    "blend",
    "classification_trials",
    "combo_search",
    "degrees",
    "denoise_metrics",
    "denoise_trial",
    "fit_logistic",
    "generate_sbm",
    "homophily",
    "k_sweep",
    "laplacian_quadratic_form",
    "least_squares",
    "load_dataset",
    "load_from_manifest",
    "load_manifest",
    "make_splits",
    "normalized_adjacency",
    "predict",
    "propagate",
    "run_method",
    "run_sweep",
    "sgc_filter",
    "simplex_grid",
    "spawn_seed",
]
