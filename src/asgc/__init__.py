"""Polynomial graph feature filtering and node-classification toolkit.

Core pieces: a CSR graph type with normalized propagation operators, the
fixed smoothing filter and its adaptive least-squares counterpart, a
two-block SBM denoising benchmark, plain-text dataset ingestion, and the
multi-trial classification protocol with a convex-combination search.
"""

from .data import (
    DatasetError,
    LabeledDataset,
    ManifestEntry,
    SplitSpec,
    homophily,
    load_dataset,
    load_from_manifest,
    load_manifest,
    make_splits,
    save_dataset,
)
from .experiments import (
    METHODS,
    AggregateReport,
    TrialResult,
    aggregate,
    classification_trials,
    combo_search,
    k_sweep,
    run_method,
    split_seed,
)
from .filters import (
    AsgcResult,
    ComboWeights,
    asgc_filter,
    blend,
    sgc_filter,
    simplex_grid,
)
from .graph import (
    Graph,
    GraphError,
    PropagationOperator,
    degrees,
    laplacian_quadratic_form,
    normalized_adjacency,
    propagate,
)
from .numeric import (
    LeastSquaresSolution,
    LogisticConfig,
    LogisticModel,
    accuracy,
    fit_logistic,
    least_squares,
    predict,
    predict_proba,
)
from .synthetic import (
    DenoiseReport,
    MethodDenoise,
    SbmConfig,
    denoise_metrics,
    denoise_trial,
    generate_sbm,
    run_sweep,
    trial_seed,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "AsgcResult",
    "ComboWeights",
    "DatasetError",
    "DenoiseReport",
    "Graph",
    "GraphError",
    "LabeledDataset",
    "LeastSquaresSolution",
    "LogisticConfig",
    "LogisticModel",
    "METHODS",
    "ManifestEntry",
    "MethodDenoise",
    "PropagationOperator",
    "SbmConfig",
    "SplitSpec",
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
    "predict_proba",
    "propagate",
    "run_method",
    "run_sweep",
    "save_dataset",
    "sgc_filter",
    "simplex_grid",
    "split_seed",
    "trial_seed",
]
