"""Polynomial graph feature filtering and node-classification toolkit.

Core pieces: a CSR graph type with normalized propagation operators, the
fixed smoothing filter and its adaptive least-squares counterpart, a
two-block SBM denoising benchmark, plain-text dataset ingestion, and the
multi-trial classification protocol with a convex-combination search.

Each public name is imported from its module on first use (PEP 562), so
``import asgc`` loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

# the modules that define the public names, each name listed once
_EXPORTS = {
    "data": ("DatasetError", "LabeledDataset", "homophily", "load_dataset",
             "load_from_manifest", "load_manifest", "make_splits"),
    "experiments": ("METHODS", "TrialResult", "aggregate", "classification_trials",
                    "combo_search", "k_sweep", "run_method"),
    "filters": ("asgc_filter", "blend", "sgc_filter", "simplex_grid"),
    "graph": ("Graph", "GraphError", "degrees", "laplacian_quadratic_form",
              "normalized_adjacency", "propagate"),
    "numeric": ("accuracy", "fit_logistic", "least_squares", "predict"),
    "parallel": ("spawn_seed",),
    "synthetic": ("SbmConfig", "denoise_metrics", "denoise_trial", "generate_sbm", "run_sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
