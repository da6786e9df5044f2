"""Targeted random projection for compressed Bayesian regression.

The pipeline screens predictors by their marginal response correlation,
draws three-point random (or partial-SVD) projections over the selected columns,
fits exact conjugate posteriors in the compressed space, and aggregates
predictions over many projection draws.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, under the module that defines it. A name's module is
# imported at its first use (PEP 562), so `import tarp` loads neither numpy
# nor scipy, and the `tarp` command can set BLAS's thread count first
_EXPORTS = {
    "data": ("DataError", "Dataset", "StandardizationParams", "load_csv", "standardize"),
    "screening": ("default_delta", "inclusion_probabilities", "marginal_correlations",
                  "sample_inclusion"),
    "projection": ("ProjectionMatrix", "RIS_RP", "RIS_PCR", "compress", "compute_ris_pcr",
                   "sample_ris_rp"),
    "posterior": ("ConvergenceError", "GaussianPosterior", "LaplacePosterior",
                  "PredictiveT", "fit_bernoulli_laplace", "fit_gaussian", "predictive"),
    "ensemble": ("TarpConfig", "TarpModel", "TarpPrediction", "fit_tarp", "predict_tarp",
                 "sample_config_grid"),
    "model_io": ("load_model", "save_model"),
    "metrics": ("ClassificationReport", "RegressionReport", "evaluate_classification",
                "evaluate_regression"),
    "simgen": ("SchemeSpec", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
