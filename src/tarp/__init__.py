"""Targeted random projection for compressed Bayesian regression.

The pipeline screens predictors by their marginal response correlation,
draws three-point random (or partial-SVD) projections over the selected columns,
fits exact conjugate posteriors in the compressed space, and aggregates
predictions over many projection draws.
"""

__version__ = "0.1.0"

from .data import (
    DataError,
    Dataset,
    StandardizationParams,
    load_csv,
    standardize,
)
from .ensemble import (
    TarpConfig,
    TarpModel,
    TarpPrediction,
    fit_tarp,
    predict_tarp,
    sample_config_grid,
)
from .metrics import (
    ClassificationReport,
    RegressionReport,
    evaluate_classification,
    evaluate_regression,
)
from .model_io import load_model, save_model
from .posterior import (
    ConvergenceError,
    GaussianPosterior,
    LaplacePosterior,
    PredictiveT,
    fit_bernoulli_laplace,
    fit_gaussian,
    predictive,
)
from .projection import (
    RIS_PCR,
    RIS_RP,
    ProjectionMatrix,
    compress,
    compute_ris_pcr,
    sample_ris_rp,
)
from .screening import (
    InclusionVector,
    default_delta,
    inclusion_probabilities,
    marginal_correlations,
    sample_inclusion,
)
from .simgen import SchemeSpec, generate

__all__ = [
    "__version__",
    "DataError",
    "Dataset",
    "StandardizationParams",
    "load_csv",
    "standardize",
    "InclusionVector",
    "default_delta",
    "inclusion_probabilities",
    "marginal_correlations",
    "sample_inclusion",
    "ProjectionMatrix",
    "RIS_RP",
    "RIS_PCR",
    "compress",
    "compute_ris_pcr",
    "sample_ris_rp",
    "ConvergenceError",
    "GaussianPosterior",
    "LaplacePosterior",
    "PredictiveT",
    "fit_bernoulli_laplace",
    "fit_gaussian",
    "predictive",
    "TarpConfig",
    "TarpModel",
    "TarpPrediction",
    "fit_tarp",
    "predict_tarp",
    "sample_config_grid",
    "load_model",
    "save_model",
    "ClassificationReport",
    "RegressionReport",
    "evaluate_classification",
    "evaluate_regression",
    "SchemeSpec",
    "generate",
]
