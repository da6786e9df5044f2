"""The package namespace: each public name resolves, on first use, to the
object its defining module holds, and importing the package loads no
numerical library."""

import importlib
import os
import subprocess
import sys

import pytest

import tarp

# the public names, each pinned to the module defining it
PUBLIC = {
    "data": ["DataError", "Dataset", "StandardizationParams", "load_csv", "standardize"],
    "screening": ["default_delta", "inclusion_probabilities", "marginal_correlations",
                  "sample_inclusion"],
    "projection": ["ProjectionMatrix", "RIS_RP", "RIS_PCR", "compress",
                   "compute_ris_pcr", "sample_ris_rp"],
    "posterior": ["ConvergenceError", "GaussianPosterior", "LaplacePosterior",
                  "fit_bernoulli_laplace", "fit_gaussian", "predictive"],
    "ensemble": ["TarpConfig", "TarpModel", "TarpPrediction", "fit_tarp", "predict_tarp",
                 "sample_config_grid"],
    "model_io": ["load_model", "save_model"],
    "metrics": ["ClassificationReport", "RegressionReport", "evaluate_classification",
                "evaluate_regression"],
    "simgen": ["SchemeSpec", "generate"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_is_the_public_names():
    assert len(NAMES) == 35
    assert sorted(tarp.__all__) == sorted(["__version__", *(name for _, name in NAMES)])
    assert tarp.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_the_defining_modules_object(module, name):
    obj = getattr(tarp, name)
    assert obj is getattr(importlib.import_module(f"tarp.{module}"), name)
    if hasattr(obj, "__module__"):  # the two variant names are plain strings
        assert obj.__module__ == f"tarp.{module}"


def test_star_import_and_dir_cover_every_name():
    namespace = {}
    exec("from tarp import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"tarp.{module}"), name)
    assert set(tarp.__all__) <= set(dir(tarp))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'tarp' has no attribute 'nope'"):
        tarp.nope
    with pytest.raises(ImportError):
        exec("from tarp import nope", {})


def test_import_loads_no_numerical_library():
    # the `tarp` command sets BLAS's thread count before numpy loads, which
    # needs a package import that does not load it
    code = ("import sys, tarp; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tarp.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
