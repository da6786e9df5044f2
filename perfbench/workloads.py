"""Workload shapes, seeded inputs, the op of each workload, and output checks.

Every input is a pure function of the workload seed. In the fit workloads
each op gets a fresh dataset and master seed, so the tuning draws (m, psi),
which move op time by ~17% between seeds, are averaged over the ops of a
run; ``serve_cli`` serves one fixed model (see :func:`serving_inputs`). The
program sees only the generated arrays, or the files written from them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import tarp.data
import tarp.ensemble
import tarp.model_io
from tarp.data import Dataset
from tarp.metrics import evaluate_classification, evaluate_regression
from tarp.simgen import SchemeSpec, generate

LEVEL = 0.5  # nominal coverage of the predictive intervals

SERVE_DEPLOY_SEED = 1712
SERVE_POOL = 4

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
# Reordered floating-point sums move outputs by ~1e-12 relative; a wrong
# answer moves them by 1e-2 or more.
REFERENCE_RTOL = 1e-6
REFERENCE_ROWS = 100

# run-mean bands: measured ECP of the 50% intervals is 0.40-0.50 and
# fit_logit AUC is 0.75-0.90 per op
ECP_BAND = (0.35, 0.65)
AUC_FLOOR = 0.65


@dataclass(frozen=True)
class Shape:
    scheme: str
    n_train: int
    n_test: int
    p: int
    replicates: int
    variant: str
    binary: bool = False
    cli: bool = False


WORKLOADS = {
    "fit_rp": Shape("III", 200, 100, 5000, 50, "ris_rp"),
    "fit_pcr": Shape("III", 200, 100, 5000, 50, "ris_pcr"),
    "fit_logit": Shape("I", 200, 100, 2000, 100, "ris_rp", binary=True),
    "serve_cli": Shape("III", 200, 1000, 2000, 100, "ris_rp", cli=True),
}


def shape_for(workload: str, smoke: bool) -> Shape:
    shape = WORKLOADS[workload]
    if smoke:
        shape = replace(shape, n_train=40, n_test=20 if not shape.cli else 30,
                        p=60, replicates=3)
    return shape


@dataclass(frozen=True)
class OpInputs:
    train: Dataset
    test: Dataset
    configs: list
    master_seed: int


def _inputs(shape: Shape, data_seed: int, master_seed: int) -> OpInputs:
    dataset, _ = generate(SchemeSpec(scheme=shape.scheme, n=shape.n_train + shape.n_test,
                                     p=shape.p, seed=data_seed))
    X, y = dataset.design, dataset.response
    kind = "continuous"
    if shape.binary:
        y = (y > np.median(y[: shape.n_train])).astype(np.float64)
        kind = "binary"
    train = Dataset(X[: shape.n_train], y[: shape.n_train], response_kind=kind)
    test = Dataset(X[shape.n_train:], y[shape.n_train:], response_kind=kind)
    configs = tarp.ensemble.sample_config_grid(
        train.n, train.p, shape.replicates, variant=shape.variant, master_seed=master_seed)
    return OpInputs(train, test, configs, master_seed)


def op_inputs(shape: Shape, seed: int, index: int) -> OpInputs:
    """Fresh dataset, tuning grid and master seed of op ``index`` of a run."""
    data_seed, master_seed = (
        int(v) for v in np.random.SeedSequence([seed, index]).generate_state(2, np.uint64)
    )
    return _inputs(shape, data_seed, master_seed)


def serving_inputs(shape: Shape, seed: int) -> OpInputs:
    """The deployed model's training set and grid, and the run's new rows.

    The model is part of the workload, the same in every run: with a model
    drawn per seed, its 100 (m, psi) draws alone spread ``op_s`` by 14% and
    ``model_mb`` by 19% over five seeds. The seed picks which rows of a
    fixed pool, four times the request size, are sent.
    """
    pool = SERVE_POOL * shape.n_test
    deployed = _inputs(replace(shape, n_test=pool), SERVE_DEPLOY_SEED, SERVE_DEPLOY_SEED)
    rows = np.sort(np.random.default_rng(seed).choice(pool, shape.n_test, replace=False))
    new = Dataset(deployed.test.design[rows], deployed.test.response[rows])
    return replace(deployed, test=new)


def fit(inputs: OpInputs):
    return tarp.ensemble.fit_tarp(inputs.train, inputs.configs,
                                  master_seed=inputs.master_seed, threads=1)


def predict(model, inputs: OpInputs):
    return tarp.ensemble.predict_tarp(model, inputs.test.design, level=LEVEL)


def evaluate(shape: Shape, prediction, inputs: OpInputs):
    """Held-out score of one op: ECP for continuous, AUC for binary."""
    if shape.binary:
        return evaluate_classification(prediction.probability, inputs.test.response).auc
    return evaluate_regression(
        prediction.point, np.column_stack([prediction.lower, prediction.upper]),
        inputs.test.response).ecp


def prediction_arrays(prediction) -> dict[str, np.ndarray]:
    if prediction.response_kind == "binary":
        return {"probability": prediction.probability}
    return {"point": prediction.point, "lower": prediction.lower, "upper": prediction.upper}


def output_problems(arrays: dict[str, np.ndarray], n_rows: int) -> list[str]:
    """Shape, finiteness, ``lower < upper`` and probabilities in [0, 1]."""
    problems = []
    for name, values in arrays.items():
        values = np.asarray(values)
        if values.shape != (n_rows,):
            problems.append(f"{name} has shape {values.shape}, expected ({n_rows},)")
        elif not np.all(np.isfinite(values)):
            problems.append(f"{name} has non-finite values")
    if problems:
        return problems
    if "lower" in arrays and not np.all(arrays["lower"] < arrays["upper"]):
        problems.append("an interval has lower >= upper")
    if "probability" in arrays:
        prob = arrays["probability"]
        if np.any((prob < 0.0) | (prob > 1.0)):
            problems.append("a probability lies outside [0, 1]")
    return problems


def run_problems(shape: Shape, scores: list[float]) -> list[str]:
    """Run-level sanity: mean ECP near nominal, or mean AUC above a floor."""
    if not scores:
        return []
    if any(s is None for s in scores):
        return ["a test split holds a single class, so AUC is undefined"]
    mean = float(np.mean(scores))
    if shape.binary:
        return [] if mean >= AUC_FLOOR else [f"mean AUC {mean:.3f} < {AUC_FLOOR}"]
    lo, hi = ECP_BAND
    return [] if lo <= mean <= hi else [f"mean ECP {mean:.3f} outside [{lo}, {hi}]"]


def load_reference(workload: str):
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8")).get(workload)


def reference_problems(workload: str, arrays: dict[str, np.ndarray]) -> list[str]:
    """Agreement of op 0 at the reference seed with the stored outputs."""
    ref = load_reference(workload)
    if ref is None:
        return [f"no stored reference for {workload}"]
    problems = []
    for name, expected in ref["values"].items():
        expected = np.asarray(expected)
        got = np.asarray(arrays[name])[: expected.size]
        scale = max(1.0, float(np.max(np.abs(expected))))
        err = float(np.max(np.abs(got - expected))) if got.shape == expected.shape else math.inf
        if not err <= REFERENCE_RTOL * scale:
            problems.append(f"{name} differs from the reference by {err:.3g} "
                            f"(tolerance {REFERENCE_RTOL * scale:.3g})")
    return problems


def write_reference(workload: str, arrays: dict[str, np.ndarray]) -> None:
    doc = {}
    if REFERENCE_PATH.is_file():
        doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    doc[workload] = {
        "seed": REFERENCE_SEED,
        "op": 0,
        "rtol": REFERENCE_RTOL,
        "values": {k: [float(x) for x in v[:REFERENCE_ROWS]] for k, v in arrays.items()},
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


def write_serving_files(shape: Shape, seed: int, workdir: Path) -> dict:
    """``serve_cli`` set-up: fit and save the model, write the new-row CSV.

    Returns the set-up fit time. The new rows keep their response column,
    which ``tarp predict`` drops; it is saved apart for the coverage check.
    """
    inputs = serving_inputs(shape, seed)
    started = time.perf_counter()
    model = fit(inputs)
    fit_s = time.perf_counter() - started
    tarp.model_io.save_model(model, workdir / "model.json")
    tarp.data.write_csv(inputs.test, workdir / "new_rows.csv", target="y")
    np.save(workdir / "new_y.npy", inputs.test.response)
    return {"fit_s": fit_s}


def warm_up(shape: Shape) -> None:
    """One tiny op of the workload's kind, so lazy first-call set-up is done."""
    tiny = replace(shape, n_train=30, n_test=10, p=40, replicates=2)
    inputs = op_inputs(tiny, 0, 0)
    predict(fit(inputs), inputs)
