"""Independent reference computations used as test oracles."""

import csv
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, stdtr, stdtrit
from scipy.stats import rankdata

from tarp.projection import compress


def location_via_gram_inverse(X: np.ndarray, R: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Alternate route to the posterior location: (R X'X R' + I)^-1 (X R')' y.

    Algebraically identical to the fit in ``tarp.posterior.fit_gaussian``;
    kept as an independent cross-check of the assembly order.
    """
    X = np.asarray(X, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    gram = R @ (X.T @ X) @ R.T + np.eye(R.shape[0])
    return np.linalg.inv(gram) @ ((X @ R.T).T @ y)


def dense_map(R) -> np.ndarray:
    """The full m x p matrix of a ``ProjectionMatrix``, rebuilt without its code.

    A random map is drawn here from its seed, as the paper's three-point
    matrix: with u = rng.random((m, p_gamma)), an entry is +1/sqrt(2 psi)
    where u < psi, -1/sqrt(2 psi) where u >= 1 - psi, and 0 otherwise. A
    partial-SVD map is its stored block. Columns outside gamma are zero.
    """
    if R.variant == "ris_rp":
        u = np.random.default_rng(R.seed).random((R.m, R.p_gamma))
        magnitude = 1.0 / math.sqrt(2.0 * R.psi)
        block = magnitude * ((u < R.psi).astype(np.float64) - (u >= 1.0 - R.psi))
    else:
        block = R.block
    full = np.zeros((R.m, R.p))
    full[:, np.flatnonzero(R.gamma)] = block
    return full


def ris_pcr_block_via_svd(
    X: np.ndarray, gamma_indices: np.ndarray, m: int, rank_rtol: float = 1e-12
) -> np.ndarray:
    """Reference ``ris_pcr`` block from a thin SVD of the selected columns.

    Rows are the top min(m, rank) right singular vectors of X[:, gamma],
    with rank counted as singular values above ``rank_rtol`` times the
    largest, and each row's largest-magnitude entry made positive.
    """
    X_act = np.asarray(X, dtype=np.float64)[:, gamma_indices]
    _, s, vt = np.linalg.svd(X_act, full_matrices=False)
    rank = int(np.sum(s > s[0] * rank_rtol))
    block = vt[: min(m, rank)].copy()
    for row in block:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0.0:
            row *= -1.0
    return block


def mixture_t_quantile_via_bisection(
    dfs: np.ndarray,
    locations: np.ndarray,
    scale_diags: np.ndarray,
    prob: float,
    tol: float = 1e-8,
    max_iter: int = 400,
) -> np.ndarray:
    """Reference t-mixture quantiles by plain bisection on the mixture CDF.

    Same inputs and stopping rule as ``tarp.ensemble.mixture_t_quantile``:
    the bracket starts at the min/max of the component quantiles and each
    point stops when its CDF is within ``tol`` of ``prob`` or its bracket
    has collapsed to rounding width.
    """
    dfs = np.asarray(dfs, dtype=np.float64)
    locations = np.atleast_2d(np.asarray(locations, dtype=np.float64))
    widths = np.sqrt(np.atleast_2d(np.asarray(scale_diags, dtype=np.float64)))
    component_q = locations + stdtrit(dfs, prob)[:, None] * widths
    lo = component_q.min(axis=0)
    hi = component_q.max(axis=0)
    out = 0.5 * (lo + hi)
    active = np.arange(out.size)
    for _ in range(max_iter):
        mid = 0.5 * (lo[active] + hi[active])
        cdf = stdtr(
            dfs[:, None], (mid[None, :] - locations[:, active]) / widths[:, active]
        ).mean(axis=0)
        out[active] = mid
        done = np.abs(cdf - prob) <= tol
        done |= (hi[active] - lo[active]) <= 1e-13 * (1.0 + np.abs(mid))
        below = cdf < prob
        lo[active[below]] = mid[below]
        hi[active[~below]] = mid[~below]
        active = active[~done]
        if active.size == 0:
            return out
    raise RuntimeError(f"bisection left {active.size} points unconverged")


def auc_via_rankdata(prob, y_true):
    """Reference AUC from scipy's average ranks (Mann-Whitney U / n+ n-).

    None when one class is absent, as ``tarp.metrics.auc_score``.
    """
    prob = np.asarray(prob, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    positive = y_true == 1.0
    n_pos = int(np.sum(positive))
    n_neg = int(np.sum(y_true == 0.0))
    if n_pos == 0 or n_neg == 0:
        return None
    rank_sum = float(np.sum(rankdata(prob)[positive]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def predict_prob(post, Z_new: np.ndarray) -> np.ndarray:
    """Plug-in class-1 probabilities logistic(Z_new @ mode) of one
    ``LaplacePosterior`` at compressed rows ``Z_new``."""
    Z_new = np.asarray(Z_new, dtype=np.float64)
    m = post.mode.shape[0]
    if Z_new.ndim != 2 or Z_new.shape[1] != m:
        raise ValueError(f"Z_new has shape {Z_new.shape}, expected (*, {m})")
    return expit(Z_new @ post.mode)


def binary_probability_per_replicate(model, X_new: np.ndarray) -> np.ndarray:
    """Reference binary prediction: compress X once per replicate.

    The mean over replicates, in order, of ``predict_prob`` on each
    replicate's compressed rows ``X_gamma R_i'``; ``tarp.ensemble.predict_tarp``
    forms the same logits as one product with the mapped-back modes.
    """
    Xs = model.standardization.transform_design(X_new)
    return np.mean(
        [
            predict_prob(rep.posterior, compress(Xs, rep.projection))
            for rep in model.replicates
        ],
        axis=0,
    )


def central_interval(
    df: float, location, scale_diag, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric central interval of one predictive t(df, location, scale_diag).

    ``location +- t-quantile * sqrt(scale)``: the one-replicate case of the
    mixture interval in ``tarp.ensemble.predict_tarp``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    location = np.asarray(location, dtype=np.float64)
    half = stdtrit(df, 0.5 * (1.0 + level)) * np.sqrt(scale_diag)
    return location - half, location + half


def write_csv_via_csv_writer(dataset, path, target: str = "y") -> None:
    """Cell-by-cell CSV writer: ``repr(float(v))`` per cell through csv.writer.

    The bytes ``tarp.data.write_csv`` must reproduce.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*dataset.column_names, target])
        for i in range(dataset.n):
            writer.writerow(
                [repr(float(v)) for v in dataset.design[i]]
                + [repr(float(dataset.response[i]))]
            )


def fit_bernoulli_laplace_via_cho_factor(
    Z: np.ndarray,
    y: np.ndarray,
    sigma_theta2: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> tuple[np.ndarray, float, int, int]:
    """Reference logistic mode: the plain damped Newton loop, returning
    ``(mode, grad_norm, n_iter, rejected)``, where ``rejected`` counts the
    line-search candidates turned down (each one halves the step).

    Same algorithm and stopping rule as ``tarp.posterior.fit_bernoulli_laplace``,
    written the direct way: the curvature as ``Zs' Zs + I / sigma_theta2`` with
    ``Zs = sqrt(w) * Z``, the product the library forms, so that every step
    rounds as the library's does; each step through scipy's checked
    ``cho_factor`` / ``cho_solve``, and the linear predictor recomputed from
    theta wherever it is needed.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = Z.shape[1]

    def objective(theta):
        h = Z @ theta
        return float(
            y @ h - np.logaddexp(0.0, h).sum() - theta @ theta / (2.0 * sigma_theta2)
        )

    theta = np.zeros(m)
    obj = objective(theta)
    grad_norm = np.inf
    rejected = 0
    for iteration in range(1, max_iter + 1):
        prob = expit(Z @ theta)
        grad = Z.T @ (y - prob) - theta / sigma_theta2
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tol:
            return theta, grad_norm, iteration - 1, rejected
        Zs = np.sqrt(prob * (1.0 - prob))[:, None] * Z
        curvature = Zs.T @ Zs + np.eye(m) / sigma_theta2
        step = cho_solve(cho_factor(curvature, lower=True), grad)
        damping = 1.0
        slack = 1e-12 * (1.0 + abs(obj))
        for _ in range(40):
            candidate = theta + damping * step
            cand_obj = objective(candidate)
            if cand_obj >= obj - slack:
                theta, obj = candidate, cand_obj
                break
            rejected += 1
            damping *= 0.5
        else:
            theta = theta + damping * step
            obj = objective(theta)
    raise RuntimeError(f"no convergence in {max_iter} iterations ({grad_norm:.3e})")
