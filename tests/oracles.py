"""Independent reference computations used as test oracles."""

import csv

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, stdtr, stdtrit


def location_via_gram_inverse(X: np.ndarray, R: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Alternate route to the posterior location: (R X'X R' + I)^-1 (X R')' y.

    Algebraically identical to the fit in ``tarp.posterior.fit_gaussian``;
    kept as an independent cross-check of the assembly order.
    """
    X = np.asarray(X, dtype=np.float64)
    R = R.toarray() if hasattr(R, "toarray") else np.asarray(R, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    gram = R @ (X.T @ X) @ R.T + np.eye(R.shape[0])
    return np.linalg.inv(gram) @ ((X @ R.T).T @ y)


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
    Xs = np.asfortranarray(model.standardization.transform_design(X_new))
    return np.mean(
        [
            predict_prob(rep.posterior, rep.projection.apply(Xs))
            for rep in model.replicates
        ],
        axis=0,
    )


def central_interval(pred, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric central interval of one replicate's predictive t.

    ``location +- t-quantile * sqrt(scale)``: the one-replicate case of the
    mixture interval in ``tarp.ensemble.predict_tarp``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    half = stdtrit(pred.df, 0.5 * (1.0 + level)) * np.sqrt(pred.scale_diag)
    return pred.location - half, pred.location + half


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
) -> tuple[np.ndarray, float, int]:
    """Reference logistic mode: the plain damped Newton loop, returning
    ``(mode, grad_norm, n_iter)``.

    Same algorithm and stopping rule as ``tarp.posterior.fit_bernoulli_laplace``,
    written the direct way: the curvature as ``Z' (w * Z) + I / sigma_theta2``,
    each step through scipy's checked ``cho_factor`` / ``cho_solve``, and the
    linear predictor recomputed from theta wherever it is needed.
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
    for iteration in range(1, max_iter + 1):
        prob = expit(Z @ theta)
        grad = Z.T @ (y - prob) - theta / sigma_theta2
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tol:
            return theta, grad_norm, iteration - 1
        w = prob * (1.0 - prob)
        curvature = Z.T @ (w[:, None] * Z) + np.eye(m) / sigma_theta2
        step = cho_solve(cho_factor(curvature, lower=True), grad)
        damping = 1.0
        slack = 1e-12 * (1.0 + abs(obj))
        for _ in range(40):
            candidate = theta + damping * step
            cand_obj = objective(candidate)
            if cand_obj >= obj - slack:
                theta, obj = candidate, cand_obj
                break
            damping *= 0.5
        else:
            theta = theta + damping * step
            obj = objective(theta)
    raise RuntimeError(f"no convergence in {max_iter} iterations ({grad_norm:.3e})")
