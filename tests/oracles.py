"""Independent reference computations used as test oracles."""

import numpy as np
from scipy.special import stdtr, stdtrit


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
