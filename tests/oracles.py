"""Independent reference computations used as test oracles."""

import numpy as np


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
