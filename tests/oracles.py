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
