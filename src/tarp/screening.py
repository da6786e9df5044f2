"""Marginal-correlation screening with randomized predictor inclusion.

Each predictor gets an inclusion probability q_j = (|r_j| / max_k |r_k|)^delta
from its Pearson correlation r_j with the response; predictors then enter the
projection independently as Bernoulli(q_j) draws. The predictor with the
largest |r| is always included. Larger delta concentrates the draw on the
strongest marginal signals.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .data import DataError


def marginal_correlations(
    X: np.ndarray, y: np.ndarray, constant_mask: np.ndarray | None = None
) -> np.ndarray:
    """Sample Pearson correlation of each design column with the response.

    Columns flagged constant (or with zero variance) get r = 0. A constant
    response produces all-zero correlations with a warning.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if y.shape != (n,):
        raise ValueError("response length does not match design rows")
    if n < 2:
        raise ValueError("need at least 2 rows for correlations")
    yc = y - y.mean()
    sy = math.sqrt(float(yc @ yc))
    if sy == 0.0:
        warnings.warn(
            "response is constant; all marginal correlations set to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.zeros(X.shape[1])
    Xc = X - X.mean(axis=0)
    sx = np.sqrt(np.einsum("ij,ij->j", Xc, Xc))
    degenerate = sx == 0.0
    if constant_mask is not None:
        degenerate = degenerate | np.asarray(constant_mask, dtype=bool)
    sx = np.where(degenerate, 1.0, sx)
    r = (Xc.T @ yc) / (sx * sy)
    r[degenerate] = 0.0
    return np.clip(r, -1.0, 1.0)


def default_fallback_count(p: int) -> int:
    """Subset size used when all correlations vanish (pure-noise response)."""
    return min(p, max(1, math.ceil(2.0 * math.log(max(p, 2)))))


def inclusion_probabilities(
    r: np.ndarray, delta: float, constant_mask: np.ndarray | None = None
) -> np.ndarray:
    """Inclusion probabilities (|r_j| / max|r|)^delta, so max q is always 1.

    At delta 0 every q_j is 1, constant columns and all: no screening, which
    is the paper's untargeted random projection. Otherwise, if every
    correlation is zero the probabilities fall back to the uniform value
    min(1, default_fallback_count(k) / k) over the k columns that vary;
    columns flagged in ``constant_mask`` get q = 0, since standardization
    makes them all-zero. If no column varies, DataError is raised.
    """
    check_delta(delta)
    r = np.asarray(r, dtype=np.float64)
    if delta == 0:
        return np.ones(r.size)
    abs_r = np.abs(r)
    r_max = abs_r.max() if r.size else 0.0
    if r_max == 0.0:
        varies = np.ones(r.size, dtype=bool)
        if constant_mask is not None:
            varies &= ~np.asarray(constant_mask, dtype=bool)
        k = int(varies.sum())
        if k == 0:
            raise DataError("every design column is constant; there is nothing to fit")
        return np.where(varies, min(1.0, default_fallback_count(k) / k), 0.0)
    return np.power(abs_r / r_max, delta)


def sample_inclusion(q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli(q_j) draws as a bool array, guaranteed non-empty.

    An empty draw (possible only when max q < 1, i.e. the uniform fallback)
    is resampled up to 100 times, then the argmax-q predictor is forced in.
    """
    q = np.asarray(q, dtype=np.float64)
    if np.any((q < 0.0) | (q > 1.0)):
        raise ValueError("probabilities must lie in [0,1]")
    for _ in range(100):
        gamma = rng.random(q.size) < q
        if gamma.any():
            return gamma
    gamma = np.zeros(q.size, dtype=bool)
    gamma[int(np.argmax(q))] = True
    return gamma


def check_delta(delta) -> float:
    """The screening-exponent rule: delta is finite and >= 0."""
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    return float(delta)


def default_delta(n: int, p: int) -> float:
    """Default screening exponent max{0, (1 + ln(p/n)) / 2}."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    return max(0.0, 0.5 * (1.0 + math.log(p / n)))

