"""Synthetic benchmark data generators with seeded reproducibility.

Four covariate designs: an AR(1) chain with lag correlation 0.9, a block
covariance with within-block correlation 0.3 or 0.9 plus an independent tail,
an exactly rank-3 design with dominant principal components, and Brownian
bridge paths sampled on a time grid. The response is linear with N(0, sd^2)
noise in every scheme; the generating coefficients are returned alongside the
data for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

SCHEMES = ("I", "II", "III", "IV")
DEFAULT_NOISE_SD = 1.0


@dataclass(frozen=True)
class SchemeSpec:
    scheme: str
    n: int
    p: int
    noise_sd: float = DEFAULT_NOISE_SD
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.scheme == "II" and (self.p % 100 != 0 or self.p < 300):
            raise ValueError("scheme II needs p a multiple of 100 with p >= 300")
        if self.scheme == "III" and self.p < 3:
            raise ValueError("scheme III needs p >= 3")
        if self.scheme == "IV" and self.p < 20:
            raise ValueError("scheme IV needs p >= 20 for its 20 active covariates")
        if self.scheme == "I" and self.p < 30:
            raise ValueError("scheme I needs p >= 30 for its 30 active covariates")


def generate(spec: SchemeSpec) -> tuple[Dataset, dict]:
    """Draw a dataset for the scheme; returns (data, truth).

    ``truth`` records the generating coefficient vector, the active set
    (empty for the dense rank-3 scheme) and the ``SchemeSpec`` fields.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.scheme == "I":
        X, beta, active = _scheme_ar1(spec, rng)
    elif spec.scheme == "II":
        X, beta, active = _scheme_block(spec, rng)
    elif spec.scheme == "III":
        X, beta, active = _scheme_rank3(spec, rng)
    else:
        X, beta, active = _scheme_bridge(spec, rng)
    with np.errstate(over="ignore"):
        y = X @ beta + spec.noise_sd * rng.standard_normal(spec.n)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"noise_sd={spec.noise_sd} overflows the simulated response")
    dataset = Dataset(X, y, response_kind="continuous")
    truth = {
        "scheme": spec.scheme,
        "n": spec.n,
        "p": spec.p,
        "noise_sd": spec.noise_sd,
        "seed": spec.seed,
        "beta": beta.tolist(),
        "active": [int(j) for j in active],
    }
    return dataset, truth


def _scheme_ar1(spec: SchemeSpec, rng: np.random.Generator):
    """AR(1) columns: cov(x_i, x_j) = 0.9^|i-j|, 30 unit coefficients."""
    rho = 0.9
    innovation = math.sqrt(1.0 - rho * rho)
    z = rng.standard_normal((spec.n, spec.p))
    X = np.empty((spec.n, spec.p))
    X[:, 0] = z[:, 0]
    for j in range(1, spec.p):
        X[:, j] = rho * X[:, j - 1] + innovation * z[:, j]
    active = np.sort(rng.choice(spec.p, size=30, replace=False))
    beta = np.zeros(spec.p)
    beta[active] = 1.0
    return X, beta, active


def _scheme_block(spec: SchemeSpec, rng: np.random.Generator):
    """Equicorrelated blocks of 100 plus 200 independent columns.

    The first half of the blocks has within-block correlation 0.3, the rest
    0.9 (the extra block goes to 0.9 when the count is odd). 20 of the 21
    active predictors sit in 0.9 blocks, the last in the independent tail.
    """
    n_blocks = spec.p // 100 - 2
    n_low = n_blocks // 2
    X = np.empty((spec.n, spec.p))
    high_cols = []
    col = 0
    for b in range(n_blocks):
        rho = 0.3 if b < n_low else 0.9
        shared = rng.standard_normal((spec.n, 1))
        noise = rng.standard_normal((spec.n, 100))
        X[:, col : col + 100] = math.sqrt(rho) * shared + math.sqrt(1.0 - rho) * noise
        if rho == 0.9:
            high_cols.extend(range(col, col + 100))
        col += 100
    X[:, col:] = rng.standard_normal((spec.n, spec.p - col))
    independent_cols = np.arange(col, spec.p)
    active_high = rng.choice(np.asarray(high_cols), size=20, replace=False)
    active_ind = rng.choice(independent_cols, size=1, replace=False)
    active = np.sort(np.concatenate([active_high, active_ind]))
    beta = np.zeros(spec.p)
    beta[active] = 1.0
    return X, beta, active


def _scheme_rank3(spec: SchemeSpec, rng: np.random.Generator):
    """Exactly rank-3 design with component scales (15, 10, 7).

    Rows are P diag(15,10,7) w with w ~ N(0, I_3) and P a random p x 3
    orthonormal frame; the coefficient vector is P's first column, so the
    response loads on the dominant component.
    """
    frame = rng.standard_normal((spec.p, 3))
    P, r_qr = np.linalg.qr(frame)
    P = P * np.sign(np.diag(r_qr))  # canonical orientation
    scales = np.array([15.0, 10.0, 7.0])
    w = rng.standard_normal((spec.n, 3))
    X = (w * scales) @ P.T
    beta = P[:, 0].copy()
    return X, beta, np.array([], dtype=int)


def _scheme_bridge(spec: SchemeSpec, rng: np.random.Generator):
    """Brownian bridge paths on (0, 5), affinely mapped into (0, 10).

    Each row is an independent bridge pinned at 0 on both ends, evaluated at
    p equally spaced interior times; values are rescaled so +-4 standard
    deviations of the widest grid point span (0, 10). 20 active covariates
    get coefficients uniform on (2, 2.5).
    """
    horizon = 5.0
    steps = spec.p + 1
    dt = horizon / steps
    increments = rng.standard_normal((spec.n, steps)) * math.sqrt(dt)
    walk = np.cumsum(increments, axis=1)
    times = dt * np.arange(1, spec.p + 1)
    bridge = walk[:, :-1] - np.outer(walk[:, -1], times / horizon)
    max_sd = math.sqrt(horizon / 4.0)  # bridge variance peaks at t = T/2
    half_range = 4.0 * max_sd
    X = 5.0 + bridge * (5.0 / half_range)
    active = np.sort(rng.choice(spec.p, size=20, replace=False))
    beta = np.zeros(spec.p)
    beta[active] = rng.uniform(2.0, 2.5, size=20)
    return X, beta, active
