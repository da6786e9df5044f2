"""Conjugate inference in the compressed space.

With a N(0, sigma^2 I) prior on the compressed coefficients and an
inverse-gamma prior on sigma^2, the Gaussian likelihood gives closed forms:
the coefficient posterior is a scaled multivariate t and held-out responses
follow a multivariate t whose scale adds an identity noise term. Binary
responses use the mode of a ridge-penalized logistic fit (the centre of its
Laplace approximation); probabilities are plug-in at the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import read_only


NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 100


class ConvergenceError(RuntimeError):
    """Raised when an iterative fit fails to reach its tolerance."""


# the default priors: inverse-gamma(a_sigma, b_sigma) on the noise variance,
# N(0, sigma_theta2 I) on the compressed logistic coefficients
DEFAULT_A_SIGMA = 0.02
DEFAULT_B_SIGMA = 0.02
DEFAULT_SIGMA_THETA2 = 1.0


def positive_finite(value, name: str) -> float:
    """The prior-parameter rule shared by fit and load: finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def predictive_t_scale(
    n_obs: int, a_sigma: float, b_sigma: float, residual_quadratic: float
) -> tuple[float, float]:
    """df = n + 2a and noise scale (r + 2b) / df of the Gaussian predictive t.

    Priors so large (or a noise scale so small) that either is not finite
    and > 0 raise ValueError: prediction could not use that t.
    """
    df = n_obs + 2.0 * a_sigma
    noise_scale2 = (residual_quadratic + 2.0 * b_sigma) / df
    for name, value in (("df", df), ("noise scale", noise_scale2)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(
                f"priors a_sigma={a_sigma!r}, b_sigma={b_sigma!r} "
                f"give a predictive {name} of {value!r}; it must be finite and > 0"
            )
    return df, noise_scale2


@dataclass(frozen=True)
class GaussianPosterior:
    """Closed-form posterior summary for the compressed Gaussian model.

    ``precision_inverse`` is (Z'Z + I)^-1 for the compressed design Z; the
    coefficient posterior is multivariate t(df, location, scale) and sigma^2
    is inverse-gamma(ig_shape, ig_rate). Only the sufficient fields are
    stored; the rest are derived on access. Construction rejects priors so
    large that df or the predictive noise scale overflows, so neither a fit
    nor a loaded model can carry a predictive t that prediction cannot use.
    Both arrays are taken over read-only (see ``read_only``).
    """

    location: np.ndarray
    precision_inverse: np.ndarray
    residual_quadratic: float
    a_sigma: float
    b_sigma: float
    n_obs: int

    def __post_init__(self):
        for name in ("location", "precision_inverse"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        location, matrix = self.location, self.precision_inverse
        if location.ndim != 1 or matrix.shape != location.shape * 2:
            raise ValueError(f"bad posterior shapes {location.shape}, {matrix.shape}")
        if not (np.isfinite(location).all() and np.isfinite(matrix).all()):
            raise ValueError("location or precision_inverse holds non-finite values")
        if not 0.0 <= self.residual_quadratic < math.inf:
            raise ValueError("residual_quadratic must be finite and >= 0")
        if self.n_obs < 1:
            raise ValueError(f"n_obs must be >= 1, got {self.n_obs}")
        positive_finite(self.a_sigma, "a_sigma")
        positive_finite(self.b_sigma, "b_sigma")
        self._predictive_t_scale()

    def _predictive_t_scale(self) -> tuple[float, float]:
        return predictive_t_scale(
            self.n_obs, self.a_sigma, self.b_sigma, self.residual_quadratic
        )

    @property
    def m(self) -> int:
        return self.location.shape[0]

    @property
    def df(self) -> float:
        return self._predictive_t_scale()[0]

    @property
    def ig_shape(self) -> float:
        return self.a_sigma + 0.5 * self.n_obs

    @property
    def ig_rate(self) -> float:
        return self.b_sigma + 0.5 * self.residual_quadratic

    @property
    def noise_scale2(self) -> float:
        """Predictive noise scale (residual_quadratic + 2 b) / df."""
        return self._predictive_t_scale()[1]

    @property
    def scale(self) -> np.ndarray:
        """Scale matrix of the coefficient t posterior."""
        return self.noise_scale2 * self.precision_inverse


@dataclass(frozen=True)
class PredictiveT:
    """Multivariate-t predictive: df, per-point location and marginal scale."""

    df: float
    location: np.ndarray
    scale_diag: np.ndarray


@dataclass(frozen=True)
class LaplacePosterior:
    """Mode of the ridge-penalized logistic log-posterior and how it was found.

    The mode is taken over read-only (see ``read_only``).
    """

    mode: np.ndarray
    prior_variance: float
    grad_norm: float
    n_iter: int

    def __post_init__(self):
        object.__setattr__(self, "mode", read_only(self.mode))
        if not np.isfinite(self.mode).all():
            raise ValueError("mode holds non-finite values")
        positive_finite(self.prior_variance, "prior_variance")
        if not 0.0 <= self.grad_norm < math.inf:
            raise ValueError(f"grad_norm {self.grad_norm!r} is not finite and >= 0")
        if self.n_iter < 0:
            raise ValueError(f"n_iter must be >= 0, got {self.n_iter}")


def fit_gaussian(
    Z_design: np.ndarray,
    y: np.ndarray,
    a_sigma: float = DEFAULT_A_SIGMA,
    b_sigma: float = DEFAULT_B_SIGMA,
) -> GaussianPosterior:
    """Exact conjugate fit of the compressed model y = Z theta + e.

    The response is assumed centered. All m x m solves go through one
    Cholesky factorization of Z'Z + I, which is positive definite by
    construction. Priors that overflow the predictive t raise ValueError
    (see ``GaussianPosterior``).
    """
    Z_design = np.asarray(Z_design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Z_design.ndim != 2 or y.shape != (Z_design.shape[0],):
        raise ValueError(
            f"incompatible shapes: design {Z_design.shape}, response {y.shape}"
        )
    if not (np.all(np.isfinite(Z_design)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in compressed design or response")
    n, m = Z_design.shape
    gram = Z_design.T @ Z_design + np.eye(m)
    zy = Z_design.T @ y
    location, precision_inverse = _spd_solve(gram, zy, np.eye(m))
    precision_inverse = 0.5 * (precision_inverse + precision_inverse.T)
    residual_quadratic = float(y @ y - location @ zy)
    residual_quadratic = max(residual_quadratic, 0.0)
    return GaussianPosterior(
        location=location,
        precision_inverse=precision_inverse,
        residual_quadratic=residual_quadratic,
        a_sigma=a_sigma,
        b_sigma=b_sigma,
        n_obs=n,
    )


def predictive(post: GaussianPosterior, Z_new: np.ndarray) -> PredictiveT:
    """Predictive t distribution at compressed points Z_new.

    Marginal scale for point i is s2 * (1 + z_i' (Z'Z+I)^-1 z_i) with
    s2 = (residual_quadratic + 2 b) / df, so it never drops below the pure
    noise term s2.
    """
    Z_new = np.asarray(Z_new, dtype=np.float64)
    if Z_new.ndim != 2 or Z_new.shape[1] != post.m:
        raise ValueError(f"Z_new has shape {Z_new.shape}, expected (*, {post.m})")
    location = Z_new @ post.location
    s2 = post.noise_scale2
    proj = Z_new @ post.precision_inverse
    quad = np.einsum("ij,ij->i", proj, Z_new)
    scale_diag = s2 * (1.0 + np.maximum(quad, 0.0))
    return PredictiveT(df=post.df, location=location, scale_diag=scale_diag)


def _spd_solve(matrix, *rhs):
    """Solve ``matrix @ x = b`` for each b through one lower Cholesky factor.

    Calls LAPACK ``dpotrf`` / ``dpotrs`` as scipy's ``cho_factor`` /
    ``cho_solve`` do underneath, without their per-call finiteness checks:
    callers check their inputs once. Failure raises ``LinAlgError``.

    LAPACK is imported here, at the first solve, not with the module:
    ``scipy.linalg`` adds ~6 MiB and ~55 ms to every process that loads
    tarp, and prediction never solves. A repeat import is a dict lookup
    (~2 us), and the import lock makes a first call from several fit
    workers at once safe.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    if matrix.shape[0] == 0:  # f2py rejects an empty right-hand side
        return [np.array(b, dtype=np.float64) for b in rhs]
    factor, info = dpotrf(matrix, lower=1, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (LAPACK info {info})")
    solutions = []
    for b in rhs:
        x, info = dpotrs(factor, b, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
        solutions.append(x)
    return solutions


def _log_posterior(h, theta, y, sigma_theta2):
    # the objective at theta, given its linear predictor h = Z @ theta
    return float(y @ h - np.logaddexp(0.0, h).sum() - theta @ theta / (2.0 * sigma_theta2))


def fit_bernoulli_laplace(
    Z_design: np.ndarray,
    y: np.ndarray,
    sigma_theta2: float = DEFAULT_SIGMA_THETA2,
) -> LaplacePosterior:
    """Mode of the ridge-penalized logistic log-posterior.

    Damped Newton iterations until the gradient norm falls below
    ``NEWTON_TOL``, at most ``NEWTON_MAX_ITER`` of them.
    The prior keeps the mode finite even for separable data, and makes the
    negative Hessian Z' diag(w) Z + I / sigma_theta2 positive definite
    everywhere, so every Newton step is one LAPACK Cholesky solve. The design
    is checked for finite values once, at entry; each iteration reuses the
    linear predictor Z theta of the accepted line-search point. The Hessian
    at the mode is not formed: plug-in prediction reads only the mode.
    """
    Z = np.asarray(Z_design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Z.ndim != 2 or y.shape != (Z.shape[0],):
        raise ValueError(f"incompatible shapes: design {Z.shape}, response {y.shape}")
    if not np.all(np.isfinite(Z)):
        raise ValueError("non-finite values in compressed design")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("binary response must only contain 0 and 1")
    sigma_theta2 = positive_finite(sigma_theta2, "sigma_theta2")
    m = Z.shape[1]
    theta = np.zeros(m)
    h = Z @ theta
    obj = _log_posterior(h, theta, y, sigma_theta2)
    grad_norm = np.inf
    for iteration in range(1, NEWTON_MAX_ITER + 1):
        prob = expit(h)
        grad = Z.T @ (y - prob) - theta / sigma_theta2
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < NEWTON_TOL:
            return LaplacePosterior(
                mode=theta,
                prior_variance=sigma_theta2,
                grad_norm=grad_norm,
                n_iter=iteration - 1,
            )
        # Zs' Zs with Zs = sqrt(w) Z is one syrk; the ridge goes on in place
        Zs = np.sqrt(prob * (1.0 - prob))[:, None] * Z
        curvature = Zs.T @ Zs
        curvature.flat[:: m + 1] += 1.0 / sigma_theta2
        (step,) = _spd_solve(curvature, grad)
        damping = 1.0
        # accept flat moves within rounding: near the mode the objective
        # change underflows while the Newton step still sharpens the gradient
        slack = 1e-12 * (1.0 + abs(obj))
        for _ in range(40):
            candidate = theta + damping * step
            cand_h = Z @ candidate
            cand_obj = _log_posterior(cand_h, candidate, y, sigma_theta2)
            if cand_obj >= obj - slack:
                theta, h, obj = candidate, cand_h, cand_obj
                break
            damping *= 0.5
        else:
            theta = theta + damping * step
            h = Z @ theta
            obj = _log_posterior(h, theta, y, sigma_theta2)
    raise ConvergenceError(
        f"logistic mode search did not converge in {NEWTON_MAX_ITER} iterations "
        f"(gradient norm {grad_norm:.3e})"
    )

