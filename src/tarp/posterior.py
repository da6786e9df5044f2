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
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit


class ConvergenceError(RuntimeError):
    """Raised when an iterative fit fails to reach its tolerance."""


def positive_finite(value, name: str) -> float:
    """The prior-parameter rule shared by fit and load: finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class GaussianPosterior:
    """Closed-form posterior summary for the compressed Gaussian model.

    ``precision_inverse`` is (Z'Z + I)^-1 for the compressed design Z; the
    coefficient posterior is multivariate t(df, location, scale) and sigma^2
    is inverse-gamma(ig_shape, ig_rate). Only the sufficient fields are
    stored; the rest are derived on access. Construction rejects priors so
    large that df or the predictive noise scale overflows, so neither a fit
    nor a loaded model can carry a predictive t that prediction cannot use.
    """

    location: np.ndarray
    precision_inverse: np.ndarray
    residual_quadratic: float
    a_sigma: float
    b_sigma: float
    n_obs: int

    def __post_init__(self):
        for name, value in (("df", self.df), ("noise scale", self.noise_scale2)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"priors a_sigma={self.a_sigma!r}, b_sigma={self.b_sigma!r} "
                    f"give a predictive {name} of {value!r}; it must be finite and > 0"
                )

    @property
    def m(self) -> int:
        return self.location.shape[0]

    @property
    def df(self) -> float:
        return self.n_obs + 2.0 * self.a_sigma

    @property
    def ig_shape(self) -> float:
        return self.a_sigma + 0.5 * self.n_obs

    @property
    def ig_rate(self) -> float:
        return self.b_sigma + 0.5 * self.residual_quadratic

    @property
    def noise_scale2(self) -> float:
        """Predictive noise scale (residual_quadratic + 2 b) / df."""
        return (self.residual_quadratic + 2.0 * self.b_sigma) / self.df

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
    """Mode of the ridge-penalized logistic log-posterior and how it was found."""

    mode: np.ndarray
    prior_variance: float
    grad_norm: float
    n_iter: int


def fit_gaussian(
    Z_design: np.ndarray,
    y: np.ndarray,
    a_sigma: float = 0.02,
    b_sigma: float = 0.02,
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
    a_sigma = positive_finite(a_sigma, "a_sigma")
    b_sigma = positive_finite(b_sigma, "b_sigma")
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
    """
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


def _logistic_objective(theta, Z, y, sigma_theta2):
    return _log_posterior(Z @ theta, theta, y, sigma_theta2)


def _log_posterior(h, theta, y, sigma_theta2):
    # the objective at theta, given its linear predictor h = Z @ theta
    return float(y @ h - np.logaddexp(0.0, h).sum() - theta @ theta / (2.0 * sigma_theta2))


def fit_bernoulli_laplace(
    Z_design: np.ndarray,
    y: np.ndarray,
    sigma_theta2: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> LaplacePosterior:
    """Mode of the ridge-penalized logistic log-posterior.

    Damped Newton iterations until the gradient norm falls below ``tol``.
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
    for iteration in range(1, max_iter + 1):
        prob = expit(h)
        grad = Z.T @ (y - prob) - theta / sigma_theta2
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tol:
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
        f"logistic mode search did not converge in {max_iter} iterations "
        f"(gradient norm {grad_norm:.3e})"
    )

