"""Conjugate inference in the compressed space.

With a N(0, sigma^2 I) prior on the compressed coefficients and an
inverse-gamma prior on sigma^2, the Gaussian likelihood gives closed forms:
the coefficient posterior is a scaled multivariate t and held-out responses
follow a multivariate t whose scale adds an identity noise term. Binary
responses use the mode of a ridge-penalized logistic fit (the centre of its
Laplace approximation); probabilities are plug-in at the mode.

A posterior holds only what its own fit produced. The priors and the
training row count are shared by every replicate of an ensemble, so they
are passed in where they are used: ``predictive_t_scale`` gives the
Gaussian predictive t's df, n + 2a, which every replicate shares, and a
replicate's noise scale, which ``predictive`` takes; the logistic fit takes
its prior variance.
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
    """What one compressed Gaussian fit leaves besides the ensemble's priors.

    ``precision_inverse`` is (Z'Z + I)^-1 for the compressed design Z and
    ``residual_quadratic`` is y'y - location' Z'y. Under the inverse-gamma
    (a, b) prior, with n training rows, the coefficient posterior is a
    multivariate t with df = n + 2a around ``location``; the priors and n
    are the model's (see ``predictive_t_scale``). Both arrays are taken over
    read-only (see ``read_only``).
    """

    location: np.ndarray
    precision_inverse: np.ndarray
    residual_quadratic: float

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

    @property
    def m(self) -> int:
        return self.location.shape[0]


@dataclass(frozen=True)
class LaplacePosterior:
    """Mode of the ridge-penalized logistic log-posterior and how it was found.

    The prior variance it was fitted under is the model's. The mode is
    taken over read-only (see ``read_only``).
    """

    mode: np.ndarray
    grad_norm: float
    n_iter: int

    def __post_init__(self):
        object.__setattr__(self, "mode", read_only(self.mode))
        if not np.isfinite(self.mode).all():
            raise ValueError("mode holds non-finite values")
        if not 0.0 <= self.grad_norm < math.inf:
            raise ValueError(f"grad_norm {self.grad_norm!r} is not finite and >= 0")
        if self.n_iter < 0:
            raise ValueError(f"n_iter must be >= 0, got {self.n_iter}")


def fit_gaussian(Z_design: np.ndarray, y: np.ndarray) -> GaussianPosterior:
    """Exact conjugate fit of the compressed model y = Z theta + e.

    The response is assumed centered. All m x m solves go through one
    Cholesky factorization of Z'Z + I, which is positive definite by
    construction. The fit does not depend on the inverse-gamma priors: they
    enter only the predictive t.
    """
    Z_design = np.asarray(Z_design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Z_design.ndim != 2 or y.shape != (Z_design.shape[0],):
        raise ValueError(
            f"incompatible shapes: design {Z_design.shape}, response {y.shape}"
        )
    if not (np.all(np.isfinite(Z_design)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in compressed design or response")
    m = Z_design.shape[1]
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
    )


def predictive(
    post: GaussianPosterior, Z_new: np.ndarray, noise_scale2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Location and marginal scale of the predictive t at compressed points
    Z_new; its df is the model's n + 2a.

    ``noise_scale2`` is the fit's from ``predictive_t_scale``. The marginal
    scale for point i is s2 * (1 + z_i' (Z'Z+I)^-1 z_i) with
    s2 = ``noise_scale2``, so it never drops below the pure noise term s2.
    """
    Z_new = np.asarray(Z_new, dtype=np.float64)
    if Z_new.ndim != 2 or Z_new.shape[1] != post.m:
        raise ValueError(f"Z_new has shape {Z_new.shape}, expected (*, {post.m})")
    location = Z_new @ post.location
    proj = Z_new @ post.precision_inverse
    quad = np.einsum("ij,ij->i", proj, Z_new)
    scale_diag = noise_scale2 * (1.0 + np.maximum(quad, 0.0))
    return location, scale_diag


def _spd_solve(matrix, *rhs):
    """Solve ``matrix @ x = b`` for each b through one lower Cholesky factor,
    overwriting ``matrix`` with the factor.

    ``matrix`` is a symmetric C-ordered float64 scratch array; its
    transpose is the same matrix in Fortran order, so LAPACK ``dposv``
    (``dpotrf`` + ``dpotrs``) factors it in place and solves the first
    right-hand side, and ``dpotrs`` reuses the factor for the rest. No
    finiteness checks are made: callers check their inputs once. Failure
    raises ``LinAlgError``.

    LAPACK is imported here, at the first solve, not with the module:
    ``scipy.linalg`` adds ~6 MiB and ~55 ms to every process that loads
    tarp, and prediction never solves. A repeat import is a dict lookup
    (~2 us), and the import lock makes a first call from several fit
    workers at once safe.
    """
    from scipy.linalg.lapack import dposv, dpotrs

    if matrix.shape[0] == 0:  # f2py rejects an empty right-hand side
        return [np.array(b, dtype=np.float64) for b in rhs]
    factor, x, info = dposv(matrix.T, rhs[0], lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
    solutions = [x]
    for b in rhs[1:]:
        x, info = dpotrs(factor, b, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"Cholesky solve failed (LAPACK info {info})")
        solutions.append(x)
    return solutions


def _log_posterior(h, theta, y, sigma_theta2, scratch=None):
    # the objective at theta, given its linear predictor h = Z @ theta;
    # ``scratch``, if given, is an n-vector the softplus terms overwrite
    softplus = np.logaddexp(0.0, h, out=scratch)
    return float(y @ h - softplus.sum() - theta @ theta / (2.0 * sigma_theta2))


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

    Every array a step needs is allocated once per fit and overwritten in
    place. Each step runs the routines that the direct numpy expressions
    run, on the same operands, so the mode, ``n_iter`` and ``grad_norm`` are
    those of the plain loop to the bit.
    """
    # BLAS is imported at the first fit, as LAPACK is in _spd_solve
    from scipy.linalg.blas import dsyrk

    Z = np.asarray(Z_design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Z.ndim != 2 or y.shape != (Z.shape[0],):
        raise ValueError(f"incompatible shapes: design {Z.shape}, response {y.shape}")
    if not np.all(np.isfinite(Z)):
        raise ValueError("non-finite values in compressed design")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("binary response must only contain 0 and 1")
    sigma_theta2 = positive_finite(sigma_theta2, "sigma_theta2")
    n, m = Z.shape
    # every step overwrites the weighted design Zs = sqrt(w) Z and the
    # curvature Zs' Zs + I / sigma_theta2 in place; the solve leaves its
    # factor in the curvature
    weighted = np.empty((n, m))
    curvature = np.empty((m, m))
    diagonal = curvature.reshape(-1)[:: m + 1]
    # n-vectors: the probabilities, and one scratch for y - prob, the
    # weights and the softplus terms in turn; m-vectors: the gradient and
    # the line-search candidate. theta and h swap buffers with the
    # candidate and its linear predictor when a candidate is accepted
    prob = np.empty(n)
    work = np.empty(n)
    grad = np.empty(m)
    candidate = np.empty(m)
    cand_h = np.empty(n)
    theta = np.zeros(m)
    h = Z @ theta
    obj = _log_posterior(h, theta, y, sigma_theta2, work)
    grad_norm = np.inf
    for iteration in range(1, NEWTON_MAX_ITER + 1):
        # grad = Z'(y - prob) - theta / sigma_theta2, the shrinkage term
        # formed in the candidate's buffer
        expit(h, out=prob)
        np.matmul(Z.T, np.subtract(y, prob, out=work), out=grad)
        np.subtract(grad, np.divide(theta, sigma_theta2, out=candidate), out=grad)
        # the 2-norm of a real vector, as np.linalg.norm computes it
        grad_norm = math.sqrt(grad @ grad)
        if grad_norm < NEWTON_TOL:
            return LaplacePosterior(mode=theta, grad_norm=grad_norm, n_iter=iteration - 1)
        # Zs = sqrt(w) Z with the weights w = prob (1 - prob)
        np.multiply(prob, np.subtract(1.0, prob, out=work), out=work)
        np.multiply(np.sqrt(work, out=work)[:, None], Z, out=weighted)
        if m > 1:
            # the syrk that numpy runs for weighted.T @ weighted, without
            # numpy's copy into the other triangle: the solve reads only
            # the lower triangle of the curvature's Fortran-ordered transpose
            dsyrk(1.0, weighted.T, beta=0.0, c=curvature.T, lower=1, overwrite_c=1)
        else:
            # numpy takes a 1 x 1 product as a dot, not a syrk
            np.matmul(weighted.T, weighted, out=curvature)
        diagonal += 1.0 / sigma_theta2
        (step,) = _spd_solve(curvature, grad)
        damping = 1.0
        # accept flat moves within rounding: near the mode the objective
        # change underflows while the Newton step still sharpens the gradient
        slack = 1e-12 * (1.0 + abs(obj))
        for halvings in range(41):
            np.add(theta, np.multiply(damping, step, out=candidate), out=candidate)
            np.matmul(Z, candidate, out=cand_h)
            cand_obj = _log_posterior(cand_h, candidate, y, sigma_theta2, work)
            # after 40 rejected halvings the smallest step is taken regardless
            if cand_obj >= obj - slack or halvings == 40:
                break
            damping *= 0.5
        theta, candidate = candidate, theta
        h, cand_h = cand_h, h
        obj = cand_obj
    raise ConvergenceError(
        f"logistic mode search did not converge in {NEWTON_MAX_ITER} iterations "
        f"(gradient norm {grad_norm:.3e})"
    )

