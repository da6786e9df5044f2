"""End-to-end pipeline: screen once, then fit N independent compressed models.

Each replicate draws its own (m, psi) from the tuning grid and its own
projection matrix, fits the conjugate (or Laplace-logistic) posterior in the
compressed space, and predictions are aggregated across replicates: point
predictions by simple averaging, intervals as quantiles of the equal-weight
mixture of the replicate predictive distributions. In a continuous model
those are t distributions that share one df, n + 2a. A tuning configuration
is fit-time input only: a fitted replicate keeps its projection (which holds
the variant, and a random map's psi and seed or a partial-SVD map's requested
m) and what its posterior fit produced. The screening exponent delta, the
priors and the training row count are the model's, shared by every replicate
and held once.

Replicates are embarrassingly parallel; every replicate owns independent
seeded substreams, so results are identical for any worker-pool size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

import numpy as np
from scipy.special import expit, gammaln, stdtr, stdtrit

from .data import RESPONSE_KINDS, DataError, Dataset, StandardizationParams, standardize
from .posterior import (
    DEFAULT_A_SIGMA,
    DEFAULT_B_SIGMA,
    DEFAULT_SIGMA_THETA2,
    ConvergenceError,
    GaussianPosterior,
    LaplacePosterior,
    fit_bernoulli_laplace,
    fit_gaussian,
    positive_finite,
    predictive,
    predictive_t_scale,
)
from .projection import (
    RIS_PCR,
    RIS_RP,
    ProjectionMatrix,
    compress,
    compute_ris_pcr,
    sample_ris_rp,
)
from .screening import (
    check_delta,
    default_delta,
    inclusion_probabilities,
    marginal_correlations,
    sample_inclusion,
)

VARIANTS = (RIS_RP, RIS_PCR)

# substream tags hung off each replicate seed
_GAMMA_STREAM = 0
_ENTRY_STREAM = 1
_GRID_STREAM = 2

QUANTILE_TOL = 1e-8
# enough for bisection alone to close the widest finite bracket: 2 DBL_MAX
# (~2^1025) falls to the rounding-width stop, 1e-13 (~2^-43) near 0, in at
# most 1,069 halvings, plus room for the Newton steps between them. One
# component 1e153 times wider than the rest needs ~510 steps
QUANTILE_MAX_ITER = 1200


class ReplicateError(RuntimeError):
    """A replicate failed; carries the replicate index and original error."""

    def __init__(self, index: int, original: Exception):
        # a bare MemoryError has no message of its own
        reason = str(original) or type(original).__name__
        super().__init__(f"replicate {index}: {reason}")
        self.index = index
        self.original = original


def _map_ordered(fn, jobs, threads: int) -> list:
    """``[fn(job) for job in jobs]`` on at most ``threads`` worker threads.

    Results come back in job order whatever order the jobs finish in, so the
    thread count never changes an output; with one worker the jobs run
    inline. A failure of job i is raised as ``ReplicateError(i, exc)``; when
    several jobs fail, the first in job order is raised. A worker thread the
    system refuses to start is an ``OSError`` naming the pool's size.
    """

    def run(indexed):
        index, job = indexed
        try:
            return fn(job)
        except Exception as exc:
            raise ReplicateError(index, exc) from exc

    jobs = list(enumerate(jobs))
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [run(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:  # map submits every job, starting the threads, before it returns
            results = pool.map(run, jobs)
        except RuntimeError as exc:
            pool.shutdown(cancel_futures=True)
            raise OSError(f"cannot start {workers} worker threads ({exc})") from exc
        return list(results)


@dataclass(frozen=True)
class TarpConfig:
    m: int
    psi: Optional[float]
    variant: str
    seed: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.variant != RIS_PCR:
            if self.psi is None or not 0.0 < self.psi < 0.5:
                raise ValueError(f"psi must lie in (0, 0.5), got {self.psi}")


@dataclass(frozen=True)
class Replicate:
    """One fitted replicate: its projection and its compressed-space
    posterior. The fit's variant, psi and map seed, and a partial-SVD fit's
    requested m, are the projection's."""

    projection: ProjectionMatrix
    posterior: Union[GaussianPosterior, LaplacePosterior]

    def __post_init__(self):
        proj = self.projection
        # the fit draws each random map from this substream of its seed
        if proj.variant == RIS_RP and proj.seed[1:] != (_ENTRY_STREAM,):
            raise ValueError(
                f"projection seed {list(proj.seed)} is not [s, {_ENTRY_STREAM}]"
            )
        name = "mode" if isinstance(self.posterior, LaplacePosterior) else "location"
        shape = getattr(self.posterior, name).shape
        if shape != (proj.m,):
            raise ValueError(f"{name} has shape {shape}, projection m={proj.m}")


@dataclass(frozen=True)
class TarpModel:
    """A fitted ensemble; ``replicates`` is kept as a tuple.

    The screening exponent ``delta``, the priors and the training row count
    ``n_obs`` are the ensemble's, held here once: every replicate draws its
    inclusion vector from one screen and is fitted to the same rows under
    the same priors. ``column_names`` are distinct, since prediction matches
    new columns by name. ``n_obs`` is None in a binary model, whose logistic
    fits do not use it, and is the one argument with a default, so that a
    binary model's file need not name it.
    """

    replicates: tuple[Replicate, ...]
    standardization: StandardizationParams
    response_kind: str
    master_seed: int
    column_names: list[str]
    delta: float
    a_sigma: float
    b_sigma: float
    sigma_theta2: float
    n_obs: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "replicates", tuple(self.replicates))
        kind, p = self.response_kind, self.p
        continuous = kind == "continuous"
        if not self.replicates:
            raise ValueError("model has no replicates")
        if kind not in RESPONSE_KINDS:
            raise ValueError(f"unknown response_kind {kind!r}")
        mean = self.standardization.response_mean
        if continuous != (mean is not None and math.isfinite(mean)):
            raise ValueError(f"response_mean {mean!r} in a {kind} model")
        if continuous != (self.n_obs is not None and self.n_obs >= 1):
            raise ValueError(f"n_obs {self.n_obs!r} in a {kind} model")
        if len(self.column_names) != p:
            raise ValueError(f"{len(self.column_names)} column names for {p} columns")
        if len(set(self.column_names)) != p:
            raise ValueError("column names must be distinct")
        check_delta(self.delta)
        for name in ("a_sigma", "b_sigma", "sigma_theta2"):
            positive_finite(getattr(self, name), name)
        for rep in self.replicates:
            post = rep.posterior
            if isinstance(post, GaussianPosterior) != continuous:
                raise ValueError(f"{type(post).__name__} in a {kind} model")
            if rep.projection.p != p:
                raise ValueError(f"gamma has length {rep.projection.p}, expected {p}")
            if continuous:
                # neither a fit nor a loaded model may carry a predictive t
                # that prediction cannot use
                self.t_scale(post)

    def t_scale(self, posterior: GaussianPosterior) -> tuple[float, float]:
        """df and noise scale of a continuous replicate's predictive t."""
        return predictive_t_scale(
            self.n_obs, self.a_sigma, self.b_sigma, posterior.residual_quadratic
        )

    @property
    def n_replicates(self) -> int:
        return len(self.replicates)

    @property
    def p(self) -> int:
        return self.standardization.column_means.shape[0]


@dataclass(frozen=True)
class TarpPrediction:
    """Aggregated predictions in original response units."""

    response_kind: str
    point: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    probability: Optional[np.ndarray] = None


def m_range(n: int, p: int) -> tuple[int, int]:
    """Inclusive grid range for the compressed dimension.

    [ceil(2 ln p), min(floor(3n/4), p)], clamped to start at 1 when the
    lower bound would exceed the upper (tiny n).
    """
    hi = min((3 * n) // 4, p)
    hi = max(hi, 1)
    lo = max(1, math.ceil(2.0 * math.log(max(p, 2))))
    if lo > hi:
        lo = 1
    return lo, hi


def sample_config_grid(
    n: int,
    p: int,
    count: int,
    variant: str = RIS_RP,
    master_seed: int = 0,
) -> list[TarpConfig]:
    """Draw ``count`` tuning configurations from the default grid.

    m is uniform on the integer range from :func:`m_range`, psi uniform on
    (0.1, 0.4). Per-replicate seeds are derived from ``master_seed``.
    """
    if count < 1:
        raise ValueError(f"need at least one configuration, got {count}")
    lo, hi = m_range(n, p)
    rng = np.random.default_rng([master_seed, _GRID_STREAM])
    configs = []
    for _ in range(count):
        m = int(rng.integers(lo, hi + 1))
        psi = None if variant == RIS_PCR else float(rng.uniform(0.1, 0.4))
        seed = int(rng.integers(0, 2**63))
        configs.append(TarpConfig(m=m, psi=psi, variant=variant, seed=seed))
    return configs


def _fit_replicate(
    design: np.ndarray,
    response: np.ndarray,
    q: np.ndarray,
    response_kind: str,
    sigma_theta2: float,
    cfg: TarpConfig,
) -> Replicate:
    gamma = sample_inclusion(q, np.random.default_rng([cfg.seed, _GAMMA_STREAM]))
    if cfg.variant == RIS_PCR:
        # the eigendecomposition already holds the compressed training rows
        projection, Z = compute_ris_pcr(design, gamma, cfg.m)
    else:
        projection = sample_ris_rp(gamma, cfg.m, cfg.psi, seed=[cfg.seed, _ENTRY_STREAM])
        Z = compress(design, projection)
    if response_kind == "continuous":
        post = fit_gaussian(Z, response)
    else:
        post = fit_bernoulli_laplace(Z, response, sigma_theta2=sigma_theta2)
    return Replicate(projection=projection, posterior=post)


def fit_tarp(
    train: Dataset,
    configs: list[TarpConfig],
    delta: Optional[float] = None,
    a_sigma: float = DEFAULT_A_SIGMA,
    b_sigma: float = DEFAULT_B_SIGMA,
    sigma_theta2: float = DEFAULT_SIGMA_THETA2,
    master_seed: int = 0,
    threads: int = 1,
) -> TarpModel:
    """Standardize, screen once, and fit every replicate.

    Marginal correlations and the inclusion probabilities at ``delta``
    (unset: ``default_delta(n, p)`` of the training rows) are computed a
    single time; every replicate draws its inclusion vector from them. The
    delta and all three priors are checked for either response kind, and a
    design whose every column is constant, or (continuous) priors that
    leave the predictive t unusable, are rejected, before any replicate runs.
    ``threads`` caps the worker pool; outputs never change. ``master_seed``
    is only recorded in the model: the configs' seeds decide every output.
    """
    delta = default_delta(train.n, train.p) if delta is None else check_delta(delta)
    a_sigma = positive_finite(a_sigma, "a_sigma")
    b_sigma = positive_finite(b_sigma, "b_sigma")
    sigma_theta2 = positive_finite(sigma_theta2, "sigma_theta2")
    std_train, params = standardize(train)
    if params.constant_mask.all():
        raise DataError("every design column is constant; there is nothing to fit")
    if train.response_kind == "continuous":
        # every Gaussian fit needs y'y of the centred response to be finite
        with np.errstate(over="ignore"):
            sum_sq = std_train.response @ std_train.response
        if not math.isfinite(sum_sq):
            raise DataError(
                "response is too large: the sum of squares of the centred "
                "response overflows"
            )
        # a replicate's residual quadratic lies in [0, y'y], and its noise
        # scale grows with it: checking both ends checks every replicate
        for residual_quadratic in (0.0, float(sum_sq)):
            predictive_t_scale(train.n, a_sigma, b_sigma, residual_quadratic)
    correlations = marginal_correlations(
        std_train.design, std_train.response, constant_mask=params.constant_mask,
    )
    q = inclusion_probabilities(correlations, delta, params.constant_mask)
    fit_one = partial(
        _fit_replicate, std_train.design, std_train.response, q,
        train.response_kind, sigma_theta2,
    )
    replicates = _map_ordered(fit_one, configs, threads)
    return TarpModel(
        replicates=replicates,
        standardization=params,
        response_kind=train.response_kind,
        master_seed=master_seed,
        column_names=list(train.column_names),
        delta=delta,
        a_sigma=a_sigma,
        b_sigma=b_sigma,
        sigma_theta2=sigma_theta2,
        n_obs=train.n if train.response_kind == "continuous" else None,
    )


def mixture_t_quantile(
    df: float,
    locations: np.ndarray,
    scale_diags: np.ndarray,
    prob: float,
) -> np.ndarray:
    """Quantiles of an equal-weight mixture of t distributions with one df.

    ``locations`` and ``scale_diags`` have shape (N, k): component i of the
    mixture at point j is t(df, locations[i, j], scale_diags[i, j]).
    A safeguarded Newton solves mixture CDF = ``prob`` at each point. It
    starts at the mean of the component quantiles (at the midpoint of their
    range where that mean overflows) and steps by the CDF residual over the
    closed-form mixture pdf. The min/max of the component quantiles always
    enclose the mixture quantile; that bracket shrinks with every
    evaluation, and a step that leaves it or is not finite (the pdf
    underflows in a gap between far-apart components) is replaced by
    bisection. A point is done when its mixture CDF is within
    ``QUANTILE_TOL`` of ``prob`` or its bracket has collapsed to rounding
    width.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must be in (0,1), got {prob}")
    df = float(df)
    locations = np.atleast_2d(np.asarray(locations, dtype=np.float64))
    widths = np.sqrt(np.atleast_2d(np.asarray(scale_diags, dtype=np.float64)))
    component_q = locations + stdtrit(df, prob) * widths
    lo = component_q.min(axis=0)
    hi = component_q.max(axis=0)
    # component quantiles near DBL_MAX can overflow their sum: start such a
    # point at its bracket's midpoint, halved before adding as in bisection
    with np.errstate(over="ignore"):
        x = component_q.mean(axis=0)
    x = np.where(np.isfinite(x), x, 0.5 * lo + 0.5 * hi)
    # t density: exp(log_norm - half_df1 * log1p(u^2 / df)) / width
    half_df1 = 0.5 * (df + 1.0)
    # the gammaln difference loses ~eps (df/2) ln(df/2) to cancellation, and
    # the Gaussian limit is off by ~1/(4 df); the two cross near df = 1e7.
    # Past that, which includes ~5e305 where both gammaln terms overflow,
    # use the limit
    if df > 1e7:
        log_norm = -0.5 * math.log(2.0 * math.pi)
    else:
        log_norm = gammaln(half_df1) - gammaln(0.5 * df) - 0.5 * np.log(np.pi * df)
    out = np.empty_like(x)
    points = np.arange(x.size)
    for _ in range(QUANTILE_MAX_ITER):
        # a bracket wider than DBL_MAX sends u to +-inf, where the CDF is 0
        # or 1 and the density 0: the right values
        with np.errstate(over="ignore"):
            u = (x - locations) / widths
        cdf = stdtr(df, u).mean(axis=0)
        below = cdf < prob
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        done = np.abs(cdf - prob) <= QUANTILE_TOL
        # collapse of the bracket to rounding width also counts as converged;
        # halving both sides keeps hi - lo finite and changes no decision
        done |= 0.5 * hi - 0.5 * lo <= 0.5e-13 * (1.0 + np.abs(x))
        out[points[done]] = x[done]
        if done.all():
            return out
        if done.any():
            keep = ~done
            points, x, lo, hi = points[keep], x[keep], lo[keep], hi[keep]
            cdf, u = cdf[keep], u[:, keep]
            locations, widths = locations[:, keep], widths[:, keep]
        with np.errstate(all="ignore"):
            density = np.exp(log_norm - half_df1 * np.log1p(u * u / df)) / widths
            newton = x + (prob - cdf) / density.mean(axis=0)
        inside = (newton > lo) & (newton < hi)  # false for inf and nan
        # 0.5 * (lo + hi) to the bit, except that lo + hi may overflow
        x = np.where(inside, newton, 0.5 * lo + 0.5 * hi)
    raise ConvergenceError(
        f"mixture quantile search left {points.size} points unconverged"
    )


def _reject_rows(finite: np.ndarray, what: str) -> None:
    if not finite.all():
        row = int(np.argmin(finite)) + 1
        raise DataError(f"new row {row} is too large: its {what} overflow")


DEFAULT_LEVEL = 0.5
# the levels whose tail probabilities (1 - level) / 2 and (1 + level) / 2 both
# lie in (0, 1) in floating point: from 1 - 2**-53 up, (1 + level) / 2 is 1.0
LEVEL_RANGE = "in (0, 0.9999999999999998]"


def _tail_probabilities(level: float) -> tuple[float, float]:
    return 0.5 * (1.0 - level), 0.5 * (1.0 + level)


def check_level(level) -> float:
    """The interval-level rule: level > 0 and both tail probabilities in (0, 1)."""
    level = float(level)
    lower, upper = _tail_probabilities(level)
    if not (level > 0.0 and 0.0 < lower < 1.0 and 0.0 < upper < 1.0):
        raise ValueError(f"level must be {LEVEL_RANGE}, got {level!r}")
    return level


def _mapped_back_mode(rep: Replicate) -> np.ndarray:
    return rep.projection.adjoint(rep.posterior.mode)


def _replicate_predictive(model: TarpModel, Xs: np.ndarray, rep: Replicate):
    # numpy's error state does not carry into a worker thread; an overflowing
    # row is rejected by number after the map
    with np.errstate(over="ignore", invalid="ignore"):
        Z = compress(Xs, rep.projection)
        return predictive(rep.posterior, Z, model.t_scale(rep.posterior)[1])


def predict_tarp(
    model: TarpModel,
    X_new: np.ndarray,
    level: float = DEFAULT_LEVEL,
    overwrite_rows: bool = False,
) -> TarpPrediction:
    """Aggregate replicate predictions on new rows (original units).

    Continuous responses: the point prediction is the mean of the replicate
    posterior-mean predictions, and [lower, upper] is the central interval of
    the equal-weight mixture of replicate predictive t distributions, which
    share the model's df. Binary responses: mean of the replicate plug-in
    probabilities expit(x_gamma' R_i' theta_i), summed in replicate order.
    Each logit is linear in x, so every replicate's comes from one product
    X W' with row i of W the mapped-back mode R_i' theta_i; no replicate
    compresses X.
    A new row whose standardized values overflow, or whose logits (binary)
    or predictive location or scale (continuous) do, raises DataError
    naming the row.
    Every replicate reads one column-major standardized copy of the rows.
    By default that is a new array and ``X_new`` is left as it was. With
    ``overwrite_rows``, a writable, float64, column-major ``X_new`` is
    standardized in place and becomes that copy, so the rows are held once;
    its values are undefined after the call. Any other ``X_new`` is copied
    as by default.
    """
    X_new = np.asarray(X_new, dtype=np.float64)
    if X_new.ndim != 2 or X_new.shape[1] != model.p:
        raise ValueError(f"X_new has shape {X_new.shape}, expected (*, {model.p})")
    level = check_level(level)
    # a huge finite cell may overflow here or in the predictive scale: such
    # rows are bad data, rejected by number below instead of failing later
    with np.errstate(over="ignore", invalid="ignore"):
        Xs = model.standardization.transform_design(X_new, overwrite=overwrite_rows)
    _reject_rows(np.isfinite(Xs).all(axis=1), "standardized values")
    if model.response_kind == "binary":
        W = np.array(_map_ordered(_mapped_back_mode, model.replicates, 1))
        # (N, n): the mean over axis 0 adds the replicates in order
        with np.errstate(over="ignore", invalid="ignore"):
            logits = W @ Xs.T
        _reject_rows(np.isfinite(logits).all(axis=0), "logits")
        probs = expit(logits).mean(axis=0)
        return TarpPrediction(response_kind="binary", probability=probs)
    preds = _map_ordered(partial(_replicate_predictive, model, Xs), model.replicates, 1)
    locs = np.asarray([location for location, _ in preds])
    scales = np.asarray([scale_diag for _, scale_diag in preds])
    _reject_rows(
        np.isfinite(locs).all(axis=0) & np.isfinite(scales).all(axis=0),
        "predictive location or scale",
    )
    # the predictive location is the posterior-mean point prediction
    point = model.standardization.inverse_response(np.mean(locs, axis=0))
    # the df, n + 2a, is the model's: no replicate's residual changes it
    df, _ = model.t_scale(model.replicates[0].posterior)
    lower_prob, upper_prob = _tail_probabilities(level)
    lower = mixture_t_quantile(df, locs, scales, lower_prob)
    upper = mixture_t_quantile(df, locs, scales, upper_prob)
    return TarpPrediction(
        response_kind="continuous",
        point=point,
        lower=model.standardization.inverse_response(lower),
        upper=model.standardization.inverse_response(upper),
    )
