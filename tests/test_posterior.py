import numpy as np
import pytest
from oracles import (
    central_interval,
    fit_bernoulli_laplace_via_cho_factor,
    location_via_gram_inverse,
    predict_prob,
)
from scipy.linalg import cholesky

import tarp.posterior
from tarp.posterior import (
    DEFAULT_A_SIGMA,
    DEFAULT_B_SIGMA,
    ConvergenceError,
    GaussianPosterior,
    LaplacePosterior,
    fit_bernoulli_laplace,
    fit_gaussian,
    positive_finite,
    predictive,
    predictive_t_scale,
)


def t_scale(post, n, a_sigma=DEFAULT_A_SIGMA, b_sigma=DEFAULT_B_SIGMA):
    """df and noise scale of the predictive t of a fit to n rows."""
    return predictive_t_scale(n, a_sigma, b_sigma, post.residual_quadratic)


def sample_posterior_draws(post, n, a_sigma, b_sigma, n_draws, rng):
    """Composition sampler: sigma^2 from its inverse-gamma(a + n/2,
    b + r/2) posterior, theta | sigma^2 normal."""
    ig_shape = a_sigma + 0.5 * n
    ig_rate = b_sigma + 0.5 * post.residual_quadratic
    sigma2 = ig_rate / rng.gamma(ig_shape, 1.0, size=n_draws)
    L = cholesky(post.precision_inverse, lower=True)
    z = rng.standard_normal((n_draws, post.m))
    return post.location + np.sqrt(sigma2)[:, None] * (z @ L.T)


class TestFitGaussian:
    def test_prior_dominates_with_zero_design(self):
        post = fit_gaussian(np.zeros((5, 3)), np.ones(5))
        np.testing.assert_array_equal(post.location, np.zeros(3))
        np.testing.assert_allclose(post.precision_inverse, np.eye(3))

    def test_unit_column_example(self):
        # (Z'Z + 1)^-1 Z'y = 3/4 for Z = (1,1,1)', y = (1,1,1)'
        post = fit_gaussian(np.ones((3, 1)), np.ones(3))
        assert post.location[0] == pytest.approx(0.75, abs=1e-12)

    def test_residual_quadratic_is_the_ridge_residual(self):
        # r = y'y - mu'Z'y = |y - Z mu|^2 + |mu|^2 at the ridge solution mu
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        post = fit_gaussian(Z, y)
        residual = y - Z @ post.location
        expected = residual @ residual + post.location @ post.location
        assert post.residual_quadratic == pytest.approx(expected, rel=1e-12)

    def test_posterior_moments_match_sampling_oracle(self):
        # small-instance check; the acceptance suite runs the full 50x10^6 version
        rng = np.random.default_rng(2)
        for _ in range(3):
            n, m = 10, 2
            Z = rng.standard_normal((n, m))
            y = rng.standard_normal(n)
            post = fit_gaussian(Z, y)
            draws = sample_posterior_draws(post, n, 2.0, 2.0, 400_000, rng)
            mean_se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
            assert np.all(np.abs(draws.mean(axis=0) - post.location) < 3 * mean_se)
            # the coefficient t: df = n + 2a, scale (r + 2b) / df (Z'Z + I)^-1
            df = n + 2 * 2.0
            scale = (post.residual_quadratic + 2 * 2.0) / df * post.precision_inverse
            analytic_cov = scale * df / (df - 2.0)
            centered = draws - draws.mean(axis=0)
            for j in range(m):
                for k in range(m):
                    products = centered[:, j] * centered[:, k]
                    se = products.std(ddof=1) / np.sqrt(products.size)
                    assert abs(products.mean() - analytic_cov[j, k]) < 3 * se

    def test_two_routes_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = rng.standard_normal((10, 6))
            R = rng.standard_normal((3, 6))
            y = rng.standard_normal(10)
            post = fit_gaussian(X @ R.T, y)
            mu_alt = location_via_gram_inverse(X, R, y)
            np.testing.assert_allclose(post.location, mu_alt, atol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            fit_gaussian(np.array([[np.inf], [0.0]]), np.zeros(2))

    def test_zero_width_design(self):
        post = fit_gaussian(np.zeros((4, 0)), np.ones(4))
        assert post.location.shape == (0,)
        assert post.precision_inverse.shape == (0, 0)
        assert post.residual_quadratic == 4.0


class TestPriorRules:
    @pytest.mark.parametrize("name", ["a_sigma", "b_sigma"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_prior(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a positive finite"):
            positive_finite(value, name)

    def test_predictive_t_scale(self):
        # df = n + 2a and noise scale (r + 2b) / df
        assert predictive_t_scale(20, 0.5, 3.0, 4.0) == (21.0, 10.0 / 21.0)

    @pytest.mark.parametrize(
        "name, quantity",
        [("a_sigma", "df"), ("b_sigma", "noise scale")],
        ids=["a_sigma", "b_sigma"],
    )
    def test_rejects_prior_overflowing_predictive(self, name, quantity):
        # finite priors whose df = n + 2a or noise scale (r + 2b) / df overflow
        priors = {"a_sigma": 0.02, "b_sigma": 0.02, name: 1e308}
        with pytest.raises(ValueError, match=f"predictive {quantity} of"):
            predictive_t_scale(3, priors["a_sigma"], priors["b_sigma"], 0.0)


class TestPointPredict:
    # the posterior-mean point prediction is the predictive location
    def test_zero_design_predicts_zero(self):
        post = fit_gaussian(np.ones((4, 2)), np.ones(4))
        location, _ = predictive(post, np.zeros((3, 2)), t_scale(post, 4)[1])
        np.testing.assert_array_equal(location, 0.0)

    def test_ridge_shrinks_toward_zero(self):
        # m=1 noiseless data: |prediction| <= |OLS fit| on the training row
        z = np.array([[1.0], [2.0], [3.0]])
        y = 2.0 * z[:, 0]
        post = fit_gaussian(z, y)
        ols = float(np.linalg.lstsq(z, y, rcond=None)[0][0])
        location, _ = predictive(post, z, t_scale(post, 3)[1])
        assert np.all(np.abs(location) <= np.abs(z[:, 0] * ols) + 1e-12)

    def test_dimension_mismatch(self):
        post = fit_gaussian(np.ones((4, 2)), np.ones(4))
        with pytest.raises(ValueError):
            predictive(post, np.zeros((3, 5)), t_scale(post, 4)[1])


class TestPredictive:
    def test_noise_floor_on_scale(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((12, 3))
        post = fit_gaussian(Z, rng.standard_normal(12))
        _, noise_scale2 = t_scale(post, 12)
        _, scale_diag = predictive(post, rng.standard_normal((20, 3)), noise_scale2)
        assert np.all(scale_diag >= noise_scale2 - 1e-15)

    def test_df_grows_with_n(self):
        rng = np.random.default_rng(5)
        for n in (10, 100, 1000):
            post = fit_gaussian(rng.standard_normal((n, 2)), rng.standard_normal(n))
            df, _ = t_scale(post, n)
            assert df == pytest.approx(n + 0.04)

    def test_well_specified_coverage(self):
        # quick calibration check; acceptance criterion 2 runs the full version
        rng = np.random.default_rng(7)
        hits = total = 0
        for _ in range(20):
            n, m = 60, 3
            Z = rng.standard_normal((n, m))
            sigma2 = 2.0 / rng.gamma(2.0, 1.0)
            theta = np.sqrt(sigma2) * rng.standard_normal(m)
            y = Z @ theta + np.sqrt(sigma2) * rng.standard_normal(n)
            post = fit_gaussian(Z, y)
            Z_new = rng.standard_normal((100, m))
            y_new = Z_new @ theta + np.sqrt(sigma2) * rng.standard_normal(100)
            df, noise_scale2 = t_scale(post, n, 2.0, 2.0)
            lo, hi = central_interval(df, *predictive(post, Z_new, noise_scale2), 0.5)
            hits += int(np.sum((y_new >= lo) & (y_new <= hi)))
            total += 100
        assert 0.45 <= hits / total <= 0.55


class TestCentralInterval:
    def test_collapses_at_level_zero_limit(self):
        rng = np.random.default_rng(8)
        post = fit_gaussian(rng.standard_normal((10, 2)), rng.standard_normal(10))
        df, noise_scale2 = t_scale(post, 10)
        location, scale_diag = predictive(post, rng.standard_normal((5, 2)), noise_scale2)
        lo, hi = central_interval(df, location, scale_diag, 1e-12)
        np.testing.assert_allclose(lo, location, atol=1e-6)
        np.testing.assert_allclose(hi, location, atol=1e-6)

    def test_normal_limit_quartile(self):
        # known standard-normal quartile at df -> infinity, unit scale
        lo, hi = central_interval(1e9, np.zeros(1), np.ones(1), 0.5)
        assert hi[0] == pytest.approx(0.6744897501960817, abs=1e-4)
        assert lo[0] == pytest.approx(-0.6744897501960817, abs=1e-4)

    def test_width_scales_as_sqrt_scale(self):
        wa = np.subtract(*central_interval(7.0, np.zeros(3), np.ones(3), 0.5)[::-1])
        wb = np.subtract(*central_interval(7.0, np.zeros(3), 2 * np.ones(3), 0.5)[::-1])
        np.testing.assert_allclose(wb, np.sqrt(2.0) * wa)

    def test_invalid_level(self):
        for level in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                central_interval(5.0, np.zeros(1), np.ones(1), level)


class TestBernoulliLaplace:
    def test_balanced_zero_design_gives_zero_mode(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        post = fit_bernoulli_laplace(np.zeros((4, 2)), y)
        np.testing.assert_allclose(post.mode, 0.0, atol=1e-9)

    def test_separable_stays_finite_and_monotone(self):
        z = np.linspace(-2, 2, 20).reshape(-1, 1)
        y = (z[:, 0] > 0).astype(float)
        post = fit_bernoulli_laplace(z, y)
        assert np.all(np.isfinite(post.mode))
        probs = predict_prob(post, z)
        assert np.all(np.diff(probs) > 0)

    def test_gradient_matches_finite_differences(self):
        from tarp.posterior import _log_posterior

        rng = np.random.default_rng(9)
        Z = rng.standard_normal((30, 3))
        y = (rng.random(30) < 0.5).astype(float)
        post = fit_bernoulli_laplace(Z, y, sigma_theta2=0.7)
        eps = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            plus, minus = (
                _log_posterior(Z @ theta, theta, y, 0.7)
                for theta in (post.mode + step, post.mode - step)
            )
            fd = (plus - minus) / (2 * eps)
            # mode: analytic gradient < 1e-8, so FD gradient is ~0 too
            assert abs(fd) < 1e-5 * max(1.0, abs(plus))

    def test_gradient_norm_below_tolerance(self):
        rng = np.random.default_rng(10)
        Z = rng.standard_normal((40, 4))
        y = (rng.random(40) < 0.4).astype(float)
        post = fit_bernoulli_laplace(Z, y)
        assert post.grad_norm < 1e-8

    def test_nonconvergence_reports_gradient(self, monkeypatch):
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((20, 2))
        y = (rng.random(20) < 0.5).astype(float)
        monkeypatch.setattr(tarp.posterior, "NEWTON_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="gradient norm"):
            fit_bernoulli_laplace(Z, y)

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            fit_bernoulli_laplace(np.zeros((3, 1)), np.array([0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_nonfinite_design(self, value):
        Z = np.zeros((3, 2))
        Z[1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            fit_bernoulli_laplace(Z, np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_prior_variance(self, value):
        y = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="sigma_theta2 must be a positive finite"):
            fit_bernoulli_laplace(np.zeros((3, 1)), y, sigma_theta2=value)


def _oracle_problems():
    # fit_logit's shape (m close to n), separable data, both memory layouts
    # and three prior variances, over small and large designs
    rng = np.random.default_rng(2024)
    shapes = [(200, 150), (200, 190), (40, 39), (30, 60)]
    shapes += [(int(rng.integers(20, 251)), int(rng.integers(1, 121))) for _ in range(44)]
    for k, (n, m) in enumerate(shapes):
        Z = rng.standard_normal((n, m)) * (0.3, 1.0, 3.0)[k % 3]
        if k % 2:
            Z = np.asfortranarray(Z)
        if k % 4 == 0:
            y = (Z[:, 0] > 0).astype(float)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-Z[:, 0]))).astype(float)
        yield Z, y, (0.1, 1.0, 10.0)[k % 3]
    # tiny problems under a nearly flat prior whose full Newton step
    # overshoots, so the line search halves it (1 to 4 times); found by a
    # seeded search, since the problems above never damp
    for k, seed in enumerate((172, 320, 611, 958)):
        rng = np.random.default_rng([2024, seed])
        n = int(rng.integers(4, 8))
        Z = rng.standard_normal((n, 3))
        if k % 2:
            Z = np.asfortranarray(Z)
        yield Z, (rng.random(n) < 0.5).astype(float), 1e6


def test_newton_matches_cho_factor_oracle():
    # the in-place step forms the oracle's curvature and runs the LAPACK
    # routines that cho_factor / cho_solve run, so every bit agrees
    n_separable = n_damped = 0
    for Z, y, sigma_theta2 in _oracle_problems():
        post = fit_bernoulli_laplace(Z, y, sigma_theta2=sigma_theta2)
        mode, grad_norm, n_iter, rejected = fit_bernoulli_laplace_via_cho_factor(
            Z, y, sigma_theta2
        )
        assert post.mode.tobytes() == mode.tobytes()
        assert (post.n_iter, post.grad_norm) == (n_iter, grad_norm)
        assert post.grad_norm < 1e-8
        n_separable += bool(np.all((Z[:, 0] > 0) == (y == 1.0)))
        n_damped += rejected > 0
    assert n_separable >= 12
    # the damped line search is checked too, not only full steps
    assert n_damped >= 4


def test_newton_takes_the_smallest_step_when_no_halving_is_accepted(monkeypatch):
    # the objective never rejects 40 halvings of a Newton direction in
    # practice; rejecting the first step's 40 candidates by hand shows the
    # fallback takes the step damped 2**40 times and the fit still converges
    rng = np.random.default_rng(29)
    Z = rng.standard_normal((30, 3))
    y = (rng.random(30) < 0.5).astype(float)
    plain = fit_bernoulli_laplace(Z, y)
    real = tarp.posterior._log_posterior
    thetas = []

    def reject_first_step(h, theta, *args):
        thetas.append(theta.copy())
        value = real(h, theta, *args)
        return -np.inf if 2 <= len(thetas) <= 41 else value

    monkeypatch.setattr(tarp.posterior, "_log_posterior", reject_first_step)
    post = fit_bernoulli_laplace(Z, y)
    step = thetas[1]  # the full step from theta = 0
    for k in range(40):
        np.testing.assert_array_equal(thetas[1 + k], 0.5**k * step)
    np.testing.assert_array_equal(thetas[41], 0.5**40 * step)
    assert post.n_iter == plain.n_iter + 1
    assert post.grad_norm < 1e-8
    np.testing.assert_allclose(post.mode, plain.mode, rtol=1e-7, atol=1e-12)


class TestSpdSolve:
    # the one Cholesky solve of both fits: dposv for the first right-hand
    # side, dpotrs on its factor for the rest, in the caller's scratch matrix
    def test_factors_in_place(self):
        # LAPACK works on the Fortran-ordered transpose, whose lower
        # triangle is the C array's upper one
        matrix = np.array([[4.0, 2.0], [2.0, 5.0]])
        tarp.posterior._spd_solve(matrix, np.ones(2))
        np.testing.assert_array_equal(np.tril(matrix.T), [[2.0, 0.0], [1.0, 2.0]])

    def test_indefinite_matrix_is_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError, match="LAPACK info 2"):
            tarp.posterior._spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))


def _read_only(*arrays):
    copies = [np.array(a) for a in arrays]
    for copy in copies:
        copy.flags.writeable = False
    return copies


@pytest.mark.parametrize("order", ["C", "F"])
def test_fits_take_read_only_inputs(order):
    # neither fit writes to its inputs or returns a view of them: read-only
    # copies give the same bits, and no result shares their memory
    rng = np.random.default_rng(8)
    Z = np.asarray(rng.standard_normal((60, 25)), order=order)
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-Z[:, 0]))).astype(float)
    Z_ro, y_ro = _read_only(Z, y)
    assert Z_ro.flags.f_contiguous == (order == "F")
    laplace = fit_bernoulli_laplace(Z, y, sigma_theta2=0.5)
    laplace_ro = fit_bernoulli_laplace(Z_ro, y_ro, sigma_theta2=0.5)
    assert laplace_ro.mode.tobytes() == laplace.mode.tobytes()
    assert (laplace_ro.n_iter, laplace_ro.grad_norm) == (laplace.n_iter, laplace.grad_norm)
    centred = y - y.mean()
    gauss = fit_gaussian(Z, centred)
    gauss_ro = fit_gaussian(Z_ro, *_read_only(centred))
    for name in ("location", "precision_inverse"):
        assert getattr(gauss_ro, name).tobytes() == getattr(gauss, name).tobytes()
    assert gauss_ro.residual_quadratic == gauss.residual_quadratic
    for result in (laplace_ro.mode, gauss_ro.location, gauss_ro.precision_inverse):
        assert not np.shares_memory(result, Z_ro)
        assert not np.shares_memory(result, y_ro)


class TestPredictProb:
    # the plug-in probability at the mode; the per-replicate oracle that
    # tarp.ensemble.predict_tarp's binary path is checked against
    def test_zero_maps_to_half(self):
        post = fit_bernoulli_laplace(
            np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])
        )
        assert predict_prob(post, np.zeros((1, 1)))[0] == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((20, 2))
        y = (rng.random(20) < 0.5).astype(float)
        post = fit_bernoulli_laplace(Z, y)
        z = rng.standard_normal((10, 2))
        np.testing.assert_allclose(
            predict_prob(post, z) + predict_prob(post, -z), 1.0, atol=1e-12
        )

    def test_saturates_monotonically(self):
        post = fit_bernoulli_laplace(
            np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])
        )
        z = np.linspace(0, 40, 50).reshape(-1, 1)
        probs = predict_prob(post, z)
        assert np.all(np.diff(probs) >= 0)
        assert probs[-1] > 0.999


class TestPosteriorInvariants:
    # a fit and a model file build posteriors through the same constructor
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"location": np.zeros(3)}, "bad posterior shapes"),
            ({"location": np.zeros((2, 1))}, "bad posterior shapes"),
            ({"location": np.array([0.0, np.nan])}, "holds non-finite"),
            ({"precision_inverse": np.full((2, 2), np.inf)}, "holds non-finite"),
            ({"residual_quadratic": -1.0}, "residual_quadratic must be finite"),
            ({"residual_quadratic": np.inf}, "residual_quadratic must be finite"),
        ],
        ids=["location_long", "location_2d", "location_nan", "precision_inf",
             "residual_negative", "residual_inf"],
    )
    def test_gaussian(self, change, message):
        fields = dict(location=np.zeros(2), precision_inverse=np.eye(2),
                      residual_quadratic=1.0)
        GaussianPosterior(**fields)
        with pytest.raises(ValueError, match=message):
            GaussianPosterior(**{**fields, **change})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"mode": np.array([np.nan, 0.0])}, "mode holds non-finite"),
            ({"grad_norm": -1e-9}, "grad_norm .* is not finite and >= 0"),
            ({"grad_norm": np.inf}, "grad_norm .* is not finite and >= 0"),
            ({"n_iter": -1}, "n_iter must be >= 0"),
        ],
        ids=["mode_nan", "grad_norm_negative",
             "grad_norm_inf", "n_iter_negative"],
    )
    def test_laplace(self, change, message):
        fields = dict(mode=np.zeros(2), grad_norm=0.0, n_iter=0)
        LaplacePosterior(**fields)
        with pytest.raises(ValueError, match=message):
            LaplacePosterior(**{**fields, **change})
