import numpy as np
import pytest
from oracles import (
    central_interval,
    fit_bernoulli_laplace_via_cho_factor,
    location_via_gram_inverse,
    predict_prob,
)
from scipy.linalg import cholesky

from tarp.posterior import (
    ConvergenceError,
    fit_bernoulli_laplace,
    fit_gaussian,
    predictive,
)


def sample_posterior_draws(post, n_draws, rng):
    """Composition sampler: sigma^2 from inverse-gamma, theta | sigma^2 normal."""
    sigma2 = post.ig_rate / rng.gamma(post.ig_shape, 1.0, size=n_draws)
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

    def test_df_and_ig_parameters(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        post = fit_gaussian(Z, y, a_sigma=0.02, b_sigma=0.02)
        assert post.df == pytest.approx(20 + 0.04)
        assert post.ig_shape == pytest.approx(0.02 + 10.0)
        assert post.ig_rate == pytest.approx(0.02 + post.residual_quadratic / 2.0)

    def test_scale_consistency_identity(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        post = fit_gaussian(Z, y)
        expected = (post.residual_quadratic + 2 * post.b_sigma) / post.df
        np.testing.assert_allclose(
            post.scale, expected * post.precision_inverse, atol=1e-10
        )

    def test_posterior_moments_match_sampling_oracle(self):
        # small-instance check; the acceptance suite runs the full 50x10^6 version
        rng = np.random.default_rng(2)
        for _ in range(3):
            n, m = 10, 2
            Z = rng.standard_normal((n, m))
            y = rng.standard_normal(n)
            post = fit_gaussian(Z, y, a_sigma=2.0, b_sigma=2.0)
            draws = sample_posterior_draws(post, 400_000, rng)
            mean_se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
            assert np.all(np.abs(draws.mean(axis=0) - post.location) < 3 * mean_se)
            analytic_cov = post.scale * post.df / (post.df - 2.0)
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

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            fit_gaussian(np.zeros((3, 1)), np.zeros(3), a_sigma=0.0)

    @pytest.mark.parametrize("name", ["a_sigma", "b_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_nonfinite_prior(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a positive finite"):
            fit_gaussian(np.zeros((3, 1)), np.zeros(3), **{name: value})

    @pytest.mark.parametrize(
        "name, quantity",
        [("a_sigma", "df"), ("b_sigma", "noise scale")],
        ids=["a_sigma", "b_sigma"],
    )
    def test_rejects_prior_overflowing_predictive(self, name, quantity):
        # finite priors whose df = n + 2a or noise scale (r + 2b) / df overflow
        with pytest.raises(ValueError, match=f"predictive {quantity} of"):
            fit_gaussian(np.ones((3, 1)), np.zeros(3), **{name: 1e308})

    def test_zero_width_design(self):
        post = fit_gaussian(np.zeros((4, 0)), np.ones(4))
        assert post.location.shape == (0,)
        assert post.precision_inverse.shape == (0, 0)
        assert post.residual_quadratic == 4.0


class TestPointPredict:
    # the posterior-mean point prediction is the predictive location
    def test_zero_design_predicts_zero(self):
        post = fit_gaussian(np.ones((4, 2)), np.ones(4))
        pred = predictive(post, np.zeros((3, 2))).location
        np.testing.assert_array_equal(pred, 0.0)

    def test_ridge_shrinks_toward_zero(self):
        # m=1 noiseless data: |prediction| <= |OLS fit| on the training row
        z = np.array([[1.0], [2.0], [3.0]])
        y = 2.0 * z[:, 0]
        post = fit_gaussian(z, y)
        ols = float(np.linalg.lstsq(z, y, rcond=None)[0][0])
        pred = predictive(post, z).location
        assert np.all(np.abs(pred) <= np.abs(z[:, 0] * ols) + 1e-12)

    def test_dimension_mismatch(self):
        post = fit_gaussian(np.ones((4, 2)), np.ones(4))
        with pytest.raises(ValueError):
            predictive(post, np.zeros((3, 5)))


class TestPredictive:
    def test_noise_floor_on_scale(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((12, 3))
        post = fit_gaussian(Z, rng.standard_normal(12))
        pred = predictive(post, rng.standard_normal((20, 3)))
        assert np.all(pred.scale_diag >= post.noise_scale2 - 1e-15)

    def test_df_grows_with_n(self):
        rng = np.random.default_rng(5)
        for n in (10, 100, 1000):
            post = fit_gaussian(rng.standard_normal((n, 2)), rng.standard_normal(n))
            assert predictive(post, np.zeros((1, 2))).df == pytest.approx(n + 0.04)

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
            post = fit_gaussian(Z, y, a_sigma=2.0, b_sigma=2.0)
            Z_new = rng.standard_normal((100, m))
            y_new = Z_new @ theta + np.sqrt(sigma2) * rng.standard_normal(100)
            lo, hi = central_interval(predictive(post, Z_new), 0.5)
            hits += int(np.sum((y_new >= lo) & (y_new <= hi)))
            total += 100
        assert 0.45 <= hits / total <= 0.55


class TestCentralInterval:
    def test_collapses_at_level_zero_limit(self):
        rng = np.random.default_rng(8)
        post = fit_gaussian(rng.standard_normal((10, 2)), rng.standard_normal(10))
        pred = predictive(post, rng.standard_normal((5, 2)))
        lo, hi = central_interval(pred, 1e-12)
        np.testing.assert_allclose(lo, pred.location, atol=1e-6)
        np.testing.assert_allclose(hi, pred.location, atol=1e-6)

    def test_normal_limit_quartile(self):
        # known standard-normal quartile at df -> infinity, unit scale
        from tarp.posterior import PredictiveT

        pred = PredictiveT(df=1e9, location=np.zeros(1), scale_diag=np.ones(1))
        lo, hi = central_interval(pred, 0.5)
        assert hi[0] == pytest.approx(0.6744897501960817, abs=1e-4)
        assert lo[0] == pytest.approx(-0.6744897501960817, abs=1e-4)

    def test_width_scales_as_sqrt_scale(self):
        from tarp.posterior import PredictiveT

        a = PredictiveT(df=7.0, location=np.zeros(3), scale_diag=np.ones(3))
        b = PredictiveT(df=7.0, location=np.zeros(3), scale_diag=2 * np.ones(3))
        wa = np.subtract(*central_interval(a, 0.5)[::-1])
        wb = np.subtract(*central_interval(b, 0.5)[::-1])
        np.testing.assert_allclose(wb, np.sqrt(2.0) * wa)

    def test_invalid_level(self):
        from tarp.posterior import PredictiveT

        pred = PredictiveT(df=5.0, location=np.zeros(1), scale_diag=np.ones(1))
        for level in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                central_interval(pred, level)


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
        from tarp.posterior import _logistic_objective

        rng = np.random.default_rng(9)
        Z = rng.standard_normal((30, 3))
        y = (rng.random(30) < 0.5).astype(float)
        post = fit_bernoulli_laplace(Z, y, sigma_theta2=0.7)
        eps = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            plus = _logistic_objective(post.mode + step, Z, y, 0.7)
            minus = _logistic_objective(post.mode - step, Z, y, 0.7)
            fd = (plus - minus) / (2 * eps)
            # mode: analytic gradient < 1e-8, so FD gradient is ~0 too
            assert abs(fd) < 1e-5 * max(1.0, abs(plus))

    def test_gradient_norm_below_tolerance(self):
        rng = np.random.default_rng(10)
        Z = rng.standard_normal((40, 4))
        y = (rng.random(40) < 0.4).astype(float)
        post = fit_bernoulli_laplace(Z, y)
        assert post.grad_norm < 1e-8

    def test_nonconvergence_reports_gradient(self):
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((20, 2))
        y = (rng.random(20) < 0.5).astype(float)
        with pytest.raises(ConvergenceError, match="gradient norm"):
            fit_bernoulli_laplace(Z, y, max_iter=1)

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


def test_newton_matches_cho_factor_oracle():
    # the lean Newton step changes only the summation order of the curvature
    n_separable = 0
    for Z, y, sigma_theta2 in _oracle_problems():
        post = fit_bernoulli_laplace(Z, y, sigma_theta2=sigma_theta2)
        mode, _, n_iter = fit_bernoulli_laplace_via_cho_factor(Z, y, sigma_theta2)
        assert post.n_iter == n_iter
        assert post.grad_norm < 1e-8
        np.testing.assert_allclose(post.mode, mode, rtol=0, atol=1e-12 * np.abs(mode).max())
        n_separable += bool(np.all((Z[:, 0] > 0) == (y == 1.0)))
    assert n_separable >= 12


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
