import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarp.data import DataError
from tarp.screening import (
    default_delta,
    default_fallback_count,
    inclusion_probabilities,
    marginal_correlations,
    sample_inclusion,
)


class TestMarginalCorrelations:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(40)
        X = np.column_stack([y, rng.standard_normal(40)])
        r = marginal_correlations(X, y)
        assert r[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_column(self):
        # x orthogonal to centered y by construction
        y = np.array([1.0, -1.0, 1.0, -1.0])
        X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        r = marginal_correlations(X, y)
        assert abs(r[0]) < 1e-12

    def test_anticorrelated_pair(self):
        # hand computation of the Pearson formula on a 4x2 design
        X = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = X[:, 0]
        r = marginal_correlations(X, y)
        np.testing.assert_allclose(r, [1.0, -1.0], atol=1e-12)

    def test_constant_y_warns_and_zeroes(self):
        X = np.random.default_rng(1).standard_normal((10, 3))
        with pytest.warns(RuntimeWarning, match="constant"):
            r = marginal_correlations(X, np.ones(10))
        np.testing.assert_array_equal(r, np.zeros(3))

    def test_constant_column_zeroed(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(15)
        X = np.column_stack([np.full(15, 3.0), y])
        r = marginal_correlations(X, y)
        assert r[0] == 0.0 and r[1] == pytest.approx(1.0)

    def test_flag_mask_respected(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(15)
        X = np.column_stack([y, y])
        r = marginal_correlations(X, y, constant_mask=np.array([True, False]))
        assert r[0] == 0.0 and r[1] == pytest.approx(1.0)

    @given(
        st.floats(-5.0, 5.0).filter(lambda a: abs(a) > 1e-3),
        st.floats(-10.0, 10.0),
        st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance_of_magnitude(self, a, b, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        r1 = np.abs(marginal_correlations(X, y))
        r2 = np.abs(marginal_correlations(X, a * y + b))
        np.testing.assert_allclose(r1, r2, atol=1e-10)


class TestInclusionProbabilities:
    def test_power_normalization(self):
        q = inclusion_probabilities(np.array([0.8, 0.4, 0.2]), delta=2.0)
        np.testing.assert_allclose(q, [1.0, 0.25, 0.0625])

    def test_zeroth_power_selects_everything(self):
        # delta 0 screens nothing: no uniform fallback on all-zero
        # correlations, and constant columns are kept too
        constant = np.array([True, False, False])
        for r, mask in (
            (np.array([0.3, -0.1, 0.9]), None),
            (np.zeros(3), None),
            (np.zeros(3), constant),
        ):
            q = inclusion_probabilities(r, 0.0, constant_mask=mask)
            np.testing.assert_array_equal(q, np.ones(3))

    def test_large_delta_kills_runner_up(self):
        q = inclusion_probabilities(np.array([0.8, 0.4]), delta=20.0)
        assert q[0] == 1.0
        assert q[1] == pytest.approx(0.5**20)

    def test_zero_correlations_fall_back_to_uniform(self):
        q = inclusion_probabilities(np.zeros(50), delta=2.0)
        expected = min(1.0, default_fallback_count(50) / 50)
        np.testing.assert_allclose(q, np.full(50, expected))

    def test_fallback_gives_constant_columns_zero(self):
        # standardization makes a constant column all-zero: the uniform
        # fallback spreads over the 40 columns that vary instead
        constant = np.zeros(50, dtype=bool)
        constant[::5] = True
        q = inclusion_probabilities(np.zeros(50), 2.0, constant_mask=constant)
        expected = min(1.0, default_fallback_count(40) / 40)
        np.testing.assert_array_equal(q, np.where(constant, 0.0, expected))

    def test_fallback_without_a_varying_column_is_data_error(self):
        with pytest.raises(DataError, match="every design column is constant"):
            inclusion_probabilities(
                np.zeros(3), 2.0, constant_mask=np.ones(3, dtype=bool)
            )

    @pytest.mark.parametrize("delta", [-1.0, float("nan"), float("inf")])
    def test_delta_must_be_finite_and_nonnegative(self, delta):
        with pytest.raises(ValueError, match="^delta must be finite and >= 0, got "):
            inclusion_probabilities(np.array([0.5]), delta=delta)

    @given(st.integers(0, 1000), st.floats(0.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_correlation_magnitude(self, seed, delta):
        r = np.random.default_rng(seed).uniform(-1, 1, size=12)
        q = inclusion_probabilities(r, delta)
        order = np.argsort(np.abs(r))
        assert np.all(np.diff(q[order]) >= -1e-12)
        if np.any(r != 0):
            assert q.max() == 1.0


class TestSampleInclusion:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(0)
        gamma = sample_inclusion(np.array([1.0, 0.0, 0.0]), rng)
        assert gamma.dtype == bool
        np.testing.assert_array_equal(gamma, [True, False, False])

    def test_same_seed_same_draw(self):
        q = np.array([1.0, 0.5, 0.5, 0.2])
        g1 = sample_inclusion(q, np.random.default_rng(42))
        g2 = sample_inclusion(q, np.random.default_rng(42))
        np.testing.assert_array_equal(g1, g2)

    def test_expected_count_matches_sum_q(self):
        # Monte Carlo mean of the selected count vs sum(q), within 3 SE
        q = np.array([1.0, 0.5, 0.5])
        rng = np.random.default_rng(7)
        draws = 100_000
        counts = np.fromiter(
            (sample_inclusion(q, rng).sum() for _ in range(draws)), dtype=float
        )
        se = counts.std(ddof=1) / math.sqrt(draws)
        assert abs(counts.mean() - q.sum()) < max(3 * se, 0.01)

    def test_never_empty_under_fallback(self):
        q = np.full(30, 0.01)
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert sample_inclusion(q, rng).any()

    def test_argmax_forced_in_after_100_empty_draws(self):
        # a uniform draw is below 1e-300 only when it is exactly 0 (odds
        # 2**-53), so every one of the 100 draws comes back empty
        q = np.array([1e-310, 0.0, 1e-300, 5e-301])
        rng = np.random.default_rng(3)
        gamma = sample_inclusion(q, rng)
        np.testing.assert_array_equal(gamma, [False, False, True, False])
        # all 100 draws were made before the fallback
        reference = np.random.default_rng(3)
        for _ in range(100):
            assert not (reference.random(q.size) < q).any()
        assert rng.random() == reference.random()

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            sample_inclusion(np.array([0.5, 1.2]), np.random.default_rng(0))


class TestDefaultDelta:
    def test_equal_sizes(self):
        assert default_delta(100, 100) == 0.5

    def test_ratio_e(self):
        n = 1000
        p = round(n * math.e)
        assert default_delta(n, p) == pytest.approx(1.0, abs=1e-3)

    def test_benchmark_sizes(self):
        assert default_delta(200, 2000) == pytest.approx(1.651292546497023)

    def test_small_p_clamps_to_zero(self):
        assert default_delta(1000, 10) == 0.0

