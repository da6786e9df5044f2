import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import dense_map, ris_pcr_block_via_svd
from tarp.data import standardize
from tarp.projection import (
    RIS_PCR,
    RIS_RP,
    ProjectionMatrix,
    compress,
    compute_ris_pcr,
    sample_ris_rp,
)
from tarp.simgen import SchemeSpec, generate


def gamma_of(bits):
    return np.asarray(bits, dtype=bool)


def every_column(p):
    return gamma_of(np.ones(p))


class TestRisRp:
    def test_value_set_default_psi(self):
        # psi = 1/6 forces nonzero entries to +-sqrt(3)
        gamma = every_column(200)
        proj = sample_ris_rp(gamma, m=50, psi=1 / 6, seed=0)
        values = np.unique(dense_map(proj))
        expected = {-math.sqrt(3.0), 0.0, math.sqrt(3.0)}
        assert set(np.round(values, 12)) <= set(np.round(sorted(expected), 12))

    def test_excluded_columns_zero(self):
        gamma = gamma_of([True, False, True, False, False])
        proj = sample_ris_rp(gamma, m=10, psi=0.25, seed=1)
        dense = dense_map(proj)
        np.testing.assert_array_equal(dense[:, [1, 3, 4]], 0.0)
        assert np.any(dense[:, [0, 2]] != 0.0)
        # compress reads no excluded column
        X = np.random.default_rng(1).standard_normal((6, 5))
        Z = compress(X, proj)
        X[:, [1, 3, 4]] = np.nan
        np.testing.assert_array_equal(compress(X, proj), Z)

    def test_entry_moments(self):
        # E r = 0 and E r^2 = 2*psi / (2*psi) = 1 over 10^6 draws
        gamma = every_column(1000)
        proj = sample_ris_rp(gamma, m=1000, psi=1 / 6, seed=2)
        entries = dense_map(proj).ravel()
        assert entries.size == 1_000_000
        assert abs(entries.mean()) < 0.005
        assert abs(entries.var() - 1.0) < 0.01

    def test_deterministic_given_seed(self):
        gamma = every_column(30)
        a = sample_ris_rp(gamma, m=4, psi=0.3, seed=9)
        b = sample_ris_rp(gamma, m=4, psi=0.3, seed=9)
        assert a.signs.tobytes() == b.signs.tobytes()
        assert a._block().tobytes() == b._block().tobytes()

    def test_invalid_psi(self):
        gamma = every_column(5)
        for psi in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                sample_ris_rp(gamma, m=2, psi=psi, seed=0)

    def test_row_second_moment_matches_selected_norm(self):
        # mean of (R_k x)^2 over many row draws equals ||x_gamma||^2 within 1%
        rng = np.random.default_rng(3)
        p = 40
        x = rng.standard_normal(p)
        gamma = gamma_of(rng.random(p) < 0.6)
        target = float(np.sum(x[gamma] ** 2))
        proj = sample_ris_rp(gamma, m=100_000, psi=0.2, seed=4)
        rows_sq = compress(x[None, :], proj)[0] ** 2
        assert rows_sq.mean() == pytest.approx(target, rel=0.01)


class TestStoredSeedsRebuildSameMatrix:
    # Literals captured from the library before random maps were stored as
    # seeds only; model files keep seeds, so these must never change.
    GAMMA = [True, False, True, True, False, True, True, False]

    def test_ris_rp_literal(self):
        psi = 0.25
        signs = np.array([
            [1, 0, -1, -1, 0, 0, -1, 0],
            [-1, 0, 0, -1, 0, -1, 0, 0],
            [-1, 0, -1, -1, 0, 1, 1, 0],
        ])
        proj = sample_ris_rp(gamma_of(self.GAMMA), m=3, psi=psi, seed=(11, 1))
        expected = signs * (1.0 / math.sqrt(2.0 * psi))
        np.testing.assert_array_equal(dense_map(proj), expected)
        # the fitted map's kept signs, and a loaded map's drawn from the seed
        for kept in (proj, replace(proj, signs=None)):
            np.testing.assert_array_equal(kept._block(), expected[:, proj.indices])


class TestKeptSigns:
    # sample_ris_rp keeps its drawn block as packed signs; rebuilt from them,
    # or from signs drawn again from the seed, it must be the block the seed
    # draws, bit for bit, down to the sign of every zero
    GAMMA = np.random.default_rng(0).random(300) < 0.6

    @pytest.mark.parametrize(
        "make, magnitude, prob",
        [
            (lambda g: sample_ris_rp(g, m=37, psi=1e-3, seed=(3, 1)),
             1.0 / math.sqrt(2e-3), 1e-3),
            (lambda g: sample_ris_rp(g, m=37, psi=0.4999, seed=(4, 1)),
             1.0 / math.sqrt(0.9998), 0.4999),
        ],
        ids=["ris_rp_psi_near_0", "ris_rp_psi_near_half"],
    )
    def test_rebuild_the_seeded_block_bit_for_bit(self, make, magnitude, prob):
        kept = make(gamma_of(self.GAMMA))
        shape = (kept.m, kept.p_gamma)
        assert (shape[0] * shape[1]) % 8 != 0  # the last packed byte is partial
        u = np.random.default_rng(kept.seed).random(shape)
        oracle = magnitude * ((u < prob).astype(np.float64) - (u >= 1.0 - prob))
        assert kept.signs.shape == (2, -(-shape[0] * shape[1] // 8))
        seeded = replace(kept, signs=None)
        for block in (kept._block(), seeded._block()):
            assert block.dtype == np.float64
            assert block.tobytes() == oracle.tobytes()
            np.testing.assert_array_equal(np.signbit(block), np.signbit(oracle))
        np.testing.assert_array_equal(dense_map(kept)[:, kept.indices], oracle)

    def test_kept_signs_take_no_part_in_equality(self):
        kept = sample_ris_rp(gamma_of(self.GAMMA), m=5, psi=0.3, seed=7)
        assert kept.signs is not None
        assert kept == replace(kept, signs=None) and "signs" not in repr(kept)


class TestRisPcr:
    def test_orthogonal_columns_pick_largest(self):
        # X with orthogonal columns of norms 3 > 2 > 1: the single row is the
        # indicator of the norm-3 column (canonical sign makes it +1)
        X = np.diag([3.0, 2.0, 1.0])
        proj, _ = compute_ris_pcr(X, every_column(3), m=1)
        np.testing.assert_allclose(dense_map(proj), [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_rows_orthonormal(self):
        # p_gamma <= n uses X_gamma' X_gamma, p_gamma > n uses X_gamma X_gamma'
        rng = np.random.default_rng(0)
        for n, p in ((40, 25), (30, 120)):
            X = rng.standard_normal((n, p))
            gamma = gamma_of(rng.random(p) < 0.8)
            proj, _ = compute_ris_pcr(X, gamma, m=10)
            R = dense_map(proj)
            assert proj.m == 10
            np.testing.assert_allclose(R @ R.T, np.eye(proj.m), atol=1e-8)

    def test_matches_svd_oracle_wide_scheme_iii(self):
        data, _ = generate(SchemeSpec(scheme="III", n=60, p=400, seed=7))
        X = standardize(data)[0].design
        gamma = gamma_of(np.random.default_rng(5).random(400) < 0.5)
        assert gamma.sum() > X.shape[0]
        for m in (2, 3, 20):
            proj, _ = compute_ris_pcr(X, gamma, m=m)
            reference = ris_pcr_block_via_svd(X, np.flatnonzero(gamma), m)
            assert proj.m == reference.shape[0] == min(m, 3)
            np.testing.assert_allclose(proj.block, reference, rtol=0, atol=1e-10)

    def test_graded_spectrum_down_to_1e_3(self):
        # singular values from s_0 = 1 down to 1e-3: every direction is kept
        # and the rows mapped back from the n x n Gram stay orthonormal
        rng = np.random.default_rng(6)
        n, p, k = 60, 300, 40
        left = np.linalg.qr(rng.standard_normal((n, k)))[0]
        right = np.linalg.qr(rng.standard_normal((p, k)))[0]
        X = (left * np.logspace(0.0, -3.0, k)) @ right.T
        proj, _ = compute_ris_pcr(X, every_column(p), m=k)
        R = dense_map(proj)
        assert proj.m == k
        assert np.abs(R @ R.T - np.eye(k)).max() < 1e-8
        reference = ris_pcr_block_via_svd(X, np.arange(p), k)
        np.testing.assert_allclose(R, reference, rtol=0, atol=1e-8)

    def test_direction_below_cutoff_truncated(self):
        # s = 1e-6 s_0 lies below the rank cutoff s_i > 1e-4 s_0
        rng = np.random.default_rng(8)
        n, p = 20, 50
        left = np.linalg.qr(rng.standard_normal((n, 4)))[0]
        right = np.linalg.qr(rng.standard_normal((p, 4)))[0]
        X = (left * [1.0, 0.5, 0.2, 1e-6]) @ right.T
        proj, _ = compute_ris_pcr(X, every_column(p), m=4)
        assert proj.m == 3 and proj.requested_m == 4

    def test_projection_contraction(self):
        # ||R x|| <= ||x_gamma|| for every training row
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 20))
        gamma = gamma_of(rng.random(20) < 0.7)
        proj, _ = compute_ris_pcr(X, gamma, m=6)
        Z = compress(X, proj)
        norms_z = np.linalg.norm(Z, axis=1)
        norms_x = np.linalg.norm(X[:, gamma], axis=1)
        assert np.all(norms_z <= norms_x * (1 + 1e-12))

    def test_rank_deficiency_truncates(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((20, 3))
        X = base @ rng.standard_normal((3, 10))  # rank 3
        proj, _ = compute_ris_pcr(X, every_column(10), m=7)
        assert proj.m == 3 and proj.requested_m == 7

    def test_deterministic_with_canonical_sign(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((15, 8))
        gamma = every_column(8)
        a = dense_map(compute_ris_pcr(X, gamma, m=4)[0])
        b = dense_map(compute_ris_pcr(X, gamma, m=4)[0])
        np.testing.assert_array_equal(a, b)
        signs = [row[np.argmax(np.abs(row))] for row in a]
        assert np.all(np.asarray(signs) > 0)

    def test_excluded_columns_zero(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 6))
        gamma = gamma_of([True, True, False, True, False, True])
        dense = dense_map(compute_ris_pcr(X, gamma, m=3)[0])
        np.testing.assert_array_equal(dense[:, [2, 4]], 0.0)


def _rank3_wide():
    rng = np.random.default_rng(21)
    return rng.standard_normal((40, 3)) @ rng.standard_normal((3, 150))


class TestRisPcrScores:
    """The training rows taken from the eigendecomposition equal compress."""

    @pytest.mark.parametrize(
        "make, m",
        [
            (_rank3_wide, 10),
            (lambda: np.random.default_rng(22).standard_normal((90, 400)), 84),
            (lambda: np.random.default_rng(23).standard_normal((120, 30)), 12),
        ],
        ids=["wide_rank3", "wide_full_rank", "tall"],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plain", "negated"])
    def test_scores_match_compress(self, make, m, sign):
        X = sign * make()
        gamma = gamma_of(np.random.default_rng(24).random(X.shape[1]) < 0.9)
        proj, Z = compute_ris_pcr(X, gamma, m)
        reference = compress(X, proj)
        assert Z.shape == reference.shape == (X.shape[0], proj.m)
        np.testing.assert_allclose(Z, reference, rtol=0, atol=1e-12 * np.abs(reference).max())

    def test_tall_scores_are_exactly_compress(self):
        rng = np.random.default_rng(25)
        X = np.asfortranarray(rng.standard_normal((60, 25)))
        gamma = gamma_of(rng.random(25) < 0.8)
        proj, Z = compute_ris_pcr(X, gamma, 9)
        np.testing.assert_array_equal(Z, compress(X, proj))


class TestAdjoint:
    @pytest.mark.parametrize("variant", ["ris_rp", "ris_rp_psi_small", "ris_pcr"])
    def test_logits_match_compressed_product(self, variant):
        rng = np.random.default_rng(27)
        X = rng.standard_normal((20, 60))
        gamma = gamma_of(rng.random(60) < 0.5)
        if variant == "ris_rp":
            proj = sample_ris_rp(gamma, m=7, psi=0.2, seed=3)
        elif variant == "ris_rp_psi_small":
            proj = sample_ris_rp(gamma, m=7, psi=0.02, seed=3)
        else:
            proj, _ = compute_ris_pcr(X, gamma, m=7)
        theta = rng.standard_normal(proj.m)
        w = proj.adjoint(theta)
        assert w.shape == (60,)
        np.testing.assert_array_equal(w[~gamma], 0.0)
        np.testing.assert_allclose(w, dense_map(proj).T @ theta, rtol=0, atol=1e-13)
        np.testing.assert_allclose(X @ w, compress(X, proj) @ theta, rtol=0, atol=1e-12)

    def test_rejects_wrong_length(self):
        proj = sample_ris_rp(every_column(4), m=2, psi=0.3, seed=0)
        with pytest.raises(ValueError, match="theta has shape"):
            proj.adjoint(np.zeros(3))


class TestCompress:
    def test_single_indicator_row_extracts_column(self):
        # a one-column selection makes the SVD row the indicator e_j
        X = np.arange(12.0).reshape(3, 4) + 1.0
        gamma = gamma_of([False, False, True, False])
        proj, _ = compute_ris_pcr(X, gamma, m=1)
        np.testing.assert_allclose(dense_map(proj), [[0, 0, 1, 0]], atol=1e-12)
        np.testing.assert_allclose(compress(X, proj)[:, 0], X[:, 2], atol=1e-12)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((5, 8))
        gamma = gamma_of(rng.random(8) < 0.8)
        proj = sample_ris_rp(gamma, m=3, psi=0.3, seed=6)
        np.testing.assert_allclose(
            compress(X, proj), X @ dense_map(proj).T, atol=1e-12
        )

    # compress forms block @ X_gamma' and transposes it; at (100, 40, 3) and
    # (90, 400, 84) that rounds differently from X_gamma @ block.T, so the
    # grid checks the product to a relative tolerance, not bit for bit
    @pytest.mark.parametrize(
        "n, p_gamma, m",
        [(100, 40, 3), (1000, 40, 3), (1, 30, 4), (30, 1, 1), (200, 200, 83),
         (90, 400, 84), (200, 2462, 83)],
    )
    @pytest.mark.parametrize("variant", ["ris_rp", "ris_pcr"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_dense_product_over_shapes(self, n, p_gamma, m, variant, order):
        rng = np.random.default_rng([n, p_gamma, m])
        p = p_gamma + 7
        X = np.asarray(rng.standard_normal((n, p)), order=order)
        bits = np.zeros(p, dtype=bool)
        bits[rng.choice(p, p_gamma, replace=False)] = True
        gamma = gamma_of(bits)
        if variant == "ris_rp":
            proj = sample_ris_rp(gamma, m=m, psi=0.3, seed=n)
        else:
            proj, _ = compute_ris_pcr(X, gamma, m=m)
        Z = compress(X, proj)
        reference = X @ dense_map(proj).T
        assert Z.shape == (n, proj.m) and Z.flags.c_contiguous
        np.testing.assert_allclose(
            Z, reference, rtol=0, atol=1e-12 * np.abs(reference).max()
        )

    def test_dimension_mismatch(self):
        proj = sample_ris_rp(every_column(4), m=2, psi=0.3, seed=0)
        with pytest.raises(ValueError):
            compress(np.zeros((3, 5)), proj)

    def test_zero_matrix_maps_to_zero(self):
        gamma = gamma_of([True, True])
        proj = sample_ris_rp(gamma, m=3, psi=0.3, seed=1)
        np.testing.assert_array_equal(compress(np.zeros((4, 2)), proj), 0.0)


class TestProjectionInvariants:
    # gamma selects 3 of 4 columns; a fit and a model file build maps
    # through the same constructor
    RANDOM = dict(variant=RIS_RP, m=2, requested_m=2, seed=(1,), psi=0.3)
    PCR = dict(variant=RIS_PCR, m=2, requested_m=2, block=np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({**RANDOM, "m": 0, "requested_m": 0}, "m must be >= 1"),
            ({**PCR, "requested_m": 1}, "requested_m=1 is below m=2"),
            ({**RANDOM, "requested_m": 3}, "random map has requested_m=3, m=2"),
            ({**RANDOM, "psi": 0.5}, "psi must lie in"),
            ({**RANDOM, "psi": None}, "psi must lie in"),
            ({**PCR, "block": np.zeros((2, 4))},
             "block shape \\(2, 4\\) is not \\(m, p_gamma\\)"),
            ({**RANDOM, "block": np.ones((2, 3))}, "random map holds a dense block"),
            ({**PCR, "signs": np.zeros((2, 1), np.uint8)},
             "partial-SVD map has a seed, psi or signs"),
            ({**RANDOM, "signs": np.zeros((2, 0), np.uint8)},
             "signs are uint8 \\(2, 0\\), expected uint8 \\(2, 1\\)"),
            ({**RANDOM, "signs": np.zeros((2, 1), np.int8)}, "signs are int8"),
            ({**RANDOM, "signs": np.zeros(2, np.uint8)},
             "signs are uint8 \\(2,\\), expected"),
            ({**RANDOM, "seed": (1, -2)}, "seed entries must be non-negative"),
            ({**PCR, "block": np.full((2, 3), np.nan)}, "block holds non-finite"),
            ({**RANDOM, "variant": "ris_sparse"},
             "unknown projection variant 'ris_sparse'"),
            ({**RANDOM, "seed": None}, "random map has no seed"),
            ({**PCR, "block": None}, "partial-SVD map has no block"),
            ({**PCR, "seed": (1,), "psi": 0.3}, "partial-SVD map has a seed, psi or signs"),
        ],
        ids=["m_zero", "requested_m_below_m", "random_requested_m_above_m",
             "psi_half", "psi_missing",
             "block_columns", "random_dense_block", "pcr_signs", "short_signs",
             "int8_signs", "flat_signs", "negative_seed", "block_nan",
             "unknown_variant", "random_seed_missing", "pcr_block_missing",
             "pcr_seed_and_psi"],
    )
    def test_construction_checks_invariants(self, fields, message):
        gamma = gamma_of([True, False, True, True])
        # a random map with its 2 x 3 block's signs packed in one byte a plane
        kept = {**self.RANDOM, "signs": np.zeros((2, 1), np.uint8)}
        for valid in (self.RANDOM, self.PCR, kept):
            ProjectionMatrix(gamma=gamma, **valid)
        with pytest.raises(ValueError, match=message):
            ProjectionMatrix(gamma=gamma, **fields)

    @pytest.mark.parametrize(
        "fields", [RANDOM, {**PCR, "block": np.zeros((2, 0))}],
        ids=["random", "pcr"],
    )
    def test_gamma_must_select_a_column(self, fields):
        # sample_inclusion never draws an empty gamma
        with pytest.raises(ValueError, match="gamma selects no column"):
            ProjectionMatrix(gamma=gamma_of([False] * 4), **fields)

    def test_gamma_must_be_a_vector(self):
        with pytest.raises(ValueError, match="gamma must be a 1-d bit vector"):
            ProjectionMatrix(gamma=np.ones((2, 3), dtype=bool), **self.RANDOM)

    def test_indices_and_p_gamma(self):
        proj = ProjectionMatrix(gamma=gamma_of([True, False, True, True]), **self.RANDOM)
        assert proj.p == 4 and proj.p_gamma == 3
        np.testing.assert_array_equal(proj.indices, [0, 2, 3])


    @pytest.mark.parametrize(
        "seed, kept", [(np.int64(4), (4,)), ([3, 1], (3, 1)), ((0,), (0,))]
    )
    def test_seed_is_kept_as_a_tuple(self, seed, kept):
        # a fit passes a list, a loaded file the list it stores
        fields = {**self.RANDOM, "seed": seed}
        proj = ProjectionMatrix(gamma=gamma_of([True, False, True, True]), **fields)
        assert proj.seed == kept and type(proj.seed[0]) is int
