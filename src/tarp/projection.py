"""Construction of the m x p compression maps.

Three variants: a three-point random matrix (entries +-1/sqrt(2*psi) with
probability psi each, else 0), an ultra-sparse variant with entries
+-n^(kappa/2)/sqrt(m) appearing with probability 1/(2 n^kappa), and a
deterministic partial-SVD map whose rows are the top right singular vectors
of the selected columns, found from the smaller of their two Gram matrices.
Columns excluded by the inclusion vector are identically zero in every
variant.

A random variant is stored only as its seed and tuning; its dense block over
the selected columns is rebuilt from uniform draws each time it is used, so
a saved model rebuilds the matrix bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .screening import InclusionVector

RIS_RP = "ris_rp"
SPARSE_VARIANT = "sparse_variant"
RIS_PCR = "ris_pcr"

# eigenvalue cutoff of the principal-direction rank, relative to the largest
_GRAM_RANK_RTOL = 1e-8


@dataclass(frozen=True)
class ProjectionMatrix:
    """Immutable m x p compression map with its inclusion vector.

    Random variants keep the seed and tuning (psi, or kappa and n_obs) that
    generate their m x p_gamma block; the partial-SVD variant keeps the block
    itself. ``m`` is the effective row count, which for the SVD variant may
    be below ``requested_m`` when the selected columns are rank deficient.
    """

    variant: str
    m: int
    p: int
    gamma: InclusionVector
    dense_block: Optional[np.ndarray] = None
    seed: Optional[tuple[int, ...]] = None
    psi: Optional[float] = None
    kappa: Optional[float] = None
    n_obs: Optional[int] = None
    requested_m: Optional[int] = None

    def _block(self) -> np.ndarray:
        # m x p_gamma block over the selected columns
        if self.dense_block is not None:
            return self.dense_block
        rng = np.random.default_rng(self.seed)
        if self.variant == RIS_RP:
            magnitude, prob = 1.0 / math.sqrt(2.0 * self.psi), self.psi
        else:
            n_kappa = float(self.n_obs) ** self.kappa
            magnitude, prob = math.sqrt(n_kappa / self.m), 1.0 / (2.0 * n_kappa)
        return _three_point_values((self.m, self.gamma.count), magnitude, prob, rng)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Compress rows of X: returns X @ R.T with shape (n, m)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise ValueError(f"X has shape {X.shape}, expected (n, {self.p})")
        return X[:, self.gamma.indices] @ self._block().T

    def adjoint(self, theta: np.ndarray) -> np.ndarray:
        """Map compressed coefficients back: returns R' theta with shape (p,).

        Zero outside the selected columns, so ``X @ R.adjoint(theta)`` is
        ``R.apply(X) @ theta`` up to rounding.
        """
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.m,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.m},)")
        full = np.zeros(self.p)
        full[self.gamma.indices] = theta @ self._block()
        return full

    def toarray(self) -> np.ndarray:
        """Full dense m x p matrix (tests and inspection only)."""
        full = np.zeros((self.m, self.p))
        full[:, self.gamma.indices] = self._block()
        return full


def _three_point_values(
    shape: tuple[int, int], magnitude: float, prob: float, rng: np.random.Generator
) -> np.ndarray:
    # Only rng.random() is consumed, keeping re-materialization from a stored
    # seed stable across library versions.
    u = rng.random(shape)
    return magnitude * ((u < prob).astype(np.float64) - (u >= 1.0 - prob))


def sample_ris_rp(
    gamma: InclusionVector, m: int, psi: float, seed
) -> ProjectionMatrix:
    """Three-point random map: +-1/sqrt(2*psi) w.p. psi each, 0 w.p. 1-2*psi."""
    if not 0.0 < psi < 0.5:
        raise ValueError(f"psi must lie in (0, 0.5), got {psi}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return ProjectionMatrix(
        variant=RIS_RP,
        m=m,
        p=gamma.gamma.size,
        gamma=gamma,
        seed=_normalize_seed(seed),
        psi=psi,
        requested_m=m,
    )


def sample_sparse_variant(
    gamma: InclusionVector, m: int, kappa: float, n: int, seed
) -> ProjectionMatrix:
    """Ultra-sparse map: +-n^(kappa/2)/sqrt(m) w.p. 1/(2 n^kappa) each.

    Per-entry second moment is 1/m, so the whole matrix (rather than each
    row) is normalized. kappa = 0 degenerates to a dense Rademacher/sqrt(m).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n_kappa = float(n) ** kappa
    if not n_kappa >= 1.0:
        raise ValueError(
            f"n^kappa = {n_kappa:.4g} < 1 gives a nonzero-probability above 1"
        )
    return ProjectionMatrix(
        variant=SPARSE_VARIANT,
        m=m,
        p=gamma.gamma.size,
        gamma=gamma,
        seed=_normalize_seed(seed),
        kappa=kappa,
        n_obs=n,
        requested_m=m,
    )


def compute_ris_pcr(X: np.ndarray, gamma: InclusionVector, m: int) -> ProjectionMatrix:
    """Rows are the top right singular vectors of the selected columns.

    They come from an eigendecomposition of the smaller Gram matrix of the
    n x p_gamma block X_gamma: for p_gamma > n, the eigenvectors U of
    X_gamma X_gamma' map back as diag(1/s) U' X_gamma; otherwise the
    eigenvectors of X_gamma' X_gamma are the rows themselves.

    The effective row count is min(m, rank(X_gamma)); rank deficiency is
    handled by truncation and visible as m < requested_m. A direction counts
    towards the rank when its eigenvalue exceeds ``_GRAM_RANK_RTOL`` times
    the largest (s_i > 1e-4 s_0). Squaring the singular values lifts the
    eigenvalue noise floor of an exactly rank-deficient block to
    ~eps * s_0^2, and the orthonormality error of the mapped-back rows
    grows like eps * (s_0 / s_i)^2: about 2e-11 at s_i = 1e-3 s_0 and
    1.5e-8 at 3e-5 s_0. The cutoff sits between the noise floor and the
    point where that error would pass 1e-8. Row signs are canonical
    (largest-magnitude entry positive) so the result does not depend on the
    eigensolver backend. The compressed training rows X R' come with the
    same decomposition; see ``_ris_pcr_with_scores``.
    """
    return _ris_pcr_with_scores(X, gamma, m)[0]


def _ris_pcr_with_scores(
    X: np.ndarray, gamma: InclusionVector, m: int
) -> tuple[ProjectionMatrix, np.ndarray]:
    """``compute_ris_pcr`` plus the compressed rows Z = X R' of the same X.

    For p_gamma > n, Z = X_gamma V_k' = U_k diag(s_k) needs no product with
    X; otherwise Z = X_gamma R_gamma' reuses the gather of the selected
    columns. Z's columns carry the rows' canonical signs, so Z matches
    ``compress(X, R)`` to rounding (exactly, for p_gamma <= n).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    X = np.asarray(X, dtype=np.float64)
    active = gamma.indices
    if active.size == 0:
        raise ValueError("inclusion vector selects no columns")
    X_act = X[:, active]
    wide = X_act.shape[1] > X_act.shape[0]
    gram = X_act @ X_act.T if wide else X_act.T @ X_act
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    if not eigvals[0] > 0.0:
        raise ValueError("selected columns are all zero; no principal directions")
    rank = int(np.sum(eigvals > eigvals[0] * _GRAM_RANK_RTOL))
    m_eff = min(m, rank)
    top = eigvecs[:, :m_eff]
    if wide:
        s = np.sqrt(eigvals[:m_eff])
        block = (top.T @ X_act) / s[:, None]
    else:
        block = np.ascontiguousarray(top.T)
    pivots = np.abs(block).argmax(axis=1)
    signs = np.where(block[np.arange(m_eff), pivots] < 0.0, -1.0, 1.0)
    block *= signs[:, None]
    Z = top * (s * signs) if wide else X_act @ block.T
    projection = ProjectionMatrix(
        variant=RIS_PCR,
        m=m_eff,
        p=gamma.gamma.size,
        gamma=gamma,
        dense_block=block,
        requested_m=m,
    )
    return projection, Z


def compress(X: np.ndarray, R: ProjectionMatrix) -> np.ndarray:
    """Compressed design Z = X R' (n x m)."""
    return R.apply(X)


def _normalize_seed(seed) -> tuple[int, ...]:
    # checked here because the generator is only built when R is used
    if isinstance(seed, (int, np.integer)):
        seed = (seed,)
    seed = tuple(int(s) for s in seed)
    if min(seed, default=0) < 0:
        raise ValueError(f"seed entries must be non-negative, got {seed}")
    return seed
