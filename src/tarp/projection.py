"""Construction of the m x p compression maps.

Two maps: RIS-RP's three-point random matrix (entries +-1/sqrt(2*psi) with
probability psi each, else 0), and RIS-PCR's deterministic partial-SVD map,
whose rows are the top right singular vectors of the selected columns, found
from the smaller of their two Gram matrices. Columns excluded by the
inclusion vector are identically zero in both, and the map's width p is the
inclusion vector's length.

Each map is made by one call: ``sample_ris_rp`` for the random map,
``compute_ris_pcr`` for the partial-SVD map together with the compressed
training rows from the same decomposition. ``compress`` is the one way to
apply either map to rows.

A random map is defined by its seed and psi, and a model file stores only
those. Its entries are drawn as int8 codes in {-1, 0, +1} times one
magnitude. A fit draws the block once, compresses with it and keeps the
codes as two packed bit planes (two bits per entry, ~1/32 of the float
block), from which every later use rebuilds the block. A loaded model keeps
no codes: it draws its block from the seed each time it is used, bit for
bit the same block, so loading never allocates one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .screening import InclusionVector

RIS_RP = "ris_rp"
RIS_PCR = "ris_pcr"

# eigenvalue cutoff of the principal-direction rank, relative to the largest
_GRAM_RANK_RTOL = 1e-8


@dataclass(frozen=True)
class ProjectionMatrix:
    """Immutable m x p compression map with its inclusion vector.

    p is not stored: it is the length of ``gamma``. The map is applied to
    rows by :func:`compress` and mapped back by :meth:`adjoint`. A random
    map keeps the seed and psi that generate its m x p_gamma block; the
    partial-SVD map keeps the block itself as ``dense_block``, which a random
    map holds only as the second result of :meth:`drawn`. ``m`` is the
    effective row count, which for the partial-SVD map may be below
    ``requested_m`` when the selected columns are rank deficient.

    ``signs`` keeps a random block that :meth:`drawn` has drawn, as a
    (2, ceil(m * p_gamma / 8)) uint8 array: row 0 packs (``np.packbits``)
    where the row-major block is positive, row 1 where it is negative. A fit
    sets it. It only caches what the seed generates, so it takes no part in
    equality and is never saved; a map without it, such as a loaded one,
    draws its block from the seed at each use.
    """

    variant: str
    m: int
    gamma: InclusionVector
    requested_m: int
    dense_block: Optional[np.ndarray] = None
    seed: Optional[tuple[int, ...]] = None
    psi: Optional[float] = None
    signs: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        # sample_inclusion never draws an empty gamma; under one, every row
        # compresses to zero and the replicate predicts its prior
        if self.gamma.count < 1:
            raise ValueError("gamma selects no column")
        if self.requested_m < self.m:
            raise ValueError(f"requested_m={self.requested_m} is below m={self.m}")
        if self.variant == RIS_RP and self.requested_m != self.m:
            raise ValueError(f"random map has requested_m={self.requested_m}, m={self.m}")
        if self.variant == RIS_RP and (self.psi is None or not 0.0 < self.psi < 0.5):
            raise ValueError(f"psi must lie in (0, 0.5), got {self.psi}")
        block = self.dense_block
        if block is not None:
            if block.shape != (self.m, self.gamma.count):
                raise ValueError(f"block shape {block.shape} is not (m, p_gamma)")
            # a drawn random block, +-1/sqrt(2 psi) or 0, is finite by its psi
            if self.variant == RIS_PCR and not np.isfinite(block).all():
                raise ValueError("block holds non-finite values")

    @property
    def p(self) -> int:
        return self.gamma.gamma.size

    def _magnitude(self) -> float:
        # size of every nonzero entry of a random block
        return 1.0 / math.sqrt(2.0 * self.psi)

    def _codes(self) -> np.ndarray:
        # m x p_gamma int8 codes of a random block: kept, or drawn from the seed
        shape = (self.m, self.gamma.count)
        if self.signs is None:
            rng = np.random.default_rng(self.seed)
            return _three_point_codes(shape, self.psi, rng)
        positive, negative = np.unpackbits(
            self.signs, axis=1, count=shape[0] * shape[1]
        ).view(np.int8)
        return (positive - negative).reshape(shape)

    def _block(self) -> np.ndarray:
        # m x p_gamma block over the selected columns
        if self.dense_block is not None:
            return self.dense_block
        return self._magnitude() * self._codes()

    def drawn(self) -> tuple[ProjectionMatrix, ProjectionMatrix]:
        """Draw a random block once, for a fit.

        Returns this map keeping the block's signs, which rebuilds the block
        bit for bit without drawing again, and this map holding the block
        itself, to compress the training rows with and then drop.
        """
        codes = self._codes()
        flat = codes.reshape(-1)
        signs = np.stack((np.packbits(flat > 0), np.packbits(flat < 0)))
        block = self._magnitude() * codes
        return replace(self, signs=signs), replace(self, dense_block=block)

    def adjoint(self, theta: np.ndarray) -> np.ndarray:
        """Map compressed coefficients back: returns R' theta with shape (p,).

        Zero outside the selected columns, so ``X @ R.adjoint(theta)`` is
        ``compress(X, R) @ theta`` up to rounding.
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


def _compress_columns(
    X: np.ndarray, indices: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """Z = X[:, indices] @ block.T as a C-contiguous (n, m) array.

    The product is formed as block @ X_gamma' (m x n), then transposed: with
    the short m x p_gamma block on the left, OpenBLAS packs the operands
    better. With OpenBLAS 0.3.31 on one Xeon core, gather included, that is
    1-35% faster at n >= 200 and p_gamma >= 1000 (200 x 2462 x 83: 2.57 ->
    2.12 ms) and at most 0.04 ms slower on small blocks. A column-major X
    makes the gather copy whole columns.
    """
    return np.ascontiguousarray((block @ X[:, indices].T).T)


def _three_point_codes(
    shape: tuple[int, int], prob: float, rng: np.random.Generator
) -> np.ndarray:
    # +1 w.p. prob, -1 w.p. prob, else 0, as int8. Only rng.random() is
    # consumed, keeping the draw from a stored seed stable across versions.
    u = rng.random(shape)
    return (u < prob).astype(np.int8) - (u >= 1.0 - prob)


def sample_ris_rp(
    gamma: InclusionVector, m: int, psi: float, seed
) -> ProjectionMatrix:
    """Three-point random map: +-1/sqrt(2*psi) w.p. psi each, 0 w.p. 1-2*psi."""
    return ProjectionMatrix(
        variant=RIS_RP,
        m=m,
        gamma=gamma,
        seed=_normalize_seed(seed),
        psi=psi,
        requested_m=m,
    )


def compute_ris_pcr(
    X: np.ndarray, gamma: InclusionVector, m: int
) -> tuple[ProjectionMatrix, np.ndarray]:
    """Partial-SVD map R and the compressed rows Z = X R' of the same X.

    The rows of R are the top right singular vectors of the selected
    columns. They come from an eigendecomposition of the smaller Gram matrix
    of the n x p_gamma block X_gamma: for p_gamma > n, the eigenvectors U of
    X_gamma X_gamma' map back as diag(1/s) U' X_gamma, and Z = X_gamma V_k'
    = U_k diag(s_k) needs no product with X; otherwise the eigenvectors of
    X_gamma' X_gamma are the rows themselves, and Z comes from the kernel
    ``compress`` uses. Either way Z matches ``compress(X, R)`` to rounding
    (exactly, for p_gamma <= n).

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
    eigensolver backend; Z's columns carry the same signs.
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
    Z = top * (s * signs) if wide else _compress_columns(X, active, block)
    projection = ProjectionMatrix(
        variant=RIS_PCR, m=m_eff, gamma=gamma, dense_block=block, requested_m=m
    )
    return projection, Z


def compress(X: np.ndarray, R: ProjectionMatrix) -> np.ndarray:
    """Compressed design Z = X R' (n x m)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != R.p:
        raise ValueError(f"X has shape {X.shape}, expected (n, {R.p})")
    return _compress_columns(X, R.gamma.indices, R._block())


def _normalize_seed(seed) -> tuple[int, ...]:
    # checked here because the generator is only built when R is used
    if isinstance(seed, (int, np.integer)):
        seed = (seed,)
    seed = tuple(int(s) for s in seed)
    if min(seed, default=0) < 0:
        raise ValueError(f"seed entries must be non-negative, got {seed}")
    return seed
