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
those. Its one form is packed signs: two bit planes over the row-major
m x p_gamma block, plane 0 where an entry is positive, plane 1 where it is
negative (two bits per entry, ~1/32 of the float block). ``sample_ris_rp``
draws them once and the fitted map keeps them. A loaded map keeps none and
draws them from its seed at each use, bit for bit the same, so loading
never allocates a block. Either way the block is the unpacked signs times
one magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .data import read_only

RIS_RP = "ris_rp"
RIS_PCR = "ris_pcr"

# eigenvalue cutoff of the principal-direction rank, relative to the largest
_GRAM_RANK_RTOL = 1e-8


@dataclass(frozen=True)
class ProjectionMatrix:
    """Immutable m x p compression map with its inclusion vector.

    ``gamma`` is the bool inclusion vector over the p predictors and
    ``indices`` its selected columns, found once at construction: p is the
    length of ``gamma``, p_gamma that of ``indices``. The map is applied to
    rows by :func:`compress` and mapped back by :meth:`adjoint`. A random
    map keeps the seed and psi that generate its m x p_gamma block; the
    partial-SVD map keeps the block itself, as ``block``. ``m`` is the
    effective row count, which for the partial-SVD map may be below
    ``requested_m`` when the selected columns are rank deficient.

    ``signs`` keeps a random block that :func:`sample_ris_rp` has drawn, as
    a (2, ceil(m * p_gamma / 8)) uint8 array: row 0 packs (``np.packbits``)
    where the row-major block is positive, row 1 where it is negative. It
    only caches what the seed generates, so it takes no part in equality
    and is never saved; a map without it, such as a loaded one, draws its
    signs from the seed at each use.

    ``seed`` is an int or a sequence of non-negative ints, kept as a tuple.
    Every array the map holds is read-only: ``gamma``, ``block`` and
    ``signs`` are taken over (see ``read_only``).
    """

    variant: str
    m: int
    gamma: np.ndarray
    requested_m: int
    block: Optional[np.ndarray] = None
    seed: Optional[tuple[int, ...]] = None
    psi: Optional[float] = None
    signs: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    indices: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gamma = read_only(np.asarray(self.gamma, dtype=bool))
        if gamma.ndim != 1:
            raise ValueError("gamma must be a 1-d bit vector")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "indices", read_only(np.flatnonzero(gamma)))
        for name in ("block", "signs"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, read_only(getattr(self, name)))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        # sample_inclusion never draws an empty gamma; under one, every row
        # compresses to zero and the replicate predicts its prior
        if self.p_gamma < 1:
            raise ValueError("gamma selects no column")
        if self.requested_m < self.m:
            raise ValueError(f"requested_m={self.requested_m} is below m={self.m}")
        if self.variant == RIS_RP:
            if self.requested_m != self.m:
                raise ValueError(
                    f"random map has requested_m={self.requested_m}, m={self.m}"
                )
            # without a seed, every use would draw another block; it is
            # checked here because the generator is only built where R is used
            if self.seed is None:
                raise ValueError("random map has no seed")
            seed = (self.seed,) if isinstance(self.seed, (int, np.integer)) else self.seed
            object.__setattr__(self, "seed", tuple(int(s) for s in seed))
            if min(self.seed, default=0) < 0:
                raise ValueError(f"seed entries must be non-negative, got {self.seed}")
            if self.psi is None or not 0.0 < self.psi < 0.5:
                raise ValueError(f"psi must lie in (0, 0.5), got {self.psi}")
            if self.block is not None:
                raise ValueError("random map holds a dense block")
            # unpackbits would zero-pad short planes into another block
            planes = (2, -(-self.m * self.p_gamma // 8))
            signs = self.signs
            if signs is not None and (signs.dtype != np.uint8 or signs.shape != planes):
                raise ValueError(
                    f"signs are {signs.dtype} {signs.shape}, expected uint8 {planes}"
                )
        elif self.variant == RIS_PCR:
            block = self.block
            if block is None:
                raise ValueError("partial-SVD map has no block")
            if self.seed is not None or self.psi is not None or self.signs is not None:
                raise ValueError("partial-SVD map has a seed, psi or signs")
            if block.shape != (self.m, self.p_gamma):
                raise ValueError(f"block shape {block.shape} is not (m, p_gamma)")
            if not np.isfinite(block).all():
                raise ValueError("block holds non-finite values")
        else:
            raise ValueError(f"unknown projection variant {self.variant!r}")

    @property
    def p(self) -> int:
        return self.gamma.size

    @property
    def p_gamma(self) -> int:
        return self.indices.size

    def _block(self) -> np.ndarray:
        # m x p_gamma block over the selected columns; a random one is its
        # kept signs, or its seed's, unpacked
        if self.variant == RIS_PCR:
            return self.block
        size = self.m * self.p_gamma
        signs = self.signs
        if signs is None:
            signs = _three_point_signs(size, self.psi, self.seed)
        positive, negative = np.unpackbits(signs, axis=1, count=size).view(np.int8)
        magnitude = 1.0 / math.sqrt(2.0 * self.psi)
        return magnitude * (positive - negative).reshape(self.m, self.p_gamma)

    def adjoint(self, theta: np.ndarray) -> np.ndarray:
        """Map compressed coefficients back: returns R' theta with shape (p,).

        Zero outside the selected columns, so ``X @ R.adjoint(theta)`` is
        ``compress(X, R) @ theta`` up to rounding.
        """
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.m,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.m},)")
        full = np.zeros(self.p)
        full[self.indices] = theta @ self._block()
        return full


def _compress_columns(X_gamma: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Z = X_gamma @ block.T as a C-contiguous (n, m) array, where X_gamma
    holds the selected columns X[:, indices], gathered once by the caller.

    The product is formed as block @ X_gamma' (m x n), then transposed: with
    the short m x p_gamma block on the left, OpenBLAS packs the operands
    better. With OpenBLAS 0.3.31 on one Xeon core, gather included, that is
    1-35% faster at n >= 200 and p_gamma >= 1000 (200 x 2462 x 83: 2.57 ->
    2.12 ms) and at most 0.04 ms slower on small blocks. A column-major X
    makes the caller's gather copy whole columns.
    """
    return np.ascontiguousarray((block @ X_gamma.T).T)


def _three_point_signs(size: int, prob: float, seed) -> np.ndarray:
    # the packed signs of size entries, +1 w.p. prob, -1 w.p. prob, else 0.
    # Only rng.random() is consumed, keeping the draw from a stored seed
    # stable across versions.
    u = np.random.default_rng(seed).random(size)
    return np.stack((np.packbits(u < prob), np.packbits(u >= 1.0 - prob)))


def sample_ris_rp(gamma: np.ndarray, m: int, psi: float, seed) -> ProjectionMatrix:
    """Three-point random map: +-1/sqrt(2*psi) w.p. psi each, 0 w.p. 1-2*psi.

    The block is drawn here, once, and kept as packed signs.
    """
    projection = ProjectionMatrix(RIS_RP, m, gamma, m, seed=seed, psi=psi)
    signs = _three_point_signs(m * projection.p_gamma, psi, projection.seed)
    return replace(projection, signs=signs)


def compute_ris_pcr(
    X: np.ndarray, gamma: np.ndarray, m: int
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
    active = np.flatnonzero(gamma)
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
        block = top.T.copy()
    pivots = np.abs(block).argmax(axis=1)
    signs = np.where(block[np.arange(m_eff), pivots] < 0.0, -1.0, 1.0)
    block *= signs[:, None]
    Z = top * (s * signs) if wide else _compress_columns(X_act, block)
    projection = ProjectionMatrix(
        variant=RIS_PCR, m=m_eff, gamma=gamma, block=block, requested_m=m
    )
    return projection, Z


def compress(X: np.ndarray, R: ProjectionMatrix) -> np.ndarray:
    """Compressed design Z = X R' (n x m)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != R.p:
        raise ValueError(f"X has shape {X.shape}, expected (n, {R.p})")
    return _compress_columns(X[:, R.indices], R._block())

