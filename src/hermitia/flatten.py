"""Matrix flattenings of Hermitian tensors and the rank bounds they give.

Three maps, all linear and computed as pure index rearrangements of the
dense entries:

* the Hermitian flattening  m(H): the N-by-N matrix (H)_{IJ} = H[I, J];
  rank-1 tensors map to Kronecker outer products z z* and the map is a
  bijection onto N-by-N Hermitian matrices;
* the canonical Kronecker flattening  kappa(H): rank-1 tensors map to
  Z (x) conj(Z) with Z = (u1 (x) ... (x) u_{m-1}) u_m^T, after the mode of
  smallest dimension is rotated into the last slot;
* the cubic flattening  psi(H): regroups entries into an N1 x N2 x N3
  array whose canonical polyadic structure mirrors Hermitian
  decompositions term by term.

Both matrix ranks lower-bound the Hermitian rank (and even the border
rank); the two bounds are incomparable in general.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, linalg
from .errors import OrderTooSmall, ShapeMismatch

HERMITIAN_M = "HERMITIAN_M"
KRONECKER_K = "KRONECKER_K"
CUBIC_SLICE = "CUBIC_SLICE"

M_RANK_TOL = 1e-9


@dataclass(frozen=True)
class FlatMatrix:
    mat: np.ndarray
    source: str

    @property
    def rows(self) -> int:
        return self.mat.shape[0]

    @property
    def cols(self) -> int:
        return self.mat.shape[1]


@dataclass(frozen=True)
class CubicTensor:
    """psi-image of a Hermitian tensor: dense array of shape (N1, N2, N3).

    ``mode_order`` records the mode permutation applied before
    regrouping (the mode of smallest dimension goes last; ties pick the
    smallest mode index).
    """

    dims: tuple[int, int, int]
    array: np.ndarray
    mode_order: tuple[int, ...]


@dataclass(frozen=True)
class BoundReport:
    m_rank: int
    kappa_rank: int | None
    bound: int


def hermitian_flatten(h: core.HermitianTensor) -> FlatMatrix:
    """N-by-N Hermitian matrix with (I, J) entry H[I, J]: the tensor's own
    read-only entry matrix, not a copy."""
    return FlatMatrix(h.mat, HERMITIAN_M)


def _as_m_matrix(mat) -> np.ndarray:
    """Unwrap a matrix argument, rejecting flat matrices of a different
    source map (a Kronecker flattening can share the same size)."""
    if isinstance(mat, FlatMatrix) and mat.source != HERMITIAN_M:
        raise ShapeMismatch(f"matrix carries source {mat.source}, not {HERMITIAN_M}")
    return np.asarray(getattr(mat, "mat", mat), dtype=np.complex128)


def hermitian_unflatten(mat, dims, tols: core.Tolerances = core.TOL) -> core.HermitianTensor:
    """Inverse of the Hermitian flattening of a matrix Hermitian within
    ``symTol`` times its norm; entries are kept bit-for-bit."""
    dims = core.check_dims(dims)
    n = core.size_of(dims)
    arr = _as_m_matrix(mat)
    if arr.shape != (n, n):
        raise ShapeMismatch(f"matrix has shape {arr.shape}, expected {(n, n)} for {dims}")
    core.check_hermitian(arr, tols, "matrix")
    return core.HermitianTensor(dims, arr)


def psi_mode_order(dims) -> tuple[int, ...]:
    """Mode permutation placing the smallest-dimension mode last.

    Among modes of minimal size the one with the smallest index is
    selected; the remaining modes keep their relative order.
    """
    dims = core.check_dims(dims)
    last = min(range(len(dims)), key=lambda k: (dims[k], k))
    return tuple(k for k in range(len(dims)) if k != last) + (last,)


def _permuted_array(h: core.HermitianTensor, order) -> tuple[np.ndarray, tuple[int, ...]]:
    m = h.order
    arr = h.as_array()
    axes = tuple(order) + tuple(k + m for k in order)
    return arr.transpose(axes), tuple(h.dims[k] for k in order)


def cubic_flatten(h: core.HermitianTensor) -> CubicTensor:
    """Regroup entries as an N1 x N2 x N3 array.

    On rank-1 input [u1, ..., um] the result is
    (u1 x ... x um) (x) (conj(u1) x ... x conj(u_{m-1})) (x) conj(um),
    with modes permuted so the smallest dimension sits last.
    """
    order = psi_mode_order(h.dims)
    arr, pdims = _permuted_array(h, order)
    n1 = core.size_of(pdims)
    n3 = pdims[-1]
    n2 = n1 // n3
    return CubicTensor((n1, n2, n3), arr.reshape(n1, n2, n3).copy(), order)


def kronecker_flatten(h: core.HermitianTensor) -> FlatMatrix:
    """Canonical Kronecker flattening; an N2^2-by-N3^2 matrix.

    Entry at row (I', J') and column (s, t) is H[(I', s), (J', t)], where
    I', J' run over the first m-1 (permuted) modes.  Rank-1 tensors map
    to Z (x) conj(Z), so the matrix rank lower-bounds the Hermitian rank.
    """
    if h.order < 2:
        raise OrderTooSmall("Kronecker flattening needs m >= 2")
    order = psi_mode_order(h.dims)
    arr, pdims = _permuted_array(h, order)
    m = len(pdims)
    d1 = core.size_of(pdims[:-1])
    d2 = pdims[-1]
    # axes: hol modes 1..m-1, conj modes 1..m-1, then (hol m, conj m)
    axes = tuple(range(m - 1)) + tuple(range(m, 2 * m - 1)) + (m - 1, 2 * m - 1)
    out = arr.transpose(axes).reshape(d1 * d1, d2 * d2)
    return FlatMatrix(out.copy(), KRONECKER_K)


def hrank_lower_bound(h: core.HermitianTensor, tols: core.Tolerances = core.TOL) -> BoundReport:
    """max of the two flattening ranks (at ``rankTol``); a lower bound on
    the Hermitian rank."""
    m_rank = linalg.matrix_rank(hermitian_flatten(h).mat, tols.rankTol)
    kappa_rank = None
    if h.order >= 2:
        kappa_rank = linalg.matrix_rank(kronecker_flatten(h).mat, tols.rankTol)
    bound = max(m_rank, kappa_rank or 0)
    return BoundReport(m_rank, kappa_rank, bound)


def verify_M_rank(mat, d) -> bool:
    """Check that a decomposition writes ``mat`` as a sum of Kronecker
    products of rank-1 Hermitian matrices, certifying its structured rank
    (and hence the Hermitian rank of the unflattened tensor) is at most
    the term count: ``decomposition.fits`` at ``M_RANK_TOL``."""
    from .decomposition import fits  # decomposition imports this module

    # mat is kept as given: an anti-Hermitian part counts in the residual
    return fits(d, core.HermitianTensor(d.dims, _as_m_matrix(mat)), M_RANK_TOL)
