"""Positivity certificates for Hermitian tensors.

One Gram problem over two kinds of monomial bases b: is there a psd W with
sum_{p,q} W[p, q] conj(b_p) b_q = |x_1|^{2 d_1} ... |x_m|^{2 d_m}
H(x, conj x), coefficient by coefficient, the degrees d_k read from b?
One cached coefficient map per (shape, basis) numbers the monomials, and
every certificate's residual is its largest mismatch under that map.

* Multiplier membership: the multidegree-(k+1) holomorphic basis, on
  which W is fixed, so the test is one eigendecomposition.  HSOS is rung
  k = 0, where W is the flattening.  Every strictly positive tensor lands
  in some such set for large enough powers (no effective bound).
* CSOS: the mixed basis (x_1, conj x_1) (x) ... (x) (x_m, conj x_m), on
  which W is free.  Alternating projections between the psd cone and the
  affine coefficient-matching set search for it; infeasibility can only
  be hinted at, never certified.  The target is invariant under the phase
  action x_k -> e^{i theta_k} x_k, so the search runs on the 2^m diagonal
  blocks of basis rows with one pattern of x_k / conj x_k, an N-by-N stack
  for N = n_1...n_m (the symmetry reduction of Gatermann & Parrilo).

The psd verdict pipeline combines eigentuple witnesses (for refutation)
with the holomorphic certificates.  Over the reals it decides P(H)
(``real_herm.real_form``), which agrees with H on real vectors and is
real-decomposable, so H is psd over R exactly when P(H) is psd over C.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from . import core, linalg, real_herm, spectral
from .errors import BasisTooLarge, ShapeMismatch

BASIS_CAP = 64
CSOS_ITERS = 5000
CSOS_STALL = 1e-5  # a projection distance that shrank by less than this share over 59 steps has stalled


@dataclass(frozen=True)
class GramCertificate:
    """psd Gram matrix over an explicit monomial basis.

    Each basis monomial is an exponent tuple of length 2 * sum(dims):
    exponents of x_{1,1}, ..., x_{m,n_m} followed by those of their
    conjugates.  Gram entry (p, q) stands for the monomial
    conj(b_p) b_q.  ``residual`` is the largest coefficient mismatch of
    the Gram form, as ``gram_reconstruct_residual`` computes it.
    """

    dims: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    W: np.ndarray
    residual: float


@dataclass(frozen=True)
class CsosResult:
    status: str  # FEASIBLE | INFEASIBLE_HINT | UNKNOWN
    certificate: GramCertificate | None = None
    iterations: int = 0
    residual: float = float("nan")


@dataclass(frozen=True)
class OmegaResult:
    """One multiplier rung: MEMBER when its Gram matrix W is psd.
    ``min_eigenvalue`` and ``eigenvector`` are W's least eigenpair either
    way; at zero powers W is the flattening."""

    status: str  # MEMBER | UNKNOWN
    powers: tuple[int, ...]
    certificate: GramCertificate | None = None
    min_eigenvalue: float = float("nan")
    eigenvector: np.ndarray | None = None


@dataclass(frozen=True)
class PsdVerdict:
    status: str  # PSD_CERTIFIED | NOT_PSD_WITNESS | UNKNOWN
    field: str
    certificate: GramCertificate | None = None
    witness: tuple[np.ndarray, ...] | None = None
    witness_value: float | None = None
    note: str = ""


def _product_basis(dims, per_mode) -> tuple[tuple[int, ...], ...]:
    """Exponent table of the products of one monomial per mode, ordered
    like ``itertools.product`` over the modes.

    ``per_mode[k]`` holds the monomials of mode k as rows of width 2 n_k:
    exponents of x_{k,1}, ..., x_{k,n_k}, then of their conjugates.
    """
    tabs = [np.asarray(t, dtype=np.int64).reshape(len(t), 2, n) for t, n in zip(per_mode, dims)]
    picks = np.indices([len(t) for t in tabs]).reshape(len(tabs), -1)
    rows = np.concatenate([t[i] for t, i in zip(tabs, picks)], axis=2)
    return tuple(map(tuple, rows.reshape(len(rows), -1).tolist()))


def hol_basis(dims) -> tuple[tuple[int, ...], ...]:
    """Degree-(1, ..., 1) holomorphic monomials x_{1,i_1} ... x_{m,i_m},
    ordered like the multi-index enumeration: the basis of rung 0."""
    dims = core.check_dims(dims)
    return _rung(dims, (0,) * len(dims))[0]


def csos_basis(dims) -> tuple[tuple[int, ...], ...]:
    """Kronecker basis (x_1, conj x_1) (x) ... (x) (x_m, conj x_m)."""
    return _product_basis(core.check_dims(dims), [np.eye(2 * n) for n in dims])


def _mode_monomials(n: int, degree: int) -> np.ndarray:
    """Exponent rows of the monomials of the given total degree in n
    variables, graded-lexicographically ordered (leading variable first):
    the sorted variable multisets, in lexicographic order, counted."""
    picks = list(itertools.combinations_with_replacement(range(n), degree))
    idx = np.array(picks, dtype=np.int64).reshape(len(picks), degree)
    return (idx[:, :, None] == np.arange(n)).sum(axis=1, dtype=np.int64)


# ---------------------------------------------------------------------------
# The coefficient map shared by every Gram basis


def _group_sums(w: np.ndarray, gids: np.ndarray, ngroups: int) -> np.ndarray:
    flat, gids = w.reshape(-1), gids.reshape(-1)
    re = np.bincount(gids, weights=flat.real, minlength=ngroups)
    im = np.bincount(gids, weights=flat.imag, minlength=ngroups)
    return re + 1j * im


class _CoefficientMap(NamedTuple):
    """Group ids of the monomials of a Gram form and of its target.

    ``gram_ids[p * K + q]`` is the group of conj(b_p) b_q.  The target is
    |x_1|^{2 d_1} ... |x_m|^{2 d_m} H(x, conj x) with d_k the basis degree
    in mode k minus one; its terms multinomial(alpha) H[I, J]
    |x^alpha|^2 conj(x_I) x_J are ordered by the flat tensor entry, then by
    alpha, with group ids ``term_ids`` and weights ``weights`` (per alpha).
    """

    gram_ids: np.ndarray
    term_ids: np.ndarray
    weights: np.ndarray
    ngroups: int

    def of_gram(self, w: np.ndarray) -> np.ndarray:
        return _group_sums(w, self.gram_ids, self.ngroups)

    def of_tensor(self, h: core.HermitianTensor) -> np.ndarray:
        return _group_sums(np.outer(h.mat.reshape(-1), self.weights), self.term_ids, self.ngroups)

    def residual(self, w: np.ndarray, targets: np.ndarray) -> float:
        """Largest mismatch between the Gram form of w and the targets."""
        return float(np.abs(self.of_gram(w) - targets).max())


def _fold(ids, col: np.ndarray) -> np.ndarray:
    """Dense ids of the rows of (ids, col), numbered by a 1-D ``np.unique``,
    so that they stay below the row count and cannot overflow."""
    col = col - col.min()
    return np.unique(ids * (int(col.max()) + 1) + col, return_inverse=True)[1].reshape(-1)


@lru_cache(maxsize=32)
def _coefficient_map(dims: tuple[int, ...], basis: tuple[tuple[int, ...], ...]) -> _CoefficientMap:
    """Number the monomials one mode at a time.  A monomial is the product
    of its per-mode parts, so each mode numbers its few distinct parts,
    and the per-mode ids fold into one key."""
    b = np.asarray(basis, dtype=np.int64)
    t, m = sum(dims), len(dims)
    offs = np.cumsum((0,) + dims[:-1])
    deg = np.add.reduceat(b[0, :t] + b[0, t:], offs) - 1
    alphas = [_mode_monomials(n, d) for n, d in zip(dims, deg)]
    fact = np.array([math.factorial(i) for i in range(int(deg.max()) + 1)], dtype=np.float64)
    den = reduce(np.multiply.outer, [fact[a].prod(axis=1) for a in alphas])  # alpha! per alpha
    weights = fact[deg].prod() / den.reshape(-1)
    grid = dims + dims + tuple(len(a) for a in alphas)  # the target terms' axes (I, J, alpha)
    key = 0
    for k, (n, off, a) in enumerate(zip(dims, offs, alphas)):
        part = b[:, np.r_[off:off + n, t + off:t + off + n]]  # exponents of x_k, then of conj x_k
        row_ids = reduce(_fold, part.T, 0)
        rows = part[np.unique(row_ids, return_index=True)[1]]  # row id i at row i
        eye = np.eye(n, dtype=np.int64)
        # conj(x_i) x_j |x^alpha|^2: x exponents e_j + alpha, conj ones e_i + alpha
        terms = np.concatenate(np.broadcast_arrays(eye[None, :, None] + a, eye[:, None, None] + a), axis=3)
        pairs = np.roll(rows, n, axis=1)[:, None] + rows
        ids = reduce(_fold, np.concatenate([pairs.reshape(-1, 2 * n), terms.reshape(-1, 2 * n)]).T, 0)
        d = len(rows)
        term = np.expand_dims(ids[d * d:].reshape(n, n, -1), [i for i in range(3 * m) if i % m != k])
        key = _fold(key, np.concatenate([ids[: d * d].reshape(d, d)[np.ix_(row_ids, row_ids)].reshape(-1),
                                         np.broadcast_to(term, grid).reshape(-1)]))
    key.setflags(write=False)  # cached and shared by every caller
    weights.setflags(write=False)
    return _CoefficientMap(key[: len(b) ** 2], key[len(b) ** 2:], weights, int(key.max()) + 1)


def gram_reconstruct_residual(h: core.HermitianTensor, cert: GramCertificate) -> float:
    """Largest coefficient mismatch between the Gram form and the
    multiplied tensor (see the module docstring); monomials outside the
    tensor's support must cancel.  Raises ``ShapeMismatch`` unless W is
    K-by-K for the K basis rows, every row has width 2 * sum(dims), and
    all rows share one positive degree per mode.
    """
    k, t = len(cert.basis), sum(h.dims)
    if np.shape(cert.W) != (k, k):
        raise ShapeMismatch(f"W has shape {np.shape(cert.W)} for {k} basis rows")
    if any(len(row) != 2 * t for row in cert.basis):
        raise ShapeMismatch(f"basis rows must have width {2 * t}")
    b = np.array(cert.basis, dtype=np.int64).reshape(k, 2 * t)
    deg = np.add.reduceat(b[:, :t] + b[:, t:], np.cumsum((0,) + h.dims[:-1]), axis=1)
    if not k or deg.min() < 1 or np.any(deg != deg[0]):
        raise ShapeMismatch("basis rows need one common positive degree per mode")
    cmap = _coefficient_map(h.dims, cert.basis)
    return cmap.residual(cert.W, cmap.of_tensor(h))


# ---------------------------------------------------------------------------
# CSOS: Gram feasibility over the mixed basis


@lru_cache(maxsize=32)
def _charge_blocks(dims: tuple[int, ...]):
    """The CSOS Gram problem on its charge blocks: (basis, its coefficient
    map, rows, the map of the block stack, its group sizes).

    Basis row p is x_k or conj x_k in each mode k; its charge pattern
    records which.  Gram entries between rows of different patterns stand
    for monomials of unequal degree in x_k and conj x_k, which the target
    lacks, so some feasible W is zero off the 2^m diagonal blocks.
    ``rows[c]`` lists the N basis rows of pattern c; the stack map's
    ``gram_ids`` have the stack's shape (2^m, N, N), and every size is at
    least 1 (groups off the blocks have no entry in the stack).
    """
    basis = csos_basis(dims)
    cmap = _coefficient_map(dims, basis)
    b = np.asarray(basis, dtype=np.int64)
    hol = np.add.reduceat(b[:, :sum(dims)], np.cumsum((0,) + dims[:-1]), axis=1)  # 1 at x_k, 0 at conj x_k
    rows = np.argsort(hol @ (1 << np.arange(len(dims))), kind="stable").reshape(2 ** len(dims), -1)
    ids = cmap.gram_ids.reshape(len(b), -1)[rows[:, :, None], rows[:, None, :]]
    sizes = np.maximum(np.bincount(ids.reshape(-1), minlength=cmap.ngroups), 1)
    for a in (rows, ids, sizes):
        a.setflags(write=False)  # cached and shared by every caller
    return basis, cmap, rows, cmap._replace(gram_ids=ids), sizes


def csos_test(
    h: core.HermitianTensor,
    iters: int = CSOS_ITERS,
    tols: core.Tolerances = core.TOL,
) -> CsosResult:
    """Search for a conjugate-sum-of-squares Gram matrix.

    Alternating projections between the psd cone and the affine
    coefficient-matching set; FEASIBLE when a psd iterate matches all
    coefficients within ``fitTol * norm(h)``.  The first stall of the
    distance between the two sets yields INFEASIBLE_HINT, which is a
    heuristic only; the iteration cap yields UNKNOWN with the residual of
    the last psd iterate.

    The iterates stay on the 2^m charge blocks of ``_charge_blocks`` (the
    start is zero off them, and both projections keep that), so each step
    solves a (2^m, N, N) stack, N = n_1...n_m, instead of the K-by-K
    matrix, K = 2^m N (Gatermann & Parrilo, JPAA 192, 2004).  The
    certificate is the K-by-K W, zero off the blocks.
    """
    basis, cmap, rows, blocks, sizes = _charge_blocks(h.dims)
    gids = blocks.gram_ids
    targets = cmap.of_tensor(h)
    fit_tol = tols.fitTol * core.norm(h)

    def affine(w, sums):  # sums: blocks.of_gram(w)
        out = w + ((targets - sums) / sizes)[gids]
        return (out + np.swapaxes(out.conj(), -1, -2)) / 2.0

    w = affine(np.zeros(gids.shape, dtype=np.complex128), 0.0)
    dist_hist: list[float] = []
    res = float(np.abs(targets).max())  # that of W = 0, before any step
    for it in range(1, iters + 1):
        p = linalg.psd_project(w)
        sums = blocks.of_gram(p)
        res = float(np.abs(sums - targets).max())
        if res <= fit_tol:
            full = np.zeros((len(basis),) * 2, dtype=np.complex128)
            full[rows[:, :, None], rows[:, None, :]] = p
            res = cmap.residual(full, targets)
            return CsosResult("FEASIBLE", GramCertificate(h.dims, basis, full, res), it, res)
        w = affine(p, sums)
        dist_hist.append(float(np.linalg.norm(w - p)))
        if len(dist_hist) >= 80 and res > 10.0 * fit_tol:
            recent, past = dist_hist[-1], dist_hist[-60]
            if past > 0 and recent >= past * (1.0 - CSOS_STALL):
                return CsosResult("INFEASIBLE_HINT", None, it, res)
    return CsosResult("UNKNOWN", None, iters, res)


# ---------------------------------------------------------------------------
# Multiplier hierarchy


@lru_cache(maxsize=32)
def _rung(dims: tuple[int, ...], powers: tuple[int, ...]):
    """Basis and coefficient map of the multiplier rung with these powers:
    products of one degree-(k+1) holomorphic monomial per mode, ordered
    like ``itertools.product`` over the modes.  A rung other than the
    flattening with more than ``BASIS_CAP`` rows raises ``BasisTooLarge``
    before its basis is built."""
    size = math.prod(math.comb(n + k, k + 1) for n, k in zip(dims, powers))
    if any(powers) and size > BASIS_CAP:
        raise BasisTooLarge(f"basis size {size} exceeds cap {BASIS_CAP}")
    per_mode = [_mode_monomials(n, k + 1) for n, k in zip(dims, powers)]
    basis = _product_basis(dims, [np.hstack([a, 0 * a]) for a in per_mode])
    return basis, _coefficient_map(dims, basis)


def multiplier_hsos_test(
    h: core.HermitianTensor,
    powers,
    tols: core.Tolerances = core.TOL,
) -> OmegaResult:
    """Membership test for the multiplier cone with the given powers.

    Forms |x_1|^{2k_1} ... |x_m|^{2k_m} H(x, conj(x)) and checks whether
    its Gram matrix W over the multidegree-(k+1) holomorphic basis is psd
    (at ``eigTol``).  Over that basis every Gram entry stands for its own
    monomial, so the coefficient map pins W down and the test is a single
    psd check.  Zero powers give the flattening, the HSOS test, which is
    never capped; other bases above ``BASIS_CAP`` rows raise
    ``BasisTooLarge``.
    """
    powers = tuple(map(int, powers))
    if len(powers) != h.order or min(powers) < 0:
        raise ShapeMismatch(f"powers {powers} do not match shape {h.dims}")
    basis, cmap = _rung(h.dims, powers)
    targets = cmap.of_tensor(h)
    w = targets[cmap.gram_ids].reshape(len(basis), -1)
    w = (w + w.conj().T) / 2.0
    sd = linalg.herm_part_eig(w)
    cert = None
    if sd.is_psd(tols.eigTol):
        cert = GramCertificate(h.dims, basis, w, cmap.residual(w, targets))
    return OmegaResult("UNKNOWN" if cert is None else "MEMBER", powers, cert,
                       float(sd.eigenvalues[0]), sd.eigenvectors[:, 0].copy())


def hsos_test(h: core.HermitianTensor, tols: core.Tolerances = core.TOL) -> OmegaResult:
    """Decide the holomorphic sum-of-squares property: rung 0 of the
    multiplier ladder, MEMBER when the flattening is psd (at ``eigTol``)."""
    return multiplier_hsos_test(h, (0,) * h.order, tols)


def psd_verdict(
    h: core.HermitianTensor,
    field: str = "COMPLEX",
    effort: int = 2,
    seed: int = 0,
    tols: core.Tolerances = core.TOL,
) -> PsdVerdict:
    """Combined positivity verdict over the requested field.

    Order of attack: eigentuple multistart for a strict negativity
    witness (value below ``-witTol * norm(h)``); then one ladder of
    multiplier memberships by total power 0..``effort``, rung 0 being
    the flattening.  Otherwise UNKNOWN.  For field = "REAL" all of it
    runs on ``real_herm.real_form(h)``, P(H), which is psd over C exactly
    when h is psd over R; witness and certificate are then those of P(H).
    ``herm_eigenpair`` rejects any other field.
    """
    if field == "REAL":
        h = real_herm.real_form(h)
    search = spectral.herm_eigenpair(h, seed=seed, field=field, tols=tols)
    if search.tuples and search.tuples[0].value < -tols.witTol * core.norm(h):
        t = search.tuples[0]
        return PsdVerdict("NOT_PSD_WITNESS", field, witness=t.vectors, witness_value=t.value)
    for total in range(effort + 1):
        for powers in (p for p in itertools.product(range(total + 1), repeat=h.order) if sum(p) == total):
            try:
                res = multiplier_hsos_test(h, powers, tols)
            except BasisTooLarge:
                continue
            if res.status == "MEMBER":
                return PsdVerdict("PSD_CERTIFIED", field, certificate=res.certificate,
                                  note=(f"multiplier membership at powers {powers}" if total
                                        else "flattening psd (holomorphic sum of squares)"))
    return PsdVerdict("UNKNOWN", field)
