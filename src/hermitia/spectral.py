"""Hermitian eigentuples and spectral decomposability analysis.

An eigentuple (lambda, u1, ..., um) solves the stationarity system of
the multi-sphere optimization of H(x, conj(x)):

    H x_(k) (u1, ..., um) = lambda u_k,   ||u_k|| = 1,   k = 1..m,

where the mode-k product contracts every mode except k.  All such lambda
are real and equal H(u, conj(u)).  Multistart block-coordinate updates
(each mode set to an extreme eigenvector of its mode matrix) find
stationary tuples; the extreme ones found are upper/lower bounds for the
true extreme eigenvalues, never certificates.

Orthogonal decompositions come from the spectral decomposition of the
Hermitian flattening; the tensor is unitarily decomposable iff the
reshaped eigenvectors are rank-1 (decidable when the nonzero spectrum is
simple).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from . import core, flatten, linalg, real_herm
from .decomposition import HermitianDecomposition, normalize
from .errors import ShapeMismatch

DEFAULT_STARTS = 16
MAX_BLOCK_SWEEPS = 500
TIE_GAP = 1e-9  # extreme eigenvalues of a mode matrix this close (relative) span one eigenspace
PROJECTION_FLOOR = 1e-8  # below this the current vector leaves that eigenspace: take its first vector


def _mode_matrices(arr: np.ndarray, xs, k: int) -> np.ndarray:
    """Stacked mode-k matrices, shape (B, n_k, n_k), by one ``einsum``.

    ``arr`` has axes (hol 1..m, conj 1..m), optionally behind a batch axis
    of length B; ``xs[s]`` is (B, n_s).  Every holomorphic slot s != k is
    contracted with conj(x_s) and every conjugated slot with x_s.
    """
    m = len(xs)
    hol, anti = string.ascii_lowercase[:m], string.ascii_uppercase[:m]
    ops, subs = [arr], ["..." + hol + anti]
    for s in range(m):
        if s != k - 1:
            ops += [xs[s].conj(), xs[s]]
            subs += ["..." + hol[s], "..." + anti[s]]
    out = np.einsum(",".join(subs) + "->..." + hol[k - 1] + anti[k - 1], *ops)
    return out if out.ndim == 3 else np.broadcast_to(out, (len(xs[0]),) + out.shape)


def mode_matrix(h: core.HermitianTensor, xs, k: int) -> np.ndarray:
    """Hermitian matrix M with H(x, conj(x)) = x_k^* M x_k.

    Contracts every holomorphic slot s != k with conj(x_s) and every
    conjugated slot with x_s.
    """
    vs = core.check_vector_tuple(h.dims, xs)
    if not 1 <= k <= h.order:
        raise ShapeMismatch(f"mode {k} outside 1..{h.order}")
    return _mode_matrices(h.as_array(), [v[None] for v in vs], k)[0].copy()


def contract_k(h: core.HermitianTensor, xs, k: int) -> np.ndarray:
    """Mode-k tensor-vector product; satisfies x_k^* . contract_k = H(x, conj(x))."""
    vs = core.check_vector_tuple(h.dims, xs)
    return mode_matrix(h, vs, k) @ vs[k - 1]


@dataclass(frozen=True)
class EigenTuple:
    value: float
    vectors: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class EigenSearch:
    tuples: tuple[EigenTuple, ...]
    failed_starts: int


def _extreme_update(mk: np.ndarray, current: np.ndarray, largest: np.ndarray):
    """Extreme eigenpairs of stacked mode matrices, resolved toward the
    current vectors (row b takes the largest eigenvalue iff largest[b]).

    Within the extreme eigenspace (eigenvalues tied up to a small gap)
    the current vector's projection is kept, so degenerate modes do not
    oscillate between arbitrary eigenvectors.
    """
    sd = linalg.herm_part_eig(mk)
    w, v = sd.eigenvalues, sd.eigenvectors
    lam = np.where(largest, w[:, -1], w[:, 0])
    gap = (TIE_GAP * (1.0 + np.abs(lam)))[:, None]
    mask = np.where(largest[:, None], w >= lam[:, None] - gap, w <= lam[:, None] + gap)
    basis = v * mask[:, None, :]
    proj = (basis @ (np.swapaxes(basis.conj(), 1, 2) @ current[:, :, None]))[:, :, 0]
    nv = np.linalg.norm(proj, axis=1)[:, None]
    first = v[np.arange(len(v)), :, mask.argmax(axis=1)]
    return lam, np.where(nv > PROJECTION_FLOOR, proj / np.where(nv > PROJECTION_FLOOR, nv, 1.0), first)


def _residuals(arr, xs, lam) -> np.ndarray:
    """Stationarity residuals ||M_k x_k - lam x_k||, one row per sequence."""
    return np.stack([
        np.linalg.norm((_mode_matrices(arr, xs, k) @ xs[k - 1][:, :, None])[:, :, 0]
                       - lam[:, None] * xs[k - 1], axis=1)
        for k in range(1, len(xs) + 1)
    ], axis=1)


def _lockstep(h, x0, largest, tol, hnorm) -> list[EigenTuple]:
    """Block-coordinate sequences advanced together, one per row of
    ``x0[s]`` (B, n_s); row b ascends iff largest[b].

    The sequences run on h / hnorm (hnorm = norm(h)), so every stopping
    rule acts at unit scale: a sequence leaves the batch once its
    eigenvalue is stationary and its residuals are within ``tol / 20``
    there, which keeps them within ``tol`` in input units while
    hnorm <= 20.  Values and residuals are returned in the units of h.
    """
    arr = h.as_array() / (hnorm or 1.0)
    xs = [np.array(x, dtype=np.complex128) for x in x0]
    m1 = _mode_matrices(arr, xs, 1)
    lam = np.real(np.einsum("bi,bij,bj->b", xs[0].conj(), m1, xs[0]))
    res = np.full((len(lam), h.order), np.nan)
    act = np.arange(len(lam))
    for _ in range(MAX_BLOCK_SWEEPS):
        if act.size == 0:
            break
        cur = [x[act] for x in xs]
        prev = lam[act]
        for k in range(1, h.order + 1):
            mk = _mode_matrices(arr, cur, k)
            lk, cur[k - 1] = _extreme_update(mk, cur[k - 1], largest[act])
        for x, c in zip(xs, cur):
            x[act] = c
        lam[act] = lk
        conv = act[np.abs(lk - prev) <= core.ROUNDING * (1.0 + np.abs(lk))]
        if conv.size:
            res[conv] = _residuals(arr, [x[conv] for x in xs], lam[conv])
            act = act[~np.isin(act, conv[res[conv].max(axis=1) <= 0.05 * tol])]
    left = np.flatnonzero(np.isnan(res[:, 0]))  # never stationary: residuals at the end
    res[left] = _residuals(arr, [x[left] for x in xs], lam[left])
    # no step above depends on the phases of the vectors; fix them once here
    xs = [linalg.phase_normalize(x) for x in xs]
    return [
        EigenTuple(core.eval_poly(h, vs), vs, tuple(float(r) * hnorm for r in rs))
        for vs, rs in zip(zip(*xs), res)
    ]


def herm_eigenpair(
    h: core.HermitianTensor,
    seed: int,
    field: str = "COMPLEX",
    starts: int = DEFAULT_STARTS,
    tols: core.Tolerances = core.TOL,
) -> EigenSearch:
    """Multistart search for Hermitian eigentuples.

    Every start runs both an ascent and a descent block-coordinate
    sequence from a random unit tuple; all 2 * starts sequences advance in
    lock-step.  For field = "REAL" the starts are real and h is replaced by
    ``real_herm.real_form(h)``, whose mode matrices at real vectors are
    real symmetric.  Tuples whose stationarity residual exceeds
    ``eigTupleTol`` times ``norm(h)`` are dropped and counted as failures;
    survivors are deduplicated up to per-mode phases (values and each mode's
    overlap within ``eigGapTol`` of ``norm(h)`` and 1) and sorted by eigenvalue.
    """
    core.check_field(field)
    if starts < 1:
        raise ShapeMismatch("starts must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = [[] for _ in h.dims]
    for _ in range(starts):
        for s, n in enumerate(h.dims):
            v = rng.standard_normal(n) + (0.0 if field == "REAL" else 1j * rng.standard_normal(n))
            x0[s] += [v / np.linalg.norm(v)] * 2  # descent, then ascent
    largest = np.tile([False, True], starts)
    if field == "REAL":
        h = real_herm.real_form(h)
    hnorm = core.norm(h)
    results = _lockstep(h, x0, largest, tols.eigTupleTol, hnorm)
    kept: list[EigenTuple] = []
    failed = 0
    for tup in results:
        if max(tup.residuals) > tols.eigTupleTol * hnorm:
            failed += 1
            continue
        if any(_same_tuple(tup, other, hnorm, tols.eigGapTol) for other in kept):
            continue
        kept.append(tup)
    kept.sort(key=lambda t: t.value)
    return EigenSearch(tuple(kept), failed)


def _same_tuple(a: EigenTuple, b: EigenTuple, scale: float, gap: float) -> bool:
    if abs(a.value - b.value) > gap * scale:
        return False
    for va, vb in zip(a.vectors, b.vectors):
        if abs(np.vdot(va, vb)) < 1.0 - gap:
            return False
    return True


@dataclass(frozen=True)
class OrthoTerm:
    value: float
    tensor: np.ndarray
    rank1_residual: float
    unit_rank1: bool


@dataclass(frozen=True)
class OrthoDecomp:
    dims: tuple[int, ...]
    terms: tuple[OrthoTerm, ...]


def orthogonal_decompose(h: core.HermitianTensor, tols: core.Tolerances = core.TOL) -> OrthoDecomp:
    """Spectral decomposition of the flattening, reshaped to unit tensors.

    H = sum_i lambda_i U_i (x) conj(U_i) with pairwise orthogonal, unit
    U_i; eigenvalues below ``rankTol`` (relative) are dropped.  Each term
    carries its best rank-1 relative residual, rank-1 within ``fitTol``.
    """
    sd = linalg.herm_part_eig(flatten.hermitian_flatten(h).mat)
    terms = []
    for w, v in sd.kept(tols.rankTol):
        u = v.reshape(h.dims)
        _, res = linalg.rank1_factor(u)
        terms.append(OrthoTerm(w, u, res, res <= tols.fitTol))
    return OrthoDecomp(h.dims, tuple(terms))


@dataclass(frozen=True)
class UnitaryReport:
    status: str  # YES | NO | INCONCLUSIVE
    decomposition: object = None
    witness: OrthoTerm | None = None
    note: str = ""


def unitary_decomposable(h: core.HermitianTensor, tols: core.Tolerances = core.TOL) -> UnitaryReport:
    """Decide unitary Hermitian decomposability when the spectrum allows.

    With pairwise distinct nonzero eigenvalues of the flattening, the
    spectral decomposition is the only candidate: YES iff every reshaped
    eigenvector is rank-1 (the decomposition is returned), NO with the
    first offending term otherwise.  Repeated nonzero eigenvalues (within
    ``eigGapTol``, relative) leave the question open here: INCONCLUSIVE.
    """
    od = orthogonal_decompose(h, tols)
    if not od.terms:
        return UnitaryReport("YES", HermitianDecomposition(h.dims, ()))
    vals = np.array([t.value for t in od.terms])  # ascending
    if np.any(np.diff(vals) <= tols.eigGapTol * np.abs(vals).max()):
        return UnitaryReport("INCONCLUSIVE",
                             note="repeated nonzero eigenvalues: spectral decomposition not unique")
    for term in od.terms:
        if not term.unit_rank1:
            return UnitaryReport("NO", witness=term,
                                 note=f"eigentensor has rank-1 residual {term.rank1_residual:.3e}")
    terms = tuple((term.value, linalg.rank1_factor(term.tensor)[0]) for term in od.terms)
    return UnitaryReport("YES", normalize(HermitianDecomposition(h.dims, terms)))
