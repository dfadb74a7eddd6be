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

from dataclasses import dataclass

import numpy as np

from . import core, flatten, linalg
from .errors import ShapeMismatch

EIG_TUPLE_TOL = 1e-8
EIG_GAP_TOL = 1e-6
R1_TOL = 1e-7
DEDUP_VALUE_TOL = 1e-6
DEFAULT_STARTS = 16
MAX_BLOCK_SWEEPS = 500


def mode_matrix(h: core.HermitianTensor, xs, k: int) -> np.ndarray:
    """Hermitian matrix M with H(x, conj(x)) = x_k^* M x_k.

    Contracts every holomorphic slot s != k with conj(x_s) and every
    conjugated slot with x_s.
    """
    vs = core.check_vector_tuple(h.dims, xs)
    m = h.order
    if not 1 <= k <= m:
        raise ShapeMismatch(f"mode {k} outside 1..{m}")
    arr = h.as_array()
    # contract holomorphic axes with conj(x_s), descending so positions stay valid
    for s in range(m, 0, -1):
        if s == k:
            continue
        arr = np.tensordot(vs[s - 1].conj(), arr, axes=(0, s - 1))
    # axes are now (hol k, conj 1, ..., conj m); contract the conjugated ones
    for s in range(m, 0, -1):
        if s == k:
            continue
        arr = np.tensordot(arr, vs[s - 1], axes=(s, 0))
    return arr


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


def _extreme_update(mk: np.ndarray, current: np.ndarray, largest: bool):
    """Extreme eigenpair of a mode matrix, resolved toward the current vector.

    Within the extreme eigenspace (eigenvalues tied up to a small gap)
    the current vector's projection is kept, so degenerate modes do not
    oscillate between arbitrary eigenvectors.
    """
    sd = linalg.herm_eig(mk)
    w = sd.eigenvalues
    lam = float(w[-1] if largest else w[0])
    gap = 1e-9 * (1.0 + abs(lam))
    mask = (w >= lam - gap) if largest else (w <= lam + gap)
    basis = sd.eigenvectors[:, mask]
    proj = basis @ (basis.conj().T @ current)
    nv = float(np.linalg.norm(proj))
    if nv > 1e-8:
        vec = proj / nv
    else:
        vec = basis[:, 0]
    return lam, linalg.phase_normalize(vec)


def _residuals(h, vs, lam, field):
    out = []
    for k in range(1, h.order + 1):
        mk = mode_matrix(h, vs, k)
        if field == "REAL":
            mk = (mk.real + mk.real.T) / 2.0
        out.append(float(np.linalg.norm(mk @ vs[k - 1] - lam * vs[k - 1])))
    return tuple(out)


def _run_start(h, x0, field, direction, tol, max_sweeps):
    m = h.order
    vs = list(x0)
    lam = core.eval_poly(h, vs)
    residuals = None
    for _ in range(max_sweeps):
        prev = lam
        for k in range(1, m + 1):
            mk = mode_matrix(h, vs, k)
            if field == "REAL":
                mk = (mk.real + mk.real.T) / 2.0
            lam, w = _extreme_update(mk, vs[k - 1], largest=(direction == "max"))
            vs[k - 1] = (w / np.linalg.norm(w)).astype(np.complex128)
        if abs(lam - prev) <= 1e-12 * (1.0 + abs(lam)):
            residuals = _residuals(h, vs, lam, field)
            if max(residuals) <= 0.5 * tol:
                break
    if residuals is None:
        residuals = _residuals(h, vs, lam, field)
    lam = core.eval_poly(h, vs)
    return EigenTuple(float(lam), tuple(vs), tuple(residuals))


def herm_eigenpair(
    h: core.HermitianTensor,
    seed: int,
    field: str = "COMPLEX",
    starts: int = DEFAULT_STARTS,
    tol: float = EIG_TUPLE_TOL,
    max_sweeps: int = MAX_BLOCK_SWEEPS,
) -> EigenSearch:
    """Multistart search for Hermitian eigentuples.

    Every start runs both an ascent and a descent block-coordinate
    sequence from a random unit tuple (real starts and real-subspace
    projection when field = "REAL").  Tuples whose stationarity residual
    exceeds ``tol`` are dropped and counted as failures; survivors are
    deduplicated up to per-mode phases and sorted by eigenvalue.
    """
    if field not in ("COMPLEX", "REAL"):
        raise ShapeMismatch(f"unknown field {field!r}")
    if starts < 1:
        raise ShapeMismatch("starts must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    jobs = []
    for _ in range(starts):
        x0 = []
        for n in h.dims:
            v = rng.standard_normal(n) + (0.0 if field == "REAL" else 1j * rng.standard_normal(n))
            x0.append(np.asarray(v, dtype=np.complex128) / np.linalg.norm(v))
        for direction in ("min", "max"):
            jobs.append((tuple(x0), direction))

    results = [_run_start(h, x0, field, direction, tol, max_sweeps) for x0, direction in jobs]

    kept: list[EigenTuple] = []
    failed = 0
    for tup in results:
        if max(tup.residuals) > tol:
            failed += 1
            continue
        if any(_same_tuple(tup, other) for other in kept):
            continue
        kept.append(tup)
    kept.sort(key=lambda t: t.value)
    return EigenSearch(tuple(kept), failed)


def _same_tuple(a: EigenTuple, b: EigenTuple) -> bool:
    if abs(a.value - b.value) > DEDUP_VALUE_TOL:
        return False
    for va, vb in zip(a.vectors, b.vectors):
        if abs(np.vdot(va, vb)) < 1.0 - DEDUP_VALUE_TOL:
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


def orthogonal_decompose(
    h: core.HermitianTensor,
    rank_tol: float = linalg.RANK_REL_TOL,
    r1_tol: float = R1_TOL,
) -> OrthoDecomp:
    """Spectral decomposition of the flattening, reshaped to unit tensors.

    H = sum_i lambda_i U_i (x) conj(U_i) with pairwise orthogonal, unit
    U_i; eigenvalues below rank_tol (relative) are dropped.  Each term
    carries its best rank-1 relative residual.
    """
    sd = linalg.herm_eig(flatten.hermitian_flatten(h).mat)
    top = float(np.abs(sd.eigenvalues).max()) if sd.eigenvalues.size else 0.0
    terms = []
    for i, w in enumerate(sd.eigenvalues):
        if top == 0.0 or abs(w) <= rank_tol * top:
            continue
        u = sd.eigenvectors[:, i].reshape(h.dims)
        _, res = linalg.rank1_factor(u)
        terms.append(OrthoTerm(float(w), u.copy(), res, res <= r1_tol))
    return OrthoDecomp(h.dims, tuple(terms))


@dataclass(frozen=True)
class UnitaryReport:
    status: str  # YES | NO | INCONCLUSIVE
    decomposition: object = None
    witness: OrthoTerm | None = None
    note: str = ""


def unitary_decomposable(
    h: core.HermitianTensor,
    gap_tol: float = EIG_GAP_TOL,
    r1_tol: float = R1_TOL,
) -> UnitaryReport:
    """Decide unitary Hermitian decomposability when the spectrum allows.

    With pairwise distinct nonzero eigenvalues of the flattening, the
    spectral decomposition is the only candidate: YES iff every reshaped
    eigenvector is rank-1 (the decomposition is returned), NO with the
    first offending term otherwise.  Repeated nonzero eigenvalues leave
    the question open here: INCONCLUSIVE.
    """
    from .decomposition import HermitianDecomposition

    od = orthogonal_decompose(h, r1_tol=r1_tol)
    if not od.terms:
        return UnitaryReport("YES", HermitianDecomposition(h.dims, ()))
    vals = [t.value for t in od.terms]
    top = max(abs(v) for v in vals)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) <= gap_tol * top:
                return UnitaryReport(
                    "INCONCLUSIVE",
                    note="repeated nonzero eigenvalues: spectral decomposition not unique",
                )
    for term in od.terms:
        if not term.unit_rank1:
            return UnitaryReport("NO", witness=term,
                                 note=f"eigentensor has rank-1 residual {term.rank1_residual:.3e}")
    terms = []
    for term in od.terms:
        vecs, _ = linalg.rank1_factor(term.tensor)
        lam = term.value
        units = []
        for v in vecs:
            nv = float(np.linalg.norm(v))
            lam *= nv * nv
            units.append(linalg.phase_normalize(v / nv))
        terms.append((lam, tuple(units)))
    return UnitaryReport("YES", HermitianDecomposition(h.dims, tuple(terms)))
