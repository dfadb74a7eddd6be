"""Positivity certificates for Hermitian tensors.

Three nested sufficient conditions, in increasing strength of the
underlying basis:

* HSOS: the conjugate polynomial is a sum of squared moduli of
  holomorphic polynomials; holds iff the Hermitian flattening is psd,
  so the test is a single eigendecomposition and the flattening itself
  is the Gram matrix.
* CSOS: sums of squared moduli of mixed conjugate polynomials; a psd
  Gram matrix over the basis (x_1, conj x_1) (x) ... (x) (x_m, conj x_m)
  subject to affine coefficient-matching constraints.  Feasibility is
  searched by alternating projections between the psd cone and the
  affine subspace; infeasibility can only be hinted at, never certified.
* Multiplier membership: |x_1|^{2 k_1} ... |x_m|^{2 k_m} H(x, conj(x))
  being HSOS over the multidegree-(k+1) holomorphic basis.  Every
  strictly positive tensor lands in some such set for large enough
  powers (no effective bound); membership certifies positivity.

All three are Gram matrices over monomial bases, matched against the
tensor by one coefficient map: Gram entry (p, q) stands for the monomial
conj(b_p) b_q.

The psd verdict pipeline combines eigentuple witnesses (for refutation)
with these certificates, transferring complex certificates to the real
field for real-decomposable tensors, where real and complex positivity
agree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import core, flatten, linalg, real_herm, spectral
from .errors import BasisTooLarge, RealityViolation, ShapeMismatch

BASIS_CAP = 64
CSOS_ITERS = 5000


@dataclass(frozen=True)
class GramCertificate:
    """psd Gram matrix over an explicit monomial basis.

    Each basis monomial is an exponent tuple of length 2 * sum(dims):
    exponents of x_{1,1}, ..., x_{m,n_m} followed by those of their
    conjugates.  Gram entry (p, q) stands for the monomial
    conj(b_p) b_q.  ``residual`` is the largest coefficient mismatch
    between the Gram form and |x_1|^{2 d_1} ... |x_m|^{2 d_m} H(x, conj x),
    the multiplier degrees d_k read from the basis.
    """

    dims: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    W: np.ndarray
    residual: float


@dataclass(frozen=True)
class HsosResult:
    is_hsos: bool
    certificate: GramCertificate | None = None
    negative_eigenvalue: float | None = None
    eigenvector: np.ndarray | None = None


@dataclass(frozen=True)
class CsosResult:
    status: str  # FEASIBLE | INFEASIBLE_HINT | UNKNOWN
    certificate: GramCertificate | None = None
    iterations: int = 0
    residual: float = float("nan")


@dataclass(frozen=True)
class OmegaResult:
    status: str  # MEMBER | UNKNOWN
    powers: tuple[int, ...]
    certificate: GramCertificate | None = None
    min_eigenvalue: float = float("nan")


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
    ordered like the multi-index enumeration."""
    dims = core.check_dims(dims)
    return _product_basis(dims, [np.eye(n, 2 * n) for n in dims])


def hsos_test(h: core.HermitianTensor, tols: core.Tolerances = core.TOL) -> HsosResult:
    """Decide the holomorphic sum-of-squares property via the flattening.

    The flattening is the unique Gram matrix over the degree-(1, ..., 1)
    holomorphic basis, so psd-ness of it (at ``eigTol``) is equivalent to
    the property.
    """
    m = flatten.hermitian_flatten(h).mat
    sd = linalg.herm_eig(m)
    wmin = float(sd.eigenvalues[0])
    scale = float(np.linalg.norm(m))
    if wmin >= -tols.eigTol * max(scale, 1.0):
        cert = GramCertificate(h.dims, hol_basis(h.dims), m.copy(), 0.0)
        return HsosResult(True, certificate=cert)
    return HsosResult(False, negative_eigenvalue=wmin, eigenvector=sd.eigenvectors[:, 0].copy())


def csos_basis(dims) -> tuple[tuple[int, ...], ...]:
    """Kronecker basis (x_1, conj x_1) (x) ... (x) (x_m, conj x_m)."""
    dims = core.check_dims(dims)
    return _product_basis(dims, [np.eye(2 * n) for n in dims])


def _mode_monomials(n: int, degree: int) -> np.ndarray:
    """Exponent rows of the monomials of the given total degree in n
    variables, graded-lexicographically ordered (leading variable first)."""
    exps = [e for e in itertools.product(range(degree, -1, -1), repeat=n) if sum(e) == degree]
    return np.array(exps, dtype=np.int64).reshape(-1, n)


# ---------------------------------------------------------------------------
# The coefficient map shared by every Gram basis


def _entry_monomials(b: np.ndarray) -> np.ndarray:
    """Exponents of conj(b_p) b_q for every pair (p, q), row-major."""
    t = b.shape[1] // 2
    conj = np.concatenate([b[:, t:], b[:, :t]], axis=1)
    return (conj[:, None, :] + b[None, :, :]).reshape(-1, 2 * t)


def _group_sums(w: np.ndarray, gids: np.ndarray, ngroups: int) -> np.ndarray:
    flat = w.reshape(-1)
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


@lru_cache(maxsize=32)
def _coefficient_map(dims: tuple[int, ...], basis: tuple[tuple[int, ...], ...]) -> _CoefficientMap:
    """One ``np.unique`` over the Gram-entry monomials and the target terms."""
    b = np.asarray(basis, dtype=np.int64)
    t = sum(dims)
    offs = np.cumsum((0,) + dims[:-1])
    deg = np.add.reduceat(b[0, :t] + b[0, t:], offs) - 1
    alphas = [_mode_monomials(n, d) for n, d in zip(dims, deg)]
    mults = np.asarray(_product_basis(dims, [np.hstack([a, a]) for a in alphas]))
    fact = np.array([math.factorial(i) for i in range(int(deg.max()) + 1)], dtype=np.float64)
    weights = fact[deg].prod() / fact[mults[:, :t]].prod(axis=1)
    tensor = _entry_monomials(np.asarray(hol_basis(dims)))
    terms = (tensor[:, None, :] + mults[None, :, :]).reshape(-1, 2 * t)
    gram = _entry_monomials(b)
    keys, inverse = np.unique(np.concatenate([gram, terms]), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    inverse.setflags(write=False)  # cached and shared by every caller
    weights.setflags(write=False)
    return _CoefficientMap(inverse[: len(gram)], inverse[len(gram):], weights, len(keys))


def gram_reconstruct_residual(h: core.HermitianTensor, cert: GramCertificate) -> float:
    """Largest coefficient mismatch between the Gram form and the tensor.

    Sums the Gram entries over each monomial conj(b_p) b_q and compares
    with |x_1|^{2 d_1} ... |x_m|^{2 d_m} H(x, conj x), the multiplier
    degrees d_k read from the basis (zero for the holomorphic and CSOS
    bases); monomials outside the tensor's support must cancel.
    """
    cmap = _coefficient_map(h.dims, cert.basis)
    return float(np.abs(cmap.of_gram(cert.W) - cmap.of_tensor(h)).max())


# ---------------------------------------------------------------------------
# CSOS: Gram feasibility over the mixed basis


def csos_test(
    h: core.HermitianTensor,
    iters: int = CSOS_ITERS,
    tols: core.Tolerances = core.TOL,
) -> CsosResult:
    """Search for a conjugate-sum-of-squares Gram matrix.

    Alternating projections between the psd cone and the affine
    coefficient-matching set; FEASIBLE when a psd iterate matches all
    coefficients within ``gramTol``.  A stalled distance (checked with
    an averaged-step fallback) yields INFEASIBLE_HINT, which is a
    heuristic only; the iteration cap yields UNKNOWN.
    """
    basis = csos_basis(h.dims)
    cmap = _coefficient_map(h.dims, basis)
    gids = cmap.gram_ids
    sizes = np.bincount(gids, minlength=cmap.ngroups)
    targets = cmap.of_tensor(h)
    K = len(basis)

    def affine(w):
        corr = (targets - cmap.of_gram(w)) / sizes
        out = w + corr[gids].reshape(K, K)
        return (out + out.conj().T) / 2.0

    def coeff_residual(w):
        return float(np.abs(cmap.of_gram(w) - targets).max())

    w = affine(np.zeros((K, K), dtype=np.complex128))
    dist_hist: list[float] = []
    averaged = False
    for it in range(1, iters + 1):
        p = linalg.psd_project(w)
        res = coeff_residual(p)
        if res <= tols.gramTol:
            return CsosResult("FEASIBLE", GramCertificate(h.dims, basis, p, res), it, res)
        wa = affine(p)
        dist = float(np.linalg.norm(wa - p))
        dist_hist.append(dist)
        if averaged:
            w = (wa + p) / 2.0
        else:
            w = wa
        if len(dist_hist) >= 80 and res > 10.0 * tols.gramTol:
            recent, past = dist_hist[-1], dist_hist[-60]
            if past > 0 and recent >= past * (1.0 - 1e-5):
                if not averaged:
                    averaged = True
                    dist_hist.clear()
                else:
                    return CsosResult("INFEASIBLE_HINT", None, it, res)
    return CsosResult("UNKNOWN", None, iters, coeff_residual(linalg.psd_project(w)))


# ---------------------------------------------------------------------------
# Multiplier hierarchy


def multiplier_hsos_test(
    h: core.HermitianTensor,
    powers,
    basis_cap: int = BASIS_CAP,
    tols: core.Tolerances = core.TOL,
) -> OmegaResult:
    """Membership test for the multiplier cone with the given powers.

    Forms |x_1|^{2k_1} ... |x_m|^{2k_m} H(x, conj(x)) and checks whether
    its Gram matrix over the multidegree-(k+1) holomorphic basis is psd
    (at ``eigTol``).  Over that basis every Gram entry stands for its own
    monomial, so the coefficient map pins W down uniquely and the test is
    a single psd check; the certificate residual is zero by construction.
    """
    dims = h.dims
    powers = tuple(int(k) for k in powers)
    if len(powers) != len(dims) or any(k < 0 for k in powers):
        raise ShapeMismatch(f"powers {powers} do not match shape {dims}")
    per_mode = [_mode_monomials(n, k + 1) for n, k in zip(dims, powers)]
    bsize = math.prod(len(a) for a in per_mode)
    if bsize > basis_cap:
        raise BasisTooLarge(f"basis size {bsize} exceeds cap {basis_cap}")
    basis = _product_basis(dims, [np.hstack([a, 0 * a]) for a in per_mode])
    cmap = _coefficient_map(dims, basis)
    w = cmap.of_tensor(h)[cmap.gram_ids].reshape(bsize, bsize)
    w = (w + w.conj().T) / 2.0

    sd = linalg.herm_eig(w)
    wmin = float(sd.eigenvalues[0])
    scale = max(1.0, float(np.linalg.norm(w)))
    if wmin >= -tols.eigTol * scale:
        cert = GramCertificate(dims, basis, w, 0.0)
        return OmegaResult("MEMBER", powers, cert, wmin)
    return OmegaResult("UNKNOWN", powers, None, wmin)


def psd_verdict(
    h: core.HermitianTensor,
    field: str = "COMPLEX",
    effort: int = 2,
    seed: int = 0,
    tols: core.Tolerances = core.TOL,
) -> PsdVerdict:
    """Combined positivity verdict over the requested field.

    Order of attack: eigentuple multistart for a strict negativity
    witness (value below ``-witTol``); the flattening psd test (sufficient
    over both fields); multiplier memberships with total power up to
    ``effort`` (complex field, transferred to real-decomposable real
    tensors); otherwise UNKNOWN.
    """
    if field not in ("COMPLEX", "REAL"):
        raise ShapeMismatch(f"unknown field {field!r}")
    search = spectral.herm_eigenpair(h, seed=seed, field=field, tols=tols)
    if search.tuples and search.tuples[0].value < -tols.witTol:
        t = search.tuples[0]
        return PsdVerdict("NOT_PSD_WITNESS", field, witness=t.vectors, witness_value=t.value)
    hs = hsos_test(h, tols)
    if hs.is_hsos:
        return PsdVerdict("PSD_CERTIFIED", field, certificate=hs.certificate,
                          note="flattening psd (holomorphic sum of squares)")
    multiplier_ok, note = field == "COMPLEX", ""
    if field == "REAL":
        try:
            multiplier_ok = real_herm.is_real_decomposable(h, tols)[0]
        except RealityViolation:
            multiplier_ok = False
        note = ("real-decomposable: complex certificates transfer" if multiplier_ok
                else "not real-decomposable: complex certificates do not transfer")
    if multiplier_ok:
        m = h.order
        for total in range(1, effort + 1):
            for powers in itertools.product(range(total + 1), repeat=m):
                if sum(powers) != total:
                    continue
                try:
                    res = multiplier_hsos_test(h, powers, tols=tols)
                except BasisTooLarge:
                    continue
                if res.status == "MEMBER":
                    return PsdVerdict(
                        "PSD_CERTIFIED", field, certificate=res.certificate,
                        note=f"multiplier membership at powers {powers}" + (f"; {note}" if note else ""),
                    )
    return PsdVerdict("UNKNOWN", field, note=note)
