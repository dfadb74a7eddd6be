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
    conjugates.  ``residual`` is the largest coefficient mismatch of the
    reconstructed polynomial.
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


def _var_offsets(dims):
    total = sum(dims)
    offs = []
    acc = 0
    for n in dims:
        offs.append(acc)
        acc += n
    return offs, total


def hol_basis(dims) -> tuple[tuple[int, ...], ...]:
    """Degree-(1, ..., 1) holomorphic monomials x_{1,i_1} ... x_{m,i_m},
    ordered like the multi-index enumeration."""
    dims = core.check_dims(dims)
    offs, total = _var_offsets(dims)
    out = []
    for index in core.multi_indices(dims):
        e = [0] * (2 * total)
        for k, i in enumerate(index):
            e[offs[k] + i - 1] = 1
        out.append(tuple(e))
    return tuple(out)


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


# ---------------------------------------------------------------------------
# CSOS: Gram feasibility over the mixed basis


def csos_basis(dims) -> tuple[tuple[int, ...], ...]:
    """Kronecker basis (x_1, conj x_1) (x) ... (x) (x_m, conj x_m)."""
    dims = core.check_dims(dims)
    offs, total = _var_offsets(dims)
    per_mode = []
    for k, n in enumerate(dims):
        mode = []
        for i in range(n):
            mode.append((0, offs[k] + i))  # x_{k,i}
        for i in range(n):
            mode.append((1, offs[k] + i))  # conj(x_{k,i})
        per_mode.append(mode)
    out = []
    for combo in itertools.product(*per_mode):
        e = [0] * (2 * total)
        for typ, pos in combo:
            e[pos + (total if typ else 0)] += 1
        out.append(tuple(e))
    return tuple(out)


@lru_cache(maxsize=32)
def _csos_structure(dims: tuple[int, ...]):
    """Constraint structure of the CSOS Gram problem for a shape.

    Returns (group ids per Gram entry, group sizes, per-group position
    into the flattening for the target coefficient, -1 for monomials
    absent from any Hermitian tensor polynomial).
    """
    dims = core.check_dims(dims)
    n = core.size_of(dims)
    per_mode = []
    for nk in dims:
        mode = [(0, i) for i in range(nk)] + [(1, i) for i in range(nk)]
        per_mode.append(mode)
    factors = list(itertools.product(*per_mode))  # factors[p][k] = (typ, idx)
    K = len(factors)
    key_to_gid: dict[tuple, int] = {}
    gids = np.empty(K * K, dtype=np.int64)
    targets_pos: list[int] = []
    sizes: list[int] = []
    for p in range(K):
        fp = factors[p]
        for q in range(K):
            fq = factors[q]
            key = []
            for k in range(len(dims)):
                tp, ip = fp[k]
                a = (1 - tp, ip)  # conjugation flips the type
                b = fq[k]
                key.append((a, b) if a <= b else (b, a))
            key = tuple(key)
            gid = key_to_gid.get(key)
            if gid is None:
                gid = len(sizes)
                key_to_gid[key] = gid
                sizes.append(0)
                # mixed monomial (one x, one conj(x)) per mode carries a
                # tensor coefficient: x index -> j_k, conj index -> i_k
                mixed = all(fa[0] != fb[0] for fa, fb in key)
                if mixed:
                    row = 0
                    col = 0
                    for k, (fa, fb) in enumerate(key):
                        a_idx = fa[1] if fa[0] == 0 else fb[1]  # x index (j_k)
                        b_idx = fa[1] if fa[0] == 1 else fb[1]  # conj index (i_k)
                        row = row * dims[k] + b_idx
                        col = col * dims[k] + a_idx
                    targets_pos.append(row * n + col)
                else:
                    targets_pos.append(-1)
            sizes[gid] += 1
            gids[p * K + q] = gid
    return gids, np.asarray(sizes, dtype=np.float64), np.asarray(targets_pos, dtype=np.int64)


def _csos_targets(h: core.HermitianTensor, targets_pos: np.ndarray) -> np.ndarray:
    flat = h.mat.reshape(-1)
    out = np.zeros(targets_pos.shape[0], dtype=np.complex128)
    mask = targets_pos >= 0
    out[mask] = flat[targets_pos[mask]]
    return out


def _group_sums(w: np.ndarray, gids: np.ndarray, ngroups: int) -> np.ndarray:
    flat = w.reshape(-1)
    re = np.bincount(gids, weights=flat.real, minlength=ngroups)
    im = np.bincount(gids, weights=flat.imag, minlength=ngroups)
    return re + 1j * im


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
    gids, sizes, targets_pos = _csos_structure(h.dims)
    ngroups = sizes.shape[0]
    targets = _csos_targets(h, targets_pos)
    K = int(round(math.sqrt(gids.shape[0])))

    def affine(w):
        sums = _group_sums(w, gids, ngroups)
        corr = (targets - sums) / sizes
        out = w + corr[gids].reshape(K, K)
        return (out + out.conj().T) / 2.0

    def coeff_residual(w):
        sums = _group_sums(w, gids, ngroups)
        return float(np.abs(sums - targets).max())

    w = affine(np.zeros((K, K), dtype=np.complex128))
    basis = csos_basis(h.dims)
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


def _mode_monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the given total degree in n variables,
    graded-lexicographically ordered (leading variable first)."""
    out = [
        exps
        for exps in itertools.product(range(degree + 1), repeat=n)
        if sum(exps) == degree
    ]
    out.sort(reverse=True)
    return out


def _multinomial(exps) -> float:
    out = math.factorial(sum(exps))
    for e in exps:
        out //= math.factorial(e)
    return float(out)


def multiplier_basis(dims, powers) -> list[tuple[tuple[int, ...], ...]]:
    """Holomorphic basis of per-mode degrees (k_1 + 1, ..., k_m + 1)."""
    per_mode = [_mode_monomials(n, k + 1) for n, k in zip(dims, powers)]
    return [tuple(combo) for combo in itertools.product(*per_mode)]


def multiplier_hsos_test(
    h: core.HermitianTensor,
    powers,
    iters: int = CSOS_ITERS,
    basis_cap: int = BASIS_CAP,
    tols: core.Tolerances = core.TOL,
) -> OmegaResult:
    """Membership test for the multiplier cone with the given powers.

    Forms |x_1|^{2k_1} ... |x_m|^{2k_m} H(x, conj(x)) and checks whether
    its Gram matrix over the multidegree-(k+1) holomorphic basis is psd
    (at ``eigTol``).  Over the full holomorphic basis the matching
    constraints pin W down uniquely (one Gram entry per monomial pair), so
    the feasibility search degenerates to a single psd check and ``iters``
    is never consumed; the coefficient extraction is an exact convolution
    of exponent tuples and the certificate residual is zero by construction.
    """
    dims = h.dims
    powers = tuple(int(k) for k in powers)
    if len(powers) != len(dims) or any(k < 0 for k in powers):
        raise ShapeMismatch(f"powers {powers} do not match shape {dims}")
    per_mode = [_mode_monomials(n, k + 1) for n, k in zip(dims, powers)]
    bsize = 1
    for mode in per_mode:
        bsize *= len(mode)
    if bsize > basis_cap:
        raise BasisTooLarge(f"basis size {bsize} exceeds cap {basis_cap}")

    # per-mode factor: F[i, j, p, q] = multinomial(alpha) when
    # beta_q - e_j = beta_p - e_i = alpha >= 0 entrywise, else 0
    fs = []
    for k, n in enumerate(dims):
        mons = per_mode[k]
        b = len(mons)
        f = np.zeros((n, n, b, b))
        for p, bp in enumerate(mons):
            for q, bq in enumerate(mons):
                for i in range(n):
                    if bp[i] == 0:
                        continue
                    alpha = list(bp)
                    alpha[i] -= 1
                    for j in range(n):
                        if bq[j] == 0:
                            continue
                        beta = list(bq)
                        beta[j] -= 1
                        if alpha == beta:
                            f[i, j, p, q] = _multinomial(alpha)
        fs.append(f)

    m = len(dims)
    letters = "abcdefghijkl"[: 2 * m]
    pq = "mnopqrstuvwx"[: 2 * m]
    in1 = letters
    operands = [h.as_array()]
    subs = [in1]
    for k in range(m):
        subs.append(letters[k] + letters[m + k] + pq[k] + pq[m + k])
        operands.append(fs[k])
    out = pq[:m] + pq[m:]
    w = np.einsum(",".join(subs) + "->" + out, *operands).reshape(bsize, bsize)
    w = (w + w.conj().T) / 2.0

    offs, total = _var_offsets(dims)
    basis = []
    for combo in multiplier_basis(dims, powers):
        e = [0] * (2 * total)
        for k, exps in enumerate(combo):
            for i, cnt in enumerate(exps):
                e[offs[k] + i] = cnt
        basis.append(tuple(e))

    sd = linalg.herm_eig(w)
    wmin = float(sd.eigenvalues[0])
    scale = max(1.0, float(np.linalg.norm(w)))
    if wmin >= -tols.eigTol * scale:
        cert = GramCertificate(dims, tuple(basis), w, 0.0)
        return OmegaResult("MEMBER", powers, cert, wmin)
    return OmegaResult("UNKNOWN", powers, None, wmin)


def gram_reconstruct_residual(h: core.HermitianTensor, cert: GramCertificate) -> float:
    """Largest coefficient mismatch between the Gram form and the tensor.

    Expands b(x)^* W b(x) into monomial coefficients and compares with
    the conjugate polynomial of ``h`` (after clearing the certificate's
    own multiplier, which must divide evenly); monomials outside the
    tensor's support must cancel.
    """
    total = sum(h.dims)
    acc: dict[tuple, complex] = {}
    basis = cert.basis
    for p, bp in enumerate(basis):
        xp = np.array(bp[:total])
        cp = np.array(bp[total:])
        for q, bq in enumerate(basis):
            if cert.W[p, q] == 0:
                continue
            xq = np.array(bq[:total])
            cq = np.array(bq[total:])
            hol = tuple(xq + cp)
            anti = tuple(cq + xp)
            key = (hol, anti)
            acc[key] = acc.get(key, 0.0) + cert.W[p, q]

    offs, _ = _var_offsets(h.dims)
    target: dict[tuple, complex] = {}
    indices = core.multi_indices(h.dims)
    # the certificate may cover a multiplied polynomial: detect per-mode
    # extra degree and convolve the tensor coefficients accordingly
    deg = [0] * len(h.dims)
    if basis:
        b0 = np.array(basis[0][:total]) + np.array(basis[0][total:])
        for k, n in enumerate(h.dims):
            deg[k] = int(b0[offs[k]: offs[k] + n].sum()) - 1
    mults = [_mode_monomials(n, d) for n, d in zip(h.dims, deg)]
    for I in indices:
        for J in indices:
            coeff = h.entry(I, J)
            if coeff == 0:
                continue
            for combo in itertools.product(*mults):
                weight = 1.0
                hol = [0] * total
                anti = [0] * total
                for k, alpha in enumerate(combo):
                    weight *= _multinomial(alpha)
                    for i, cnt in enumerate(alpha):
                        hol[offs[k] + i] += cnt
                        anti[offs[k] + i] += cnt
                    hol[offs[k] + J[k] - 1] += 1
                    anti[offs[k] + I[k] - 1] += 1
                key = (tuple(hol), tuple(anti))
                target[key] = target.get(key, 0.0) + weight * coeff
    keys = set(acc) | set(target)
    return max(abs(acc.get(k, 0.0) - target.get(k, 0.0)) for k in keys) if keys else 0.0


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
