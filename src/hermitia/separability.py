"""Separability of Hermitian tensors: verification, witnesses, search.

A tensor is separable when it is a sum of conjugate rank-1 products with
positive coefficients (an unentangled mixed state).  The separable cone
is dual to the psd cone, which gives the refutation route: any tensor B
with a holomorphic sum-of-squares certificate and <A, B> < 0 witnesses
that A is entangled.  Verification routes:

* an explicit positive decomposition re-assembled within tolerance;
* a Kronecker form of the flattening with psd blocks, spectrally split
  into a positive decomposition;
* an alternating least-squares search for positive rank-1 terms
  (a heuristic: UNKNOWN on failure, never a refutation).

For real-decomposable tensors a complex separability certificate
transfers to the real field by expanding every vector into its real and
imaginary parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import core, flatten, linalg, psd_sos, real_herm, spectral
from .decomposition import HermitianDecomposition, residual
from .errors import BlockNotPsd, RealityViolation, ShapeMismatch

SEP_TOL = 1e-7
WIT_TOL = psd_sos.WIT_TOL


@dataclass(frozen=True)
class SepVerdict:
    status: str  # SEPARABLE_CERTIFIED | ENTANGLED_WITNESS | UNKNOWN
    field: str = "COMPLEX"
    decomposition: HermitianDecomposition | None = None
    witness: core.HermitianTensor | None = None
    witness_certificate: psd_sos.GramCertificate | None = None
    witness_value: float | None = None
    note: str = ""


@dataclass(frozen=True)
class PsdKronDecomp:
    """Terms of Kronecker products of psd blocks, one block per mode."""

    dims: tuple[int, ...]
    terms: tuple[tuple[np.ndarray, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        dims = core.check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        cooked = []
        for blocks in self.terms:
            if len(blocks) != len(dims):
                raise ShapeMismatch(f"term has {len(blocks)} blocks for order {len(dims)}")
            bs = []
            for b, n in zip(blocks, dims):
                b = np.asarray(b, dtype=np.complex128)
                if b.shape != (n, n):
                    raise ShapeMismatch(f"block shape {b.shape} does not match mode size {n}")
                bs.append(b)
            cooked.append(tuple(bs))
        object.__setattr__(self, "terms", tuple(cooked))

    def flattening_sum(self) -> np.ndarray:
        n = core.size_of(self.dims)
        out = np.zeros((n, n), dtype=np.complex128)
        for blocks in self.terms:
            acc = np.ones((1, 1), dtype=np.complex128)
            for b in blocks:
                acc = np.kron(acc, b)
            out += acc
        return out


def _vectors_real(vectors) -> bool:
    return all(bool(np.all(v.imag == 0.0)) for v in vectors)


def verify_positive_decomposition(
    d: HermitianDecomposition,
    a: core.HermitianTensor,
    field_name: str = "COMPLEX",
    sep_tol: float = SEP_TOL,
) -> bool:
    """True iff d has positive coefficients and reassembles a within
    sep_tol * norm(a) (real vectors required for the REAL field)."""
    if d.dims != a.dims:
        raise ShapeMismatch(f"shapes differ: {d.dims} vs {a.dims}")
    if any(lam <= 0.0 for lam, _ in d.terms):
        return False
    if field_name == "REAL" and not all(_vectors_real(vs) for _, vs in d.terms):
        return False
    return residual(d, a) <= sep_tol * max(core.norm(a), 1e-300)


def psd_kron_verify(
    pk: PsdKronDecomp,
    a: core.HermitianTensor,
    sep_tol: float = SEP_TOL,
    eig_tol: float = linalg.EIG_TOL,
) -> bool:
    """Blocks psd and the Kronecker-product sum equal to the flattening."""
    if pk.dims != a.dims:
        raise ShapeMismatch(f"shapes differ: {pk.dims} vs {a.dims}")
    for blocks in pk.terms:
        for b in blocks:
            if float(np.abs(b - b.conj().T).max()) > core.SYM_TOL:
                return False
            wmin = linalg.herm_eig(b).eigenvalues[0]
            if wmin < -eig_tol * max(1.0, float(np.linalg.norm(b))):
                return False
    target = flatten.hermitian_flatten(a).mat
    dev = float(np.linalg.norm(pk.flattening_sum() - target))
    return dev <= sep_tol * max(float(np.linalg.norm(target)), 1e-300)


def psd_kron_to_decomposition(pk: PsdKronDecomp, eig_tol: float = linalg.EIG_TOL) -> HermitianDecomposition:
    """Spectral split of every block into a positive decomposition."""
    terms = []
    for blocks in pk.terms:
        per_mode = []
        for b in blocks:
            sd = linalg.herm_eig((b + np.asarray(b).conj().T) / 2.0)
            scale = max(1.0, float(np.abs(sd.eigenvalues).max()))
            if sd.eigenvalues[0] < -eig_tol * scale:
                raise BlockNotPsd(f"block has eigenvalue {sd.eigenvalues[0]:.3e}")
            pairs = [
                (float(w), linalg.phase_normalize(sd.eigenvectors[:, i]))
                for i, w in enumerate(sd.eigenvalues)
                if w > eig_tol * scale
            ]
            per_mode.append(pairs)
        for combo in itertools.product(*per_mode):
            lam = 1.0
            vecs = []
            for w, v in combo:
                lam *= w
                vecs.append(v)
            terms.append((lam, tuple(vecs)))
    return HermitianDecomposition(pk.dims, tuple(terms))


@dataclass(frozen=True)
class DualWitnessResult:
    status: str  # ENTANGLED_WITNESS | INCONCLUSIVE
    value: float
    certificate: psd_sos.GramCertificate | None = None


def dual_witness_check(
    a: core.HermitianTensor,
    b: core.HermitianTensor,
    wit_tol: float = WIT_TOL,
) -> DualWitnessResult:
    """Duality refutation: b psd (flattening certificate) and <a, b> < 0
    prove a is not separable over either field."""
    if a.dims != b.dims:
        raise ShapeMismatch(f"shapes differ: {a.dims} vs {b.dims}")
    val = core.inner(a, b)
    hs = psd_sos.hsos_test(b)
    if hs.is_hsos and val < -wit_tol:
        return DualWitnessResult("ENTANGLED_WITNESS", val, hs.certificate)
    return DualWitnessResult("INCONCLUSIVE", val)


def _mode_matrix_of_residual(res_mat: np.ndarray, dims, vectors, k: int) -> np.ndarray:
    h = core.HermitianTensor(dims, (res_mat + res_mat.conj().T) / 2.0)
    return spectral.mode_matrix(h, vectors, k)


def separable_search(
    a: core.HermitianTensor,
    r: int,
    seed: int,
    iters: int = 200,
    starts: int = 8,
    sep_tol: float = SEP_TOL,
) -> SepVerdict:
    """Alternating fit of r positive rank-1 terms.

    Per sweep, each term's mode vectors are set to the top eigenvector of
    the residual contraction and the coefficients are refit by least
    squares, clamped positive.  Certifies separability on success and
    returns UNKNOWN otherwise (refutation needs a dual witness).
    """
    if r < 1:
        raise ShapeMismatch("rank budget r must be >= 1")
    anorm = core.norm(a)
    if anorm <= 1e-14:
        return SepVerdict("SEPARABLE_CERTIFIED", decomposition=HermitianDecomposition(a.dims, ()),
                          note="zero tensor: empty positive decomposition")
    mrank = linalg.matrix_rank(a.mat)
    if mrank > r:
        return SepVerdict("UNKNOWN",
                          note=f"flattening rank {mrank} exceeds the budget r={r}; "
                               "no decomposition of that length exists")
    rng = np.random.Generator(np.random.PCG64(seed))
    best = None
    best_res = np.inf
    for _ in range(starts):
        vecs = [
            tuple(_random_unit(rng, n) for n in a.dims)
            for _ in range(r)
        ]
        lams = np.full(r, anorm / max(r, 1))
        zs = [core.kron_vector(v) for v in vecs]
        res = np.inf
        for _ in range(iters):
            for i in range(r):
                res_mat = a.mat - sum(
                    lams[j] * np.outer(zs[j], zs[j].conj()) for j in range(r) if j != i
                )
                for k in range(1, a.order + 1):
                    mk = _mode_matrix_of_residual(res_mat, a.dims, vecs[i], k)
                    w, v = linalg.dominant_eigvec(mk, largest=True)
                    if w <= 0:
                        v = _random_unit(rng, a.dims[k - 1])
                    v = linalg.phase_normalize(v)
                    vecs[i] = vecs[i][: k - 1] + (v / np.linalg.norm(v),) + vecs[i][k:]
                zs[i] = core.kron_vector(vecs[i])
            gram = np.abs(np.array([[np.vdot(zi, zj) for zj in zs] for zi in zs])) ** 2
            rhs = np.array([float(np.real(np.vdot(zi, a.mat @ zi))) for zi in zs])
            sol, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
            lams = np.clip(sol, 1e-12, None)
            res = float(
                np.linalg.norm(a.mat - sum(lams[j] * np.outer(zs[j], zs[j].conj()) for j in range(r)))
            )
            if res <= 0.2 * sep_tol * anorm:
                break
        if res < best_res:
            best_res = res
            best = HermitianDecomposition(
                a.dims, tuple((float(lams[j]), vecs[j]) for j in range(r))
            )
        if best_res <= 0.2 * sep_tol * anorm:
            break
    if best is not None and verify_positive_decomposition(best, a, sep_tol=sep_tol):
        return SepVerdict("SEPARABLE_CERTIFIED", decomposition=best)
    return SepVerdict("UNKNOWN", note=f"best alternating-fit residual {best_res:.3e}")


def _random_unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def realify_decomposition(d: HermitianDecomposition) -> HermitianDecomposition:
    """Expand complex vectors into real/imaginary parts per mode.

    For positive coefficients this preserves the assembled tensor on the
    real-decomposable subspace, turning a complex positive decomposition
    of a real-decomposable tensor into a real one (terms with a vanished
    part are dropped).
    """
    terms = []
    for lam, vectors in d.terms:
        parts_per_mode = []
        for v in vectors:
            opts = []
            if float(np.linalg.norm(v.real)) > 0.0:
                opts.append(v.real.astype(np.complex128))
            if float(np.linalg.norm(v.imag)) > 0.0:
                opts.append(v.imag.astype(np.complex128))
            parts_per_mode.append(opts)
        for combo in itertools.product(*parts_per_mode):
            terms.append((lam, tuple(combo)))
    return HermitianDecomposition(d.dims, tuple(terms))


def separability_pipeline(
    a: core.HermitianTensor,
    field_name: str = "COMPLEX",
    effort: int = 4,
    seed: int = 0,
    iters: int = 200,
    sep_tol: float = SEP_TOL,
    wit_tol: float = WIT_TOL,
) -> SepVerdict:
    """Necessary checks, then a positive-decomposition search.

    (1) Separable tensors have psd flattenings; a negative flattening
    eigenvector q yields the auto-witness unflatten(q q*), which always
    carries its own psd certificate.  (2) Real separability additionally
    requires real decomposability.  (3) Alternating search at rank
    budgets 1..effort; a complex certificate of a real-decomposable
    tensor transfers to the real field by vector splitting.
    """
    if field_name not in ("COMPLEX", "REAL"):
        raise ShapeMismatch(f"unknown field {field_name!r}")
    hs = psd_sos.hsos_test(a)
    if not hs.is_hsos:
        q = hs.eigenvector
        b = flatten.hermitian_unflatten(np.outer(q, q.conj()), a.dims)
        check = dual_witness_check(a, b, wit_tol=wit_tol)
        if check.status == "ENTANGLED_WITNESS":
            return SepVerdict(
                "ENTANGLED_WITNESS", field_name, witness=b,
                witness_certificate=check.certificate, witness_value=check.value,
                note="flattening not psd; witness from its negative eigenvector",
            )
        return SepVerdict("UNKNOWN", field_name,
                          note="flattening not psd but the auto-witness value is not "
                               "strictly negative at tolerance")
    if field_name == "REAL":
        try:
            ok, witness = real_herm.is_real_decomposable(a)
        except RealityViolation:
            ok, witness = False, None
        if not ok:
            return SepVerdict(
                "UNKNOWN", field_name,
                note=f"not real-Hermitian decomposable (witness {witness}); "
                     "hence not R-separable, but no dual certificate is produced",
            )
    for r in range(1, max(1, effort) + 1):
        found = separable_search(a, r, seed=seed + r, iters=iters, sep_tol=sep_tol)
        if found.status != "SEPARABLE_CERTIFIED":
            continue
        if field_name == "REAL":
            realified = realify_decomposition(found.decomposition)
            if verify_positive_decomposition(realified, a, "REAL", sep_tol=sep_tol):
                return SepVerdict("SEPARABLE_CERTIFIED", "REAL", decomposition=realified,
                                  note=f"complex certificate at r={r} transferred by vector splitting")
            continue
        return SepVerdict("SEPARABLE_CERTIFIED", "COMPLEX", decomposition=found.decomposition,
                          note=f"alternating search succeeded at r={r}")
    return SepVerdict("UNKNOWN", field_name, note=f"search exhausted rank budgets 1..{effort}")
