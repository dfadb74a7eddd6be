"""Separability of Hermitian tensors: verification, witnesses, search.

A tensor is separable when it is a sum of conjugate rank-1 products with
positive coefficients (an unentangled mixed state).  The separable cone
is dual to the psd cone, which gives the refutation route: any tensor B
with a holomorphic sum-of-squares certificate and <A, B> < 0 witnesses
that A is entangled.  Verification routes:

* an explicit positive decomposition re-assembled within tolerance;
* a Kronecker form of the flattening with psd blocks, spectrally split
  into a positive decomposition;
* for shape [2,2], Wootters' closed form, which decides separability of
  a psd tensor exactly (concurrence 0);
* an alternating least-squares search for positive rank-1 terms
  (a heuristic: UNKNOWN on failure, never a refutation).

Over the reals a certificate is split into the real and imaginary parts
of its vectors, which assembles P(assemble(d)) (``real_herm.real_form``),
and must then pass the same check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import core, flatten, linalg, psd_sos, real_herm, spectral
from .decomposition import HermitianDecomposition, fits, normalize
from .errors import BlockNotPsd, NotRealDecomposable, RealityViolation, ShapeMismatch, SymmetryViolation

SEARCH_STARTS = 8
SEARCH_ITERS = 200


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


def verify_positive_decomposition(
    d: HermitianDecomposition,
    a: core.HermitianTensor,
    field_name: str = "COMPLEX",
    tols: core.Tolerances = core.TOL,
) -> bool:
    """True iff d has positive coefficients and reassembles a within
    fitTol * norm(a) (real vectors required for the REAL field)."""
    core.check_field(field_name)
    if d.dims != a.dims:
        raise ShapeMismatch(f"shapes differ: {d.dims} vs {a.dims}")
    if any(lam <= 0.0 for lam, _ in d.terms):
        return False
    if field_name == "REAL" and any(np.any(v.imag != 0.0) for _, vs in d.terms for v in vs):
        return False
    return fits(d, a, tols.fitTol)


def psd_kron_verify(
    pk: PsdKronDecomp,
    a: core.HermitianTensor,
    tols: core.Tolerances = core.TOL,
) -> bool:
    """Blocks Hermitian (``symTol``) and psd (``eigTol``) by the rules of
    ``psd_kron_to_decomposition``, and its spectral split a positive
    decomposition of a (``verify_positive_decomposition``)."""
    if pk.dims != a.dims:
        raise ShapeMismatch(f"shapes differ: {pk.dims} vs {a.dims}")
    try:
        d = psd_kron_to_decomposition(pk, tols)
    except (SymmetryViolation, BlockNotPsd):
        return False
    return verify_positive_decomposition(d, a, tols=tols)


def psd_kron_to_decomposition(pk: PsdKronDecomp, tols: core.Tolerances = core.TOL) -> HermitianDecomposition:
    """Spectral split of every block into a positive decomposition
    (eigenvalues at most ``eigTol`` times the block's largest are dropped).
    A block must be Hermitian within ``symTol`` times its norm (else
    ``SymmetryViolation``); its Hermitian part is split."""
    terms = []
    for blocks in pk.terms:
        per_mode = []
        for b in blocks:
            core.check_hermitian(b, tols, "block")
            sd = linalg.herm_part_eig(b)
            if not sd.is_psd(tols.eigTol):
                raise BlockNotPsd(f"block has eigenvalue {sd.eigenvalues[0]:.3e}")
            per_mode.append([(w, linalg.phase_normalize(v)) for w, v in sd.kept(tols.eigTol)])
        for combo in itertools.product(*per_mode):
            terms.append((math.prod(w for w, _ in combo), tuple(v for _, v in combo)))
    return HermitianDecomposition(pk.dims, tuple(terms))


@dataclass(frozen=True)
class DualWitnessResult:
    status: str  # ENTANGLED_WITNESS | INCONCLUSIVE
    value: float
    certificate: psd_sos.GramCertificate | None = None
    relative: float = 0.0  # <a, b> / (norm(a) * norm(b)), 0 when either is zero


def dual_witness_check(
    a: core.HermitianTensor,
    b: core.HermitianTensor,
    tols: core.Tolerances = core.TOL,
) -> DualWitnessResult:
    """Duality refutation: b psd (flattening certificate) and <a, b> < 0
    (below ``-witTol * norm(a) * norm(b)``) prove a is not separable over
    either field.  That bound is taken on a and b scaled into the float
    range (``core._in_range``), where neither side underflows, and so is
    the scale-free ``relative`` value, which keeps its sign where ``value``
    underflows to zero or overflows."""
    if a.dims != b.dims:
        raise ShapeMismatch(f"shapes differ: {a.dims} vs {b.dims}")
    val = core.inner(a, b, tols)
    hs = psd_sos.hsos_test(b, tols)
    (sa, _), (sb, _) = core._in_range(a), core._in_range(b)
    ip, na, nb = core.inner(sa, sb, tols), core.norm(sa), core.norm(sb)
    rel = ip / (na * nb) if na and nb else 0.0
    if hs.status == "MEMBER" and ip < -tols.witTol * na * nb:
        return DualWitnessResult("ENTANGLED_WITNESS", val, hs.certificate, rel)
    return DualWitnessResult("INCONCLUSIVE", val, relative=rel)


def separable_search(
    a: core.HermitianTensor,
    r: int,
    seed: int,
    iters: int = SEARCH_ITERS,
    starts: int = SEARCH_STARTS,
    tols: core.Tolerances = core.TOL,
) -> SepVerdict:
    """Alternating fit of r positive rank-1 terms.

    Per sweep, each term's mode vectors are set to the top eigenvector of
    the residual contraction and the coefficients are refit by least
    squares, clamped positive.  All starts advance in lock-step, drawn
    from one PCG64 stream at ``seed``; a start stops once it fits within
    ``0.2 * fitTol``, and so do the starts after the first fitted one,
    which cannot win.  The result is that first fitted start, else the
    one with the smallest residual.  Certifies separability on success and
    returns UNKNOWN otherwise (refutation needs a dual witness), at once
    when the flattening rank (at ``rankTol``) exceeds r.  A tensor outside
    the float range of ``core._in_range`` is searched scaled, and its
    coefficients and residuals are scaled back.
    """
    if r < 1:
        raise ShapeMismatch("rank budget r must be >= 1")
    h, e = core._in_range(a)
    anorm = core.norm(h)
    if anorm == 0.0:
        return SepVerdict("SEPARABLE_CERTIFIED", decomposition=HermitianDecomposition(h.dims, ()),
                          note="zero tensor: empty positive decomposition")
    mrank = linalg.matrix_rank(h.mat, tols.rankTol)
    if r < mrank:
        return SepVerdict("UNKNOWN", note=f"flattening rank {mrank} exceeds the budget r={r}; "
                                          "no decomposition of that length exists")
    rng = np.random.Generator(np.random.PCG64(seed))
    # xs[k] holds mode k+1 of every start and term: (starts, r, n_k)
    xs = [np.zeros((starts, r, n), dtype=np.complex128) for n in h.dims]
    for s in range(starts):
        for i in range(r):
            for x, n in zip(xs, h.dims):
                x[s, i] = _random_unit(rng, n)
    lams = np.full((starts, r), anorm / r)
    zs = core.kron_vector(xs)
    res = np.full(starts, np.inf)
    act = np.arange(starts)  # starts still running, ascending
    first_ok = starts  # the lowest start that fit
    thresh = 0.2 * tols.fitTol * anorm
    for _ in range(iters):
        for i in range(r):
            others = lams[act]
            others[:, i] = 0.0
            res_arr = (h.mat - core._rank1_sum(others, zs[act])).reshape((len(act),) + h.dims * 2)
            for k, n in enumerate(h.dims):
                mk = spectral._mode_matrices(res_arr, [x[act, i] for x in xs], k + 1)
                sd = linalg.herm_part_eig(mk)
                v = sd.eigenvectors[:, :, -1]
                for j in np.flatnonzero(sd.eigenvalues[:, -1] <= 0):
                    v[j] = _random_unit(rng, n)
                xs[k][act, i] = v
            zs[act, i] = core.kron_vector([x[act, i] for x in xs])
        z = zs[act]
        gram = np.abs(z.conj() @ np.swapaxes(z, 1, 2)) ** 2
        rhs = np.real(np.einsum("bip,pq,biq->bi", z.conj(), h.mat, z))
        # pinv at the cutoff lstsq(rcond=None) uses
        sol = np.linalg.pinv(gram, rcond=np.finfo(float).eps * r) @ rhs[:, :, None]
        lams[act] = np.clip(sol[:, :, 0], core.ROUNDING * anorm, None)
        res[act] = np.linalg.norm(h.mat - core._rank1_sum(lams[act], z), axis=(1, 2))
        ok = res[act] <= thresh
        first_ok = min([first_ok, *act[ok]])
        act = act[~ok & (act < first_ok)]
        if not act.size:
            break
    pick = first_ok if first_ok < starts else int(np.argmin(res))
    return _fitted_verdict(a, np.ldexp(lams[pick], e), [x[pick] for x in xs], math.ldexp(res[pick], e), tols)


def _fitted_verdict(a, lams, xs, res, tols) -> SepVerdict:
    if np.isfinite(res):
        # every step of the search is blind to the phases of the vectors,
        # so they are normalized once, on the result
        vecs = [linalg.phase_normalize(x) for x in xs]
        best = HermitianDecomposition(
            a.dims, tuple((float(lams[j]), tuple(v[j] for v in vecs)) for j in range(len(lams)))
        )
        if verify_positive_decomposition(best, a, tols=tols):
            return SepVerdict("SEPARABLE_CERTIFIED", decomposition=best)
    return SepVerdict("UNKNOWN", note=f"best alternating-fit residual {res:.3e}")


def _random_unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def realify_decomposition(d: HermitianDecomposition) -> HermitianDecomposition:
    """Expand complex vectors into real/imaginary parts per mode.

    assemble(realify_decomposition(d)) = real_herm.real_form(assemble(d)),
    P of the assembled tensor, for any real coefficients: with v = x + iy,
    v v* = x x^T + y y^T + i (y x^T - x y^T), and P keeps the real part
    symmetrized in every mode, so each term becomes the product of its
    modes' x x^T + y y^T.  Coefficients keep their signs, and a vanished
    part contributes no term.
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


# sigma_y (x) sigma_y: z^T S z = -2 det(z as a 2x2 matrix), which is 0
# exactly when z is a product a (x) b
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
_HADAMARD = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0


def _apex(p: complex, q: complex, l1: float, l2: float) -> complex:
    """The point r left of p -> q with |r - p| = l1 and |q - r| = l2 (the
    height is clipped at 0 when no such triangle exists)."""
    d = abs(q - p)
    if d == 0.0:
        return p + l1
    x = (d * d + l1 * l1 - l2 * l2) / (2.0 * d)
    # the height from Heron's product, not from l1^2 - x^2: a side of
    # length 0 makes the product <= 0 exactly, so a flat triangle stays flat
    h = (l1 + l2 - d) * (d + l2 - l1) * (d + l1 - l2) * (d + l1 + l2)
    return p + (q - p) / d * complex(x, math.sqrt(max(h, 0.0)) / (2.0 * d))


def _closing_phases(s) -> np.ndarray:
    """Phases t with sum_j s_j e^{i t_j} = 0 for lengths s_0 >= ... >= s_3
    >= 0: the side directions of a closed quadrilateral 0 -> s_0 -> r1 ->
    r2 -> 0.  It exists iff s_0 <= s_1 + s_2 + s_3; beyond that the sides
    come out with the wrong lengths."""
    # |r1| may be any length in [s_2 - s_3, s_2 + s_3]; one in
    # [s_0 - s_1, s_0 + s_1] makes the triangle 0, s_0, r1 close as well
    c = min(max(s[0] - s[1], s[2] - s[3]), s[2] + s[3])
    r1 = _apex(s[0], 0.0, s[1], c)
    r2 = _apex(r1, 0.0, s[2], s[3])
    return np.angle(np.diff([0.0, s[0], r1, r2, 0.0]))


def _wootters(a: core.HermitianTensor, tols: core.Tolerances) -> HermitianDecomposition:
    """Wootters' product decomposition of a psd [2,2] tensor (Wootters,
    PRL 80, 2245, 1998): at most 4 product terms, which reassemble a iff
    its concurrence is 0, i.e. iff a is separable.

    With a = V V*, the Takagi factorization tau = V^T S V = U Sigma U^T
    gives columns y_j of Y = V conj(U) with Y Y* = a and y_i^T S y_j =
    sigma_j delta_ij.  Rotated by phases that close the polygon
    sum sigma_j e^{i t_j} = 0, every Hadamard combination of them has
    z^T S z = 0, hence is a product.
    """
    kept = linalg.herm_part_eig(a.mat).kept(tols.eigTol)
    if not kept:
        return HermitianDecomposition(a.dims, ())
    v = np.column_stack([math.sqrt(w) * x for w, x in kept])
    k = v.shape[1]
    tau = v.T @ _SPIN_FLIP @ v
    # an eigenpair (s > 0, [p; q]) of this real symmetric matrix gives
    # tau conj(u) = s u for u = p + iq, and those u are orthonormal; QR
    # completes them to a unitary whose extra columns have Takagi value 0
    sd = linalg.herm_part_eig(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    us = [e[:k] + 1j * e[k:] for s, e in sd.kept(tols.rankTol) if s > 0]
    u = np.linalg.qr(np.column_stack(us + [np.eye(k)]))[0]
    y = np.pad(v @ u.conj(), ((0, 0), (0, 4 - k)))
    d = np.einsum("pj,pq,qj->j", y, _SPIN_FLIP, y)  # sigma_j up to the phases QR chose
    order = np.argsort(-np.abs(d))
    t = _closing_phases(np.abs(d[order]))
    x = y[:, order] * np.exp(0.5j * (t - np.angle(d[order])))
    terms = [(1.0, tuple(linalg.rank1_factor(z.reshape(2, 2))[0])) for z in (x @ _HADAMARD).T]
    return normalize(HermitianDecomposition(a.dims, tuple(terms)))


def separability_pipeline(
    a: core.HermitianTensor,
    field_name: str = "COMPLEX",
    effort: int = 4,
    seed: int = 0,
    tols: core.Tolerances = core.TOL,
) -> SepVerdict:
    """Necessary checks, then a positive decomposition: in closed form on
    [2,2], else by search.

    (1) Separable tensors have psd flattenings; a negative flattening
    eigenvector q yields the auto-witness unflatten(q q*), built from the
    Hermitian part of q q* so that it is exactly Hermitian, which always
    carries its own psd certificate.  (2) Real separability additionally
    requires real decomposability.  (3) On shape [2,2], Wootters' closed
    form: a psd tensor of concurrence 0 gets at most 4 product terms.  A
    [2,2] tensor of positive concurrence is entangled, but no dual
    certificate is produced; it goes on to the search.  (4) Alternating
    search (``separable_search``) at rank budgets r = 1..effort, one at a
    time, each from seed + r; the first budget that certifies gives the
    certificate, and no larger budget runs.  Both (3) and (4)
    leave through ``_certify``: for REAL the terms are split into real and
    imaginary parts, then ``verify_positive_decomposition`` decides; a
    search certificate that fails it ends UNKNOWN.
    """
    core.check_field(field_name)
    hs = psd_sos.hsos_test(a, tols)
    if hs.status != "MEMBER":
        qq = np.outer(hs.eigenvector, hs.eigenvector.conj())
        b = flatten.hermitian_unflatten((qq + qq.conj().T) / 2.0, a.dims, tols)
        check = dual_witness_check(a, b, tols)
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
            real_herm.real_decomposable_array(a, tols)
        except (NotRealDecomposable, RealityViolation) as exc:
            return SepVerdict(
                "UNKNOWN", field_name,
                note=f"not real-Hermitian decomposable ({exc}); "
                     "hence not R-separable, but no dual certificate is produced",
            )
    if a.dims == (2, 2):
        d = _wootters(a, tols)
        note = f"concurrence 0: Wootters' closed form, {len(d)} product terms"
        if (found := _certify(a, d, field_name, note, tols)).status == "SEPARABLE_CERTIFIED":
            return found
    for r in range(1, max(1, effort) + 1):
        if (found := separable_search(a, r, seed + r, tols=tols)).status == "SEPARABLE_CERTIFIED":
            return _certify(a, found.decomposition, field_name, f"alternating search succeeded at r={r}", tols)
    return SepVerdict("UNKNOWN", field_name, note=f"search exhausted rank budgets 1..{effort}")


def _certify(a, d, field_name, note, tols) -> SepVerdict:
    """The pipeline's one certificate exit: d, split into real and
    imaginary parts for the REAL field, must pass
    ``verify_positive_decomposition``; else the verdict is UNKNOWN."""
    if field_name == "REAL":
        d = realify_decomposition(d)
    if verify_positive_decomposition(d, a, field_name, tols):
        return SepVerdict("SEPARABLE_CERTIFIED", field_name, decomposition=d, note=note)
    return SepVerdict("UNKNOWN", field_name,
                      note=f"{note}, but its {field_name} certificate fails the positive-decomposition check")
