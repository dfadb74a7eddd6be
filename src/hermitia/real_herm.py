"""Real Hermitian tensors: decomposability over the reals and constructions.

A real tensor admits a Hermitian decomposition with all-real vectors iff
its entries depend only on the unordered pairs {i_s, j_s} per mode.  The
subspace of such tensors has dimension prod n_k(n_k+1)/2 against
N(N+1)/2 for all real Hermitian tensors, so decomposability genuinely
fails for most real tensors.

``real_decompose`` follows the inductive construction behind that
characterization: slice the last mode into unordered pairs, recurse, and
lift each recovered term through the pair maps

    rho_{s,t}: [x1,...,x_{m-1}] ->
        1/2 [x..., e_s + e_t] - 1/2 [x..., e_s - e_t]   (s < t)
    rho_{s,s}: [x1,...,x_{m-1}] -> [x..., e_s].

For shape [2, 2] a congruence normal form gives decompositions of length
at most 5 (at most 4 when an end block is definite or both vanish).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, linalg
from .decomposition import HermitianDecomposition, residual
from .errors import ConstructionFailed, NotRealDecomposable, NotShape22, RealityViolation

SHIFT_EPS = 1e-6


def _real_array(h: core.HermitianTensor, tol: float) -> np.ndarray:
    dev = float(np.abs(h.mat.imag).max()) if h.mat.size else 0.0
    if dev > tol:
        raise RealityViolation(f"entries have imaginary parts up to {dev:.3e}")
    return h.mat.real.reshape(h.dims + h.dims)


def is_real_decomposable(h: core.HermitianTensor, tols: core.Tolerances = core.TOL):
    """Entry-symmetry test for real decomposability, at ``symTol``.

    Returns ``(True, None)`` or ``(False, (I, J, K, L))`` with the first
    two label pairs (lexicographic scan order) that share all unordered
    per-mode pairs {i_s, j_s} = {k_s, l_s} yet carry different entries.
    """
    arr = _real_array(h, tols.symTol)
    m = h.order
    # the first member of a group in scan order puts the smaller index of
    # every mode pair in I: compare each entry with that one
    idx = np.ogrid[tuple(slice(n) for n in h.dims + h.dims)]
    lo = [np.minimum(idx[s], idx[m + s]) for s in range(m)]
    hi = [np.maximum(idx[s], idx[m + s]) for s in range(m)]
    bad = np.abs(arr - arr[tuple(lo + hi)]) > tols.symTol
    if not bad.any():
        return True, None
    pos = np.unravel_index(int(np.argmax(bad)), bad.shape)
    I, J = tuple(int(i) + 1 for i in pos[:m]), tuple(int(j) + 1 for j in pos[m:])
    return False, (tuple(map(min, I, J)), tuple(map(max, I, J)), I, J)


def _witness_text(witness) -> str:
    """Label pairs ``(I, J, K, L)`` as ``IJ vs KL``, e.g. ``1122 vs 1221``."""
    def label(t):
        return "".join(str(x) for x in t) if all(x <= 9 for x in t) else ",".join(map(str, t))
    return " vs ".join(label(I) + label(J) for I, J in (witness[:2], witness[2:]))


def real_decomposable_array(h: core.HermitianTensor, tols: core.Tolerances = core.TOL) -> np.ndarray:
    """Real entry array, axes (i1..im, j1..jm), of a tensor that passes
    ``is_real_decomposable``, averaged over swapping i_s and j_s in every
    mode s, so that it is exactly real-decomposable.

    Raises ``NotRealDecomposable`` with the witness labels (``1122 vs
    1221``) when the test fails.
    """
    ok, witness = is_real_decomposable(h, tols)
    if not ok:
        raise NotRealDecomposable(_witness_text(witness))
    arr = _real_array(h, tols.symTol)
    m = h.order
    for s in range(m):
        arr = (arr + arr.swapaxes(s, m + s)) / 2.0
    return arr


def dim_RD(dims) -> int:
    """Dimension of the real-decomposable subspace: prod n_k(n_k+1)/2."""
    dims = core.check_dims(dims)
    out = 1
    for n in dims:
        out *= n * (n + 1) // 2
    return out


def dim_R(dims) -> int:
    """Dimension of all real Hermitian tensors: N(N+1)/2."""
    n = core.size_of(core.check_dims(dims))
    return n * (n + 1) // 2


def _unit(n: int, i: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.complex128)
    v[i] = 1.0
    return v


def _decompose_recursive(arr: np.ndarray, dims: tuple[int, ...]):
    m = len(dims)
    if m == 1:
        sd = linalg.herm_eig(arr.astype(np.complex128))
        top = float(np.abs(sd.eigenvalues).max())
        if top == 0.0:
            return []
        keep = np.abs(sd.eigenvalues) > 1e-12 * top
        return [
            (float(w), [sd.eigenvectors[:, i].real.astype(np.complex128)])
            for i, w in enumerate(sd.eigenvalues)
            if keep[i]
        ]
    nm = dims[-1]
    terms = []
    for s in range(nm):
        for t in range(s, nm):
            # slice over the last mode's (hol, conj) pair
            b = np.take(np.take(arr, s, axis=m - 1), t, axis=2 * m - 2)
            for lam, vectors in _decompose_recursive(b, dims[:-1]):
                if t == s:
                    terms.append((lam, vectors + [_unit(nm, s)]))
                else:
                    terms.append((lam / 2.0, vectors + [_unit(nm, s) + _unit(nm, t)]))
                    terms.append((-lam / 2.0, vectors + [_unit(nm, s) - _unit(nm, t)]))
    return terms


def real_decompose(h: core.HermitianTensor, tols: core.Tolerances = core.TOL) -> HermitianDecomposition:
    """Constructive all-real decomposition of a real-decomposable tensor.

    The recursion yields at most prod n_k(n_k+1) terms; no attempt at
    minimal length is made (compare against the flattening lower bound
    to see the gap).  It decomposes ``real_decomposable_array(h)``; the
    residual against ``h`` must stay within ``rdTol * norm(h)``.
    """
    arr = real_decomposable_array(h, tols)
    terms = tuple((lam, tuple(vs)) for lam, vs in _decompose_recursive(arr, h.dims))
    d = HermitianDecomposition(h.dims, terms)
    res = residual(d, h)
    if res > tols.rdTol * max(core.norm(h), 1e-300):
        raise ConstructionFailed(f"real decomposition residual {res:.3e} above tolerance")
    return d


@dataclass(frozen=True)
class NormalForm22:
    """Congruence normal form of a real-decomposable [2,2] tensor.

    The mode matrices (P, Q) bring the flattening to
    [[s I, D], [D, s Btilde]] - s [[u u^T, 0], [0, 0]] with s in
    {0, 1, -1} and D diagonal; u = 0 whenever an end block of the input
    is definite (or both end blocks vanish).
    """

    P: np.ndarray
    Q: np.ndarray
    s: int
    D: np.ndarray
    u: np.ndarray
    Btilde: np.ndarray


def _sym_eig2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sd = linalg.herm_eig(a.astype(np.complex128))
    return sd.eigenvalues, sd.eigenvectors.real


def normal_form_22(h: core.HermitianTensor, tols: core.Tolerances = core.TOL) -> NormalForm22:
    """Normal form under mode congruences, following the constructive cases.

    Case A = B = 0 rotates C to diagonal (s = 0).  Otherwise a definite
    end block is preferred (shift v = 0); an indefinite one is shifted by
    v v^T along its most negative eigendirection, whitened to the
    identity, and the middle block rotated to diagonal.  A negative
    semidefinite target is handled on the negated tensor (s = -1).  The
    blocks come from ``real_decomposable_array(h)``; the normal form must
    reproduce ``h`` within ``nfTol``.
    """
    if h.dims != (2, 2):
        raise NotShape22(f"expected shape (2, 2), got {h.dims}")
    m = real_decomposable_array(h, tols).reshape(4, 4)
    A, B, C = m[:2, :2], m[2:, 2:], m[:2, 2:]  # the flattening is [[A, C], [C, B]]
    scale = max(1.0, float(np.abs(h.mat).max()))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)

    if np.abs(A).max() <= 1e-12 * scale and np.abs(B).max() <= 1e-12 * scale:
        w, v = _sym_eig2(C)
        q = v.T
        nf = NormalForm22(eye, q, 0, np.diag(w), np.zeros(2), np.zeros((2, 2)))
        _check_normal_form(h, nf, tols)
        return nf

    # choose the end block to normalize: prefer a definite one, otherwise
    # the one with the strongest definite side (better-conditioned shift)
    def definiteness(x):
        w, _ = _sym_eig2(x)
        if w[0] > 1e-10 * scale:
            return 1
        if w[1] < -1e-10 * scale:
            return -1
        return 0

    def score(x):
        w, _ = _sym_eig2(x)
        return max(w[1], -w[0])

    if definiteness(A) != 0:
        use_b = False
    elif definiteness(B) != 0:
        use_b = True
    else:
        use_b = score(B) > score(A)
    p_mat = swap if use_b else eye
    a_blk = B if use_b else A
    b_blk = A if use_b else B
    c_blk = C

    wa, va = _sym_eig2(a_blk)
    if wa[1] < -1e-10 * scale or (wa[1] <= 1e-10 * scale and wa[0] < 0):
        # negative semidefinite target: normalize the negated tensor
        s = -1
        a_blk, b_blk, c_blk = -a_blk, -b_blk, -c_blk
        wa, va = _sym_eig2(a_blk)
    else:
        s = 1

    if wa[0] > 1e-10 * scale:
        v_shift = np.zeros(2)
    else:
        # shift past singularity by the block's own positive spread so the
        # whitening stays well conditioned
        margin = max(SHIFT_EPS * scale, float(wa[1]))
        v_shift = np.sqrt(margin + max(0.0, -wa[0])) * va[:, 0]
    g = a_blk + np.outer(v_shift, v_shift)
    wg, vg = _sym_eig2(g)
    if wg[0] <= 0:
        raise ConstructionFailed("definitizing shift failed to produce a positive block")
    u_whiten = (vg / np.sqrt(wg)).T  # U G U^T = I
    c2 = u_whiten @ c_blk @ u_whiten.T
    wd, vd = _sym_eig2((c2 + c2.T) / 2.0)
    v_rot = vd.T
    q = v_rot @ u_whiten
    u_vec = q @ v_shift
    btilde = q @ b_blk @ q.T
    # for s = -1 the construction ran on the negated tensor, so the middle
    # block of the original flattening is the negated rotation result
    nf = NormalForm22(p_mat, q, s, np.diag(s * wd), u_vec, btilde)
    _check_normal_form(h, nf, tols)
    return nf


def _normal_form_matrix(nf: NormalForm22) -> np.ndarray:
    top = np.hstack([nf.s * np.eye(2) - nf.s * np.outer(nf.u, nf.u), nf.D])
    bot = np.hstack([nf.D, nf.s * nf.Btilde])
    return np.vstack([top, bot])


def _check_normal_form(h: core.HermitianTensor, nf: NormalForm22, tols: core.Tolerances):
    got = core.congruent([nf.P.astype(complex), nf.Q.astype(complex)], h, tols).mat.real
    want = _normal_form_matrix(nf)
    dev = float(np.abs(got - want).max())
    if dev > tols.nfTol * max(1.0, float(np.abs(want).max())):
        raise ConstructionFailed(f"normal form reconstruction off by {dev:.3e}")


def real_decompose_22(h: core.HermitianTensor, tols: core.Tolerances = core.TOL) -> HermitianDecomposition:
    """Length <= 5 real decomposition of a real-decomposable [2,2] tensor.

    Uses the normal form: four explicit terms when s = 0, five (four if
    u = 0) otherwise, pulled back through the inverse congruence.
    """
    nf = normal_form_22(h, tols)
    d1, d2 = float(nf.D[0, 0]), float(nf.D[1, 1])
    e1, e2 = _unit(2, 0), _unit(2, 1)
    terms = []
    if nf.s == 0:
        one = np.array([1.0, 1.0], dtype=np.complex128)
        alt = np.array([1.0, -1.0], dtype=np.complex128)
        for dk, ek in ((d1, e1), (d2, e2)):
            if dk != 0.0:
                terms.append((dk / 2.0, (one, ek)))
                terms.append((-dk / 2.0, (alt, ek)))
    else:
        s = float(nf.s)
        e_mat = s * nf.Btilde - s * np.diag([d1 * d1, d2 * d2])
        we, ve = _sym_eig2((e_mat + e_mat.T) / 2.0)
        terms.append((s, (np.array([1.0, s * d1], dtype=np.complex128), e1)))
        terms.append((s, (np.array([1.0, s * d2], dtype=np.complex128), e2)))
        for i in range(2):
            if abs(we[i]) > 1e-14 * max(1.0, float(np.abs(we).max())):
                terms.append((float(we[i]), (e2, ve[:, i].astype(np.complex128))))
        if float(np.linalg.norm(nf.u)) > 0.0:
            terms.append((-s, (e1, nf.u.astype(np.complex128))))
    p_inv = np.linalg.inv(nf.P)
    q_inv = np.linalg.inv(nf.Q)
    pulled = tuple(
        (lam, (p_inv.astype(np.complex128) @ x1, q_inv.astype(np.complex128) @ x2))
        for lam, (x1, x2) in terms
    )
    d = HermitianDecomposition(h.dims, pulled)
    res = residual(d, h)
    if res > tols.rdTol * max(core.norm(h), 1e-300):
        raise ConstructionFailed(f"[2,2] decomposition residual {res:.3e} above tolerance")
    return d
