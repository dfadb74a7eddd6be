"""Seeded corpus of HTEN inputs whose correct verdicts are known by construction.

Uses numpy only.  Every input class is assembled from explicit parts, so the
truth of each property below follows from the construction, not from running
the program:

``nonpsd``
    A separable tensor minus a multiple of a real rank-1 direction ``[u]``
    chosen so that H(u, conj u) = -1/2: not PSD over either field.
``sep``
    A sum of ``r`` rank-1 terms with positive coefficients (complex vectors,
    or real vectors for ``sep-real``; nearly collinear ones for
    ``sep-close``): separable, hence PSD.
``werner``
    A maximally entangled pure state (Bell / isotropic / GHZ) mixed with white
    noise above the entanglement threshold: the flattening is PSD but the
    state is entangled.
``csos``, ``csos-singular``
    A sum of partial transposes of PSD terms whose leading term is a
    maximally entangled projector: conjugate sum of squares (so PSD) but not
    holomorphic sum of squares.
``rpsd``
    A real PSD separable part plus i times a real antisymmetric matrix tuned
    to a complex product direction: PSD over the reals, not over the complex
    field.
``random``
    Gaussian Hermitian entries: not PSD, full flattening rank.
``lowrank``
    ``r`` generic rank-1 terms with real coefficients of both signs, with
    ``r`` at most the smallest mode size, so that Jennrich's method applies
    and Kruskal's condition certifies the rank.
``orthogonal``
    ``r`` terms built from the columns of one random unitary per mode, with
    distinct positive coefficients: unitarily decomposable.

``build`` applies a random local frame (U1 x ... x Um) . (U1 x ... x Um)^*
where the class allows one, which keeps every listed property.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _size(dims) -> int:
    return math.prod(dims)


def _unit(rng, n: int, real: bool = False) -> np.ndarray:
    v = rng.standard_normal(n) + (0.0 if real else 1j * rng.standard_normal(n))
    v = np.asarray(v, dtype=np.complex128)
    return v / np.linalg.norm(v)


def _kron(vectors) -> np.ndarray:
    out = np.ones(1, dtype=np.complex128)
    for v in vectors:
        out = np.kron(out, v)
    return out


def _projector(z: np.ndarray) -> np.ndarray:
    return np.outer(z, z.conj())


def _haar_unitary(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _haar_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def local_frame(rng, dims, mat: np.ndarray, real: bool) -> np.ndarray:
    """(U1 x ... x Um) M (U1 x ... x Um)^* for random unitary (or, when
    ``real``, orthogonal) Uk.  This keeps every property listed in the
    module docstring, and real orthogonal frames also keep real vectors
    real."""
    u = np.ones((1, 1), dtype=np.complex128)
    for n in dims:
        u = np.kron(u, _haar_orthogonal(rng, n) if real else _haar_unitary(rng, n))
    return _hermitize(u @ mat @ u.conj().T)


def _partial_transpose(mat: np.ndarray, dims, modes) -> np.ndarray:
    """Swap row and column index of the given 0-based modes: the polynomial
    of the result is that of ``mat`` with x_k replaced by conj(x_k)."""
    m = len(dims)
    arr = mat.reshape(tuple(dims) + tuple(dims))
    axes = list(range(2 * m))
    for k in modes:
        axes[k], axes[m + k] = axes[m + k], axes[k]
    n = _size(dims)
    return arr.transpose(axes).reshape(n, n)


def _entangled_pure(dims) -> np.ndarray:
    """sum_i e_i x ... x e_i / sqrt(d), d = min(dims): maximally entangled
    across modes 1 and 2 (GHZ-type for m >= 3)."""
    d = min(dims)
    z = np.zeros(_size(dims), dtype=np.complex128)
    for i in range(d):
        z[int(np.ravel_multi_index((i,) * len(dims), dims))] = 1.0
    return z / math.sqrt(d)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


def _separable(rng, dims, r: int, real: bool) -> np.ndarray:
    out = np.zeros((_size(dims), _size(dims)), dtype=np.complex128)
    for _ in range(r):
        lam = rng.uniform(0.5, 1.5)
        out += lam * _projector(_kron([_unit(rng, n, real) for n in dims]))
    return out


# Truth keys: psd_C, psd_R (nonnegative polynomial over C / over R),
# sep_C, sep_R (separable over C / R), hsos (flattening PSD), csos
# (conjugate sum of squares), real_dec (real-Hermitian decomposable),
# unitary (unitarily decomposable), rank (Hermitian rank).


def nonpsd(rng, dims, r):
    s = _separable(rng, dims, 2, real=False)
    u = _kron([_unit(rng, n, real=True) for n in dims])
    value = float(np.real(np.vdot(u, s @ u)))
    mat = s - (value + 0.5) * _projector(u)
    return mat, dict(psd_C=False, psd_R=False, sep_C=False, sep_R=False,
                     hsos=False, csos=False, real_dec=False)


def separable(rng, dims, r, real=False):
    # complex-valued tensors are never R-separable
    return _separable(rng, dims, r, real), dict(
        psd_C=True, psd_R=True, sep_C=True, sep_R=real, hsos=True, csos=True, real_dec=real)


def near_collinear(rng, dims, r):
    """Separable, with term i's mode vectors at angle 0.3 i from a common
    base vector: an ill-conditioned decomposition that alternating fits do
    not resolve to 1e-8 (hermitia 0.1.0)."""
    base = [_unit(rng, n) for n in dims]
    out = np.zeros((_size(dims), _size(dims)), dtype=np.complex128)
    for i in range(r):
        vecs = []
        for b in base:
            d = _unit(rng, len(b))
            d = d - np.vdot(b, d) * b
            vecs.append(np.cos(0.3 * i) * b + np.sin(0.3 * i) * d / np.linalg.norm(d))
        out += rng.uniform(0.5, 1.5) * _projector(_kron(vecs))
    return out, dict(psd_C=True, psd_R=True, sep_C=True, sep_R=False, hsos=True, csos=True,
                     real_dec=False)


def werner(rng, dims, r):
    # entangled for p > 1/(d+1) (isotropic) and p > 1/5 (GHZ, m = 3)
    p = rng.uniform(0.5, 0.9)
    n = _size(dims)
    rho = p * _projector(_entangled_pure(dims)) + (1.0 - p) * np.eye(n) / n
    return rho, dict(psd_C=True, psd_R=True, sep_C=False, sep_R=False,
                     hsos=True, csos=True, real_dec=False)


def csos_not_hsos(rng, dims, r, interior=True):
    # The leading term's partial transpose has eigenvalue -1/d; the other
    # terms carry total trace at most 0.6/d, so by Weyl the sum stays non-PSD.
    # With ``interior`` it includes the identity tensor, the polynomial of
    # the identity Gram matrix over the mixed basis (scaled by 2^-m), so the
    # Gram problem has a positive definite solution; without it every
    # solution is singular.
    d = min(dims)
    m = len(dims)
    mat = _partial_transpose(_projector(_entangled_pure(dims)), dims, [1])
    for _ in range(2):
        a = _unit(rng, _size(dims))
        modes = [k for k in range(m) if rng.random() < 0.5]
        mat = mat + (0.2 / d) * _partial_transpose(_projector(a), dims, modes)
    if interior:
        mat = mat + (0.2 / d) * np.eye(_size(dims))
    return mat, dict(psd_C=True, psd_R=True, sep_C=False, sep_R=False,
                     hsos=False, csos=True, real_dec=False)


def rpsd_not_cpsd(rng, dims, r):
    n = _size(dims)
    real_part = _separable(rng, dims, 2, real=True) + 0.05 * np.eye(n)
    w = _kron([_unit(rng, k) for k in dims])
    p, q = w.real, w.imag
    gap = float(p @ p * (q @ q) - (p @ q) ** 2)
    # z^*(iA)z = -2 p^T A q for z = p + iq and A = pq^T - qp^T, so c makes
    # H(w, conj w) = -1/2; on real z the antisymmetric part vanishes
    c = (float(np.real(np.vdot(w, real_part @ w))) + 0.5) / (2.0 * gap)
    mat = real_part + 1j * c * (np.outer(p, q) - np.outer(q, p))
    return mat, dict(psd_C=False, psd_R=True, sep_C=False, sep_R=False,
                     hsos=False, csos=False, real_dec=False)


def random_tensor(rng, dims, r):
    n = _size(dims)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g, dict(psd_C=False, hsos=False, real_dec=False, unitary=False)


def low_rank(rng, dims, r):
    """Alternating signs, so not PSD for r >= 2."""
    n = _size(dims)
    mat = np.zeros((n, n), dtype=np.complex128)
    for i in range(r):
        lam = (-1.0) ** i * rng.uniform(0.5, 1.5)
        mat += lam * _projector(_kron([_unit(rng, k) for k in dims]))
    return mat, dict(rank=r, hsos=(r == 1), real_dec=False, unitary=False)


def orthogonal(rng, dims, r):
    """Term i uses column i of a random unitary per mode, with distinct
    positive coefficients: unitarily decomposable, separable, PSD."""
    us = [_haar_unitary(rng, n) for n in dims]
    lams = np.sort(rng.uniform(0.5, 1.5, size=r))[::-1] + np.arange(r, 0, -1)
    mat = sum(lam * _projector(_kron([u[:, i] for u in us])) for i, lam in enumerate(lams))
    return mat, dict(rank=r, hsos=True, real_dec=False, unitary=True)


# kind -> (constructor, local frame the seed draws: "complex", "real" or None)
KINDS = {
    "nonpsd": (nonpsd, "real"),
    "sep": (separable, "complex"),
    "sep-real": (lambda rng, dims, r: separable(rng, dims, r, real=True), "real"),
    "sep-close": (near_collinear, "complex"),
    "werner": (werner, "complex"),
    "csos": (csos_not_hsos, "complex"),
    "csos-singular": (lambda rng, dims, r: csos_not_hsos(rng, dims, r, interior=False), "complex"),
    "rpsd": (rpsd_not_cpsd, "real"),
    "random": (random_tensor, None),
    "lowrank": (low_rank, None),
    "orthogonal": (orthogonal, None),
}


def build(kind: str, dims, r: int, master_rng, frame_rng):
    """Entry matrix (exactly Hermitian, real diagonal) and its truths."""
    make, frame = KINDS[kind]
    mat, truth = make(master_rng, dims, r)
    if frame is not None:
        mat = local_frame(frame_rng, dims, mat, real=(frame == "real"))
    return _hermitize(mat), truth


def write_hten(path, dims, mat: np.ndarray) -> None:
    """HTEN 1 text: nonzero entries with I <= J, 17 significant digits."""
    labels = list(itertools.product(*(range(1, n + 1) for n in dims)))
    lines = ["HTEN 1", "dims " + " ".join(str(n) for n in dims)]
    for ii, i_lab in enumerate(labels):
        for jj in range(ii, len(labels)):
            v = mat[ii, jj]
            if v != 0:
                lab = " ".join(str(x) for x in i_lab + labels[jj])
                lines.append(f"{lab} {float(v.real):.17g} {float(v.imag):.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
