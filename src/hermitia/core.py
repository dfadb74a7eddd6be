"""Dense complex Hermitian tensors of order 2m.

A Hermitian tensor over shape (n1, ..., nm) is an order-2m complex array
H with H[I, J] = conj(H[J, I]) for multi-index pairs I = (i1, ..., im),
J = (j1, ..., jm).  Entries are stored as an N-by-N matrix (N = n1...nm)
whose rows and columns enumerate multi-indices lexicographically, mode 1
major.  That layout makes the matrix itself the canonical Hermitian
flattening, and Kronecker products of mode vectors line up with it.

Multi-indices at all public interfaces are 1-based tuples.  The ordering
I < J means the first nonzero entry of I - J is negative, which is plain
tuple comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    NonRealDiagonal,
    NonRealInner,
    ShapeMismatch,
    SymmetryViolation,
)


@dataclass(frozen=True)
class Tolerances:
    """The named numerical thresholds, one field per ``--tol`` name; pass
    ``dataclasses.replace(TOL, eigTol=1e-9)`` as ``tols`` to override one.
    Each is relative, so no verdict depends on the unit of the input: to
    ``norm(h)`` on a tensor quantity, to the matrix's own largest |eigenvalue|
    on a spectrum.  A certificate fits its tensor within ``fitTol``, or
    ``rdTol`` when an exact real construction made it."""

    symTol: float = 1e-9  # conjugate and entry symmetry, times the norm
    eigTol: float = 1e-10  # psd tests: least eigenvalue >= -eigTol * largest |eigenvalue|
    rankTol: float = 1e-8  # matrix rank: singular values above rankTol * largest
    fitTol: float = 1e-7  # mismatch of a numerical certificate with its tensor, times the norm
    rdTol: float = 1e-8  # real construction mismatch, times the norm (the [2,2] normal form: its largest entry)
    eigTupleTol: float = 1e-8  # eigentuple stationarity residual, times the norm
    eigGapTol: float = 1e-6  # eigenvalues closer than this times the largest are one: a repeat, a duplicate, a collision
    witTol: float = 1e-9  # a witness value must lie below -witTol times the norm (of both, for <a, b>)

    def __post_init__(self):
        # NaN fails every comparison and a negative or infinite value flips
        # verdicts, so each field must be a finite number >= 0
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {f.name} must be finite and >= 0, got {value!r}")


TOL = Tolerances()
ROUNDING = 1e-12  # the rounding level: a pivot, coefficient, eigenvalue or step below this times its scale is 0


def check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(n) for n in dims)
    if len(dims) < 1 or any(n < 1 for n in dims):
        raise ShapeMismatch(f"invalid shape {dims}: need m >= 1 positive mode sizes")
    return dims


def size_of(dims) -> int:
    out = 1
    for n in dims:
        out *= n
    return out


def multi_indices(dims):
    """All 1-based multi-indices of a shape, lexicographically ordered."""
    return list(itertools.product(*(range(1, n + 1) for n in dims)))


def flat_index(dims, index) -> int:
    """Position of a 1-based multi-index in the lexicographic enumeration."""
    if len(index) != len(dims):
        raise ShapeMismatch(f"multi-index {index} has wrong length for shape {dims}")
    pos = 0
    for n, i in zip(dims, index):
        if not 1 <= i <= n:
            raise ShapeMismatch(f"multi-index {index} out of range for shape {dims}")
        pos = pos * n + (i - 1)
    return pos


@dataclass(frozen=True, eq=False)
class HermitianTensor:
    """Immutable dense Hermitian tensor.

    ``mat`` holds the N-by-N entry matrix H[I, J], copied on construction
    and marked read-only.  Direct construction checks only the shape: it
    is the trusted internal constructor for entries that are Hermitian by
    construction.  Build tensors from outside input with ``validate``,
    which checks finiteness and conjugate symmetry.
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        n = size_of(dims)
        mat = np.array(self.mat, dtype=np.complex128, order="C")  # own the buffer
        if mat.shape != (n, n):
            raise ShapeMismatch(f"entry matrix has shape {mat.shape}, expected {(n, n)}")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.mat.shape[0]

    def entry(self, I, J) -> complex:
        """Entry at a pair of 1-based multi-indices."""
        return complex(self.mat[flat_index(self.dims, tuple(I)), flat_index(self.dims, tuple(J))])

    def as_array(self) -> np.ndarray:
        """Order-2m view with axes (i1, ..., im, j1, ..., jm), 0-based."""
        return self.mat.reshape(self.dims + self.dims)

    def __eq__(self, other):
        if not isinstance(other, HermitianTensor):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.mat, other.mat)


def _coerce_entries(dims, raw) -> np.ndarray:
    n = size_of(dims)
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.shape == tuple(dims) + tuple(dims):
        arr = arr.reshape(n, n)
    if arr.shape != (n, n):
        raise ShapeMismatch(
            f"raw entries have shape {arr.shape}; expected {(n, n)} or {tuple(dims) + tuple(dims)}"
        )
    return arr


def validate(dims, raw, tols: Tolerances = TOL) -> HermitianTensor:
    """Build a Hermitian tensor from raw entries.

    Conjugate symmetry must hold entrywise within ``symTol`` times the
    norm of the entries; the result averages H[I, J] with conj(H[J, I]),
    which also zeroes imaginary parts on the diagonal.
    """
    dims = check_dims(dims)
    arr = _coerce_entries(dims, raw)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ShapeMismatch("entries must be finite (no NaN/Inf)")
    check_hermitian(arr, tols, "tensor")
    return HermitianTensor(dims, (arr + arr.conj().T) / 2.0)


def check_hermitian(arr: np.ndarray, tols: Tolerances, what: str) -> None:
    """Raise ``SymmetryViolation`` unless the square matrix ``arr`` is
    Hermitian entrywise within ``symTol`` times its Frobenius norm."""
    dev = float(np.abs(arr - arr.conj().T).max()) if arr.size else 0.0
    bound = tols.symTol * _frobenius(arr)
    if dev > bound:
        raise SymmetryViolation(f"{what} is not Hermitian: max |A - A*| = {dev:.3e} > {bound:.1e}")


FIELDS = ("COMPLEX", "REAL")


def check_field(name: str) -> None:
    if name not in FIELDS:
        raise ShapeMismatch(f"unknown field {name!r}")


def zero_tensor(dims) -> HermitianTensor:
    dims = check_dims(dims)
    n = size_of(dims)
    return HermitianTensor(dims, np.zeros((n, n), dtype=np.complex128))


def identity_tensor(dims) -> HermitianTensor:
    """Tensor with H[I, I] = 1; its polynomial is (x1*x1)...(xm*xm)."""
    dims = check_dims(dims)
    return HermitianTensor(dims, np.eye(size_of(dims), dtype=np.complex128))


def check_vector_tuple(dims, vectors) -> tuple[np.ndarray, ...]:
    dims = check_dims(dims)
    vs = tuple(np.array(v, dtype=np.complex128).reshape(-1) for v in vectors)
    if len(vs) != len(dims) or any(len(v) != n for v, n in zip(vs, dims)):
        raise ShapeMismatch(
            f"vector tuple lengths {tuple(len(v) for v in vs)} do not match shape {dims}"
        )
    return vs


def kron_vector(vectors) -> np.ndarray:
    """vec(u1 x ... x um) in the lexicographic (mode-1 major) ordering.

    Stacked vectors (..., n_k) give the products row by row, (..., N).
    """
    out = np.asarray(vectors[0], dtype=np.complex128)
    for v in vectors[1:]:
        v = np.asarray(v, dtype=np.complex128)
        out = (out[..., :, None] * v[..., None, :]).reshape(out.shape[:-1] + (-1,))
    return out


def _rank1_sum(lams, zs) -> np.ndarray:
    """sum_j lams[j] z_j z_j^* for the rows z_j of ``zs`` (r, N), by one
    matmul; leading batch axes on both arguments give one sum per batch."""
    zs = np.asarray(zs, dtype=np.complex128)
    return (np.swapaxes(zs, -1, -2) * np.asarray(lams, dtype=float)[..., None, :]) @ zs.conj()


def rank1(lam: float, vectors, dims=None) -> HermitianTensor:
    """Hermitian rank-1 tensor lam * [v1, ..., vm]: entries
    lam * prod_k (v_k)_{i_k} * conj((v_k)_{j_k})."""
    if dims is None:
        dims = tuple(len(np.asarray(v).reshape(-1)) for v in vectors)
    vs = check_vector_tuple(dims, vectors)
    lam = float(lam)
    if not np.isfinite(lam):
        raise ShapeMismatch("coefficient must be finite")
    return HermitianTensor(tuple(dims), _rank1_sum([lam], kron_vector(vs)[None]))


def inner(a: HermitianTensor, b: HermitianTensor, tols: Tolerances = TOL) -> float:
    """Real inner product sum_{I,J} a[I,J] * conj(b[I,J]), taken on a and b
    scaled into the float range (``_in_range``) and scaled back; an
    imaginary residue above ``symTol`` * ||a|| ||b|| raises ``NonRealInner``."""
    if a.dims != b.dims:
        raise ShapeMismatch(f"shapes differ: {a.dims} vs {b.dims}")
    (sa, ea), (sb, eb) = _in_range(a), _in_range(b)
    val = complex(np.vdot(sb.mat, sa.mat))
    bound = tols.symTol * norm(sa) * norm(sb)
    with np.errstate(over="ignore"):  # a value beyond the float range is +-inf
        imag, limit, real = np.ldexp([val.imag, bound, val.real], ea + eb).tolist()
    if abs(val.imag) > bound:
        raise NonRealInner(f"imaginary residue {imag:.3e} exceeds {limit:.1e}")
    return real


def _scaled(a) -> tuple[np.ndarray, int]:
    """``(s, e)`` with s = a * 2^-e: a complex array whose largest real or
    imaginary part lies outside [2^-450, 2^450] is scaled by the power of
    two near that part, so the squares and pairwise products of its
    entries stay in the float range; inside the range it comes back as it
    is, with e = 0.  Between the bounds, the 2N^2 <= 2^25 squares of an
    N <= 4096 array sum below 2^925."""
    x = np.ascontiguousarray(a, dtype=np.complex128)
    big = float(np.abs(x.view(np.float64)).max(initial=0.0))
    if 0.0 < big < 2.0 ** -450 or 2.0 ** 450 < big < math.inf:
        e = int(np.frexp(big)[1])
        return np.ldexp(x.view(np.float64), -e).view(np.complex128), e
    return x, 0


def _in_range(h: HermitianTensor) -> tuple[HermitianTensor, int]:
    """``(h * 2^-e, e)`` by ``_scaled``: ``(h, 0)`` when h is in the range."""
    s, e = _scaled(h.mat)
    return (HermitianTensor(h.dims, s), e) if e else (h, 0)


def _frobenius(a) -> float:
    """Frobenius norm of an array, with no underflow or overflow: entries
    whose squares would leave the float range (``np.linalg.norm`` gives 0
    for entries of 1e-200) are first scaled by ``_scaled``; each square
    that still underflows is below 2^-122 of the sum."""
    s, e = _scaled(a)
    return math.ldexp(float(np.linalg.norm(s.view(np.float64))), e)


def norm(a: HermitianTensor) -> float:
    """Hilbert-Schmidt norm sqrt(<a, a>)."""
    return _frobenius(a.mat)


def eval_poly(h: HermitianTensor, xs) -> float:
    """Value of the conjugate polynomial H(x, conj(x)) = <H, [x1, ..., xm]>.

    Equal to z* M z for z = vec(x1 x ... x xm); always real for
    Hermitian h.
    """
    vs = check_vector_tuple(h.dims, xs)
    z = kron_vector(vs)
    return float(np.real(np.vdot(z, h.mat @ z)))


def matmul(ms, t: np.ndarray) -> np.ndarray:
    """Multilinear matrix-tensor product (M1, ..., Mq) x T.

    Linear in T; on rank-1 tensors it maps u1 x ... x uq to
    (M1 u1) x ... x (Mq uq).
    """
    t = np.asarray(t, dtype=np.complex128)
    ms = [np.asarray(m, dtype=np.complex128) for m in ms]
    if len(ms) != t.ndim:
        raise ShapeMismatch(f"{len(ms)} matrices for an order-{t.ndim} tensor")
    for k, m in enumerate(ms):
        if m.ndim != 2 or m.shape[1] != t.shape[k]:
            raise ShapeMismatch(
                f"matrix {k + 1} has shape {m.shape}, needs {t.shape[k]} columns"
            )
        t = np.moveaxis(np.tensordot(m, t, axes=(1, k)), 0, k)
    return t


def congruent(qs, a: HermitianTensor, tols: Tolerances = TOL) -> HermitianTensor:
    """Multilinear congruent transform (Q1, ..., Qm, conj(Q1), ..., conj(Qm)) x a.

    Each Qk must be square nk-by-nk; unitary Qk preserve the norm.
    """
    qs = [np.asarray(q, dtype=np.complex128) for q in qs]
    if len(qs) != a.order:
        raise ShapeMismatch(f"{len(qs)} matrices for order m = {a.order}")
    for q, n in zip(qs, a.dims):
        if q.shape != (n, n):
            raise ShapeMismatch(f"congruence matrix has shape {q.shape}, expected {(n, n)}")
    return validate(a.dims, matmul(qs + [q.conj() for q in qs], a.as_array()), tols)


def basis_tensor(I, J, c, dims) -> HermitianTensor:
    """Canonical basis tensor: entry c at (I, J), conj(c) at (J, I), zeros elsewhere."""
    dims = check_dims(dims)
    I, J = tuple(I), tuple(J)
    c = complex(c)
    pi, pj = flat_index(dims, I), flat_index(dims, J)
    if I == J and c.imag != 0.0:
        raise NonRealDiagonal(f"diagonal entry at {I} must be real, got {c}")
    n = size_of(dims)
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[pi, pj] = c
    mat[pj, pi] = np.conj(c)
    return HermitianTensor(dims, mat)


def random_hermitian(dims, seed: int) -> HermitianTensor:
    """Seeded random Hermitian tensor (PCG64; standard-normal real and
    imaginary parts, conjugate-symmetrized)."""
    dims = check_dims(dims)
    n = size_of(dims)
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianTensor(dims, (g + g.conj().T) / 2.0)
