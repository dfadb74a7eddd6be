"""Dense complex matrix kernels: eigensolver, ranks, psd projection.

Every kernel runs on numpy's LAPACK bindings (``eigh`` and ``svd``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ROUNDING, TOL, _rank1_sum, kron_vector
from .errors import NoConvergence, SymmetryViolation, ZeroTensor

HERM_CHECK = 1e-8  # herm_eig's input check: |A - A*| within this times the largest |entry|


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues ascending; eigenvectors as the matching unitary columns.

    For a stack of B matrices the arrays carry a leading batch axis:
    eigenvalues (B, n), eigenvectors (B, n, n).  ``top``, ``is_psd`` and
    ``kept`` are for a single matrix; their scale is its own largest
    |eigenvalue|, with no absolute floor, so they do not depend on the
    unit of the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return _rank1_sum(self.eigenvalues, np.swapaxes(self.eigenvectors, -1, -2))

    @property
    def top(self) -> float:
        """Largest |eigenvalue|; 0 for a zero matrix."""
        return float(np.abs(self.eigenvalues).max(initial=0.0))

    def is_psd(self, eig_tol: float) -> bool:
        """Least eigenvalue >= -eig_tol * top."""
        return bool(self.eigenvalues.min(initial=0.0) >= -eig_tol * self.top)

    def kept(self, rel_tol: float) -> list[tuple[float, np.ndarray]]:
        """Ascending (eigenvalue, eigenvector) pairs with |eigenvalue| > rel_tol * top."""
        cut = rel_tol * self.top
        return [(float(w), self.eigenvectors[:, i].copy())
                for i, w in enumerate(self.eigenvalues) if abs(w) > cut]


def herm_eig(a) -> SpectralDecomp:
    """Full spectral decomposition of a Hermitian matrix, or of a stack
    ``(B, n, n)`` of them solved by one LAPACK ``eigh`` call.

    Each member must be Hermitian within ``HERM_CHECK`` times its own largest
    |entry|, with no absolute floor.  The check guards a caller's matrix;
    code that builds its own Hermitian matrix calls ``herm_part_eig``.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise SymmetryViolation(f"expected a square matrix or a stack of them, got shape {a.shape}")
    dev = np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = dev > HERM_CHECK * np.abs(a).max(axis=(-2, -1), initial=0.0)
    if bad.any():
        i = int(np.argmax(bad))
        where = f"stack member {i}" if a.ndim == 3 else "matrix"
        raise SymmetryViolation(f"{where} is not Hermitian: deviation {dev.flat[i]:.3e}")
    return herm_part_eig(a)


def herm_part_eig(a: np.ndarray) -> SpectralDecomp:
    """``herm_eig`` of the Hermitian part (a + a*) / 2, unchecked.  Real
    input (for a stack: every member real) is solved as a real problem,
    so its eigenvectors stay exactly real; a zero matrix gets identity ones."""
    a = (a + np.swapaxes(a.conj(), -1, -2)) / 2.0
    try:
        w, v = np.linalg.eigh(a if np.any(a.imag) else a.real)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc
    return SpectralDecomp(w, v.astype(np.complex128, copy=False))


def singular_values(a) -> np.ndarray:
    """Singular values, descending."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        a = a.reshape(a.shape[0], -1)
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def matrix_rank(a, rel_tol: float = TOL.rankTol) -> int:
    """Count of singular values above rel_tol * (largest singular value)."""
    s = singular_values(a)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def psd_project(a) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalues clipped
    at 0), or that of each member of a stack ``(B, n, n)``; the input
    passes ``herm_eig``'s check."""
    sd = herm_eig(a)
    out = SpectralDecomp(np.clip(sd.eigenvalues, 0.0, None), sd.eigenvectors).reconstruct()
    return (out + np.swapaxes(out.conj(), -1, -2)) / 2.0


def phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate a vector, or each row of ``(..., n)``, so its first
    significant entry (above ``ROUNDING`` times the row's largest) is real positive."""
    v = np.asarray(v, dtype=np.complex128)
    mag = np.abs(v)
    sig = mag > ROUNDING * mag.max(axis=-1, initial=0.0, keepdims=True)
    pivot = np.take_along_axis(v, sig.argmax(axis=-1)[..., None], axis=-1)
    size = np.abs(pivot)
    rot = np.conj(pivot) / np.where(size > 0.0, size, 1.0)
    return v * np.where(sig.any(axis=-1, keepdims=True), rot, 1.0)


def rank1_factor(t) -> tuple[list[np.ndarray], float]:
    """Best-effort rank-1 approximation of a dense tensor.

    Sequentially peels the dominant left singular vector of each mode
    unfolding; the last factor carries the scale.  Returns the factors and
    the relative residual ||t - u1 x ... x um|| / ||t||.
    """
    t = np.asarray(t, dtype=np.complex128)
    tnorm = float(np.linalg.norm(t))
    if tnorm == 0.0:
        raise ZeroTensor("rank-1 factorization of the zero tensor is undefined")
    cur = t
    factors: list[np.ndarray] = []
    for _ in range(t.ndim - 1):
        x = cur.reshape(cur.shape[0], -1)
        u = phase_normalize(herm_part_eig(x @ x.conj().T).eigenvectors[:, -1])
        u = u / np.linalg.norm(u)
        factors.append(u)
        cur = np.tensordot(u.conj(), cur, axes=(0, 0))
    factors.append(np.asarray(cur, dtype=np.complex128).reshape(-1))
    residual = float(np.linalg.norm(t.reshape(-1) - kron_vector(factors))) / tnorm
    return factors, residual
