import json

import numpy as np
import pytest

from hermitia import core


def hankel_tensor() -> core.HermitianTensor:
    """Shape [2,2] tensor with entries i + j + k + l (1-based labels)."""
    arr = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    arr[i, j, k, l] = (i + 1) + (j + 1) + (k + 1) + (l + 1)
    return core.validate((2, 2), arr)


def cr_psd_ii_tensor() -> core.HermitianTensor:
    """R-psd but not C-psd: 1111 = 1122 = 2211 = 1, 1221 = 2112 = -1."""
    arr = np.zeros((2, 2, 2, 2), dtype=complex)
    arr[0, 0, 0, 0] = 1
    arr[0, 0, 1, 1] = 1
    arr[1, 1, 0, 0] = 1
    arr[0, 1, 1, 0] = -1
    arr[1, 0, 0, 1] = -1
    return core.validate((2, 2), arr)


def rpsd_tensor(rng, dims) -> core.HermitianTensor:
    """psd over R, not over C: two real product terms plus 0.05 I, and
    i c (p q^T - q p^T) for a complex product vector w = p + i q.  The
    antisymmetric part vanishes on real vectors, and c makes
    H(w, conj w) = -1/2, since w^* i (p q^T - q p^T) w = -2 gap."""
    n = core.size_of(dims)
    real = 0.05 * np.eye(n) + sum(core.rank1(1.0, [random_unit(rng, k, True) for k in dims]).mat
                                  for _ in range(2))
    w = core.kron_vector([random_unit(rng, k) for k in dims])
    p, q = w.real, w.imag
    gap = p @ p * (q @ q) - (p @ q) ** 2
    c = (np.vdot(w, real @ w).real + 0.5) / (2.0 * gap)
    return core.validate(dims, real + 1j * c * (np.outer(p, q) - np.outer(q, p)))


def csos_not_hsos_tensor() -> core.HermitianTensor:
    """CSOS but not HSOS: 1111 = 2222 = 1221 = 2112 = 1."""
    arr = np.zeros((2, 2, 2, 2), dtype=complex)
    arr[0, 0, 0, 0] = 1
    arr[1, 1, 1, 1] = 1
    arr[0, 1, 1, 0] = 1
    arr[1, 0, 0, 1] = 1
    return core.validate((2, 2), arr)


def diag_pair_tensor(n: int) -> core.HermitianTensor:
    """sum_{i,j} e_i x e_i x e_j x e_j in shape [n, n]."""
    arr = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            arr[i, i, j, j] = 1.0
    return core.validate((n, n), arr)


def separable_62_matrix() -> np.ndarray:
    b11 = np.array([[2.0, -1.0], [-1.0, 1.0]])
    b12 = np.array([[1.0, 1.0], [1.0, 3.0]])
    b21 = np.array([[3.0, 2.0], [2.0, 2.0]])
    b22 = np.array([[1.0, -2.0], [-2.0, 5.0]])
    return np.kron(b11, b12) + np.kron(b21, b22)


def hankel_witness() -> core.HermitianTensor:
    """Dual witness from |x_{11} x_{21} - (5/6) x_{11} x_{22}|^2."""
    return core.rank1(1.0, [np.array([1.0, 0.0], dtype=complex),
                            np.array([1.0, -5.0 / 6.0], dtype=complex)])


# The retired tolerance names: the field that absorbed each one and the verb
# whose check it used to set.  No name here is a field or a `--tol` key.
MERGED_TOLERANCES = {
    "cpTol": ("fitTol", "jennrich"),
    "r1Tol": ("fitTol", "unitary-check"),
    "gramTol": ("fitTol", "csos"),
    "sepTol": ("fitTol", "sep-verify"),
    "nfTol": ("rdTol", "real-decompose-22"),
}


def strict_json(text: str):
    """``json.loads`` that rejects Infinity and NaN, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def random_unitary(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_unit(rng, n: int, real: bool = False) -> np.ndarray:
    v = rng.standard_normal(n) + (0 if real else 1j * rng.standard_normal(n))
    return np.asarray(v, dtype=complex) / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
