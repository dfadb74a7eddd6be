"""Hermitian decompositions: assembly, certification, and recovery.

A decomposition is a real combination of conjugate rank-1 products,
H = sum_i lambda_i [u_i^1, ..., u_i^m].  This module assembles and
normalizes such objects, certifies minimal length via Kruskal ranks,
produces the closed-form rank decompositions of canonical basis tensors,
and recovers decompositions of low-rank tensors by simultaneous
diagonalization of slice mixtures of the cubic flattening.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import core, flatten, linalg
from .errors import (
    DegenerateSlices,
    DegenerateTerm,
    DimensionTooSmall,
    NonRealDiagonal,
    RankBudgetExceeded,
    ShapeMismatch,
)

Term = tuple[float, tuple[np.ndarray, ...]]

COND_MAX = 1e10  # Jennrich: a slice mixture above this condition number is singular (UNKNOWN)
KRUSKAL_TESTS = 2 ** 15  # subset rank tests per mode before ``kruskal_certify`` gives up


@dataclass(frozen=True)
class Unknown:
    """Outcome marker for searches that ended without a usable answer."""

    reason: str

    def __bool__(self):
        return False


@dataclass(frozen=True)
class HermitianDecomposition:
    dims: tuple[int, ...]
    terms: tuple[Term, ...]

    def __post_init__(self):
        dims = core.check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        cooked = []
        for lam, vectors in self.terms:
            lam = float(lam)
            vs = core.check_vector_tuple(dims, vectors)
            if not (math.isfinite(lam) and all(np.isfinite(v).all() for v in vs)):
                raise ShapeMismatch("coefficients and vector entries must be finite (no NaN/Inf)")
            for v in vs:
                v.flags.writeable = False
            cooked.append((lam, vs))
        object.__setattr__(self, "terms", tuple(cooked))

    def __len__(self):
        return len(self.terms)

    @property
    def order(self) -> int:
        return len(self.dims)

    def coefficients(self) -> np.ndarray:
        return np.array([lam for lam, _ in self.terms])

    def mode_vectors(self, k: int) -> list[np.ndarray]:
        """Vectors of 1-based mode k across all terms."""
        return [vs[k - 1] for _, vs in self.terms]


def assemble(d: HermitianDecomposition) -> core.HermitianTensor:
    """Sum of the rank-1 terms, symmetrized to be exactly Hermitian."""
    n = core.size_of(d.dims)
    zs = np.array([core.kron_vector(vectors) for _, vectors in d.terms]).reshape(-1, n)
    mat = core._rank1_sum(d.coefficients(), zs)
    return core.HermitianTensor(d.dims, (mat + mat.conj().T) / 2.0)


def residual(d: HermitianDecomposition, h: core.HermitianTensor) -> float:
    if d.dims != h.dims:
        raise ShapeMismatch(f"shapes differ: {d.dims} vs {h.dims}")
    return core._frobenius(assemble(d).mat - h.mat)


def fits(d: HermitianDecomposition, h: core.HermitianTensor, tol: float) -> bool:
    """True iff d reassembles h within ``tol * norm(h)``: the one rule of
    every decomposition gate (``fitTol``; ``rdTol`` for real constructions)."""
    return residual(d, h) <= tol * core.norm(h)


def normalize(d: HermitianDecomposition) -> HermitianDecomposition:
    """Scale vectors to unit norm with real positive leading entries.

    Coefficients absorb the squared norms, so the assembled tensor is
    unchanged.
    """
    terms = []
    for lam, vectors in d.terms:
        out = []
        for v in vectors:
            nv = float(np.linalg.norm(v))
            if nv != 0.0:
                v = linalg.phase_normalize(v / nv)
                lam *= nv * nv
            out.append(v)
        terms.append((lam, tuple(out)))
    return HermitianDecomposition(d.dims, tuple(terms))


@dataclass(frozen=True)
class KruskalReport:
    kruskal_ranks: tuple[int, ...]
    rank: int
    certified: bool
    margin: int


def _kruskal_rank(vectors: list[np.ndarray], rel_tol: float) -> int:
    """Largest k such that every k-subset is linearly independent.

    Full column rank gives r at once: a column subset's smallest to
    largest singular value ratio is at least the whole matrix's.
    Otherwise subset rank tests, exhaustive up to ``KRUSKAL_TESTS`` of
    them (every r <= 15 fits); past that ``RankBudgetExceeded``.
    """
    r = len(vectors)
    n = len(vectors[0])
    m = np.column_stack(vectors)
    if r <= n and linalg.matrix_rank(m, rel_tol) == r:
        return r
    subsets = (s for k in range(1, min(r, n) + 1) for s in itertools.combinations(range(r), k))
    for tests, subset in enumerate(subsets):
        if tests == KRUSKAL_TESTS:
            raise RankBudgetExceeded(f"Kruskal rank of {r} vectors in C^{n}: {tests} subset rank "
                                     "tests made, and more needed")
        if linalg.matrix_rank(m[:, subset], rel_tol) < len(subset):
            return len(subset) - 1
    return min(r, n)


def kruskal_certify(d: HermitianDecomposition, tols: core.Tolerances = core.TOL) -> KruskalReport:
    """Certify minimality of a decomposition via the Kruskal condition.

    With k_i the Kruskal rank of the mode-i vector set (ranks at
    ``rankTol``), the condition sum_i k_i >= r + m certifies the assembled
    tensor has Hermitian rank exactly r, with an essentially unique rank
    decomposition.  A mode whose Kruskal rank needs more than
    ``KRUSKAL_TESTS`` subset rank tests raises ``RankBudgetExceeded``.
    """
    if d.order <= 1:
        raise ShapeMismatch("Kruskal certification requires order m > 1")
    r = len(d)
    if r == 0:
        return KruskalReport((), 0, True, 0)
    for lam, vectors in d.terms:
        if lam == 0.0 or any(float(np.linalg.norm(v)) == 0.0 for v in vectors):
            raise DegenerateTerm("terms must have nonzero coefficients and vectors")
    ks = tuple(_kruskal_rank(d.mode_vectors(k), tols.rankTol) for k in range(1, d.order + 1))
    total = sum(ks)
    return KruskalReport(ks, r, total >= r + d.order, total - (r + d.order))


def basis_decomposition(I, J, c, dims) -> HermitianDecomposition:
    """Hermitian rank decomposition of the basis tensor with entry c at (I, J).

    One term when I = J (c must then be real); otherwise exactly 2d terms
    where d counts the differing index positions -- the certified
    Hermitian rank.  With theta_k = k pi / d, term k (k = 0..d) has
    coefficient (-1)^k / (2d) and carries (1, exp(i theta_k)) at positions
    (i_s, j_s) of every differing mode s, the first differing mode with c
    in place of 1; interior k (0 < k < d) add the conjugate-angle term.
    Identical modes carry the unit vector e_{i_s}.
    """
    dims = core.check_dims(dims)
    I, J = tuple(int(i) for i in I), tuple(int(j) for j in J)
    core.flat_index(dims, I), core.flat_index(dims, J)
    c = complex(c)
    if c == 0:
        raise ShapeMismatch("basis coefficient c must be nonzero")
    diff = [s for s in range(len(dims)) if I[s] != J[s]]
    if not diff and c.imag != 0.0:
        raise NonRealDiagonal(f"diagonal basis tensor at {I} needs real c, got {c}")
    for s in diff:
        if dims[s] < 2:
            raise DimensionTooSmall(f"mode {s + 1} has size 1 but labels differ")

    def term(theta: float) -> tuple[np.ndarray, ...]:
        vectors = tuple(np.eye(n, dtype=np.complex128)[i - 1] for n, i in zip(dims, I))
        for s in diff:
            vectors[s][J[s] - 1] = np.exp(1j * theta)
        if diff:
            vectors[diff[0]][I[diff[0]] - 1] = c
        return vectors

    d = len(diff)
    if not d:
        return HermitianDecomposition(dims, ((c.real, term(0.0)),))
    weight = 1.0 / (2.0 * d)
    terms = []
    for k in range(d + 1):
        lam = (-1.0 if k % 2 else 1.0) * weight
        theta = k * math.pi / d
        terms.append((lam, term(theta)))
        if 0 < k < d:
            terms.append((lam, term(-theta)))
    return HermitianDecomposition(dims, tuple(terms))


def expected_hrank(dims) -> int:
    """ceil((n1...nm)^2 / (2(n1+...+nm-m)+1)), by dimension counting."""
    dims = core.check_dims(dims)
    n = core.size_of(dims)
    denom = 2 * (sum(dims) - len(dims)) + 1
    return -((-n * n) // denom)


def _fit_coefficients(h: core.HermitianTensor, vector_tuples) -> np.ndarray:
    """Real least-squares coefficients for given rank-1 directions."""
    zs = core.kron_vector([np.array(modes) for modes in zip(*vector_tuples)])
    t = core.kron_vector([zs, zs.conj()])  # row j: vec(z_j z_j^*)
    x = np.concatenate([t.real, t.imag], axis=1).T
    y = np.concatenate([h.mat.reshape(-1).real, h.mat.reshape(-1).imag])
    sol, *_ = np.linalg.lstsq(x, y, rcond=None)
    return sol


def jennrich_decompose(
    h: core.HermitianTensor,
    rmax: int,
    seed: int,
    tols: core.Tolerances = core.TOL,
) -> HermitianDecomposition | Unknown:
    """Recover a short Hermitian decomposition by simultaneous diagonalization.

    Two random mixtures of the cubic-flattening slices share the factor
    structure of the decomposition; a generalized eigendecomposition of
    the pair exposes the combined mode vectors, which are split per mode
    by rank-1 factorization and completed with a real least-squares fit
    of the coefficients.  Returns Unknown on a singular mixture, eigenvalues
    within ``eigGapTol``, or a residual above ``fitTol * norm(h)``; the rank
    of the first unfolding, at ``rankTol``, caps the term count.  A tensor
    outside the float range of ``core._in_range`` is decomposed scaled, and
    its coefficients are scaled back.
    """
    hs, e = core._in_range(h)
    cubic = flatten.cubic_flatten(hs)
    n3 = cubic.dims[2]
    if not 1 <= rmax <= n3:
        raise RankBudgetExceeded(f"rmax = {rmax} outside the regime 1 <= r <= N3 = {n3}")
    if h.order == 1:
        # matrix case: the spectral decomposition already is the answer
        pairs = linalg.herm_part_eig(hs.mat).kept(core.ROUNDING)
        pairs.sort(key=lambda p: -abs(p[0]))
        terms = tuple((w, (linalg.phase_normalize(v),)) for w, v in pairs[:rmax])
    else:
        terms = _jennrich_terms(hs, cubic, rmax, seed, tols)
        if isinstance(terms, Unknown):
            return terms
    d = HermitianDecomposition(h.dims, tuple((math.ldexp(w, e), vs) for w, vs in terms))
    if not fits(d, h, tols.fitTol):
        return Unknown("residual above tolerance at the requested rank budget")
    return d


def _jennrich_terms(h, cubic, rmax, seed, tols) -> tuple[Term, ...] | Unknown:
    """The terms of ``jennrich_decompose`` on an order m >= 2 tensor."""
    n1, n2, n3 = cubic.dims
    unfold1 = cubic.array.reshape(n1, n2 * n3)
    r = min(rmax, linalg.matrix_rank(unfold1, tols.rankTol))
    if r == 0:
        return ()

    rng = np.random.Generator(np.random.PCG64(seed))
    w1 = rng.standard_normal(n3)
    w2 = rng.standard_normal(n3)
    t1 = np.tensordot(cubic.array, w1, axes=(2, 0))
    t2 = np.tensordot(cubic.array, w2, axes=(2, 0))

    try:
        factors = _jennrich_factors(unfold1, t1, t2, r, tols.eigGapTol)
    except DegenerateSlices as exc:
        return Unknown(str(exc))

    pdims = tuple(h.dims[k] for k in cubic.mode_order)
    inverse = np.argsort(cubic.mode_order)
    found = []
    for a in factors:
        vecs, _ = linalg.rank1_factor(a.reshape(pdims))
        found.append((1.0, tuple(vecs[k] for k in inverse)))

    tuples = [vs for _, vs in normalize(HermitianDecomposition(h.dims, tuple(found))).terms]
    lams = _fit_coefficients(h, tuples)
    # a zero mode vector gets coefficient 0 here and is dropped with the rest
    return tuple((float(lam), vs) for lam, vs in zip(lams, tuples) if abs(lam) > core.ROUNDING * core.norm(h))


def _jennrich_factors(unfold1: np.ndarray, t1: np.ndarray, t2: np.ndarray, r: int, gap: float):
    """Column directions shared by two slice mixtures t1, t2 (N1 x N2)."""
    # orthonormal bases for the shared column and row spaces
    gc = unfold1 @ unfold1.conj().T
    wc = linalg.herm_part_eig(gc)
    p = wc.eigenvectors[:, ::-1][:, :r]
    stacked = np.vstack([t1, t2])
    gr = stacked.conj().T @ stacked
    wr = linalg.herm_part_eig(gr)
    q = wr.eigenvectors[:, ::-1][:, :r]

    s1 = p.conj().T @ t1 @ q
    s2 = p.conj().T @ t2 @ q
    cond = np.linalg.cond(s2)
    if not np.isfinite(cond) or cond > COND_MAX:
        raise DegenerateSlices("second slice mixture is numerically singular")
    f = s1 @ np.linalg.inv(s2)
    evals, evecs = np.linalg.eig(f)
    # ratios of two random mixtures carry no unit, so the scale is kept at least 1
    scale = float(np.abs(evals).max())
    for i in range(r):
        for j in range(i + 1, r):
            if abs(evals[i] - evals[j]) <= gap * max(scale, 1.0):
                raise DegenerateSlices(
                    f"generalized eigenvalues collide: |{evals[i]:.6g} - {evals[j]:.6g}|"
                )
    return [p @ evecs[:, j] for j in range(r)]
