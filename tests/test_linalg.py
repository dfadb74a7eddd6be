import numpy as np
import pytest

from hermitia import linalg
from hermitia.errors import NoConvergence, SymmetryViolation, ZeroTensor

from conftest import random_unitary


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier expansion of det(tI - A); oracle independent of
    any eigensolver."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -(a @ m).trace() / k
    return coeffs


def eigs_by_charpoly(a: np.ndarray) -> np.ndarray:
    roots = np.roots(charpoly_coefficients(a))
    return np.sort(roots.real)


def random_hermitian_matrix(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


class TestHermEig:
    def test_identity(self):
        sd = linalg.herm_eig(np.eye(3))
        assert np.allclose(sd.eigenvalues, 1.0)

    def test_diag(self):
        sd = linalg.herm_eig(np.diag([3.0, -1.0]))
        assert np.allclose(sd.eigenvalues, [-1.0, 3.0])

    def test_against_charpoly_oracle(self, rng):
        for n in (3, 4):
            for _ in range(10):
                a = random_hermitian_matrix(rng, n)
                sd = linalg.herm_eig(a)
                assert np.abs(sd.eigenvalues - eigs_by_charpoly(a)).max() < 1e-8

    def test_reconstruction_and_unitarity(self, rng):
        for n in (2, 5, 9):
            a = random_hermitian_matrix(rng, n)
            sd = linalg.herm_eig(a)
            scale = 1.0 + np.linalg.norm(a)
            assert np.linalg.norm(sd.reconstruct() - a) <= 1e-10 * scale
            v = sd.eigenvectors
            assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10

    def test_unitary_conjugation_invariance(self, rng):
        a = random_hermitian_matrix(rng, 4)
        q = random_unitary(rng, 4)
        w1 = linalg.herm_eig(a).eigenvalues
        w2 = linalg.herm_eig(q @ a @ q.conj().T).eigenvalues
        assert np.abs(w1 - w2).max() < 1e-8

    def test_real_input_stays_real(self, rng):
        a = rng.standard_normal((5, 5))
        a = (a + a.T) / 2
        sd = linalg.herm_eig(a)
        assert np.abs(sd.eigenvectors.imag).max() == 0.0

    def test_rejects_nonhermitian(self):
        with pytest.raises(SymmetryViolation):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_moderate_size(self, rng):
        a = random_hermitian_matrix(rng, 32)
        sd = linalg.herm_eig(a)
        scale = 1.0 + np.linalg.norm(a)
        assert np.linalg.norm(sd.reconstruct() - a) <= 1e-10 * scale

    def test_zero_matrix(self):
        sd = linalg.herm_eig(np.zeros((3, 3)))
        assert np.allclose(sd.eigenvalues, 0.0)
        assert np.allclose(sd.eigenvectors, np.eye(3))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            linalg.herm_eig(np.diag([1.0, 2.0]))


class TestHermEigStack:
    def test_matches_per_matrix_calls(self, rng):
        for n in (2, 3, 5):
            stack = np.array([random_hermitian_matrix(rng, n) for _ in range(6)])
            sd = linalg.herm_eig(stack)
            assert sd.eigenvalues.shape == (6, n) and sd.eigenvectors.shape == (6, n, n)
            for a, w, v in zip(stack, sd.eigenvalues, sd.eigenvectors):
                one = linalg.herm_eig(a)
                assert np.abs(w - one.eigenvalues).max() < 1e-12
                # simple spectra: columns agree up to a unit phase
                overlap = np.abs(np.sum(v.conj() * one.eigenvectors, axis=0))
                assert np.abs(overlap - 1.0).max() < 1e-10
            rec = sd.reconstruct()
            assert np.abs(rec - stack).max() < 1e-10 * (1 + np.abs(stack).max())

    def test_zero_member_gets_identity(self, rng):
        stack = np.array([random_hermitian_matrix(rng, 3), np.zeros((3, 3))])
        sd = linalg.herm_eig(stack)
        assert np.array_equal(sd.eigenvalues[1], np.zeros(3))
        assert np.array_equal(sd.eigenvectors[1], np.eye(3))

    def test_size_one_stack(self):
        sd = linalg.herm_eig(np.array([[[2.0]], [[-1.0]], [[0.0]]]))
        assert np.array_equal(sd.eigenvalues, [[2.0], [-1.0], [0.0]])
        assert np.array_equal(sd.eigenvectors, np.ones((3, 1, 1)))

    def test_one_nonhermitian_member_rejected(self, rng):
        stack = np.array([random_hermitian_matrix(rng, 2), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(SymmetryViolation, match="member 1"):
            linalg.herm_eig(stack)

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            linalg.herm_eig(np.array([np.diag([1.0, 2.0]), np.eye(2)]))

    def test_real_stack_stays_real(self, rng):
        g = rng.standard_normal((4, 3, 3))
        sd = linalg.herm_eig(g + np.swapaxes(g, 1, 2))
        assert np.abs(sd.eigenvectors.imag).max() == 0.0


def test_phase_normalize_rows_match_vector_calls(rng):
    rows = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    rows[1, 0] = 0.0  # pivot moves to the second entry
    rows[2] = 0.0  # no significant entry: unchanged
    rows[3, :2] = 1e-14  # below the significance threshold
    out = linalg.phase_normalize(rows)
    for row, got in zip(rows, out):
        assert np.array_equal(got, linalg.phase_normalize(row))
    assert np.array_equal(out[2], rows[2])
    for i, pivot in ((0, 0), (1, 1), (3, 2), (4, 0)):
        p = rows[i, pivot]
        assert np.array_equal(out[i], rows[i] * (np.conj(p) / abs(p)))
        assert out[i, pivot].real > 0 and abs(out[i, pivot].imag) < 1e-15


class TestSpectralScale:
    def test_top_is_largest_magnitude(self):
        assert linalg.herm_eig(np.diag([-3.0, 1.0, 2.0])).top == 3.0

    @pytest.mark.parametrize("s", [1.0, 1e-12, 1e-100])
    def test_is_psd_is_relative_to_top(self, s):
        sd = linalg.herm_eig(np.diag([-1e-11, 1.0]) * s)
        assert sd.is_psd(1e-10)
        assert not sd.is_psd(1e-12)

    @pytest.mark.parametrize("s", [1.0, 1e-20])
    def test_kept_pairs_ascending_above_the_cutoff(self, s, rng):
        u = random_unitary(rng, 3)
        sd = linalg.herm_eig(u @ np.diag([-3.0, 1.0, 2.0]) @ u.conj().T * s)
        kept = sd.kept(0.5)
        assert [w / s for w, _ in kept] == pytest.approx([-3.0, 2.0])
        for (_, v), col in zip(kept, (0, 2)):
            assert abs(abs(np.vdot(v, u[:, col])) - 1.0) < 1e-12

    def test_zero_matrix_is_psd_with_nothing_kept(self):
        sd = linalg.herm_eig(np.zeros((3, 3)))
        assert sd.top == 0.0
        assert sd.is_psd(0.0)
        assert sd.kept(0.0) == []


class TestMatrixRank:
    def test_zero(self):
        assert linalg.matrix_rank(np.zeros((3, 3))) == 0

    def test_outer_product(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert linalg.matrix_rank(np.outer(u, v.conj())) == 1

    def test_basis_flattening_rank2(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 3] = 1.0
        m[3, 0] = 1.0
        assert linalg.matrix_rank(m) == 2

    def test_permutation_invariance(self, rng):
        a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        p = np.eye(4)[rng.permutation(4)]
        q = np.eye(5)[rng.permutation(5)]
        assert linalg.matrix_rank(a) == linalg.matrix_rank(p @ a @ q)


class TestPsdProject:
    def test_psd_unchanged(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g @ g.conj().T
        assert np.linalg.norm(linalg.psd_project(a) - a) < 1e-9 * (1 + np.linalg.norm(a))

    def test_clips_diag(self):
        out = linalg.psd_project(np.diag([1.0, -2.0]))
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_nearest_among_samples(self, rng):
        a = random_hermitian_matrix(rng, 3)
        out = linalg.psd_project(a)
        d_out = np.linalg.norm(out - a)
        for _ in range(100):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            p = g @ g.conj().T
            assert d_out <= np.linalg.norm(p - a) + 1e-12

    def test_idempotent(self, rng):
        a = random_hermitian_matrix(rng, 4)
        once = linalg.psd_project(a)
        twice = linalg.psd_project(once)
        assert np.linalg.norm(twice - once) < 1e-9 * (1 + np.linalg.norm(once))

    def test_stack_matches_per_matrix_calls(self, rng):
        for n in (2, 4, 9):
            stack = np.array([random_hermitian_matrix(rng, n) for _ in range(5)])
            out = linalg.psd_project(stack)
            assert out.shape == stack.shape
            for a, got in zip(stack, out):
                assert np.abs(got - linalg.psd_project(a)).max() < 1e-12
                assert np.array_equal(got, got.conj().T)

    def test_stack_with_nonhermitian_member_rejected(self, rng):
        stack = np.array([random_hermitian_matrix(rng, 3) for _ in range(3)])
        stack[2, 0, 1] += 1.0
        with pytest.raises(SymmetryViolation, match="stack member 2"):
            linalg.psd_project(stack)


class TestRank1Factor:
    def test_exact_rank1(self, rng):
        t = np.multiply.outer(
            np.multiply.outer(rng.standard_normal(2) + 1j * rng.standard_normal(2),
                              rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
        )
        _, res = linalg.rank1_factor(t)
        assert res <= 1e-10

    def test_identity_matrix_residual(self):
        # best rank-1 of I_2 removes one unit singular value out of sqrt(2)
        _, res = linalg.rank1_factor(np.eye(2))
        assert res == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_scale_invariant(self, rng):
        t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        _, r1 = linalg.rank1_factor(t)
        _, r2 = linalg.rank1_factor((3.0 - 4.0j) * t)
        assert r1 == pytest.approx(r2, rel=1e-10)

    def test_zero_rejected(self):
        with pytest.raises(ZeroTensor):
            linalg.rank1_factor(np.zeros((2, 2)))


def test_matrix_rank_random_rank_deficient(rng):
    # random low-rank products over six decades of scale are classified exactly
    for _ in range(150):
        n = int(rng.integers(3, 13))
        r = int(rng.integers(1, n))
        x = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        y = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        a = (x @ y) * (10.0 ** rng.integers(-3, 4))
        assert linalg.matrix_rank(a) == r


def test_matrix_rank_wide_singular_value_span(rng):
    # nonzero singular values from 1 down to 1e-6: a rank computed from the
    # Gram matrix A*A would see a 1e12 spread, the SVD sees 1e6
    n, r = 64, 40
    u = random_unitary(rng, n)[:, :r]
    v = random_unitary(rng, n)[:, :r]
    a = (u * np.logspace(0.0, -6.0, r)) @ v.conj().T
    assert linalg.matrix_rank(a) == r
    assert linalg.matrix_rank(a.conj().T) == r
