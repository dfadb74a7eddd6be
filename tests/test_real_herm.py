import numpy as np
import pytest

from hermitia import core, decomposition as dec, flatten, real_herm as rh
from hermitia.errors import NotRealDecomposable, NotShape22, RealityViolation

from conftest import hankel_tensor


def random_real_decomposition(rng, dims, r):
    terms = tuple(
        (float(rng.standard_normal() or 0.5),
         tuple(rng.standard_normal(n).astype(complex) for n in dims))
        for _ in range(r)
    )
    return dec.HermitianDecomposition(dims, terms)


class TestIsRealDecomposable:
    def test_hankel(self):
        ok, witness = rh.is_real_decomposable(hankel_tensor())
        assert ok and witness is None

    def test_basis_1122_with_witness(self):
        ok, witness = rh.is_real_decomposable(core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2)))
        assert not ok
        assert witness == ((1, 1), (2, 2), (1, 2), (2, 1))

    def test_real_rank1_sums(self, rng):
        for dims in ((2, 2), (2, 3), (2, 2, 2)):
            d = random_real_decomposition(rng, dims, 4)
            ok, _ = rh.is_real_decomposable(dec.assemble(d))
            assert ok

    def test_complex_entries_rejected(self):
        with pytest.raises(RealityViolation):
            rh.is_real_decomposable(core.basis_tensor((1, 1), (2, 2), 1j, (2, 2)))

    def test_first_of_two_violations_in_scan_order(self):
        # group {1,3}{1,3} has the earlier reference (1133) but breaks only
        # at 1331; group {1,2}{2,3} breaks at 1322, first in scan order
        arr = np.zeros((3, 3, 3, 3))
        arr[0, 1, 1, 2] = arr[1, 2, 0, 1] = 0.25
        arr[0, 2, 1, 1] = arr[1, 1, 0, 2] = 0.5
        arr[0, 2, 2, 0] = arr[2, 0, 0, 2] = 1.0
        ok, witness = rh.is_real_decomposable(core.validate((3, 3), arr))
        assert not ok
        assert witness == ((1, 2), (2, 3), (1, 3), (2, 2))
        assert rh._witness_text(witness) == "1223 vs 1322"

    def test_matches_the_pairwise_scan(self, rng):
        def scan(h, tol):
            # reference: the first member of each group seen, entry by entry
            arr = h.as_array().real
            seen = {}
            for I in core.multi_indices(h.dims):
                for J in core.multi_indices(h.dims):
                    key = tuple((min(i, j), max(i, j)) for i, j in zip(I, J))
                    val = arr[tuple(i - 1 for i in I) + tuple(j - 1 for j in J)]
                    if key not in seen:
                        seen[key] = (I, J, val)
                    elif abs(val - seen[key][2]) > tol:
                        return False, seen[key][:2] + (I, J)
            return True, None

        for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
            base = dec.assemble(random_real_decomposition(rng, dims, 3)).mat.real
            for k in range(4):
                mat = base.copy()
                for _ in range(k):
                    i, j = rng.integers(mat.shape[0], size=2)
                    mat[i, j] += 0.1
                    mat[j, i] = mat[i, j]
                h = core.HermitianTensor(dims, mat.astype(complex))
                assert rh.is_real_decomposable(h) == scan(h, core.TOL.symTol)

    def test_large_identity_and_planted_violation(self):
        h = core.identity_tensor((16, 16))
        assert rh.is_real_decomposable(h) == (True, None)
        arr = h.as_array().real.copy()
        arr[2, 4, 6, 1] = arr[6, 1, 2, 4] = 0.5
        ok, witness = rh.is_real_decomposable(core.validate((16, 16), arr))
        assert not ok
        assert witness == ((3, 2), (7, 5), (3, 5), (7, 2))


class TestDims:
    def test_22(self):
        assert rh.dim_RD((2, 2)) == 9
        assert rh.dim_R((2, 2)) == 10

    def test_matrix_case_equal(self):
        for n in (2, 3, 5):
            assert rh.dim_RD((n,)) == rh.dim_R((n,)) == n * (n + 1) // 2

    def test_222(self):
        assert rh.dim_RD((2, 2, 2)) == 27
        assert rh.dim_R((2, 2, 2)) == 36

    def test_strict_gap(self):
        for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
            assert rh.dim_RD(dims) < rh.dim_R(dims)


class TestRealDecompose:
    def test_hankel(self):
        d = rh.real_decompose(hankel_tensor())
        assert dec.residual(d, hankel_tensor()) <= 1e-9 * core.norm(hankel_tensor())
        assert len(d) <= 18
        assert all(np.abs(v.imag).max() == 0.0 for _, vs in d.terms for v in vs)
        assert len(d) >= flatten.hrank_lower_bound(hankel_tensor()).bound

    def test_real_diagonal_tensor(self):
        arr = np.zeros((2, 2, 2, 2))
        arr[0, 1, 0, 1] = 2.5
        arr[1, 0, 1, 0] = -1.0
        h = core.validate((2, 2), arr)
        d = rh.real_decompose(h)
        assert dec.residual(d, h) <= 1e-10
        coeffs = sorted(round(lam, 9) for lam, _ in d.terms)
        assert coeffs == [-1.0, 2.5]

    def test_matrix_case(self, rng):
        a = rng.standard_normal((3, 3))
        h = core.validate((3,), (a + a.T) / 2)
        d = rh.real_decompose(h)
        assert dec.residual(d, h) <= 1e-10 * core.norm(h)
        assert len(d) <= 3

    def test_random_instances(self, rng):
        for dims in ((2, 2), (2, 3), (2, 2, 2)):
            for _ in range(5):
                h = dec.assemble(random_real_decomposition(rng, dims, 3))
                d = rh.real_decompose(h)
                assert dec.residual(d, h) <= 1e-8 * max(core.norm(h), 1e-300)
                assert all(np.abs(v.imag).max() == 0.0 for _, vs in d.terms for v in vs)

    def test_rejects_undecomposable(self):
        with pytest.raises(NotRealDecomposable):
            rh.real_decompose(core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2)))

    def test_rho_map_identity(self, rng):
        # lifting a slice through the pair map reproduces the two-slice placement
        x = rng.standard_normal(2).astype(complex)
        lifted = dec.HermitianDecomposition(
            (2, 2),
            (
                (0.5, (x, np.array([1.0, 1.0], dtype=complex))),
                (-0.5, (x, np.array([1.0, -1.0], dtype=complex))),
            ),
        )
        arr = dec.assemble(lifted).as_array()
        outer = np.multiply.outer(x, x.conj())
        # slice (s=1, t=2) and (s=2, t=1) both carry x x^T; diagonal slices vanish
        assert np.allclose(arr[:, 0, :, 1], outer)
        assert np.allclose(arr[:, 1, :, 0], outer)
        assert np.allclose(arr[:, 0, :, 0], 0)
        assert np.allclose(arr[:, 1, :, 1], 0)


class TestNormalForm22:
    def test_identity_blocks(self):
        m = np.zeros((4, 4))
        m[:2, :2] = np.eye(2)
        m[2:, 2:] = np.eye(2)
        nf = rh.normal_form_22(flatten.hermitian_unflatten(m, (2, 2)))
        assert nf.s == 1
        assert np.allclose(nf.D, 0)
        assert np.allclose(nf.u, 0)
        assert np.allclose(nf.Btilde, np.eye(2))

    def test_zero_end_blocks(self):
        m = np.zeros((4, 4))
        c = np.array([[1.0, 2.0], [2.0, -1.0]])
        m[:2, 2:] = c
        m[2:, :2] = c
        nf = rh.normal_form_22(flatten.hermitian_unflatten(m, (2, 2)))
        assert nf.s == 0
        w = np.sort(np.diag(nf.D))
        assert np.allclose(w, [-np.sqrt(5), np.sqrt(5)], atol=1e-10)

    def test_definite_block_means_u_zero(self, rng):
        for _ in range(20):
            g = rng.standard_normal((2, 2))
            a = g @ g.T + 0.1 * np.eye(2)
            b = rng.standard_normal((2, 2)); b = (b + b.T) / 2
            c = rng.standard_normal((2, 2)); c = (c + c.T) / 2
            m = np.block([[a, c], [c, b]])
            nf = rh.normal_form_22(flatten.hermitian_unflatten(m, (2, 2)))
            assert np.linalg.norm(nf.u) == 0.0
            assert abs(nf.s) == 1

    def test_reconstruction_random(self, rng):
        for seed in range(30):
            d = random_real_decomposition(rng, (2, 2), 4)
            h = dec.assemble(d)
            nf = rh.normal_form_22(h)  # raises if reconstruction drifts
            got = core.congruent([nf.P.astype(complex), nf.Q.astype(complex)], h).mat.real
            top = np.hstack([nf.s * np.eye(2) - nf.s * np.outer(nf.u, nf.u), nf.D])
            bot = np.hstack([nf.D, nf.s * nf.Btilde])
            want = np.vstack([top, bot])
            assert np.abs(got - want).max() <= 1e-8 * max(1.0, np.abs(want).max())

    def test_wrong_shape(self):
        with pytest.raises(NotShape22):
            rh.normal_form_22(core.identity_tensor((2, 3)))


class TestRealDecompose22:
    def test_definite_block_four_terms(self, rng):
        for _ in range(10):
            g = rng.standard_normal((2, 2))
            a = g @ g.T + 0.2 * np.eye(2)
            b = rng.standard_normal((2, 2)); b = (b + b.T) / 2
            c = rng.standard_normal((2, 2)); c = (c + c.T) / 2
            h = flatten.hermitian_unflatten(np.block([[a, c], [c, b]]), (2, 2))
            d = rh.real_decompose_22(h)
            assert len(d) <= 4
            assert dec.residual(d, h) <= 1e-8 * core.norm(h)

    def test_zero_blocks_explicit_four_terms(self):
        m = np.zeros((4, 4))
        dmat = np.diag([2.0, -3.0])
        m[:2, 2:] = dmat
        m[2:, :2] = dmat
        h = flatten.hermitian_unflatten(m, (2, 2))
        d = rh.real_decompose_22(h)
        assert len(d) <= 4
        assert dec.residual(d, h) <= 1e-10
        lams = sorted(round(lam, 9) for lam, _ in d.terms)
        assert lams == [-1.5, -1.0, 1.0, 1.5]

    def test_identity_tensor(self):
        ident = core.identity_tensor((2, 2))
        d = rh.real_decompose_22(ident)
        assert len(d) <= 4
        assert dec.residual(d, ident) <= 1e-10

    def test_general_random_at_most_five(self, rng):
        over = 0
        for _ in range(30):
            h = dec.assemble(random_real_decomposition(rng, (2, 2), 5))
            d = rh.real_decompose_22(h)
            assert len(d) <= 5
            assert dec.residual(d, h) <= 1e-8 * core.norm(h)
            assert all(np.abs(v.imag).max() == 0.0 for _, vs in d.terms for v in vs)
            over += len(d) == 5

    def test_hankel(self):
        d = rh.real_decompose_22(hankel_tensor())
        assert len(d) <= 5
        assert dec.residual(d, hankel_tensor()) <= 1e-8 * core.norm(hankel_tensor())

    def test_zero_tensor(self):
        z = core.zero_tensor((2, 2))
        assert len(rh.real_decompose(z)) == 0
        assert len(rh.real_decompose_22(z)) == 0
