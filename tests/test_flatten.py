import numpy as np
import pytest

from hermitia import core, decomposition as dec, flatten, linalg
from hermitia.errors import OrderTooSmall, ShapeMismatch, SymmetryViolation

from conftest import diag_pair_tensor, random_unit, separable_62_matrix


class TestHermitianFlatten:
    def test_rank1_is_kron_outer(self, rng):
        u = random_unit(rng, 2)
        v = random_unit(rng, 3)
        h = core.rank1(2.5, [u, v])
        z = np.kron(u, v)
        assert np.allclose(flatten.hermitian_flatten(h).mat, 2.5 * np.outer(z, z.conj()))

    def test_shares_the_read_only_entries(self):
        h = core.random_hermitian((2, 3), 0)
        fm = flatten.hermitian_flatten(h)
        assert fm.mat is h.mat and not fm.mat.flags.writeable

    def test_basis_rank_two(self):
        h = core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2))
        assert linalg.matrix_rank(flatten.hermitian_flatten(h).mat) == 2

    def test_separable_62_first_row(self):
        m = separable_62_matrix()
        assert m[0].tolist() == [5, -4, 1, -5]
        h = flatten.hermitian_unflatten(m, (2, 2))
        assert np.allclose(flatten.hermitian_flatten(h).mat, m)


class TestUnflatten:
    def test_roundtrip_exact(self):
        for seed in range(5):
            h = core.random_hermitian((2, 3), seed)
            fm = flatten.hermitian_flatten(h)
            assert np.array_equal(flatten.hermitian_unflatten(fm, h.dims).mat, h.mat)
            assert np.array_equal(flatten.hermitian_flatten(flatten.hermitian_unflatten(fm, h.dims)).mat, fm.mat)

    def test_identity_matrix_gives_identity_tensor(self, rng):
        # unflatten(I_N) has H[I, I] = 1, the product polynomial (x1*x1)...(xm*xm)
        h = flatten.hermitian_unflatten(np.eye(6), (2, 3))
        for _ in range(5):
            xs = [random_unit(rng, 2), random_unit(rng, 3)]
            prod = np.prod([float(np.vdot(x, x).real) for x in xs])
            assert core.eval_poly(h, xs) == pytest.approx(prod, rel=1e-12)

    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(SymmetryViolation):
            flatten.hermitian_unflatten(m, (2, 2))

    def test_wrong_size(self):
        with pytest.raises(ShapeMismatch):
            flatten.hermitian_unflatten(np.eye(4), (2, 3))

    def test_wrong_source_map_rejected(self):
        # a [2,2] Kronecker flattening is also 4x4 but lives in other coordinates
        kf = flatten.kronecker_flatten(core.random_hermitian((2, 2), 3))
        with pytest.raises(ShapeMismatch):
            flatten.hermitian_unflatten(kf, (2, 2))
        with pytest.raises(ShapeMismatch):
            flatten.verify_M_rank(kf, dec.HermitianDecomposition((2, 2), ()))


class TestKroneckerFlatten:
    def test_diag_pair_identity(self):
        for n in (2, 3):
            kf = flatten.kronecker_flatten(diag_pair_tensor(n))
            assert np.allclose(kf.mat, np.eye(n * n))
            assert linalg.matrix_rank(kf.mat) == n * n

    def test_rank1_input(self, rng):
        h = core.rank1(1.0, [random_unit(rng, 2), random_unit(rng, 3)])
        kf = flatten.kronecker_flatten(h)
        assert linalg.matrix_rank(kf.mat) == 1

    def test_linearity(self, rng):
        h1 = core.random_hermitian((2, 2), 11)
        h2 = core.random_hermitian((2, 2), 12)
        a = 1.7
        comb = core.validate((2, 2), a * h1.mat + h2.mat)
        lhs = flatten.kronecker_flatten(comb).mat
        rhs = a * flatten.kronecker_flatten(h1).mat + flatten.kronecker_flatten(h2).mat
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_order_one_rejected(self):
        with pytest.raises(OrderTooSmall):
            flatten.kronecker_flatten(core.identity_tensor((3,)))


class TestCubicFlatten:
    def test_rank1_structure(self, rng):
        vs = [random_unit(rng, 2), random_unit(rng, 3)]
        h = core.rank1(1.0, vs)
        cu = flatten.cubic_flatten(h)
        pv = [vs[k] for k in cu.mode_order]
        a = core.kron_vector(pv)
        b = core.kron_vector([v.conj() for v in pv[:-1]])
        c = pv[-1].conj()
        want = np.multiply.outer(np.multiply.outer(a, b), c)
        assert np.allclose(cu.array, want, atol=1e-12)
        _, res = linalg.rank1_factor(cu.array)
        assert res < 1e-10

    def test_decomposition_term_structure(self, rng):
        terms = tuple(
            (float(rng.standard_normal()), (random_unit(rng, 2), random_unit(rng, 2)))
            for _ in range(3)
        )
        d = dec.HermitianDecomposition((2, 2), terms)
        cu = flatten.cubic_flatten(dec.assemble(d))
        acc = np.zeros(cu.dims, dtype=complex)
        for lam, vs in d.terms:
            pv = [vs[k] for k in cu.mode_order]
            a = core.kron_vector(pv)
            b = core.kron_vector([v.conj() for v in pv[:-1]])
            acc += lam * np.multiply.outer(np.multiply.outer(a, b), pv[-1].conj())
        assert np.allclose(acc, cu.array, atol=1e-12)

    def test_zero(self):
        cu = flatten.cubic_flatten(core.zero_tensor((2, 2)))
        assert not cu.array.any()

    def test_smallest_mode_last(self):
        cu = flatten.cubic_flatten(core.random_hermitian((3, 2, 2), 1))
        assert cu.dims == (12, 6, 2)
        assert cu.mode_order[-1] in (1, 2)
        # ties pick the smallest mode index
        assert cu.mode_order == (0, 2, 1)

    def test_linearity(self):
        h1 = core.random_hermitian((2, 3), 5)
        h2 = core.random_hermitian((2, 3), 6)
        comb = core.validate((2, 3), 0.5 * h1.mat - 2.0 * h2.mat)
        lhs = flatten.cubic_flatten(comb).array
        rhs = 0.5 * flatten.cubic_flatten(h1).array - 2.0 * flatten.cubic_flatten(h2).array
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestBounds:
    def test_basis_tensor_slack(self):
        h = core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2))
        rep = flatten.hrank_lower_bound(h)
        assert rep.m_rank == 2
        assert rep.bound >= 2
        assert rep.bound <= 4  # true Hermitian rank

    def test_diag_pair_bound(self):
        rep = flatten.hrank_lower_bound(diag_pair_tensor(2))
        assert rep.m_rank == 1
        assert rep.kappa_rank == 4
        assert rep.bound == 4

    def test_rank1(self, rng):
        h = core.rank1(1.0, [random_unit(rng, 2), random_unit(rng, 2)])
        assert flatten.hrank_lower_bound(h).bound == 1

    def test_unit_shift_sum_slack(self):
        # sum of the four single-slot e1->e2 shifts: flattening rank 2,
        # but a 4-term decomposition (the border of rank-2 tensors)
        arr = np.zeros((2, 2, 2, 2), dtype=complex)
        for pos in range(4):
            idx = [0, 0, 0, 0]
            idx[pos] = 1
            arr[tuple(idx)] = 1.0
        b = core.validate((2, 2), arr)
        assert flatten.hrank_lower_bound(b).m_rank == 2
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        four = dec.HermitianDecomposition(
            (2, 2),
            (
                (0.5, (e1, e1 + e2)),
                (-0.5, (e1, e1 - e2)),
                (0.5, (e1 + e2, e1)),
                (-0.5, (e1 - e2, e1)),
            ),
        )
        assert dec.residual(four, b) <= 1e-12
        # rank-2 tensors approach it: k([e1 + e2/k, e1 + e2/k] - [e1, e1])
        for k in (10.0, 100.0, 1000.0):
            shifted = e1 + e2 / k
            approx = dec.HermitianDecomposition(
                (2, 2), ((k, (shifted, shifted)), (-k, (e1, e1)))
            )
            assert dec.residual(approx, b) <= 3.0 / k

    def test_congruence_preserves_m_rank(self, rng):
        for seed in range(5):
            h = core.random_hermitian((2, 2), seed)
            if seed % 2:
                h = core.basis_tensor((1, 2), (2, 1), 1.0 + 1j, (2, 2))
            qs = [np.eye(2) + 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                  for _ in range(2)]
            transformed = core.congruent(qs, h)
            assert linalg.matrix_rank(transformed.mat) == linalg.matrix_rank(h.mat)

    def test_rank_bounded_by_terms(self, rng):
        for r in (1, 2, 3):
            terms = tuple(
                (float(1 + rng.random()), (random_unit(rng, 2), random_unit(rng, 3)))
                for _ in range(r)
            )
            h = dec.assemble(dec.HermitianDecomposition((2, 3), terms))
            assert linalg.matrix_rank(flatten.hermitian_flatten(h).mat) <= r
            assert linalg.matrix_rank(flatten.kronecker_flatten(h).mat) <= r


class TestVerifyMRank:
    def test_own_flattening(self, rng):
        terms = tuple(
            (float(rng.standard_normal()), (random_unit(rng, 2), random_unit(rng, 2)))
            for _ in range(3)
        )
        d = dec.HermitianDecomposition((2, 2), terms)
        m = flatten.hermitian_flatten(dec.assemble(d))
        assert flatten.verify_M_rank(m, d)

    def test_perturbed_entry_fails(self, rng):
        terms = ((1.0, (random_unit(rng, 2), random_unit(rng, 2))),)
        d = dec.HermitianDecomposition((2, 2), terms)
        m = flatten.hermitian_flatten(dec.assemble(d)).mat.copy()
        m[0, 0] += 1e-3
        assert not flatten.verify_M_rank(m, d)

    def test_separable_62_kron_terms(self):
        m = separable_62_matrix()
        from hermitia import separability
        pk = separability.PsdKronDecomp(
            (2, 2),
            (
                (np.array([[2.0, -1.0], [-1.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 3.0]])),
                (np.array([[3.0, 2.0], [2.0, 2.0]]), np.array([[1.0, -2.0], [-2.0, 5.0]])),
            ),
        )
        d = separability.psd_kron_to_decomposition(pk)
        assert flatten.verify_M_rank(m, d)

    def test_shape_mismatch(self):
        d = dec.HermitianDecomposition((2, 2), ())
        with pytest.raises(ShapeMismatch):
            flatten.verify_M_rank(np.zeros((3, 3)), d)
