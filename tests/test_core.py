import dataclasses

import numpy as np
import pytest

from hermitia import core
from hermitia.errors import (
    NonRealDiagonal,
    NonRealInner,
    ShapeMismatch,
    SymmetryViolation,
)

from conftest import MERGED_TOLERANCES, cr_psd_ii_tensor, hankel_tensor, hankel_witness, random_unitary


def brute_force_matmul(ms, t):
    """Entrywise-sum contraction oracle, independent of the tensordot path."""
    out_shape = tuple(m.shape[0] for m in ms)
    out = np.zeros(out_shape, dtype=complex)
    for out_idx in np.ndindex(*out_shape):
        acc = 0.0 + 0.0j
        for in_idx in np.ndindex(*t.shape):
            w = t[in_idx]
            for k, (o, i) in enumerate(zip(out_idx, in_idx)):
                w = w * ms[k][o, i]
            acc += w
        out[out_idx] = acc
    return out


class TestValidate:
    def test_identity_matrix_case(self):
        h = core.validate((2,), np.eye(2))
        assert h.entry((1,), (1,)) == 1 and h.entry((1,), (2,)) == 0

    def test_basis_tensor_from_raw_entries(self):
        raw = np.zeros((4, 4), dtype=complex)
        raw[0, 3] = 1.0
        raw[3, 0] = 1.0
        h = core.validate((2, 2), raw)
        assert h == core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2))

    def test_broken_conjugate_pair_rejected(self):
        raw = np.zeros((2, 2), dtype=complex)
        raw[0, 1] = 1.0  # (1, 0) pair against (0, 0)
        with pytest.raises(SymmetryViolation):
            core.validate((2,), raw)

    def test_symmetrizes_within_tolerance(self):
        raw = np.array([[1.0, 0.5 + 1e-11j], [0.5 - 2e-11j, 2.0]])
        h = core.validate((2,), raw)
        assert abs(h.mat[0, 1] - np.conj(h.mat[1, 0])) == 0.0

    def test_rejects_nan(self):
        raw = np.zeros((2, 2), dtype=complex)
        raw[0, 0] = np.nan
        with pytest.raises(ShapeMismatch):
            core.validate((2,), raw)

    def test_wrong_size(self):
        with pytest.raises(ShapeMismatch):
            core.validate((2, 2), np.eye(3))


class TestRank1:
    def test_elementary_vectors(self):
        e1 = np.array([1.0, 0.0])
        h = core.rank1(1.0, [e1, e1], dims=(2, 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(h.mat, expected)

    def test_integer_grid_example(self):
        h = core.rank1(1.0, [np.array([1, 2, 3]), np.array([1, 1, 1])])
        for i1 in range(1, 4):
            for i2 in range(1, 4):
                for j1 in range(1, 4):
                    for j2 in range(1, 4):
                        assert h.entry((i1, i2), (j1, j2)) == i1 * j1

    def test_linear_in_coefficient(self, rng):
        vs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
        a = core.rank1(1.0, vs)
        b = core.rank1(-2.0, vs)
        assert np.allclose(b.mat, -2.0 * a.mat)

    def test_validates(self, rng):
        vs = [rng.standard_normal(3) + 1j * rng.standard_normal(3)]
        h = core.rank1(0.7, vs)
        core.validate(h.dims, h.mat)  # must not raise


class TestInner:
    def test_identity_pair(self):
        # little oracle: direct summation over all 16 entries
        ident = core.identity_tensor((2, 2))
        acc = 0.0
        for i in range(4):
            for j in range(4):
                acc += (ident.mat[i, j] * np.conj(ident.mat[i, j])).real
        assert acc == 4.0
        assert core.inner(ident, ident) == pytest.approx(4.0, abs=1e-12)

    def test_rank1_self_inner(self, rng):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h = core.rank1(1.0, [u, v])
        want = (np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2) ** 2
        assert core.inner(h, h) == pytest.approx(want, rel=1e-12)

    def test_hankel_against_witness(self):
        assert core.inner(hankel_tensor(), hankel_witness()) == pytest.approx(-1 / 6, abs=1e-12)

    def test_symmetry(self, rng):
        a = core.random_hermitian((2, 2), 1)
        b = core.random_hermitian((2, 2), 2)
        assert core.inner(a, b) == pytest.approx(core.inner(b, a), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            core.inner(core.identity_tensor((2,)), core.identity_tensor((3,)))

    def test_corrupted_inner_raises(self):
        bad = core.HermitianTensor((2,), np.array([[0, 1j], [1j, 0]]))  # not Hermitian
        with pytest.raises(NonRealInner):
            core.inner(bad, core.basis_tensor((1,), (2,), 1.0, (2,)))


class TestNorm:
    def test_zero(self):
        assert core.norm(core.zero_tensor((2, 3))) == 0.0

    def test_offdiagonal_basis(self):
        h = core.basis_tensor((1, 2), (2, 1), 1.0, (2, 2))
        assert core.norm(h) == pytest.approx(np.sqrt(2), rel=1e-14)

    def test_rank1_unit(self):
        e1 = np.array([1.0, 0.0])
        assert core.norm(core.rank1(1.0, [e1, e1])) == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1e-200, 1e-310, 5e-324, 1e200, 1e300])
    def test_no_underflow_or_overflow(self, scale):
        # the squares leave the float range; np.linalg.norm gives 0 or inf
        h = core.rank1(1.0, [np.ones(2), np.ones(3)])
        assert core.norm(core.HermitianTensor(h.dims, scale * h.mat)) == pytest.approx(6.0 * scale, rel=1e-15, abs=0.0)

    def test_exact_under_powers_of_two(self):
        h = core.random_hermitian((2, 3), 5)
        for e in (-700, -40, 40, 700):
            assert core.norm(core.HermitianTensor(h.dims, np.ldexp(1.0, e) * h.mat)) == np.ldexp(core.norm(h), e)


class TestEvalPoly:
    def test_cr_psd_ii_at_complex_point(self):
        x = np.array([1j, 1.0])
        assert core.eval_poly(cr_psd_ii_tensor(), [x, x]) == pytest.approx(-3.0, abs=1e-12)

    def test_identity_at_unit_vectors(self, rng):
        ident = core.identity_tensor((2, 3))
        xs = []
        for n in (2, 3):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            xs.append(v / np.linalg.norm(v))
        assert core.eval_poly(ident, xs) == pytest.approx(1.0, rel=1e-12)

    def test_zero_vector_kills_value(self, rng):
        h = core.random_hermitian((2, 2), 3)
        xs = [np.zeros(2), rng.standard_normal(2) + 0j]
        assert core.eval_poly(h, xs) == 0.0

    def test_imaginary_residue_small(self, rng):
        for seed in range(20):
            h = core.random_hermitian((2, 2), seed)
            xs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
            z = core.kron_vector(xs)
            val = complex(np.vdot(z, h.mat @ z))
            assert abs(val.imag) < 1e-12 * max(1.0, abs(val))

    def test_against_entrywise_sum_oracle(self, rng):
        # guards the index convention: holomorphic labels pair with the
        # conjugated variables and vice versa
        import itertools

        for seed in range(5):
            h = core.random_hermitian((2, 3), seed)
            xs = [rng.standard_normal(2) + 1j * rng.standard_normal(2),
                  rng.standard_normal(3) + 1j * rng.standard_normal(3)]
            arr = h.as_array()
            acc = 0.0 + 0.0j
            for I in itertools.product(range(2), range(3)):
                for J in itertools.product(range(2), range(3)):
                    term = arr[I + J]
                    for k, (i, j) in enumerate(zip(I, J)):
                        term = term * np.conj(xs[k][i]) * xs[k][j]
                    acc += term
            assert abs(acc.real - core.eval_poly(h, xs)) < 1e-10


class TestMatmul:
    def test_identity_matrices(self, rng):
        t = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        out = core.matmul([np.eye(2), np.eye(3)], t)
        assert np.allclose(out, t)

    def test_permutation_on_rank1(self, rng):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t = np.multiply.outer(u, v)
        p3 = np.eye(3)[[2, 0, 1]]
        p2 = np.eye(2)[[1, 0]]
        out = core.matmul([p3, p2], t)
        assert np.allclose(out, np.multiply.outer(p3 @ u, p2 @ v))

    def test_against_bruteforce_oracle(self, rng):
        t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ms = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
        assert np.allclose(core.matmul(ms, t), brute_force_matmul(ms, t), atol=1e-12)

    def test_adjoint_identity(self, rng):
        # <(M) x T1, T2> = <T1, (M*) x T2> on random small instances
        for _ in range(5):
            t1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            t2 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            ms = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                  rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
            lhs = np.vdot(t2, core.matmul(ms, t1))
            rhs = np.vdot(core.matmul([m.conj().T for m in ms], t2), t1)
            assert abs(lhs - rhs) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            core.matmul([np.eye(3)], np.zeros((2,)))


class TestCongruent:
    def test_identity(self):
        h = core.random_hermitian((2, 2), 7)
        out = core.congruent([np.eye(2), np.eye(2)], h)
        assert np.allclose(out.mat, h.mat)

    def test_unitary_preserves_norm(self, rng):
        for seed in range(10):
            h = core.random_hermitian((2, 3), seed)
            qs = [random_unitary(rng, 2), random_unitary(rng, 3)]
            out = core.congruent(qs, h)
            assert abs(core.norm(out) - core.norm(h)) < 1e-10

    def test_inverse_roundtrip(self, rng):
        for seed in range(5):
            h = core.random_hermitian((2, 2), seed)
            qs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
            out = core.congruent([np.linalg.inv(q) for q in qs], core.congruent(qs, h))
            assert np.allclose(out.mat, h.mat, atol=1e-9)

    def test_adjoint_roundtrip_unitary(self, rng):
        h = core.random_hermitian((3,), 5)
        q = random_unitary(rng, 3)
        out = core.congruent([q.conj().T], core.congruent([q], h))
        assert np.allclose(out.mat, h.mat, atol=1e-10)


class TestBasisTensor:
    def test_diagonal_matches_rank1(self):
        e1 = np.array([1.0, 0.0])
        assert core.basis_tensor((1, 1), (1, 1), 1.0, (2, 2)) == core.validate(
            (2, 2), core.rank1(1.0, [e1, e1]).mat
        )

    def test_imaginary_offdiagonal(self):
        h = core.basis_tensor((1, 1), (2, 2), 1j, (2, 2))
        assert h.entry((1, 1), (2, 2)) == 1j
        assert h.entry((2, 2), (1, 1)) == -1j
        assert core.norm(h) == pytest.approx(np.sqrt(2))

    def test_imaginary_diagonal_rejected(self):
        with pytest.raises(NonRealDiagonal):
            core.basis_tensor((1,), (1,), 1j, (2,))


class TestRandomHermitian:
    def test_deterministic(self):
        assert core.random_hermitian((2, 2), 9) == core.random_hermitian((2, 2), 9)

    def test_validates(self):
        h = core.random_hermitian((2, 3), 4)
        core.validate(h.dims, h.mat)

    def test_seeds_differ(self):
        for s in range(3):
            a = core.random_hermitian((2, 2), s)
            b = core.random_hermitian((2, 2), s + 100)
            assert not np.allclose(a.mat, b.mat)


def test_constructors_close_under_validation(rng):
    # every operation returning a tensor yields output that re-validates
    from hermitia import decomposition, flatten

    outputs = [
        core.identity_tensor((2, 3)),
        core.zero_tensor((2, 2)),
        core.rank1(-1.5, [rng.standard_normal(2) + 1j * rng.standard_normal(2),
                          rng.standard_normal(3) + 1j * rng.standard_normal(3)]),
        core.basis_tensor((1, 2), (2, 3), 2 - 1j, (2, 3)),
        core.random_hermitian((2, 2), 31),
    ]
    outputs.append(core.congruent([random_unitary(rng, 2), random_unitary(rng, 2)],
                                  core.random_hermitian((2, 2), 8)))
    outputs.append(decomposition.assemble(decomposition.basis_decomposition(
        (1, 1), (2, 2), 1j, (2, 2))))
    outputs.append(flatten.hermitian_unflatten(np.eye(4), (2, 2)))
    for h in outputs:
        core.validate(h.dims, h.mat)  # must not raise at the default tolerance


def test_multi_index_order_first_nonzero_rule():
    # I < J iff the first nonzero entry of I - J is negative
    idx = core.multi_indices((2, 3))
    for a in range(len(idx)):
        for b in range(len(idx)):
            diff = [x - y for x, y in zip(idx[a], idx[b])]
            first = next((d for d in diff if d != 0), 0)
            assert (idx[a] < idx[b]) == (first < 0)
    assert [core.flat_index((2, 3), i) for i in idx] == list(range(6))


def test_degenerate_mode_sizes(rng):
    # size-1 modes flow through construction, flattening, and evaluation
    from hermitia import decomposition, flatten

    for dims in ((1,), (1, 2), (2, 1), (1, 1), (1, 2, 2)):
        h = core.random_hermitian(dims, 7)
        core.validate(dims, h.mat)
        assert flatten.cubic_flatten(h).dims[2] == 1 or min(dims) > 1
        vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in dims]
        r1 = core.rank1(1.3, vs)
        out = decomposition.jennrich_decompose(r1, 1, seed=0)
        assert isinstance(out, decomposition.HermitianDecomposition)
        assert decomposition.residual(out, r1) <= 1e-10


class TestTolerances:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(core.Tolerances)]
                             + list(MERGED_TOLERANCES))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-12])
    def test_rejects_non_finite_and_negative_fields(self, name, value):
        # a retired name is no field: its value check runs on the field that absorbed it
        field = MERGED_TOLERANCES.get(name, (name,))[0]
        with pytest.raises(ValueError, match=f"tolerance {field} must be finite and >= 0"):
            core.Tolerances(**{field: value})
        with pytest.raises(ValueError):
            dataclasses.replace(core.TOL, **{field: value})
        if field != name:
            with pytest.raises(TypeError):
                core.Tolerances(**{name: value})
            with pytest.raises(TypeError):
                dataclasses.replace(core.TOL, **{name: value})

    def test_nan_sym_tol_no_longer_admits_a_non_hermitian_matrix(self):
        with pytest.raises(ValueError):
            core.validate((2,), [[1, 1], [0, 1]], core.Tolerances(symTol=float("nan")))
        with pytest.raises(SymmetryViolation):
            core.validate((2,), [[1, 1], [0, 1]], core.Tolerances(symTol=0.5))

    @pytest.mark.parametrize("scale", [1e-200, 4.0 ** -20, 1.0, 4.0 ** 20])
    def test_one_hermitian_rule_at_every_scale(self, scale):
        # validate, hermitian_unflatten and the psd-Kronecker blocks share it
        arr = scale * np.array([[1.0, 1.0 + 1e-8], [1.0, 1.0]])
        core.check_hermitian(arr, core.Tolerances(symTol=1e-8), "matrix")
        with pytest.raises(SymmetryViolation, match="matrix is not Hermitian"):
            core.check_hermitian(arr, core.Tolerances(symTol=1e-9), "matrix")

    def test_zero_and_default_fields_are_valid(self):
        assert core.Tolerances(**{f.name: 0.0 for f in dataclasses.fields(core.Tolerances)})
        assert core.TOL == core.Tolerances()
