import dataclasses

import numpy as np
import pytest

from hermitia import core, decomposition as dec, linalg, real_herm, spectral as sp
from hermitia.errors import ShapeMismatch

from conftest import cr_psd_ii_tensor, random_unit


class TestContract:
    def test_identity_tensor_returns_xk(self, rng):
        ident = core.identity_tensor((2, 3))
        xs = [random_unit(rng, 2), random_unit(rng, 3)]
        assert np.allclose(sp.contract_k(ident, xs, 1), xs[0], atol=1e-12)
        assert np.allclose(sp.contract_k(ident, xs, 2), xs[1], atol=1e-12)

    def test_rank1_at_own_vectors(self, rng):
        vs = [random_unit(rng, 2), random_unit(rng, 2)]
        h = core.rank1(1.7, vs)
        for k in (1, 2):
            lhs = complex(np.vdot(vs[k - 1], sp.contract_k(h, vs, k)))
            assert lhs == pytest.approx(core.eval_poly(h, vs), abs=1e-10)

    def test_rayleigh_identity_random(self, rng):
        for seed in range(10):
            h = core.random_hermitian((2, 2, 2), seed)
            xs = [random_unit(rng, 2) for _ in range(3)]
            for k in (1, 2, 3):
                lhs = complex(np.vdot(xs[k - 1], sp.contract_k(h, xs, k)))
                assert abs(lhs - core.eval_poly(h, xs)) < 1e-10

    def test_mode_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            sp.contract_k(core.identity_tensor((2,)), [np.ones(2)], 2)


class TestHermEigenpair:
    def test_identity_tensor_all_ones(self):
        search = sp.herm_eigenpair(core.identity_tensor((2, 2)), seed=3, starts=4)
        assert search.tuples
        for t in search.tuples:
            assert t.value == pytest.approx(1.0, abs=1e-10)

    def test_cr_psd_ii_complex_negative(self):
        search = sp.herm_eigenpair(cr_psd_ii_tensor(), seed=0, field="COMPLEX")
        assert search.tuples
        assert search.tuples[0].value <= -0.75 + 1e-8

    def test_cr_psd_ii_real_nonnegative(self):
        search = sp.herm_eigenpair(cr_psd_ii_tensor(), seed=0, field="REAL")
        assert search.tuples
        for t in search.tuples:
            assert t.value >= -1e-8
            for v in t.vectors:
                assert np.abs(v.imag).max() == 0.0

    def test_kkt_residuals_and_value(self):
        emitted = 0
        for seed in range(5):
            h = core.random_hermitian((2, 2), seed)
            search = sp.herm_eigenpair(h, seed=seed, starts=8)
            for t in search.tuples:
                emitted += 1
                assert max(t.residuals) <= 1e-8
                assert abs(t.value - core.eval_poly(h, t.vectors)) <= 1e-10
                for v in t.vectors:
                    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert emitted >= 10

    def test_minimum_upper_bounds_rayleigh(self, rng):
        h = core.random_hermitian((2, 2), 77)
        search = sp.herm_eigenpair(h, seed=7, starts=16)
        best = search.tuples[0].value
        for _ in range(20):
            xs = [random_unit(rng, 2), random_unit(rng, 2)]
            assert best <= core.eval_poly(h, xs) + 1e-8

    def test_deterministic_under_seed(self):
        h = core.random_hermitian((2, 2), 5)
        a = sp.herm_eigenpair(h, seed=11, starts=4)
        b = sp.herm_eigenpair(h, seed=11, starts=4)
        assert a.failed_starts == b.failed_starts
        assert [t.value for t in a.tuples] == [t.value for t in b.tuples]
        for ta, tb in zip(a.tuples, b.tuples):
            assert ta.residuals == tb.residuals
            assert all(np.array_equal(u, v) for u, v in zip(ta.vectors, tb.vectors))

    def test_lockstep_sequences_do_not_couple(self, monkeypatch):
        # every sequence of the batch matches the same start run alone
        h = core.random_hermitian((2, 3), 4)
        runs = []
        lockstep = sp._lockstep

        def spy(h, x0, largest, *rest):
            out = lockstep(h, x0, largest, *rest)
            runs.append((x0, largest, rest, out))
            return out

        monkeypatch.setattr(sp, "_lockstep", spy)
        search = sp.herm_eigenpair(h, seed=3, starts=6)
        (x0, largest, rest, batch), = runs
        assert len(batch) == 12
        for b, tup in enumerate(batch):
            alone, = lockstep(h, [x[b:b + 1] for x in x0], largest[b:b + 1], *rest)
            assert abs(alone.value - tup.value) <= 1e-10
            assert np.abs(np.subtract(alone.residuals, tup.residuals)).max() <= 1e-10
            for u, v in zip(alone.vectors, tup.vectors):
                assert np.abs(u - v).max() <= 1e-10
        assert all(any(t is u for u in batch) for t in search.tuples)

    def test_deduplication_follows_eig_gap_tol(self):
        # the 32 sequences reach 4 tuples up to phases; with no gap every
        # rounding difference counts, and a gap of 2 (values lie within
        # +-norm(h), overlaps within 1 - 2 < 0) makes every tuple one
        h = core.random_hermitian((2, 2), 1)

        def found(gap):
            tols = dataclasses.replace(core.TOL, eigGapTol=gap)
            return [t.value for t in sp.herm_eigenpair(h, seed=0, tols=tols).tuples]

        default = found(core.TOL.eigGapTol)
        assert len(default) == 4 and np.all(np.diff(default) > 0.1)
        assert len(found(0.0)) > 4 and set(np.round(found(0.0), 9)) == set(np.round(default, 9))
        assert found(2.0) == default[:1]

    def test_matrix_case_matches_eigenvalues(self):
        h = core.random_hermitian((3,), 2)
        search = sp.herm_eigenpair(h, seed=0, starts=8)
        w = linalg.herm_eig(h.mat).eigenvalues
        found = [t.value for t in search.tuples]
        assert min(found) == pytest.approx(w[0], abs=1e-8)
        assert max(found) == pytest.approx(w[-1], abs=1e-8)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_real_field_runs_on_the_real_form(self, dims):
        h = core.random_hermitian(dims, 4)
        got, want = (sp.herm_eigenpair(t, seed=2, field="REAL") for t in (h, real_herm.real_form(h)))
        assert got.failed_starts == want.failed_starts
        assert [t.value for t in got.tuples] == [t.value for t in want.tuples]
        for a, b in zip(got.tuples, want.tuples):
            assert all(np.array_equal(u, v) and not u.imag.any() for u, v in zip(a.vectors, b.vectors))
            assert abs(core.eval_poly(h, a.vectors) - a.value) <= 1e-12 * core.norm(h)


class TestOrthogonalDecompose:
    def test_rank1(self, rng):
        u, v = random_unit(rng, 2), random_unit(rng, 2)
        h = core.rank1(2.0, [u, v])
        od = sp.orthogonal_decompose(h)
        assert len(od.terms) == 1
        t = od.terms[0]
        assert t.value == pytest.approx(2.0, rel=1e-10)
        assert t.unit_rank1

    def test_basis_1122_two_terms(self):
        od = sp.orthogonal_decompose(core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2)))
        vals = sorted(t.value for t in od.terms)
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-10)
        for t in od.terms:
            assert t.rank1_residual == pytest.approx(1 / np.sqrt(2), abs=1e-8)
            assert not t.unit_rank1

    def test_reconstruction_and_orthogonality(self):
        for seed in range(5):
            h = core.random_hermitian((2, 2), seed)
            od = sp.orthogonal_decompose(h)
            acc = np.zeros(h.dims + h.dims, dtype=complex)
            for t in od.terms:
                acc += t.value * np.multiply.outer(t.tensor, t.tensor.conj())
                assert np.linalg.norm(t.tensor) == pytest.approx(1.0, abs=1e-10)
            assert np.abs(acc - h.as_array()).max() <= 1e-8 * core.norm(h)
            for i, ti in enumerate(od.terms):
                for tj in od.terms[i + 1:]:
                    assert abs(np.vdot(tj.tensor, ti.tensor)) <= 1e-9


class TestUnitaryDecomposable:
    def test_orthonormal_rank1_yes(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        h = dec.assemble(dec.HermitianDecomposition((2, 2), ((1.0, (e1, e1)), (-2.0, (e2, e2)))))
        rep = sp.unitary_decomposable(h)
        assert rep.status == "YES"
        assert dec.residual(rep.decomposition, h) <= 1e-8

    def test_basis_1122_no(self):
        rep = sp.unitary_decomposable(core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2)))
        assert rep.status == "NO"
        assert rep.witness is not None

    def test_identity_inconclusive(self):
        rep = sp.unitary_decomposable(core.identity_tensor((2, 2)))
        assert rep.status == "INCONCLUSIVE"
