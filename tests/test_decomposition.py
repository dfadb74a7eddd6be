import itertools

import numpy as np
import pytest

from hermitia import core, decomposition as dec, linalg
from hermitia.errors import (
    DegenerateTerm,
    NonRealDiagonal,
    RankBudgetExceeded,
    ShapeMismatch,
)

from conftest import hankel_tensor, random_unit


def two_term_grid_decomposition():
    """The [3,3] tensor with entries i1*j1 + i2*j2."""
    return dec.HermitianDecomposition(
        (3, 3),
        (
            (1.0, (np.array([1.0, 2.0, 3.0], dtype=complex), np.ones(3, dtype=complex))),
            (1.0, (np.ones(3, dtype=complex), np.array([1.0, 2.0, 3.0], dtype=complex))),
        ),
    )


@pytest.mark.parametrize("lam, entry", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, complex(0.0, np.inf))])
def test_non_finite_terms_are_refused(lam, entry):
    with pytest.raises(ShapeMismatch, match="finite"):
        dec.HermitianDecomposition((2, 2), ((lam, (np.array([entry, 0.0]), np.ones(2))),))


class TestAssemble:
    def test_empty_is_zero(self):
        d = dec.HermitianDecomposition((2, 2), ())
        assert core.norm(dec.assemble(d)) == 0.0

    def test_four_term_basis_example(self):
        c = 1.5 - 0.5j
        d = dec.basis_decomposition((1, 2), (3, 4), c, (4, 4))
        assert dec.residual(d, core.basis_tensor((1, 2), (3, 4), c, (4, 4))) < 1e-12

    def test_hankel_closed_form(self):
        s10 = np.sqrt(10.0)
        u1 = np.array([(-s10 - 1) / 3, 1.0], dtype=complex)
        u2 = np.array([(s10 - 1) / 3, 1.0], dtype=complex)
        e = np.ones(2, dtype=complex)
        l1 = (40 - 13 * s10) / 20
        l2 = (40 + 13 * s10) / 20
        d = dec.HermitianDecomposition(
            (2, 2), ((l1, (u1, e)), (l1, (e, u1)), (l2, (u2, e)), (l2, (e, u2)))
        )
        assert dec.residual(d, hankel_tensor()) < 1e-9


class TestResidual:
    def test_own_terms(self, rng):
        terms = tuple(
            (float(rng.standard_normal()), (random_unit(rng, 2), random_unit(rng, 2)))
            for _ in range(3)
        )
        d = dec.HermitianDecomposition((2, 2), terms)
        assert dec.residual(d, dec.assemble(d)) < 1e-10

    def test_zero_decomposition(self):
        h = core.random_hermitian((2, 2), 5)
        assert dec.residual(dec.HermitianDecomposition((2, 2), ()), h) == core.norm(h)

    def test_first_order_in_coefficient(self, rng):
        vs = (random_unit(rng, 2), random_unit(rng, 2))
        base = dec.HermitianDecomposition((2, 2), ((1.0, vs),))
        h = dec.assemble(base)
        term_norm = core.norm(core.rank1(1.0, vs))
        for eps in (1e-3, 1e-5):
            pert = dec.HermitianDecomposition((2, 2), ((1.0 + eps, vs),))
            assert dec.residual(pert, h) == pytest.approx(eps * term_norm, rel=1e-6)


class TestFits:
    @pytest.mark.parametrize("scale", [4.0 ** -20, 1.0, 4.0 ** 20])
    def test_relative_to_the_norm(self, rng, scale):
        vs = (random_unit(rng, 2), random_unit(rng, 2))
        h = core.rank1(scale, vs)
        off = dec.HermitianDecomposition((2, 2), ((scale * (1.0 + 1e-6), vs),))
        assert dec.fits(off, h, 2e-6) and not dec.fits(off, h, 5e-7)

    def test_zero_tensor_has_no_floor(self):
        z = core.zero_tensor((2, 2))
        assert dec.fits(dec.HermitianDecomposition((2, 2), ()), z, 0.0)
        tiny = dec.HermitianDecomposition((2, 2), ((1e-100, (np.ones(2), np.ones(2))),))
        assert not dec.fits(tiny, z, 1e300)


class TestNormalize:
    def test_fixed_point(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        d = dec.HermitianDecomposition((2,), ((2.0, (e1,)),))
        n = dec.normalize(d)
        assert n.terms[0][0] == 2.0
        assert np.array_equal(n.terms[0][1][0], e1)

    def test_scaling_absorbed_matrix_case(self):
        # (lambda=1, u=(2,0)) -> (lambda=4, u=(1,0)): both sides evaluated entrywise
        d = dec.HermitianDecomposition((2,), ((1.0, (np.array([2.0, 0.0], dtype=complex),)),))
        n = dec.normalize(d)
        assert n.terms[0][0] == pytest.approx(4.0)
        assert np.allclose(n.terms[0][1][0], [1.0, 0.0])
        assert np.allclose(dec.assemble(n).mat, dec.assemble(d).mat, atol=1e-12)

    def test_assemble_invariant(self, rng):
        terms = tuple(
            (float(rng.standard_normal()),
             (3.0 * random_unit(rng, 2), 1j * random_unit(rng, 3)))
            for _ in range(4)
        )
        d = dec.HermitianDecomposition((2, 3), terms)
        n = dec.normalize(d)
        assert np.allclose(dec.assemble(n).mat, dec.assemble(d).mat, atol=1e-12)
        for lam, vs in n.terms:
            for v in vs:
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
                assert abs(lead.imag) < 1e-12 and lead.real > 0


class TestKruskal:
    def test_four_vector_example(self):
        u = [np.array(v, dtype=complex) for v in ((1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))]
        d = dec.HermitianDecomposition((3, 3, 3), tuple((1.0, (v, v, v)) for v in u))
        rep = dec.kruskal_certify(d)
        assert rep.certified and rep.rank == 4
        assert rep.kruskal_ranks == (3, 3, 3)
        assert rep.margin == 2

    def test_grid_example_rank2(self):
        rep = dec.kruskal_certify(two_term_grid_decomposition())
        assert rep.certified and rep.rank == 2

    def test_repeated_terms_uncertified(self, rng):
        vs = (random_unit(rng, 3), random_unit(rng, 3))
        d = dec.HermitianDecomposition((3, 3), ((1.0, vs), (2.0, vs)))
        rep = dec.kruskal_certify(d)
        assert not rep.certified

    def test_zero_vector_rejected(self):
        d = dec.HermitianDecomposition(
            (2, 2), ((1.0, (np.zeros(2, dtype=complex), np.ones(2, dtype=complex))),)
        )
        with pytest.raises(DegenerateTerm):
            dec.kruskal_certify(d)

    def test_invariant_under_permutation_and_scaling(self, rng):
        u = [np.array(v, dtype=complex) for v in ((1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))]
        base = dec.HermitianDecomposition((3, 3, 3), tuple((1.0, (v, v, v)) for v in u))
        before = dec.kruskal_certify(base)
        scaled_terms = []
        for lam, vs in reversed(base.terms):
            factors = [complex(rng.standard_normal() + 1j * rng.standard_normal()) for _ in vs]
            comp = lam / np.prod([abs(f) ** 2 for f in factors])
            scaled_terms.append((float(comp), tuple(f * v for f, v in zip(factors, vs))))
        scaled = dec.HermitianDecomposition((3, 3, 3), tuple(scaled_terms))
        after = dec.kruskal_certify(scaled)
        assert before.certified == after.certified
        assert before.rank == after.rank
        assert np.allclose(dec.assemble(scaled).mat, dec.assemble(base).mat, atol=1e-9)

    def test_congruence_rank_consistency(self, rng):
        base = two_term_grid_decomposition()
        qs = []
        for n in base.dims:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            qs.append(g + 2.0 * np.eye(n))  # well conditioned
        moved = dec.HermitianDecomposition(
            base.dims,
            tuple((lam, tuple(q @ v for q, v in zip(qs, vs))) for lam, vs in base.terms),
        )
        rep = dec.kruskal_certify(moved)
        assert rep.certified and rep.rank == 2
        lhs = dec.assemble(moved).mat
        rhs = core.congruent(qs, dec.assemble(base)).mat
        assert np.allclose(lhs, rhs, atol=1e-8)


def _random_terms(rng, dims, r) -> dec.HermitianDecomposition:
    return dec.HermitianDecomposition(
        dims, tuple((1.0, tuple(random_unit(rng, n) for n in dims)) for _ in range(r)))


def _exhaustive_kruskal_rank(vectors, rel_tol) -> int:
    # every subset of every size, with no shortcut and no cap
    m = np.column_stack(vectors)
    n, r = m.shape
    for k in range(1, min(r, n) + 1):
        if any(linalg.matrix_rank(m[:, s], rel_tol) < k for s in itertools.combinations(range(r), k)):
            return k - 1
    return min(r, n)


@pytest.fixture
def rank_tests(monkeypatch):
    """Shapes of the matrices whose rank ``kruskal_certify`` tests."""
    shapes = []
    matrix_rank = linalg.matrix_rank

    def spy(a, rel_tol):
        shapes.append(a.shape)
        return matrix_rank(a, rel_tol)

    monkeypatch.setattr(dec.linalg, "matrix_rank", spy)
    return shapes


class TestKruskalBudget:
    def test_full_column_rank_takes_one_test(self, rng, rank_tests):
        # mode 1: 12 vectors in C^16, one rank test; mode 2: 12 in C^4,
        # sum_{k <= 4} C(12, k) = 793 subset tests
        rep = dec.kruskal_certify(_random_terms(rng, (16, 4), 12))
        assert rep.kruskal_ranks == (12, 4) and rep.certified
        assert rank_tests[0] == (16, 12) and len(rank_tests) == 1 + 793

    def test_cap_refuses_16_terms_on_8x2(self, rng, rank_tests):
        # mode 1 needs sum_{k <= 8} C(16, k) = 39203 subset tests
        with pytest.raises(RankBudgetExceeded, match=f"{dec.KRUSKAL_TESTS} subset rank tests made"):
            dec.kruskal_certify(_random_terms(rng, (8, 2), 16))
        assert len(rank_tests) == dec.KRUSKAL_TESTS

    def test_cap_never_refuses_15_terms(self, rng, rank_tests):
        # 15 vectors in C^15 whose only dependent subset is the whole set:
        # 2^15 - 2 proper subsets pass, and the first 15-subset fails
        vs = [random_unit(rng, 15) for _ in range(14)]
        vs.append(sum(vs))
        assert dec._kruskal_rank(vs, core.TOL.rankTol) == 14
        assert len(rank_tests) == 1 + 2 ** 15 - 1

    @pytest.mark.parametrize("dims, r", [((8, 8), 3), ((4, 4, 4), 3), ((2, 2, 2, 2, 2, 2), 2)])
    def test_wide_flatten_reports_unchanged(self, rng, dims, r):
        # the HDECs that Jennrich writes on the wide-flatten shapes, plus
        # repeated and parallel mode vectors
        for _ in range(5):
            d = _random_terms(rng, dims, r)
            repeated = dec.HermitianDecomposition(dims, (d.terms[0],) + d.terms[:-1])
            (lam, vs), *rest = d.terms
            parallel = dec.HermitianDecomposition(dims, tuple(rest) + ((lam, (2j * rest[0][1][0],) + vs[1:]),))
            for case in (d, repeated, parallel):
                want = tuple(_exhaustive_kruskal_rank(case.mode_vectors(k), core.TOL.rankTol)
                             for k in range(1, len(dims) + 1))
                rep = dec.kruskal_certify(case)
                assert rep.kruskal_ranks == want
                assert rep.certified == (sum(want) >= r + len(dims))


class TestBasisDecomposition:
    def test_diagonal_single_term(self):
        d = dec.basis_decomposition((1, 1), (1, 1), 1.0, (2, 2))
        assert len(d) == 1
        assert dec.residual(d, core.basis_tensor((1, 1), (1, 1), 1.0, (2, 2))) < 1e-14

    def test_full_cycle_2d(self):
        d = dec.basis_decomposition((1, 1), (2, 2), 1.0, (2, 2))
        assert len(d) == 4
        for lam, _ in d.terms:
            assert abs(lam) == pytest.approx(0.25)
        nodes = sorted(
            (round(v[1].real, 6), round(v[1].imag, 6)) for _, vs in d.terms for v in (vs[1],)
        )
        assert nodes == sorted([(1, 0), (-1, 0), (0, 1), (0, -1)])

    def test_reference_display_vectors_44(self):
        c = 1.0
        d = dec.basis_decomposition((1, 2), (3, 4), c, (4, 4))
        want = {
            (0.25, (c, 0, 1, 0), (0, 1, 0, 1)),
            (0.25, (c, 0, -1, 0), (0, 1, 0, -1)),
            (-0.25, (c, 0, 1j, 0), (0, 1, 0, 1j)),
            (-0.25, (c, 0, -1j, 0), (0, 1, 0, -1j)),
        }
        got = set()
        for lam, vs in d.terms:
            got.add((round(lam, 12), tuple(np.round(vs[0], 12)), tuple(np.round(vs[1], 12))))
        assert got == want

    def test_term_count_formula(self):
        for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
            indices = core.multi_indices(dims)
            for I in indices:
                for J in indices:
                    differing = sum(1 for a, b in zip(I, J) if a != b)
                    if differing == 0:
                        d = dec.basis_decomposition(I, J, 1.0, dims)
                        assert len(d) == 1
                    else:
                        d = dec.basis_decomposition(I, J, 1j, dims)
                        assert len(d) == 2 * differing

    def test_assemble_matches_over_shapes_and_scalars(self):
        for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
            indices = core.multi_indices(dims)
            for I, J in itertools.product(indices, indices):
                for c in (1.0, 1j, 2 - 1j):
                    if I == J and c != 1.0:
                        continue
                    d = dec.basis_decomposition(I, J, c, dims)
                    target = core.basis_tensor(I, J, c, dims)
                    assert dec.residual(d, target) < 1e-10

    def test_size_one_mode_rejected(self):
        # a size-1 mode cannot carry differing labels; the label range
        # check fires before the dimension check can
        with pytest.raises(ShapeMismatch):
            dec.basis_decomposition((2, 1), (1, 2), 1.0, (2, 1))
        d = dec.basis_decomposition((1, 1), (2, 1), 1.0, (2, 1))
        assert len(d) == 2

    def test_imaginary_diagonal_rejected(self):
        with pytest.raises(NonRealDiagonal):
            dec.basis_decomposition((1, 2), (1, 2), 1j, (2, 2))


class TestExpectedRank:
    def test_known_values(self):
        assert dec.expected_hrank((2, 2)) == 4
        assert dec.expected_hrank((2, 2, 2)) == 10

    def test_matrix_case_formula(self):
        for n in range(1, 8):
            assert dec.expected_hrank((n,)) == int(np.ceil(n * n / (2 * n - 1)))


class TestJennrich:
    def test_grid_example(self):
        h = dec.assemble(two_term_grid_decomposition())
        out = dec.jennrich_decompose(h, 2, seed=0)
        assert isinstance(out, dec.HermitianDecomposition)
        assert len(out) == 2
        assert dec.residual(out, h) <= 1e-8 * core.norm(h)

    def test_random_rank1(self, rng):
        h = core.rank1(1.0, [random_unit(rng, 3), random_unit(rng, 2)])
        out = dec.jennrich_decompose(h, 1, seed=1)
        assert isinstance(out, dec.HermitianDecomposition)
        assert len(out) == 1
        assert dec.residual(out, h) <= 1e-10

    def test_full_tensor_unknown(self):
        h = core.random_hermitian((2, 2), 17)
        out = dec.jennrich_decompose(h, 1, seed=0)
        assert isinstance(out, dec.Unknown)

    def test_budget_regime(self):
        h = core.random_hermitian((2, 2), 3)
        with pytest.raises(RankBudgetExceeded):
            dec.jennrich_decompose(h, 3, seed=0)

    def test_zero_tensor_empty(self):
        out = dec.jennrich_decompose(core.zero_tensor((2, 2)), 1, seed=0)
        assert isinstance(out, dec.HermitianDecomposition)
        assert len(out) == 0

    def test_recovers_random_low_rank(self, rng):
        for seed in range(4):
            terms = tuple(
                (float(1.0 + rng.random()), (random_unit(rng, 3), random_unit(rng, 3)))
                for _ in range(2)
            )
            h = dec.assemble(dec.HermitianDecomposition((3, 3), terms))
            out = dec.jennrich_decompose(h, 2, seed=seed)
            assert isinstance(out, dec.HermitianDecomposition)
            assert dec.residual(out, h) <= 1e-7 * core.norm(h)

    def test_rectangular_with_mode_permutation(self, rng):
        # [2, 3] sends mode 1 (the smaller) to the last slot internally;
        # recovered vectors must land back on their original modes
        terms = tuple(
            (1.0 + float(rng.random()), (random_unit(rng, 2), random_unit(rng, 3)))
            for _ in range(2)
        )
        h = dec.assemble(dec.HermitianDecomposition((2, 3), terms))
        out = dec.jennrich_decompose(h, 2, seed=3)
        assert isinstance(out, dec.HermitianDecomposition)
        assert dec.residual(out, h) <= 1e-7 * core.norm(h)
        assert tuple(len(v) for v in out.terms[0][1]) == (2, 3)

    def test_order_three(self, rng):
        terms = tuple(
            (1.0, (random_unit(rng, 2), random_unit(rng, 2), random_unit(rng, 2)))
            for _ in range(2)
        )
        h = dec.assemble(dec.HermitianDecomposition((2, 2, 2), terms))
        out = dec.jennrich_decompose(h, 2, seed=5)
        assert isinstance(out, dec.HermitianDecomposition)
        assert dec.residual(out, h) <= 1e-7 * core.norm(h)

    def test_shape_mismatch_residual(self):
        d = dec.HermitianDecomposition((2, 2), ())
        with pytest.raises(ShapeMismatch):
            dec.residual(d, core.identity_tensor((3,)))
