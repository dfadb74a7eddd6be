import numpy as np
import pytest

from hermitia import core, decomposition as dec, flatten, real_herm, separability as sep, spectral
from hermitia.errors import BlockNotPsd, NonRealInner, ShapeMismatch, SymmetryViolation

from conftest import hankel_tensor, hankel_witness, random_unit, random_unitary, separable_62_matrix


def pk_62() -> sep.PsdKronDecomp:
    return sep.PsdKronDecomp(
        (2, 2),
        (
            (np.array([[2.0, -1.0], [-1.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 3.0]])),
            (np.array([[3.0, 2.0], [2.0, 2.0]]), np.array([[1.0, -2.0], [-2.0, 5.0]])),
        ),
    )


def tensor_62() -> core.HermitianTensor:
    return flatten.hermitian_unflatten(separable_62_matrix(), (2, 2))


class TestVerifyPositive:
    def test_two_rank1_terms(self, rng):
        terms = ((1.0, (random_unit(rng, 2), random_unit(rng, 2))),
                 (1.0, (random_unit(rng, 2), random_unit(rng, 2))))
        d = dec.HermitianDecomposition((2, 2), terms)
        assert sep.verify_positive_decomposition(d, dec.assemble(d))

    def test_negative_coefficient_fails(self, rng):
        terms = ((1.0, (random_unit(rng, 2), random_unit(rng, 2))),
                 (-1e-9, (random_unit(rng, 2), random_unit(rng, 2))))
        d = dec.HermitianDecomposition((2, 2), terms)
        assert not sep.verify_positive_decomposition(d, dec.assemble(d))

    def test_62_reconstruction_real(self):
        d = sep.psd_kron_to_decomposition(pk_62())
        assert sep.verify_positive_decomposition(d, tensor_62(), "REAL", tols=core.Tolerances(fitTol=1e-9))

    def test_real_field_rejects_complex_vectors(self, rng):
        terms = ((1.0, (random_unit(rng, 2), random_unit(rng, 2))),)
        d = dec.HermitianDecomposition((2, 2), terms)
        assert not sep.verify_positive_decomposition(d, dec.assemble(d), "REAL")


class TestPsdKron:
    def test_62_verify(self):
        assert sep.psd_kron_verify(pk_62(), tensor_62())

    def test_62_conversion(self):
        d = sep.psd_kron_to_decomposition(pk_62())
        assert len(d) <= 8
        assert all(lam > 0 for lam, _ in d.terms)
        assert dec.residual(d, tensor_62()) <= 1e-9 * core.norm(tensor_62())

    def test_single_rank1_blocks(self, rng):
        u, v = random_unit(rng, 2), random_unit(rng, 2)
        pk = sep.PsdKronDecomp((2, 2), ((np.outer(u, u.conj()), np.outer(v, v.conj())),))
        d = sep.psd_kron_to_decomposition(pk)
        assert len(d) == 1
        want = core.rank1(1.0, [u, v])
        assert dec.residual(d, want) <= 1e-10

    def test_not_psd_block(self):
        pk = sep.PsdKronDecomp((2, 2), ((np.diag([1.0, -1.0]), np.eye(2)),))
        assert not sep.psd_kron_verify(pk, core.identity_tensor((2, 2)))
        with pytest.raises(BlockNotPsd):
            sep.psd_kron_to_decomposition(pk)

    def test_verify_and_split_share_one_psd_rule(self):
        # -1.5e-8 lies within eigTol of the block's Frobenius norm (200) but
        # not of its spectral norm (100); verifying and splitting both reject
        block = np.diag([100.0, 100.0, 100.0, 100.0, -1.5e-8])
        pk = sep.PsdKronDecomp((5, 1), ((block, np.eye(1)),))
        assert not sep.psd_kron_verify(pk, core.HermitianTensor((5, 1), block))
        with pytest.raises(BlockNotPsd):
            sep.psd_kron_to_decomposition(pk)

    def test_block_within_sym_tol_is_split_by_its_hermitian_part(self):
        # 5e-8 off Hermitian: above the eigensolver's own 1e-8 check, within symTol 1e-7
        pk = sep.PsdKronDecomp((2, 1), ((np.array([[2.0, 5e-8], [0.0, 1.0]]), np.eye(1)),))
        a = core.HermitianTensor((2, 1), np.diag([2.0, 1.0]))
        assert sep.psd_kron_verify(pk, a, core.Tolerances(symTol=1e-7)) is True
        assert sep.psd_kron_verify(pk, a) is False
        with pytest.raises(SymmetryViolation):
            sep.psd_kron_to_decomposition(pk)

    def test_block_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            sep.PsdKronDecomp((2, 2), ((np.eye(3), np.eye(2)),))

    def test_block_symmetry_honours_sym_tol(self):
        # one block 5e-9 off Hermitian: rejected at symTol 1e-9, kept at 1e-8
        (b11, b12), second = pk_62().terms
        pk = sep.PsdKronDecomp((2, 2), ((b11 + np.array([[0, 5e-9], [0, 0]]), b12), second))
        assert not sep.psd_kron_verify(pk, tensor_62())
        assert sep.psd_kron_verify(pk, tensor_62(), core.Tolerances(symTol=1e-8))


class TestDualWitness:
    def test_hankel_witness(self):
        res = sep.dual_witness_check(hankel_tensor(), hankel_witness())
        assert res.status == "ENTANGLED_WITNESS"
        assert res.value == pytest.approx(-1 / 6, abs=1e-12)
        assert res.certificate is not None

    def test_identity_against_separable(self):
        res = sep.dual_witness_check(tensor_62(), core.identity_tensor((2, 2)))
        assert res.status == "INCONCLUSIVE"
        assert res.value >= 0

    def test_inner_product_honours_sym_tol(self):
        # a directly built, slightly non-Hermitian tensor: <a, identity> = -4 + 1e-6i
        a = core.HermitianTensor((2, 2), -np.eye(4) + np.diag([1e-6j, 0, 0, 0]))
        with pytest.raises(NonRealInner):
            sep.dual_witness_check(a, core.identity_tensor((2, 2)))
        res = sep.dual_witness_check(a, core.identity_tensor((2, 2)), core.Tolerances(symTol=1e-5))
        assert res.status == "ENTANGLED_WITNESS"

    def test_non_psd_witness_inconclusive(self):
        b = core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2))  # indefinite flattening
        res = sep.dual_witness_check(hankel_tensor(), b)
        assert res.status == "INCONCLUSIVE"

    def test_duality_consistency(self, rng):
        # certified separable against hsos-certified psd: inner >= -witTol
        d = sep.psd_kron_to_decomposition(pk_62())
        a = tensor_62()
        assert sep.verify_positive_decomposition(d, a)
        for seed in range(10):
            b = dec.assemble(dec.HermitianDecomposition(
                (2, 2), tuple((0.5 + rng.random(), (random_unit(rng, 2), random_unit(rng, 2)))
                              for _ in range(2))))
            from hermitia import psd_sos
            assert psd_sos.hsos_test(b).status == "MEMBER"
            assert core.inner(a, b) >= -1e-9


class TestSearch:
    def test_self_generated_instances(self, rng):
        good = 0
        for seed in range(10):
            terms = tuple((1.0, (random_unit(rng, 2), random_unit(rng, 2))) for _ in range(2))
            a = dec.assemble(dec.HermitianDecomposition((2, 2), terms))
            res = sep.separable_search(a, 2, seed=seed, iters=150)
            if res.status == "SEPARABLE_CERTIFIED":
                good += 1
                assert sep.verify_positive_decomposition(res.decomposition, a)
        assert good >= 8

    def test_later_starts_do_not_change_a_certified_start_0(self, rng):
        terms = tuple((1.0 + k, (random_unit(rng, 2), random_unit(rng, 3))) for k in range(2))
        a = dec.assemble(dec.HermitianDecomposition((2, 3), terms))
        one = sep.separable_search(a, 2, seed=5, starts=1)
        assert one.status == "SEPARABLE_CERTIFIED"
        eight = sep.separable_search(a, 2, seed=5, starts=8)
        assert eight.status == "SEPARABLE_CERTIFIED"
        for (l1, v1), (l8, v8) in zip(one.decomposition.terms, eight.decomposition.terms):
            assert abs(l1 - l8) <= 1e-10 * abs(l1)
            for u, v in zip(v1, v8):
                assert np.abs(u - v).max() <= 1e-10

    def test_deterministic_under_seed(self):
        for a in (tensor_62(), hankel_tensor()):
            first = sep.separable_search(a, 4, seed=2, iters=40)
            again = sep.separable_search(a, 4, seed=2, iters=40)
            assert (first.status, first.note) == (again.status, again.note)
            if first.decomposition is not None:
                for (l1, v1), (l2, v2) in zip(first.decomposition.terms, again.decomposition.terms):
                    assert l1 == l2 and all(np.array_equal(u, v) for u, v in zip(v1, v2))

    def test_hankel_unknown(self):
        res = sep.separable_search(hankel_tensor(), 4, seed=1, iters=60)
        assert res.status == "UNKNOWN"

    def test_zero_tensor(self):
        res = sep.separable_search(core.zero_tensor((2, 2)), 1, seed=0)
        assert res.status == "SEPARABLE_CERTIFIED"
        assert len(res.decomposition) == 0

    def test_rank_budget_early_exit(self):
        res = sep.separable_search(core.identity_tensor((2, 2)), 2, seed=0)
        assert res.status == "UNKNOWN"
        assert "flattening rank" in res.note


def assert_same_verdict(got, want, tol=1e-8):
    assert (got.status, got.field) == (want.status, want.field)
    if want.decomposition is None:
        assert got.decomposition is None
        return
    assert len(got.decomposition) == len(want.decomposition)
    for (l1, v1), (l2, v2) in zip(got.decomposition.terms, want.decomposition.terms):
        assert abs(l1 - l2) <= tol * abs(l2)
        for u, v in zip(v1, v2):
            assert np.abs(u - v).max() <= tol


def separable_23(rng, r=2, real=False) -> core.HermitianTensor:
    """r positive product terms on [2,3], where the pipeline still searches."""
    terms = tuple((1.0 + k, (random_unit(rng, 2, real), random_unit(rng, 3, real))) for k in range(r))
    return dec.assemble(dec.HermitianDecomposition((2, 3), terms))


class TestBudgetLoop:
    """The pipeline searches its rank budgets one at a time, each on its
    own seed, and stops at the first that certifies."""

    def test_pipeline_calls_one_budget_at_a_time(self, rng, monkeypatch):
        a = separable_23(rng)
        calls, search = [], sep.separable_search
        monkeypatch.setattr(sep, "separable_search",
                            lambda a, r, seed, **kw: calls.append((r, seed)) or search(a, r, seed, **kw))
        # no budget above the first that certifies runs, at any effort
        got = sep.separability_pipeline(a, "COMPLEX", effort=50, seed=3)
        assert calls == [(1, 4), (2, 5)]
        assert got.status == "SEPARABLE_CERTIFIED"
        assert got.note == "alternating search succeeded at r=2"

    def test_pipeline_matches_budget_by_budget(self, rng):
        for a in (separable_23(rng, 3), separable_23(rng)):
            got = sep.separability_pipeline(a, "COMPLEX", effort=4, seed=3)
            r, want = next((r, v) for r in range(1, 5)
                           for v in [sep.separable_search(a, r, seed=3 + r)]
                           if v.status == "SEPARABLE_CERTIFIED")
            assert_same_verdict(got, sep.SepVerdict(want.status, decomposition=want.decomposition))
            assert got.note == f"alternating search succeeded at r={r}"


class TestPipeline:
    def test_62_separable(self):
        res = sep.separability_pipeline(tensor_62(), "COMPLEX", effort=4, seed=0)
        assert res.status == "SEPARABLE_CERTIFIED"
        assert sep.verify_positive_decomposition(res.decomposition, tensor_62())

    def test_62_real_transfer(self):
        res = sep.separability_pipeline(tensor_62(), "REAL", effort=4, seed=0)
        assert res.status == "SEPARABLE_CERTIFIED"
        assert sep.verify_positive_decomposition(res.decomposition, tensor_62(), "REAL")

    def test_hankel_entangled_auto_witness(self):
        res = sep.separability_pipeline(hankel_tensor(), "COMPLEX", effort=2, seed=0)
        assert res.status == "ENTANGLED_WITNESS"
        check = sep.dual_witness_check(hankel_tensor(), res.witness)
        assert check.status == "ENTANGLED_WITNESS"

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_auto_witness_is_exactly_hermitian(self, rng, dims):
        # a rank-1 term minus a larger one along another product vector:
        # the flattening is indefinite, so the auto-witness answers
        u, v = ([random_unit(rng, n) for n in dims] for _ in range(2))
        a = core.HermitianTensor(dims, core.rank1(1.0, u).mat - core.rank1(2.0, v).mat)
        res = sep.separability_pipeline(a, "COMPLEX", effort=1, seed=0)
        assert res.status == "ENTANGLED_WITNESS"
        b = res.witness.mat
        assert np.array_equal(b, b.conj().T)
        assert res.witness_certificate.residual == 0.0

    def test_identity_separable(self):
        res = sep.separability_pipeline(core.identity_tensor((2, 2)), "COMPLEX",
                                        effort=4, seed=0)
        assert res.status == "SEPARABLE_CERTIFIED"

    def test_cone_closure_by_concatenation(self, rng):
        d1 = sep.psd_kron_to_decomposition(pk_62())
        terms2 = tuple((1.0, (random_unit(rng, 2), random_unit(rng, 2))) for _ in range(2))
        d2 = dec.HermitianDecomposition((2, 2), terms2)
        a = core.validate((2, 2), tensor_62().mat + dec.assemble(d2).mat)
        both = dec.HermitianDecomposition((2, 2), d1.terms + d2.terms)
        assert sep.verify_positive_decomposition(both, a)

    def test_realify_preserves_assembly(self, rng):
        # a complex positive decomposition of a real-decomposable tensor:
        # random real terms with per-vector complex phases (same tensor)
        real_terms = tuple(
            (1.0, (random_unit(rng, 2, real=True), random_unit(rng, 2, real=True)))
            for _ in range(2)
        )
        a = dec.assemble(dec.HermitianDecomposition((2, 2), real_terms))
        phased = dec.HermitianDecomposition(
            (2, 2),
            tuple(
                (lam, tuple(np.exp(1j * rng.uniform(0.2, 1.2)) * v for v in vs))
                for lam, vs in real_terms
            ),
        )
        assert dec.residual(phased, a) <= 1e-12
        assert real_herm.is_real_decomposable(a)[0]
        r = sep.realify_decomposition(phased)
        assert sep.verify_positive_decomposition(r, a, "REAL")


def separable_22(rng, r, real=False) -> core.HermitianTensor:
    terms = tuple((rng.uniform(0.5, 1.5), (random_unit(rng, 2, real), random_unit(rng, 2, real)))
                  for _ in range(r))
    return dec.assemble(dec.HermitianDecomposition((2, 2), terms))


def bell_mixture(p) -> core.HermitianTensor:
    """p |Bell><Bell| + (1 - p) I / 4, separable iff p <= 1/3."""
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return core.HermitianTensor((2, 2), p * np.outer(bell, bell) + (1.0 - p) * np.eye(4) / 4.0)


class TestWootters:
    """[2,2] is decided in closed form when the concurrence is 0; every
    other psd [2,2] input goes on to the search."""

    @staticmethod
    def assert_closed_form(a, field_name="COMPLEX"):
        res = sep.separability_pipeline(a, field_name, effort=4, seed=0)
        assert (res.status, res.field) == ("SEPARABLE_CERTIFIED", field_name)
        assert res.note.startswith("concurrence 0: Wootters' closed form")
        d = res.decomposition
        assert len(d) <= (16 if field_name == "REAL" else 4)
        for lam, vs in d.terms:
            assert lam > 0 and len(vs) == 2
            if field_name == "REAL":
                assert all(np.all(v.imag == 0) for v in vs)
        # rounding-level, far inside fitTol: closing the polygon by angles
        # (arccos near -1) instead of coordinates left about 3e-9 here
        assert dec.residual(d, a) <= 1e-11 * core.norm(a)
        assert sep.verify_positive_decomposition(d, a, field_name)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
    def test_random_separable(self, rng, r, real):
        for _ in range(5):
            a = separable_22(rng, r, real)
            self.assert_closed_form(a)
            if real:
                self.assert_closed_form(a, "REAL")

    def test_identity_all_eigenvalues_equal(self):
        self.assert_closed_form(core.identity_tensor((2, 2)))
        self.assert_closed_form(core.identity_tensor((2, 2)), "REAL")

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_scale_and_local_unitary_frame(self, rng, s):
        for r in (1, 2, 4):
            a = separable_22(rng, r)
            frame = [random_unitary(rng, 2), random_unitary(rng, 2)]
            self.assert_closed_form(core.HermitianTensor((2, 2), a.mat * s))
            self.assert_closed_form(core.congruent(frame, core.HermitianTensor((2, 2), a.mat * s)))

    @pytest.mark.parametrize("s", [4.0 ** -20, 1.0, 4.0 ** 20])
    @pytest.mark.parametrize("second", [[1.0, 1.0], [1.0, 2.0]])
    def test_shared_factor(self, rng, s, second):
        # |a><a| (x) diag(second): a^T sigma_y a = 0, so every entry of tau
        # is rounding noise and its real symmetric block is not symmetric
        for _ in range(5):
            a = random_unit(rng, 2)
            self.assert_closed_form(core.HermitianTensor((2, 2), np.kron(np.outer(a, a.conj()), np.diag(second)) * s))

    def test_near_collinear_terms(self):
        # two product terms 0.3 rad apart in both modes: the search alone
        # ends UNKNOWN on such inputs
        z = np.kron([1.0, 0.3], [1.0, 0.3])
        a = core.HermitianTensor((2, 2), np.diag([1.0, 0.0, 0.0, 0.0]) + np.outer(z, z))
        self.assert_closed_form(a)

    def test_concurrence_boundary(self):
        self.assert_closed_form(bell_mixture(1 / 3))
        d = sep._wootters(bell_mixture(1 / 3 + 1e-6), core.TOL)
        assert not sep.verify_positive_decomposition(d, bell_mixture(1 / 3 + 1e-6))

    def test_entangled_psd_goes_on_to_the_search(self):
        res = sep.separability_pipeline(bell_mixture(0.5), "COMPLEX", effort=4, seed=0)
        assert (res.status, res.decomposition) == ("UNKNOWN", None)
        assert res.note == "search exhausted rank budgets 1..4"

    def test_non_psd_input_gets_the_auto_witness_first(self, monkeypatch):
        monkeypatch.setattr(sep, "_wootters", lambda *args: pytest.fail("closed form on a non-psd input"))
        res = sep.separability_pipeline(hankel_tensor(), "COMPLEX", effort=4, seed=0)
        assert res.status == "ENTANGLED_WITNESS"
        assert sep.dual_witness_check(hankel_tensor(), res.witness).status == "ENTANGLED_WITNESS"

    def test_zero_tensor(self):
        res = sep.separability_pipeline(core.zero_tensor((2, 2)))
        assert res.status == "SEPARABLE_CERTIFIED" and len(res.decomposition) == 0

    @pytest.mark.parametrize("s", [(1, 1, 0, 0), (1, 1, 1, 1), (3, 1, 1, 1), (2, 1, 1, 0), (0, 0, 0, 0),
                                   (1, 1 - 1e-15, 0, 0), (5, 4, 3, 2)])
    def test_closing_phases(self, s):
        s = np.array(s, dtype=float)
        t = sep._closing_phases(s)
        assert abs(np.sum(s * np.exp(1j * t))) <= 1e-14 * max(s.max(), 1.0)


def test_real_transfer_failure_is_unknown(monkeypatch):
    # the smallest certified budget is the only one tried: larger budgets
    # stopped at its fit
    a = separable_23(np.random.default_rng(0), 3, real=True)
    want = sep.separability_pipeline(a, "COMPLEX", effort=4, seed=0)
    r = int(want.note.rsplit("=", 1)[1])
    split = []
    monkeypatch.setattr(sep, "realify_decomposition", lambda d: split.append(d) or d)
    got = sep.separability_pipeline(a, "REAL", effort=4, seed=0)
    assert (got.status, got.field, got.decomposition) == ("UNKNOWN", "REAL", None)
    assert got.note == (f"alternating search succeeded at r={r}, "
                        "but its REAL certificate fails the positive-decomposition check")
    assert len(split) == 1
    assert_same_verdict(sep.SepVerdict("SEPARABLE_CERTIFIED", decomposition=split[0]),
                        sep.SepVerdict("SEPARABLE_CERTIFIED", decomposition=want.decomposition))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4)])
def test_realify_assembles_the_real_form(rng, dims):
    # assemble(realify(d)) = P(assemble(d)) for real coefficients of both signs
    for _ in range(10):
        d = dec.HermitianDecomposition(dims, tuple(
            (rng.uniform(0.5, 2.0) * rng.choice([-1, 1]), tuple(random_unit(rng, n) for n in dims))
            for _ in range(3)))
        want = real_herm.real_form(dec.assemble(d))
        got = dec.assemble(sep.realify_decomposition(d))
        assert np.abs(got.mat - want.mat).max() <= 1e-14 * core.norm(want)


@pytest.mark.parametrize("name", ["real", "R", "QUATERNION", ""])
def test_unknown_field_names_are_rejected(rng, name):
    # one check for every field argument: none is read as COMPLEX
    terms = ((1.0, (random_unit(rng, 2), random_unit(rng, 2))),)
    d = dec.HermitianDecomposition((2, 2), terms)
    a = dec.assemble(d)
    calls = [lambda: sep.verify_positive_decomposition(d, a, name),
             lambda: sep.separability_pipeline(a, name),
             lambda: spectral.herm_eigenpair(a, seed=0, field=name)]
    for call in calls:
        with pytest.raises(ShapeMismatch, match=f"unknown field {name!r}"):
            call()


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
def test_realify_never_worsens_a_real_fit(rng, dims):
    # splitting is the orthogonal projection onto the real-decomposable
    # subspace, so it moves a fit no further from a tensor in that subspace
    for _ in range(5):
        a = dec.assemble(dec.HermitianDecomposition(dims, tuple(
            (rng.standard_normal(), tuple(random_unit(rng, n, real=True) for n in dims))
            for _ in range(3))))
        d = dec.HermitianDecomposition(dims, tuple(
            (rng.uniform(0.1, 2.0), tuple(random_unit(rng, n) for n in dims)) for _ in range(3)))
        assert dec.residual(sep.realify_decomposition(d), a) <= dec.residual(d, a) + 1e-12


def test_pipeline_real_branch_propagates_unexpected_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in the reality check")

    monkeypatch.setattr(real_herm, "is_real_decomposable", broken)
    with pytest.raises(RuntimeError, match="bug in the reality check"):
        sep.separability_pipeline(tensor_62(), "REAL", effort=1, seed=0)


@pytest.mark.parametrize("field", core.FIELDS)
def test_tiny_tensor_is_not_the_zero_tensor(field):
    # its squared entries underflow, so an unscaled norm called it 0 and
    # the pipeline certified it with no terms
    h = core.rank1(1e-200, [np.ones(2), np.ones(3)])
    res = sep.separability_pipeline(h, field)
    assert res.status == "SEPARABLE_CERTIFIED" and len(res.decomposition) >= 1
    assert dec.residual(res.decomposition, h) <= core.TOL.fitTol * core.norm(h)
    assert not dec.fits(dec.HermitianDecomposition(h.dims, ()), h, core.TOL.fitTol)
