import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hermitia import core, decomposition as dec, linalg, psd_sos as ps, real_herm, separability as sep
from hermitia.errors import BasisTooLarge, ShapeMismatch

from conftest import cr_psd_ii_tensor, csos_not_hsos_tensor, random_unit, rpsd_tensor


def random_psd_tensor(rng, dims, r):
    terms = tuple(
        (float(0.2 + rng.random()), tuple(random_unit(rng, n) for n in dims))
        for _ in range(r)
    )
    return dec.assemble(dec.HermitianDecomposition(dims, terms))


class TestHsos:
    def test_positive_rank1_sums(self, rng):
        h = random_psd_tensor(rng, (2, 2), 3)
        res = ps.hsos_test(h)
        assert res.status == "MEMBER"
        assert np.allclose(res.certificate.W, h.mat)
        assert ps.gram_reconstruct_residual(h, res.certificate) < 1e-12

    def test_csos_example_fails_hsos(self):
        res = ps.hsos_test(csos_not_hsos_tensor())
        assert res.status == "UNKNOWN"
        assert res.min_eigenvalue == pytest.approx(-1.0, abs=1e-10)

    def test_basis_1122_indefinite(self):
        res = ps.hsos_test(core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2)))
        assert res.status == "UNKNOWN"
        assert res.min_eigenvalue == pytest.approx(-1.0, abs=1e-10)

    def test_gram_basis_is_exponent_table(self):
        res = ps.hsos_test(core.identity_tensor((2, 2)))
        assert res.status == "MEMBER"
        # x_{1,i} x_{2,j} monomials: one exponent in each mode block
        for exps in res.certificate.basis:
            assert sum(exps[:4]) == 2 and sum(exps[4:]) == 0


def dense_csos(h, iters=ps.CSOS_ITERS):
    """Reference: the same alternating projections on the whole K-by-K
    Gram matrix, blind to the charge blocks; (status, iterations, W)."""
    basis = ps.csos_basis(h.dims)
    cmap = ps._coefficient_map(h.dims, basis)
    gids, k = cmap.gram_ids, len(basis)
    sizes = np.bincount(gids, minlength=cmap.ngroups)
    targets = cmap.of_tensor(h)
    fit_tol = core.TOL.fitTol * core.norm(h)

    def affine(w):
        out = w + ((targets - cmap.of_gram(w)) / sizes)[gids].reshape(k, k)
        return (out + out.conj().T) / 2.0

    w, dists = affine(np.zeros((k, k), dtype=complex)), []
    for it in range(1, iters + 1):
        p = linalg.psd_project(w)
        res = cmap.residual(p, targets)
        if res <= fit_tol:
            return "FEASIBLE", it, p
        w = affine(p)
        dists.append(float(np.linalg.norm(w - p)))
        if len(dists) >= 80 and res > 10.0 * fit_tol and 0 < dists[-60]:
            if dists[-1] >= dists[-60] * (1.0 - 1e-5):
                return "INFEASIBLE_HINT", it, None
    return "UNKNOWN", iters, None


def conjugated_modes(mat, dims, modes):
    """The tensor whose form is that of mat with x_k and conj x_k swapped
    for k in modes (a partial transpose)."""
    m = len(dims)
    axes = list(range(2 * m))
    for k in modes:
        axes[k], axes[m + k] = m + k, k
    return mat.reshape(dims * 2).transpose(axes).reshape(mat.shape)


def csos_input(rng, dims, interior=True):
    """A sum of squared moduli of forms in the mixed basis, so CSOS: three
    rank-1 terms, each with random modes conjugated, and with ``interior``
    the identity, which makes some Gram solution positive definite."""
    n = core.size_of(dims)
    mat = 0.2 * np.eye(n) if interior else np.zeros((n, n))
    for _ in range(3):
        a = random_unit(rng, n)
        modes = [k for k in range(len(dims)) if rng.random() < 0.5]
        mat = mat + conjugated_modes(np.outer(a, a.conj()), dims, modes)
    return core.HermitianTensor(dims, mat)


def charge(basis, dims):
    """Per basis row, its degree in x_k for each mode k (1 or 0)."""
    b = np.asarray(basis)
    return np.add.reduceat(b[:, :sum(dims)], np.cumsum((0,) + dims[:-1]), axis=1)


class TestCsos:
    def test_csos_example_feasible(self):
        res = ps.csos_test(csos_not_hsos_tensor())
        assert res.status == "FEASIBLE"
        cert = res.certificate
        assert linalg.herm_eig(cert.W).eigenvalues[0] >= -1e-9
        h = csos_not_hsos_tensor()
        assert ps.gram_reconstruct_residual(h, cert) <= core.TOL.fitTol * core.norm(h)

    def test_hsos_true_is_feasible(self, rng):
        h = random_psd_tensor(rng, (2, 2), 2)
        assert ps.hsos_test(h).status == "MEMBER"
        res = ps.csos_test(h)
        assert res.status == "FEASIBLE"

    def test_negated_identity_not_feasible(self):
        neg = core.HermitianTensor((2, 2), -np.eye(4))
        res = ps.csos_test(neg, iters=1500)
        assert res.status in ("INFEASIBLE_HINT", "UNKNOWN")

    def test_certificate_soundness_on_random_feasible(self, rng):
        for seed in range(3):
            h = random_psd_tensor(rng, (2, 2), 2)
            res = ps.csos_test(h)
            assert res.status == "FEASIBLE"
            assert ps.gram_reconstruct_residual(h, res.certificate) <= 1e-7
            assert linalg.herm_eig(res.certificate.W).eigenvalues[0] >= -1e-9

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
    def test_matches_the_dense_iteration(self, rng, dims):
        cases = [(csos_input(rng, dims), ps.CSOS_ITERS), (csos_input(rng, dims, False), 300),
                 (core.HermitianTensor(dims, -np.eye(core.size_of(dims))), 1500)]
        statuses = []
        for h, iters in cases:
            res = ps.csos_test(h, iters=iters)
            status, it, w = dense_csos(h, iters)
            assert (res.status, res.iterations) == (status, it)
            if w is not None:
                assert np.abs(res.certificate.W - w).max() <= 1e-10
            statuses.append(status)
        assert statuses[0] == "FEASIBLE" and statuses[2] == "INFEASIBLE_HINT"

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_certificate_is_zero_off_the_charge_blocks(self, rng, dims):
        res = ps.csos_test(csos_input(rng, dims))
        assert res.status == "FEASIBLE"
        c = charge(res.certificate.basis, dims)
        off = np.any(c[:, None, :] != c[None, :, :], axis=2)
        assert off.any() and np.all(res.certificate.W[off] == 0.0)
        assert np.abs(res.certificate.W[~off]).max() > 0.0

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3)])
    def test_wide_bases_are_feasible(self, rng, dims):
        h = csos_input(rng, dims)
        res = ps.csos_test(h)
        assert res.status == "FEASIBLE"
        cert = res.certificate
        assert cert.W.shape == (2 ** len(dims) * core.size_of(dims),) * 2
        w = np.linalg.eigvalsh(cert.W)
        assert w[0] >= -core.TOL.eigTol * np.abs(w).max()
        assert res.residual == ps.gram_reconstruct_residual(h, cert) <= core.TOL.fitTol * core.norm(h)


class TestGramResidualValidation:
    # a malformed certificate is a shape error, not a numpy failure
    def cert(self, basis=None, w=None):
        good = ps.hsos_test(core.identity_tensor((2, 2))).certificate
        basis = good.basis if basis is None else basis
        return ps.GramCertificate((2, 2), basis, good.W if w is None else w, 0.0)

    def test_w_size_must_match_the_basis(self):
        with pytest.raises(ShapeMismatch, match="W has shape"):
            ps.gram_reconstruct_residual(core.identity_tensor((2, 2)), self.cert(w=np.eye(5)))

    def test_row_width_must_match_the_shape(self):
        basis = ps.hol_basis((2, 2))
        basis = basis[:3] + (basis[3][:-1],)
        with pytest.raises(ShapeMismatch, match="width"):
            ps.gram_reconstruct_residual(core.identity_tensor((2, 2)), self.cert(basis))

    @pytest.mark.parametrize("first_row", [(1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0, 1, 0)])
    def test_row_degrees_must_be_positive_and_equal(self, first_row):
        basis = (first_row,) + ps.hol_basis((2, 2))[1:]
        with pytest.raises(ShapeMismatch, match="degree"):
            ps.gram_reconstruct_residual(core.identity_tensor((2, 2)), self.cert(basis))


class TestMultiplier:
    def test_zero_powers_match_hsos(self, rng):
        hp = random_psd_tensor(rng, (2, 2), 2)
        res = ps.multiplier_hsos_test(hp, (0, 0))
        assert res.status == "MEMBER"
        assert np.allclose(res.certificate.W, hp.mat, atol=1e-12)
        neg = csos_not_hsos_tensor()
        assert ps.multiplier_hsos_test(neg, (0, 0)).status == "UNKNOWN"
        assert ps.hsos_test(neg).status == "UNKNOWN"

    def test_hsos_closed_under_multipliers(self, rng):
        h = random_psd_tensor(rng, (2, 2), 2)
        for powers in ((1, 0), (0, 1), (1, 1)):
            res = ps.multiplier_hsos_test(h, powers)
            assert res.status == "MEMBER"
            assert ps.gram_reconstruct_residual(h, res.certificate) < 1e-10

    def test_cr_psd_i_regression(self):
        # complex-psd [3,3] tensor certified R/C-psd by a modulus bound;
        # recorded as a regression, not asserted MEMBER
        arr = np.zeros((3, 3, 3, 3), dtype=complex)
        squares = {(1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0,
                   (1, 2): 2.0, (2, 3): 2.0, (3, 1): 2.0}
        for (i, a), v in squares.items():
            arr[i - 1, a - 1, i - 1, a - 1] += v
        for i, j in ((1, 2), (1, 3), (2, 3)):
            arr[i - 1, i - 1, j - 1, j - 1] += -1.0
            arr[j - 1, j - 1, i - 1, i - 1] += -1.0
        h = core.validate((3, 3), arr)
        res = ps.multiplier_hsos_test(h, (1, 1))
        assert res.status in ("MEMBER", "UNKNOWN")

    def test_basis_cap(self):
        h = core.identity_tensor((2, 2, 2))
        cached = ps._rung.cache_info().currsize
        with pytest.raises(BasisTooLarge):
            ps.multiplier_hsos_test(h, (3, 3, 3))
        assert ps._rung.cache_info().currsize == cached  # raised before the basis was built

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4), (8, 8)])
    def test_hsos_is_rung_zero(self, dims):
        # rung 0's Gram matrix is the flattening, over the basis whose row I
        # is x_{1,i_1} ... x_{m,i_m}; both answers come from that one rung
        offs = np.cumsum((0,) + dims[:-1])
        rows = [np.isin(np.arange(2 * sum(dims)), offs + idx).astype(int)
                for idx in itertools.product(*map(range, dims))]
        zeros, q = (0,) * len(dims), core.random_hermitian(dims, 2).mat
        statuses = []
        for h in (core.random_hermitian(dims, 1), core.HermitianTensor(dims, q @ q.conj().T)):
            got, rung = ps.hsos_test(h), ps.multiplier_hsos_test(h, zeros)
            flat = (h.mat + h.mat.conj().T) / 2.0
            sd = linalg.herm_part_eig(flat)
            assert (got.status, got.powers, got.min_eigenvalue) == (rung.status, zeros, sd.eigenvalues[0])
            assert np.array_equal(got.eigenvector, rung.eigenvector)
            assert np.array_equal(got.eigenvector, sd.eigenvectors[:, 0])
            if got.status == "MEMBER":
                cert, other = got.certificate, rung.certificate
                assert (cert.dims, cert.basis, cert.residual) == (other.dims, other.basis, other.residual)
                assert cert.W.tobytes() == other.W.tobytes() == flat.tobytes()  # bit for bit
                assert cert.basis is ps.hol_basis(dims)  # one cached rung
                assert cert.basis == tuple(map(tuple, np.array(rows).tolist()))
            else:
                assert got.certificate is None is rung.certificate
            statuses.append(got.status)
        assert statuses == ["UNKNOWN", "MEMBER"]

    def test_hierarchy_kicks_in_for_shifted_csos_pattern(self):
        # the CSOS-not-HSOS pattern plus t times the identity is strictly
        # positive; membership appears once t (or the powers) grow
        base = csos_not_hsos_tensor()
        tight = core.validate((2, 2), base.mat + 0.3 * np.eye(4))
        roomy = core.validate((2, 2), base.mat + 0.6 * np.eye(4))
        assert ps.hsos_test(tight).status == "UNKNOWN"
        assert ps.hsos_test(roomy).status == "UNKNOWN"
        assert ps.multiplier_hsos_test(tight, (1, 1)).status == "UNKNOWN"
        assert ps.multiplier_hsos_test(roomy, (1, 0)).status == "MEMBER"
        assert ps.multiplier_hsos_test(roomy, (1, 1)).status == "MEMBER"
        # the certified one really is psd everywhere we can sample
        rng = np.random.default_rng(0)
        for _ in range(50):
            xs = [random_unit(rng, 2), random_unit(rng, 2)]
            assert core.eval_poly(roomy, xs) >= -1e-10


def basis_values(basis, xs):
    """b(x) straight from the exponent table: prod x^e conj(x)^f."""
    x = np.concatenate(xs)
    e = np.asarray(basis)
    t = x.shape[0]
    return np.prod(x ** e[:, :t] * x.conj() ** e[:, t:], axis=1)


class TestGramForms:
    @pytest.mark.parametrize("dims, powers", [
        ((2, 2), (1, 0)), ((2, 2), (1, 1)), ((2, 2), (0, 2)), ((2, 2, 2), (1, 0, 0)),
    ])
    def test_multiplier_gram_form_is_the_multiplied_polynomial(self, rng, dims, powers):
        h = random_psd_tensor(rng, dims, 3)
        cert = ps.multiplier_hsos_test(h, powers).certificate
        for _ in range(5):
            xs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in dims]
            b = basis_values(cert.basis, xs)
            lhs = np.vdot(b, cert.W @ b)
            mult = np.prod([np.vdot(x, x).real ** k for x, k in zip(xs, powers)])
            rhs = mult * core.eval_poly(h, xs)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_residual_catches_scaled_gram_matrices(self, rng):
        h = random_psd_tensor(rng, (2, 2), 2)
        certs = [
            ps.hsos_test(h).certificate,
            ps.csos_test(h).certificate,
            ps.multiplier_hsos_test(h, (1, 0)).certificate,
        ]
        for cert in certs:
            assert ps.gram_reconstruct_residual(h, cert) <= 1e-7
            scaled = ps.GramCertificate(cert.dims, cert.basis, 1.01 * cert.W, cert.residual)
            assert ps.gram_reconstruct_residual(h, scaled) > 1e-3

    def test_residual_catches_swapped_basis_rows(self, rng):
        h = random_psd_tensor(rng, (2, 2), 2)
        cert = ps.hsos_test(h).certificate
        basis = list(cert.basis)
        basis[0], basis[1] = basis[1], basis[0]
        swapped = ps.GramCertificate(cert.dims, tuple(basis), cert.W, cert.residual)
        assert ps.gram_reconstruct_residual(h, swapped) > 1e-3


def reference_map(dims, basis):
    """Brute force: every monomial an exponent tuple in a dict, numbered in
    order of first appearance; the Gram entries conj(b_p) b_q row-major,
    then the target terms by flat entry (I, J), then by alpha."""
    t = sum(dims)
    groups: dict = {}
    gram = [groups.setdefault(tuple(bp[t + i] + bq[i] for i in range(t))
                              + tuple(bp[i] + bq[t + i] for i in range(t)), len(groups))
            for bp in basis for bq in basis]
    offs = np.cumsum((0,) + dims[:-1])
    degs = [sum(basis[0][o:o + n]) + sum(basis[0][t + o:t + o + n]) - 1 for o, n in zip(offs, dims)]
    per_mode = [[e for e in itertools.product(range(d, -1, -1), repeat=n) if sum(e) == d]
                for n, d in zip(dims, degs)]
    alphas = [sum(a, ()) for a in itertools.product(*per_mode)]
    weights = [math.prod(math.factorial(d) for d in degs) / math.prod(math.factorial(e) for e in a)
               for a in alphas]
    index = list(itertools.product(*[range(n) for n in dims]))
    unit = [tuple(int(j == i) for n, i in zip(dims, idx) for j in range(n)) for idx in index]
    terms = [groups.setdefault(tuple(ej + a for ej, a in zip(unit[jj], al))
                               + tuple(ei + a for ei, a in zip(unit[ii], al)), len(groups))
             for ii in range(len(index)) for jj in range(len(index)) for al in alphas]
    return gram, terms, weights, len(groups)


def multiplier_basis(dims, powers):
    return ps.multiplier_hsos_test(core.identity_tensor(dims), powers).certificate.basis


def swapped(basis, p, q):
    rows = list(basis)
    rows[p], rows[q] = rows[q], rows[p]
    return tuple(rows)


class TestCoefficientMap:
    @pytest.mark.parametrize("dims, basis", [
        ((2, 3), ps.hol_basis((2, 3))),
        ((2, 2, 2), ps.hol_basis((2, 2, 2))),
        ((2, 3), ps.csos_basis((2, 3))),
        ((2, 2, 2), ps.csos_basis((2, 2, 2))),
        ((2, 3), multiplier_basis((2, 3), (1, 0))),
        ((2, 3), multiplier_basis((2, 3), (1, 2))),
        ((2, 2, 2), multiplier_basis((2, 2, 2), (0, 1, 1))),
        ((2, 3), swapped(ps.hol_basis((2, 3)), 0, 4)),
        ((2, 2, 2), swapped(ps.csos_basis((2, 2, 2)), 3, 40)),
        # a negative exponent, which only a hand-made certificate carries
        ((2, 2), ps.hol_basis((2, 2))[:3] + ((1, 2, 0, 1, -2, 0, 0, 0),)),
    ])
    def test_matches_a_brute_force_dict(self, dims, basis):
        gram, terms, weights, ngroups = reference_map(dims, basis)
        cmap = ps._coefficient_map(dims, basis)
        ids = np.concatenate([cmap.gram_ids, cmap.term_ids]).tolist()
        ref = gram + terms
        assert len(cmap.gram_ids) == len(gram) and cmap.ngroups == ngroups
        # one group per reference monomial and back: the same partition
        assert len(set(zip(ids, ref))) == len(set(ids)) == ngroups
        assert cmap.weights.tolist() == weights

    def test_wide_build_stays_small(self):
        basis = ps.hol_basis((16, 16))
        tracemalloc.start()
        try:
            ps._coefficient_map.__wrapped__((16, 16), basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


def test_stored_residuals_are_the_recomputed_ones(rng):
    # the second input is off-Hermitian by 1e-9, which no Hermitian W matches
    eye = core.identity_tensor((2, 3))
    skewed = core.HermitianTensor((2, 3), eye.mat + 1e-9 * np.triu(np.ones((6, 6)), 1))
    for h in (random_psd_tensor(rng, (2, 3), 3), skewed):
        certs = [ps.hsos_test(h).certificate, ps.csos_test(h).certificate]
        certs += [ps.multiplier_hsos_test(h, k).certificate for k in ((1, 0), (0, 1), (1, 1), (2, 0))]
        for cert in certs:
            assert cert.residual == ps.gram_reconstruct_residual(h, cert)
    assert ps.hsos_test(skewed).certificate.residual == pytest.approx(5e-10)


def test_mode_monomials_come_from_variable_multisets():
    # the order of all (degree + 1)^n exponent tuples, without enumerating
    # them: rung 0 of a 40-variable mode would otherwise visit 2^40
    for n, d in itertools.product(range(1, 6), range(4)):
        brute = [list(e) for e in itertools.product(range(d, -1, -1), repeat=n) if sum(e) == d]
        assert ps._mode_monomials(n, d).tolist() == brute
    assert ps.multiplier_hsos_test(core.identity_tensor((40, 2)), (0, 0)).status == "MEMBER"


def test_flattening_rung_is_never_capped():
    # N = 81 > BASIS_CAP: the flattening answers, the multipliers are capped
    rng = np.random.default_rng(9)
    q = np.linalg.qr(rng.standard_normal((81, 81)))[0]
    h = core.validate((9, 9), (q * np.linspace(-1.0, 2.0, 81)) @ q.T)
    res = ps.hsos_test(h)
    assert res.status == "UNKNOWN" and res.min_eigenvalue == pytest.approx(-1.0)
    assert ps.multiplier_hsos_test(h, (0, 0)).min_eigenvalue == res.min_eigenvalue
    with pytest.raises(BasisTooLarge):
        ps.multiplier_hsos_test(h, (1, 0))
    assert sep.separability_pipeline(h).status == "ENTANGLED_WITNESS"
    shifted = core.validate((9, 9), h.mat + 1.5 * np.eye(81))
    assert ps.hsos_test(shifted).status == "MEMBER"
    assert ps.multiplier_hsos_test(shifted, (0, 0)).status == "MEMBER"
    assert ps.psd_verdict(shifted, effort=0).note == "flattening psd (holomorphic sum of squares)"


class TestPsdVerdict:
    def test_cr_psd_ii_complex_witness(self):
        res = ps.psd_verdict(cr_psd_ii_tensor(), field="COMPLEX", effort=1)
        assert res.status == "NOT_PSD_WITNESS"
        assert res.witness_value <= -0.75 + 1e-6
        # soundness: the witness value re-evaluates strictly negative
        assert core.eval_poly(cr_psd_ii_tensor(), res.witness) < -core.TOL.witTol / 2

    def test_cr_psd_ii_real_never_refuted(self):
        res = ps.psd_verdict(cr_psd_ii_tensor(), field="REAL", effort=2)
        assert res.status == "PSD_CERTIFIED"

    def test_real_field_runs_on_the_real_form(self, rng):
        # certified at rung 0, refuted at a real witness, certified at
        # powers (0, 2), and UNKNOWN
        shifted = [core.validate((2, 2), csos_not_hsos_tensor().mat + t * np.eye(4)) for t in (0.2, 0.1)]
        for h in [rpsd_tensor(rng, (2, 3)), core.random_hermitian((2, 2), 5)] + shifted:
            p = real_herm.real_form(h)
            got, want = (ps.psd_verdict(t, "REAL", effort=2, seed=3) for t in (h, p))
            assert (got.status, got.note, got.witness_value) == (want.status, want.note, want.witness_value)
            assert all(map(np.array_equal, got.witness or (), want.witness or ()))
            assert (got.certificate is None) == (want.certificate is None)
            if got.certificate is not None:
                assert np.array_equal(got.certificate.W, want.certificate.W)
        with pytest.raises(ShapeMismatch, match="unknown field 'QUATERNION'"):
            ps.psd_verdict(p, "QUATERNION")

    def test_capped_rungs_are_skipped(self):
        # on [4,4] every total-2 rung has 80 or 100 rows, above BASIS_CAP,
        # so the ladder at effort 2 ends with what rungs 0-1 give.  The
        # input is the shifted CSOS pattern, psd but in no rung up to
        # (1, 1), on the first two coordinates of each mode, plus 0.3
        # |x_i|^2 |y_j|^2 for every other pair (i, j)
        arr = np.zeros((4, 4, 4, 4), dtype=complex)
        arr[:2, :2, :2, :2] = (csos_not_hsos_tensor().mat + 0.3 * np.eye(4)).reshape(2, 2, 2, 2)
        flat = arr.reshape(16, 16)
        outer = [4 * i + j for i in range(4) for j in range(4) if max(i, j) >= 2]
        flat[outer, outer] = 0.3
        h = core.validate((4, 4), flat)
        for powers in ((2, 0), (1, 1), (0, 2)):
            with pytest.raises(BasisTooLarge):
                ps.multiplier_hsos_test(h, powers)
        assert ps.hsos_test(h).status == "UNKNOWN"
        got = ps.psd_verdict(h, effort=2)
        assert got.status == "UNKNOWN" and got == ps.psd_verdict(h, effort=1)

    def test_identity_certified(self):
        res = ps.psd_verdict(core.identity_tensor((2, 2)), field="COMPLEX", effort=1)
        assert res.status == "PSD_CERTIFIED"
        assert res.certificate is not None

    def test_verdicts_never_conflict_on_corpus(self):
        tensors = [
            core.identity_tensor((2, 2)),
            cr_psd_ii_tensor(),
            csos_not_hsos_tensor(),
            core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2)),
        ]
        for h in tensors:
            for field in ("COMPLEX", "REAL"):
                seen = {ps.psd_verdict(h, field=field, effort=e).status for e in (0, 1, 2)}
                assert not ({"PSD_CERTIFIED", "NOT_PSD_WITNESS"} <= seen)

    def test_csos_example_real_certified(self):
        # real-decomposable? 1111=2222=1221=2112=1: pairs {1,2}/{2,1} both 1 --
        # and 1122 = 0 = 2211: the entry-symmetry holds, so complex
        # certificates transfer; here even hsos fails but the tensor is
        # CSOS; multiplier search may or may not certify at low effort
        res = ps.psd_verdict(csos_not_hsos_tensor(), field="COMPLEX", effort=1)
        assert res.status in ("PSD_CERTIFIED", "UNKNOWN")
