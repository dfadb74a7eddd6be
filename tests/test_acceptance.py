"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as
they complete.  Criteria 1 and 6 carry their own wall-clock budgets; the
final test checks the whole module stayed under three minutes.
"""

import itertools
import time

import numpy as np
import pytest

from hermitia import (
    core,
    decomposition as dec,
    flatten,
    linalg,
    psd_sos,
    real_herm,
    separability as sep,
    spectral,
)

from conftest import (
    cr_psd_ii_tensor,
    csos_not_hsos_tensor,
    diag_pair_tensor,
    hankel_tensor,
    hankel_witness,
    random_unit,
    random_unitary,
    separable_62_matrix,
)
from test_linalg import eigs_by_charpoly, random_hermitian_matrix

_T0 = time.perf_counter()


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {tag} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_basis_tensor_ranks():
    t0 = time.perf_counter()
    checked = 0
    for dims in ((2, 2), (3, 3), (2, 2, 2)):
        indices = core.multi_indices(dims)
        for I, J in itertools.product(indices, indices):
            for c in (1.0, 1j):
                if I == J and c == 1j:
                    continue
                d = dec.basis_decomposition(I, J, c, dims)
                differing = sum(1 for a, b in zip(I, J) if a != b)
                want = 1 if differing == 0 else 2 * differing
                assert len(d) == want, (dims, I, J, c)
                target = core.basis_tensor(I, J, c, dims)
                assert dec.residual(d, target) <= 1e-10, (dims, I, J, c)
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 5.0,
            f"{checked} basis decompositions, entrywise match at 1e-10, {elapsed:.2f}s")


def test_criterion_2_basis_example_44():
    ok = True
    detail = []
    for c in (1.0, 2.0 - 1.0j):
        d = dec.basis_decomposition((1, 2), (3, 4), c, (4, 4))
        display = [
            (0.25, [c, 0, 1, 0], [0, 1, 0, 1]),
            (0.25, [c, 0, -1, 0], [0, 1, 0, -1]),
            (-0.25, [c, 0, 1j, 0], [0, 1, 0, 1j]),
            (-0.25, [c, 0, -1j, 0], [0, 1, 0, -1j]),
        ]
        expected = dec.normalize(dec.HermitianDecomposition(
            (4, 4),
            tuple((lam, (np.array(v1, dtype=complex), np.array(v2, dtype=complex)))
                  for lam, v1, v2 in display),
        ))
        got = dec.normalize(d)
        matched = set()
        for lam, vs in got.terms:
            found = None
            for idx, (lam2, vs2) in enumerate(expected.terms):
                if idx in matched or abs(lam - lam2) > 1e-10:
                    continue
                if all(abs(abs(np.vdot(a, b)) - 1.0) < 1e-10 for a, b in zip(vs, vs2)):
                    found = idx
                    break
            if found is None:
                ok = False
            else:
                matched.add(found)
        target = core.basis_tensor((1, 2), (3, 4), c, (4, 4))
        exact = dec.residual(d, target)
        ok = ok and len(matched) == 4 and exact <= 1e-12
        detail.append(f"c={c}: matched {len(matched)}/4 display terms, residual {exact:.1e}")
    _report(2, ok, "; ".join(detail))


def test_criterion_3_hankel_example():
    hank = hankel_tensor()
    decomposable, witness = real_herm.is_real_decomposable(hank)
    s10 = np.sqrt(10.0)
    u1 = np.array([(-s10 - 1) / 3, 1.0], dtype=complex)
    u2 = np.array([(s10 - 1) / 3, 1.0], dtype=complex)
    e = np.ones(2, dtype=complex)
    l1 = (40 - 13 * s10) / 20
    l2 = (40 + 13 * s10) / 20
    closed_form = dec.HermitianDecomposition(
        (2, 2), ((l1, (u1, e)), (l1, (e, u1)), (l2, (u2, e)), (l2, (e, u2)))
    )
    res = dec.residual(closed_form, hank)
    bound = flatten.hrank_lower_bound(hank).bound
    ok = decomposable and witness is None and res <= 1e-9 and bound <= 4
    _report(3, ok, f"decomposable={decomposable}, 4-term residual {res:.1e}, bound {bound} <= 4")


def test_criterion_4_flattening_bounds():
    m_rank = linalg.matrix_rank(flatten.hermitian_flatten(
        core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2))).mat)
    kappa_ok = True
    for n in (2, 3):
        kf = flatten.kronecker_flatten(diag_pair_tensor(n))
        kappa_ok = kappa_ok and linalg.matrix_rank(kf.mat) == n * n
    c = np.sqrt(1.0 + np.sqrt(2.0))
    w = 1.0 / (2.0 * c ** 4 - 2.0)
    five = dec.HermitianDecomposition(
        (2, 2),
        (
            (w, (np.array([c, 1.0], dtype=complex), np.array([c, 1.0], dtype=complex))),
            (w, (np.array([c, -1.0], dtype=complex), np.array([c, -1.0], dtype=complex))),
            (-w, (np.array([1.0, c * 1j]), np.array([1.0, c * 1j]))),
            (-w, (np.array([1.0, -c * 1j]), np.array([1.0, -c * 1j]))),
            (2.0, (np.array([0.0, 1.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))),
        ),
    )
    res = dec.residual(five, diag_pair_tensor(2))
    ok = m_rank == 2 and kappa_ok and res <= 1e-9
    _report(4, ok, f"m-rank {m_rank} == 2, kappa ranks n^2, 5-term residual {res:.1e}")


def test_criterion_5_kruskal_certification():
    u = [np.array(v, dtype=complex) for v in ((1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))]
    four = dec.kruskal_certify(
        dec.HermitianDecomposition((3, 3, 3), tuple((1.0, (v, v, v)) for v in u))
    )
    grid = dec.kruskal_certify(dec.HermitianDecomposition(
        (3, 3),
        (
            (1.0, (np.array([1.0, 2.0, 3.0], dtype=complex), np.ones(3, dtype=complex))),
            (1.0, (np.ones(3, dtype=complex), np.array([1.0, 2.0, 3.0], dtype=complex))),
        ),
    ))
    ok = (four.certified and four.rank == 4 and four.margin == 2
          and grid.certified and grid.rank == 2)
    _report(5, ok, f"r=4 margin {four.margin}; grid r={grid.rank} certified={grid.certified}")


def test_criterion_6_psd_verdicts():
    t0 = time.perf_counter()
    cr = cr_psd_ii_tensor()
    complex_verdict = psd_sos.psd_verdict(cr, field="COMPLEX", effort=1, seed=0)
    witness_ok = (complex_verdict.status == "NOT_PSD_WITNESS"
                  and complex_verdict.witness_value <= -3.0 / 4.0 + 1e-6)
    real_ok = True
    for seed in (0, 1):
        for effort in (0, 1):
            v = psd_sos.psd_verdict(cr, field="REAL", effort=effort, seed=seed)
            real_ok = real_ok and v.status != "NOT_PSD_WITNESS"
    hx = csos_not_hsos_tensor()
    hs = psd_sos.hsos_test(hx)
    cs = psd_sos.csos_test(hx)
    elapsed = time.perf_counter() - t0
    ok = (witness_ok and real_ok and hs.status == "UNKNOWN" and cs.status == "FEASIBLE"
          and elapsed < 30.0)
    _report(6, ok,
            f"complex witness {complex_verdict.witness_value:.4f} <= -0.75, no real witness, "
            f"hsos=False, csos={cs.status}, {elapsed:.1f}s")


def test_criterion_7_separability():
    pk = sep.PsdKronDecomp(
        (2, 2),
        (
            (np.array([[2.0, -1.0], [-1.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 3.0]])),
            (np.array([[3.0, 2.0], [2.0, 2.0]]), np.array([[1.0, -2.0], [-2.0, 5.0]])),
        ),
    )
    a62 = flatten.hermitian_unflatten(separable_62_matrix(), (2, 2))
    verifyable = sep.psd_kron_verify(pk, a62)
    converted = sep.psd_kron_to_decomposition(pk)
    reverify = sep.verify_positive_decomposition(converted, a62, tols=core.Tolerances(fitTol=1e-9))
    hank = hankel_tensor()
    value = core.inner(hank, hankel_witness())
    witness = sep.dual_witness_check(hank, hankel_witness())
    ok = (verifyable and reverify and abs(value + 1.0 / 6.0) <= 1e-12
          and witness.status == "ENTANGLED_WITNESS")
    _report(7, ok,
            f"kron verify={verifyable}, conversion reverifies={reverify}, "
            f"inner={value:.15f}, witness={witness.status}")


def test_criterion_8a_congruence_norm_invariance(rng):
    worst = 0.0
    for i in range(200):
        dims = ((2, 2), (2, 3), (3,), (2, 2, 2))[i % 4]
        h = core.random_hermitian(dims, 1000 + i)
        qs = [random_unitary(rng, n) for n in dims]
        worst = max(worst, abs(core.norm(core.congruent(qs, h)) - core.norm(h)))
    _report("8a", worst <= 1e-10, f"200 congruence checks, worst drift {worst:.2e}")


def test_criterion_8b_flattening_roundtrips():
    exact = True
    for i in range(200):
        dims = ((2, 2), (2, 3), (3, 3), (2, 2, 2))[i % 4]
        h = core.random_hermitian(dims, 2000 + i)
        fm = flatten.hermitian_flatten(h)
        back = flatten.hermitian_unflatten(fm, dims)
        exact = exact and np.array_equal(back.mat, h.mat)
        exact = exact and np.array_equal(flatten.hermitian_flatten(back).mat, fm.mat)
    _report("8b", exact, "200 flattening roundtrips bit-exact")


def test_criterion_8c_real_decompose(rng):
    worst = 0.0
    all_real = True
    count = 0
    shapes = ((2, 2), (2, 3), (2, 2, 2))
    while count < 100:
        dims = shapes[count % 3]
        terms = tuple(
            (float(rng.standard_normal() or 0.3),
             tuple(rng.standard_normal(n).astype(complex) for n in dims))
            for _ in range(3)
        )
        h = dec.assemble(dec.HermitianDecomposition(dims, terms))
        if core.norm(h) < 1e-10:
            continue
        d = real_herm.real_decompose(h)
        worst = max(worst, dec.residual(d, h) / core.norm(h))
        all_real = all_real and all(
            np.abs(v.imag).max() == 0.0 for _, vs in d.terms for v in vs
        )
        count += 1
    _report("8c", worst <= 1e-8 and all_real,
            f"100 real decompositions, worst relative residual {worst:.2e}, all-real={all_real}")


def test_criterion_8d_eigen_tuples():
    emitted = 0
    worst = 0.0
    seed = 0
    while emitted < 100:
        dims = ((2, 2), (2, 3), (2, 2, 2))[seed % 3]
        h = core.random_hermitian(dims, 3000 + seed)
        search = spectral.herm_eigenpair(h, seed=seed, starts=6)
        for t in search.tuples:
            worst = max(worst, max(t.residuals))
            emitted += 1
        seed += 1
    _report("8d", worst <= 1e-8, f"{emitted} eigentuples, worst KKT residual {worst:.2e}")


def test_criterion_8e_eigensolver_oracle(rng):
    worst = 0.0
    for i in range(50):
        n = 3 if i % 2 == 0 else 4
        a = random_hermitian_matrix(rng, n)
        ours = linalg.herm_eig(a).eigenvalues
        oracle = eigs_by_charpoly(a)
        worst = max(worst, float(np.abs(ours - oracle).max()))
    _report("8e", worst <= 1e-8, f"50 characteristic-polynomial checks, worst gap {worst:.2e}")


def test_criterion_9_bracketing_only():
    # open questions stay open: the artifact only brackets ranks unless a
    # Kruskal or basis-tensor certificate is in hand
    e1122 = core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2))
    bound = flatten.hrank_lower_bound(e1122).bound
    certified = len(dec.basis_decomposition((1, 1), (2, 2), 1.0, (2, 2)))
    slack_ok = bound <= certified  # bound 2 strictly below the certified rank 4
    diag = diag_pair_tensor(2)
    diag_bound = flatten.hrank_lower_bound(diag).bound
    diag_ok = diag_bound <= 5  # known length-5 decomposition; bound must not exceed it
    rep = dec.kruskal_certify(dec.HermitianDecomposition(
        (2, 2),
        ((1.0, (np.array([1.0, 0.0], dtype=complex), np.array([1.0, 0.0], dtype=complex))),
         (1.0, (np.array([1.0, 0.0], dtype=complex), np.array([1.0, 0.0], dtype=complex)))),
    ))
    uncertified_ok = not rep.certified
    ok = slack_ok and diag_ok and uncertified_ok
    _report(9, ok,
            f"bound {bound} <= certified {certified}; diag bound {diag_bound} <= 5; "
            f"repeated terms uncertified={uncertified_ok}")


def test_full_suite_runtime():
    elapsed = time.perf_counter() - _T0
    _report("runtime", elapsed < 180.0, f"acceptance module finished in {elapsed:.1f}s")
