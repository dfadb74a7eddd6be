import dataclasses
import json

import numpy as np
import pytest

from hermitia import cli, core, decomposition as dec, flatten, io as hio
from hermitia.cli import run

from conftest import (
    cr_psd_ii_tensor,
    csos_not_hsos_tensor,
    hankel_tensor,
    hankel_witness,
    separable_62_matrix,
)


@pytest.fixture
def hankel_file(tmp_path):
    path = tmp_path / "hankel.hten"
    hio.save_hten(path, hankel_tensor())
    return str(path)


@pytest.fixture
def e1122_file(tmp_path):
    path = tmp_path / "e1122.hten"
    hio.save_hten(path, core.basis_tensor((1, 1), (2, 2), 1.0, (2, 2)))
    return str(path)


def test_bounds_report_matches_library(hankel_file, capsys):
    assert run(["bounds", hankel_file]) == 0
    out = capsys.readouterr().out
    rep = flatten.hrank_lower_bound(hankel_tensor())
    assert f"m_rank: {rep.m_rank}" in out
    assert f"lower_bound: {rep.bound}" in out


def test_real_check_witness(e1122_file, capsys):
    assert run(["real-check", e1122_file]) == 1
    assert "1122 vs 1221" in capsys.readouterr().out


def test_real_check_positive(hankel_file):
    assert run(["real-check", hankel_file]) == 0


def test_sep_witness_exit_and_value(hankel_file, tmp_path, capsys):
    wpath = tmp_path / "b.hten"
    hio.save_hten(wpath, hankel_witness())
    assert run(["sep-witness", hankel_file, "--witness", str(wpath)]) == 1
    out = capsys.readouterr().out
    assert "-0.16666666" in out


def test_random_save_load_roundtrip(tmp_path):
    out = tmp_path / "r.hten"
    assert run(["--seed", "9", "random", "--dims", "2,2", "--out", str(out)]) == 0
    h = hio.load_hten(out)
    assert h == core.random_hermitian((2, 2), 9)


def test_json_mirrors_text(hankel_file, capsys):
    assert run(["--json", "bounds", hankel_file]) == 0
    data = json.loads(capsys.readouterr().out)
    rep = flatten.hrank_lower_bound(hankel_tensor())
    assert data == {"m_rank": rep.m_rank, "kappa_rank": rep.kappa_rank,
                    "lower_bound": rep.bound}


def test_usage_error_exit_64():
    assert run(["no-such-verb"]) == 64
    assert run(["--tol", "bogus=1", "expected-rank", "--dims", "2"]) == 64


def test_malformed_file_exit_65(tmp_path):
    bad = tmp_path / "bad.hten"
    bad.write_text("HTEN 1\ndims 2\n1 1 not-a-number 0\n")
    assert run(["info", str(bad)]) == 65


def test_hsos_exit_codes(e1122_file, tmp_path):
    assert run(["hsos", e1122_file]) == 1
    ident = tmp_path / "id.hten"
    hio.save_hten(ident, core.identity_tensor((2, 2)))
    assert run(["hsos", str(ident)]) == 0


def test_basis_decompose_writes_hdec(tmp_path, capsys):
    out = tmp_path / "d.hdec"
    code = run(["basis-decompose", "--dims", "4,4", "--I", "1,2", "--J", "3,4",
                "--c", "1", "--out", str(out)])
    assert code == 0
    d = hio.load_hdec(out)
    assert len(d) == 4
    assert dec.residual(d, core.basis_tensor((1, 2), (3, 4), 1.0, (4, 4))) < 1e-12


def test_kruskal_verb(tmp_path, capsys):
    d = dec.HermitianDecomposition(
        (3, 3),
        (
            (1.0, (np.array([1.0, 2.0, 3.0], dtype=complex), np.ones(3, dtype=complex))),
            (1.0, (np.ones(3, dtype=complex), np.array([1.0, 2.0, 3.0], dtype=complex))),
        ),
    )
    path = tmp_path / "d.hdec"
    hio.save_hdec(path, d)
    assert run(["kruskal", str(path)]) == 0
    assert "certified: True" in capsys.readouterr().out


def near_product() -> core.HermitianTensor:
    # |00><00| minus 5e-10 along the entangled (|01> + |10>)/sqrt(2): the
    # flattening's least eigenvalue -5e-10 fails the default eigTol but is
    # far inside eigTol=1e-6, and every product value stays above -witTol
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    return core.validate((2, 2), np.diag([1.0, 0.0, 0.0, 0.0]) - 5e-10 * np.outer(psi, psi))


@pytest.fixture
def near_product_file(tmp_path):
    path = tmp_path / "near.hten"
    hio.save_hten(path, near_product())
    return str(path)


def test_psd_honours_eig_tols(near_product_file, tmp_path):
    assert run(["psd", near_product_file]) == 2
    assert run(["--tol", "eigTol=1e-6", "psd", near_product_file]) == 0
    from conftest import cr_psd_ii_tensor
    path = tmp_path / "cr.hten"
    hio.save_hten(path, cr_psd_ii_tensor())
    assert run(["psd", str(path)]) == 1
    # no eigentuple meets a 1e-300 residual, so no witness survives
    assert run(["--tol", "eigTupleTol=1e-300", "psd", str(path)]) == 2


def test_oversized_hten_exit_65(tmp_path):
    big = tmp_path / "big.hten"
    big.write_text("HTEN 1\ndims 100000 100000\n")
    assert run(["info", str(big)]) == 65


def test_eig_deterministic_given_seed(hankel_file, capsys):
    assert run(["--json", "--seed", "4", "eig", hankel_file, "--starts", "4"]) == 0
    first = capsys.readouterr().out
    assert run(["--json", "--seed", "4", "eig", hankel_file, "--starts", "4"]) == 0
    assert capsys.readouterr().out == first


def test_psd_verdict_exit(tmp_path):
    from conftest import cr_psd_ii_tensor
    path = tmp_path / "cr.hten"
    hio.save_hten(path, cr_psd_ii_tensor())
    assert run(["psd", str(path), "--field", "COMPLEX", "--effort", "1"]) == 1
    assert run(["psd", str(path), "--field", "REAL", "--effort", "0"]) in (0, 2)


def test_sep_pipeline_writes_sepv(tmp_path, capsys):
    path = tmp_path / "a62.hten"
    hio.save_hten(path, flatten.hermitian_unflatten(separable_62_matrix(), (2, 2)))
    out = tmp_path / "v.sepv"
    code = run(["sep-pipeline", str(path), "--effort", "4", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("SEPV 1\nstatus SEPARABLE_CERTIFIED")


def test_unitary_check_inconclusive(tmp_path):
    path = tmp_path / "id.hten"
    hio.save_hten(path, core.identity_tensor((2, 2)))
    assert run(["unitary-check", str(path)]) == 2


def test_tol_override_accepted(hankel_file):
    assert run(["--tol", "rankTol=1e-6", "bounds", hankel_file]) == 0


def test_expected_rank(capsys):
    assert run(["expected-rank", "--dims", "2,2,2"]) == 0
    assert "10" in capsys.readouterr().out


def test_flag_domain_errors_are_usage_errors(tmp_path):
    path = tmp_path / "h.hten"
    hio.save_hten(path, core.random_hermitian((2, 2), 0))
    assert run(["jennrich", str(path), "--rmax", "5"]) == 64
    assert run(["basis-decompose", "--dims", "2,2", "--I", "1,1", "--J", "1,1",
                "--c", "1j"]) == 64
    assert run(["omega", str(path), "--k", "9,9"]) == 64


def test_gram_certificate_roundtrips_through_cli(tmp_path):
    src = tmp_path / "id.hten"
    hio.save_hten(src, core.identity_tensor((2, 2)))
    out = tmp_path / "cert.gram"
    assert run(["hsos", str(src), "--out", str(out)]) == 0
    cert = hio.loads_gram(out.read_text())
    assert np.allclose(cert.W, np.eye(4))
    out2 = tmp_path / "cert2.gram"
    assert run(["csos", str(src), "--out", str(out2)]) == 0
    assert out2.read_text().startswith("GRAM 1")


def test_search_then_verify_workflow(tmp_path):
    rng = np.random.default_rng(12)
    vecs = []
    for _ in range(2):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vecs.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
    a = dec.assemble(dec.HermitianDecomposition((2, 2), tuple((1.0, vs) for vs in vecs)))
    src = tmp_path / "a.hten"
    hio.save_hten(src, a)
    found = tmp_path / "found.hdec"
    code = run(["--seed", "3", "sep-search", str(src), "--r", "2", "--out", str(found)])
    if code == 0:  # the alternating fit is a heuristic; verify when it lands
        assert run(["sep-verify", str(src), "--decomposition", str(found)]) == 0
    else:
        assert code == 2


def test_jennrich_roundtrip_workflow(tmp_path):
    rng = np.random.default_rng(4)
    terms = []
    for _ in range(2):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        terms.append((1.5, (u / np.linalg.norm(u), v / np.linalg.norm(v))))
    h = dec.assemble(dec.HermitianDecomposition((3, 3), tuple(terms)))
    src = tmp_path / "h.hten"
    hio.save_hten(src, h)
    out = tmp_path / "d.hdec"
    assert run(["jennrich", str(src), "--rmax", "2", "--out", str(out)]) == 0
    d = hio.load_hdec(out)
    assert dec.residual(d, h) <= 1e-7 * core.norm(h)


def test_never_crashes_on_garbage_files(tmp_path):
    garbage = [
        "",
        "\x00\x01binary\x02",
        "HTEN 1",
        "HTEN 1\ndims",
        "HTEN 1\ndims 2 2\n1 1 1 1 1",
        "HTEN 1\ndims -3\n",
        "HTEN 1\ndims 2\n5 5 1 0\n",
        "HDEC 1\ndims 2\nterms 2\nlambda 1\nv1 1 0 0 0\n",
        "MTXC 1\nsize 2 2\n1 0\n",
    ]
    verbs = [
        ["info"], ["validate"], ["bounds"], ["real-check"], ["hsos"],
        ["eig"], ["ortho"], ["kruskal"],
    ]
    for i, text in enumerate(garbage):
        path = tmp_path / f"g{i}.dat"
        path.write_text(text)
        for verb in verbs:
            code = run(verb + [str(path)])
            assert code in (1, 2, 64, 65), (verb, text, code)


def test_sym_tol_reaches_the_loader(tmp_path):
    # the 1111 entry 1 + 2e-9i breaks conjugate symmetry by 4e-9
    path = tmp_path / "asym.hten"
    path.write_text("HTEN 1\ndims 2\n1 1 1 2e-9\n2 2 1 0\n")
    assert run(["validate", str(path)]) == 1
    assert run(["--tol", "symTol=1e-8", "validate", str(path)]) == 0
    ident = tmp_path / "id.hten"
    hio.save_hten(ident, core.identity_tensor((2,)))
    assert run(["sep-witness", str(ident), "--witness", str(path)]) == 65
    assert run(["--tol", "symTol=1e-8", "sep-witness", str(ident), "--witness", str(path)]) in (1, 2)


def test_nf_tol_reaches_the_normal_form(hankel_file, capsys):
    assert run(["real-decompose-22", hankel_file]) == 0
    capsys.readouterr()
    # the normal form reconstructs to about 1e-16, never to 1e-300
    assert run(["--json", "--tol", "nfTol=1e-300", "real-decompose-22", hankel_file]) == 2
    assert "normal form" in json.loads(capsys.readouterr().out)["detail"]


def test_real_decompose_bound_honours_rank_tol(tmp_path, capsys):
    # e1111 + 1e-7 e2222: flattening rank 2 at the default rankTol, 1 at 1e-5
    e = [core.basis_tensor(I, I, 1.0, (2, 2)) for I in ((1, 1), (2, 2))]
    path = tmp_path / "d.hten"
    hio.save_hten(path, core.validate((2, 2), e[0].mat + 1e-7 * e[1].mat))
    bounds = []
    for tol in ([], ["--tol", "rankTol=1e-5"]):
        assert run(["--json", *tol, "real-decompose", str(path)]) == 0
        bounds.append(json.loads(capsys.readouterr().out)["flattening_lower_bound"])
    assert bounds == [2, 1]


@pytest.mark.parametrize("verb", ["real-decompose", "real-decompose-22"])
def test_failed_real_construction_is_unknown(verb, hankel_file, capsys):
    # the residual is about 5e-15, so rdTol=1e-300 fails the construction's own check
    assert run(["--json", "--tol", "rdTol=1e-300", verb, hankel_file]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "UNKNOWN"
    assert "residual" in report["detail"]


VERB_ARGV = {
    "info": ["{t}"],
    "validate": ["{bad}"],
    "flatten": ["{t}", "--out", "{out}"],
    "bounds": ["{t}"],
    "basis-decompose": ["--dims", "2,2", "--I", "1,1", "--J", "2,2", "--out", "{out}"],
    "kruskal": ["{d}"],
    "jennrich": ["{t}", "--rmax", "2", "--out", "{out}"],
    "real-check": ["{t}"],
    "real-decompose": ["{t}", "--out", "{out}"],
    "real-decompose-22": ["{t}", "--out", "{out}"],
    "eig": ["{t}", "--starts", "4"],
    "ortho": ["{t}"],
    "unitary-check": ["{t}", "--out", "{out}"],
    "hsos": ["{t}", "--out", "{out}"],
    "csos": ["{t}", "--iters", "50", "--out", "{out}"],
    "omega": ["{t}", "--k", "1,1", "--out", "{out}"],
    "psd": ["{t}", "--effort", "1"],
    "sep-verify": ["{t}", "--decomposition", "{d}"],
    "sep-witness": ["{t}", "--witness", "{w}"],
    "sep-search": ["{t}", "--r", "2", "--iters", "20", "--out", "{out}"],
    "sep-pipeline": ["{t}", "--effort", "2", "--out", "{out}"],
    "random": ["--dims", "2,2", "--out", "{out}"],
    "expected-rank": ["--dims", "2,2"],
}


@pytest.mark.parametrize("verb", sorted(cli.VERBS))
def test_every_verb_emits_json(verb, hankel_file, tmp_path, capsys):
    d = tmp_path / "d.hdec"
    hio.save_hdec(d, dec.basis_decomposition((1, 1), (2, 2), 1.0, (2, 2)))
    w = tmp_path / "w.hten"
    hio.save_hten(w, hankel_witness())
    bad = tmp_path / "bad.hten"
    bad.write_text("HTEN 1\ndims 2\n1 2 1 0\n2 1 1 0\n")
    files = {"t": hankel_file, "d": d, "w": w, "bad": bad, "out": tmp_path / "out"}
    code = run(["--json", verb] + [a.format(**files) for a in VERB_ARGV[verb]])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code in (0, 1, 2)
    if verb == "validate":
        assert code == 1
        assert report["valid"] is False and report["detail"]


@pytest.mark.parametrize("argv", [["hsos", "{id}"], ["random", "--dims", "2,2"]], ids=["hsos", "random"])
def test_unwritable_out_exits_64(argv, tmp_path, capsys):
    ident = tmp_path / "id.hten"
    hio.save_hten(ident, core.identity_tensor((2, 2)))
    out = tmp_path / "missing" / "out"
    assert run([a.format(id=ident) for a in argv] + ["--out", str(out)]) == 64
    assert "cannot write" in capsys.readouterr().err


def _near_real_cross(diag, cross) -> core.HermitianTensor:
    """Flattening diagonal ``diag`` plus the 1122 entries ``cross`` and the
    1221 entries ``cross + 1e-7``: real-decomposable from symTol = 1e-7 on."""
    arr = np.diag(diag).astype(float).reshape(2, 2, 2, 2)
    arr[0, 0, 1, 1] = arr[1, 1, 0, 0] = cross
    arr[0, 1, 1, 0] = arr[1, 0, 0, 1] = cross + 1e-7
    return core.validate((2, 2), arr)


def near_real_decomposable() -> core.HermitianTensor:
    return _near_real_cross([0, 0, 0, 0], 1.0)


def _unit(i):
    return np.eye(2, dtype=complex)[i]


_U = np.array([1.0, 1.0j]) / np.sqrt(2)
_V = np.array([1.0, 2.0]) / np.sqrt(5)


def _rank1_plus(eps) -> core.HermitianTensor:
    """[e1, e1] + eps [u, v]: flattening rank 2, but 1 at rankTol > eps."""
    terms = ((1.0, (_unit(0), _unit(0))), (eps, (_U, _V)))
    return dec.assemble(dec.HermitianDecomposition((2, 2), terms))


def _diag(*values) -> core.HermitianTensor:
    return core.validate((2, 2), np.diag(values))


def _outer(z) -> core.HermitianTensor:
    return core.validate((2, 2), np.outer(z, np.conj(z)))


_W = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)  # (e12 + e21) / sqrt(2)
_SV = dec.HermitianDecomposition((2, 2), ((1.0, (_unit(0), _unit(0))), (2.0, (_U, _V))))


def _near_parallel_terms() -> dec.HermitianDecomposition:
    # mode vectors 1e-6 rad apart: independent at the default rankTol,
    # parallel once rankTol exceeds their singular-value ratio
    theta = 1e-6
    u = np.array([1.0, 0.0], dtype=complex)
    w = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    return dec.HermitianDecomposition((2, 2), ((1.0, (u, u)), (1.0, (w, w))))


def _identity_minus_1111() -> core.HermitianTensor:
    # the identity tensor minus a little more than its 1111 entry: the
    # multiplier Gram matrix has a -1e-6 eigenvalue
    e = core.basis_tensor((1, 1), (1, 1), 1.0, (2, 2))
    return core.validate((2, 2), core.identity_tensor((2, 2)).mat - (1.0 + 1e-6) * e.mat)


# name -> cases (override value, verb argv, files, --tol given in both runs,
#                exit codes without and with the override)
TOL_CASES = {
    "symTol": [("1e-6", ["real-decompose", "{a}"], {"a": near_real_decomposable}, [], (1, 2))],
    "eigTol": [("1e-9", ["sep-witness", "{a}", "--witness", "{b}"],
                {"a": lambda: _diag(-1, 0, 0, 0), "b": lambda: _diag(1, 1, 1, -5e-10)}, [], (2, 1))],
    "rankTol": [("1e-10", ["unitary-check", "{a}"],
                 {"a": lambda: core.validate((2, 2), np.diag([1.0, 0, 0, 0]) + 1e-9 * np.outer(_W, _W))},
                 [], (0, 1)),
                ("1e-5", ["kruskal", "{d}"], {"d": _near_parallel_terms}, [], (0, 2))],
    "cpTol": [("1e-4", ["jennrich", "{a}", "--rmax", "1"], {"a": lambda: _rank1_plus(1e-6)}, [], (2, 0))],
    "rdTol": [("1e-6", ["real-decompose", "{a}"], {"a": near_real_decomposable}, ["symTol=1e-6"], (2, 0))],
    "nfTol": [("1e-6", ["real-decompose-22", "{a}"], {"a": near_real_decomposable},
               ["symTol=1e-6", "rdTol=1e-6"], (2, 0))],
    "eigTupleTol": [("1e-300", ["psd", "{a}"], {"a": cr_psd_ii_tensor}, [], (1, 2))],
    "eigGapTol": [("1e-4", ["unitary-check", "{a}"], {"a": lambda: _diag(1, 1 + 1e-5, 0, 0)}, [], (0, 2))],
    "r1Tol": [("1e-5", ["unitary-check", "{a}"],
               {"a": lambda: _outer([1, 0, 0, 1e-6] / np.hypot(1, 1e-6))}, [], (1, 0))],
    "gramTol": [("1", ["csos", "{a}", "--iters", "5"], {"a": csos_not_hsos_tensor}, [], (2, 0))],
    "witTol": [("1e-7", ["sep-witness", "{a}", "--witness", "{b}"],
                {"a": lambda: _diag(-1e-8, 0, 0, 0), "b": lambda: core.identity_tensor((2, 2))}, [], (1, 2))],
    "sepTol": [("1e-5", ["sep-verify", "{a}", "--decomposition", "{d}"],
                {"a": lambda: core.validate((2, 2), dec.assemble(_SV).mat + 1e-6 * np.eye(4)),
                 "d": lambda: _SV}, [], (1, 0))],
}


def _write(tmp_path, files) -> dict:
    paths = {}
    for key, make in files.items():
        obj = make()
        paths[key] = tmp_path / key
        (hio.save_hdec if isinstance(obj, dec.HermitianDecomposition) else hio.save_hten)(paths[key], obj)
    return paths


def test_tolerance_cases_cover_every_field():
    assert sorted(TOL_CASES) == sorted(f.name for f in dataclasses.fields(core.Tolerances))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(core.Tolerances)])
def test_tolerance_override_changes_the_outcome(name, tmp_path):
    for value, argv, files, given, exits in TOL_CASES[name]:
        paths = _write(tmp_path, files)
        argv = [a.format(**paths) for a in argv]
        base = [x for item in given for x in ("--tol", item)]
        assert (run(base + argv), run(base + ["--tol", f"{name}={value}"] + argv)) == exits, argv


def test_omega_honours_eig_tol(tmp_path):
    path = str(_write(tmp_path, {"a": _identity_minus_1111})["a"])
    assert run(["omega", path, "--k", "1,1"]) == 2
    assert run(["--tol", "eigTol=1e-4", "omega", path, "--k", "1,1"]) == 0


def test_sep_pipeline_honours_eig_tol(near_product_file):
    assert run(["sep-pipeline", near_product_file]) == 2
    assert run(["--tol", "eigTol=1e-6", "sep-pipeline", near_product_file]) == 0


def _json_run(argv, capsys):
    code = run(["--json", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_real_verbs_agree_at_sym_tol(tmp_path, capsys):
    path = str(_write(tmp_path, {"a": near_real_decomposable})["a"])
    sym = ["--tol", "symTol=1e-6"]
    assert _json_run(sym + ["real-check", path], capsys) == (0, {"real_decomposable": True})
    for verb in ("real-decompose", "real-decompose-22"):
        assert _json_run(sym + [verb, path], capsys)[1]["status"] == "UNKNOWN"
        code, report = _json_run(sym + ["--tol", "rdTol=1e-6", "--tol", "nfTol=1e-6", verb, path], capsys)
        # the construction decomposes the averaged entries, 1 + 5e-8 at all four
        assert code == 0 and report["residual"] == pytest.approx(1e-7, rel=1e-3)


def test_real_decompose_22_needs_shape_22(tmp_path, capsys):
    path = _write(tmp_path, {"a": lambda: core.identity_tensor((3, 3))})["a"]
    assert run(["real-check", str(path)]) == 0
    assert run(["real-decompose-22", str(path)]) == 64
    assert "expected shape (2, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["real-decompose", "real-decompose-22"])
def test_real_decompose_prints_the_real_check_witness(verb, e1122_file, capsys):
    assert run([verb, e1122_file]) == 1
    assert "1122 vs 1221" in capsys.readouterr().out


def test_jennrich_rank_honours_rank_tol(tmp_path, capsys):
    path = str(_write(tmp_path, {"a": lambda: _rank1_plus(1e-9)})["a"])
    terms = [_json_run([*tol, "jennrich", path, "--rmax", "2"], capsys)[1]["terms"]
             for tol in ([], ["--tol", "rankTol=1e-10"])]
    assert terms == [1, 2]


def test_sep_search_rank_gate_honours_rank_tol(tmp_path, capsys):
    path = str(_write(tmp_path, {"a": lambda: _rank1_plus(1e-9)})["a"])
    assert run(["sep-search", path, "--r", "1"]) == 0
    assert run(["--tol", "rankTol=1e-10", "sep-search", path, "--r", "1"]) == 2
    assert "flattening rank 2 exceeds the budget" in capsys.readouterr().out


def test_psd_real_branch_honours_sym_tol(tmp_path, capsys):
    # not HSOS (the 12/21 block is indefinite) and no negative value
    path = str(_write(tmp_path, {"a": lambda: _near_real_cross([1, 0, 0, 1], 0.4)})["a"])
    argv = ["psd", path, "--field", "REAL", "--effort", "0"]
    notes = [_json_run([*tol, *argv], capsys)[1]["note"] for tol in ([], ["--tol", "symTol=1e-6"])]
    assert notes == ["not real-decomposable: complex certificates do not transfer",
                     "real-decomposable: complex certificates transfer"]


def test_sep_pipeline_real_branch_honours_sym_tol(tmp_path, capsys):
    path = str(_write(tmp_path, {"a": lambda: _near_real_cross([1, 1, 1, 1], 0.5)})["a"])
    argv = ["sep-pipeline", path, "--field", "REAL"]
    code, report = _json_run(argv, capsys)
    assert code == 2 and "not real-Hermitian decomposable" in report["note"]
    code, report = _json_run(["--tol", "symTol=1e-6", *argv], capsys)
    assert code == 0 and report["status"] == "SEPARABLE_CERTIFIED"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    path = str(_write(tmp_path, {"a": near_real_decomposable})["a"])
    assert cli._parser() is cli._parser()
    assert _json_run(["--tol", "symTol=1e-6", "real-check", path], capsys) == (0, {"real_decomposable": True})
    assert run(["real-check", path]) == 1
    assert capsys.readouterr().out.startswith("real_decomposable: False")


def test_sep_witness_accepts_large_valid_tensors(tmp_path, capsys):
    # the rounding residue of <A, B> grows with ||A|| ||B||: about -4.9e-4
    # here, far above symTol as an absolute number
    paths = []
    for seed in (1, 101):
        h = core.random_hermitian((2, 2), seed)
        path = tmp_path / f"big{seed}.hten"
        hio.save_hten(path, core.HermitianTensor(h.dims, h.mat * 1e6))
        paths.append(str(path))
    assert run(["sep-witness", paths[0], "--witness", paths[1]]) in (0, 1, 2)
    assert "imaginary residue" not in capsys.readouterr().err
