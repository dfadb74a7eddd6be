"""Verdicts do not depend on the unit of the input.

The psd and separable cones are closed under positive scaling, so every
tolerance is relative: to the tensor's norm, or to a matrix's own largest
|eigenvalue|, with no absolute floor.
"""

import itertools
import json
import re

import numpy as np
import pytest

from hermitia import cli, core, decomposition as dec, io as hio, psd_sos, separability as sep

from conftest import (csos_not_hsos_tensor, hankel_tensor, hankel_witness, random_unit, random_unitary,
                      strict_json)

SCALES = [1.0, 1e-6, 1e-12, 1e-16]


def _scaled(h: core.HermitianTensor, s: float) -> core.HermitianTensor:
    return core.HermitianTensor(h.dims, h.mat * s)


@pytest.mark.parametrize("s", SCALES)
def test_indefinite_diagonal_is_never_hsos(s):
    h = core.HermitianTensor((2, 2), np.diag([1.0, -1.0, 0.0, 0.0]) * s)
    assert psd_sos.hsos_test(h).status == "UNKNOWN"
    assert psd_sos.multiplier_hsos_test(h, (1, 0)).status == "UNKNOWN"
    assert psd_sos.psd_verdict(h).status != "PSD_CERTIFIED"


@pytest.mark.parametrize("s", SCALES)
def test_identity_stays_hsos(s):
    h = _scaled(core.identity_tensor((2, 2)), s)
    assert psd_sos.hsos_test(h).status == "MEMBER"
    assert psd_sos.psd_verdict(h).status == "PSD_CERTIFIED"


@pytest.mark.parametrize("s", SCALES)
def test_entangled_hankel_is_never_certified(s):
    h = _scaled(hankel_tensor(), s)
    assert sep.separability_pipeline(h).status != "SEPARABLE_CERTIFIED"
    assert sep.separable_search(h, 2, seed=0).status != "SEPARABLE_CERTIFIED"


# beyond 2^+-450 the squares of the entries leave the float range, so these
# run on the input scaled by a power of two
FAR = [pytest.param(2.0 ** e, id=f"2^{e}") for e in (-560, 560)]


@pytest.mark.parametrize("s", SCALES + [1e-100] + FAR)
def test_jennrich_recovers_a_scaled_rank1_term(s, rng):
    h = core.rank1(s, [random_unit(rng, 2), random_unit(rng, 3)])
    out = dec.jennrich_decompose(h, 1, seed=0)
    assert isinstance(out, dec.HermitianDecomposition)
    assert len(out.terms) == 1
    assert dec.residual(out, h) <= core.TOL.fitTol * core.norm(h)


@pytest.mark.parametrize("s", [1.0, 1e-100, 1e-170] + FAR)
def test_hankel_witness_refutes_at_every_scale(s, tmp_path, capsys):
    # at 1e-170 each, <a, b> and norm(a) * norm(b) are below the float range:
    # the reported <a, b> reads -0 there and -inf at 2^560, while the
    # scale-free <a, b> / (norm(a) * norm(b)) keeps the evidence
    paths = [tmp_path / "a.hten", tmp_path / "b.hten"]
    for path, h in zip(paths, (hankel_tensor(), hankel_witness())):
        hio.save(path, _scaled(h, s))
    assert sep.dual_witness_check(*(hio.load_hten(p) for p in paths)).status == "ENTANGLED_WITNESS"
    assert cli.run(["--json", "sep-witness", str(paths[0]), "--witness", str(paths[1])]) == 1
    report = strict_json(capsys.readouterr().out)
    assert report["relative_inner"] == pytest.approx(-0.00404, abs=5e-6)
    assert report["inner"] == "-inf" if s > 1.0 else report["inner"] <= 0.0


@pytest.mark.parametrize("s", [1.0, pytest.param(2.0 ** -500, id="2^-500")] + FAR)
@pytest.mark.parametrize("verb", [["jennrich", "--rmax", "2"], ["sep-pipeline"]], ids=["jennrich", "sep-pipeline"])
def test_rank2_33_fits_far_from_unit_scale(verb, s, tmp_path):
    h = _terms((3, 3), [1.0, 2.0], np.random.default_rng(3))
    path = tmp_path / "h.hten"
    hio.save(path, _scaled(h, s))
    assert cli.run([*verb, str(path)]) == 0


# ---------------------------------------------------------------------------
# The CLI verbs under exact and inexact scaling
#
# A metamorphic relation (Chen, Cheung & Yiu, HKUST-CS98-01, 1998): scaling
# the input by s > 0 keeps every verdict, and a power of four scales every
# floating-point step exactly, so the reports must then agree exactly, with
# each reported value times s.

EXACT = [4.0 ** 20, 4.0 ** -20]
INEXACT = [1e8, 1e-8]
# report fields that carry the unit of the input; every other field,
# including CSOS iterations, eigentuple counts and ranks, must not move
SCALED = {"gram_residual", "lambda", "max_residual", "min_eigenvalue",
          "negative_eigenvalue", "residual", "witness_value"}
_NUMBER = re.compile(r"[-+]?\d+(\.\d+)?e[-+]\d+")


def _terms(dims, coeffs, rng, real=False) -> core.HermitianTensor:
    mat = sum(c * core.rank1(1.0, [random_unit(rng, n, real) for n in dims]).mat for c in coeffs)
    return core.HermitianTensor(dims, mat)


def _nonpsd(dims, rng) -> core.HermitianTensor:
    # H(u, conj u) <= 1.5 - 2 < 0 at the subtracted direction u
    minus = core.rank1(-2.0, [random_unit(rng, n, True) for n in dims]).mat
    return core.HermitianTensor(dims, _terms(dims, [1.0, 0.5], rng).mat + minus)


def _werner(dims, rng) -> core.HermitianTensor:
    """A maximally entangled state (GHZ for three modes) mixed with 20%
    white noise, in a random local unitary frame: psd, entangled."""
    n = core.size_of(dims)
    psi = sum(core.kron_vector([np.eye(dims[0])[i]] * len(dims)) for i in range(dims[0]))
    rho = 0.8 * np.outer(psi, psi.conj()) / dims[0] + 0.2 * np.eye(n) / n
    q = np.ones((1, 1))
    for d in dims:
        q = np.kron(q, random_unitary(rng, d))
    return core.HermitianTensor(dims, q @ rho @ q.conj().T)


def _real_psd_222() -> core.HermitianTensor:
    """x_11^2 x_21^2 x_31^2 on real vectors, not psd over C.  The real
    cross terms 111|122 and 112|121 meet only under a swap of mode 2 or
    mode 3 alone, and the imaginary part vanishes on real vectors."""
    arr = np.zeros((2,) * 6)
    arr[0, 0, 0, 0, 0, 0] = 1.0
    for i, j, c in (((0, 0, 0), (0, 1, 1), 1.0), ((0, 0, 1), (0, 1, 0), -1.0)):
        arr[i + j] = arr[j + i] = c
    return core.validate((2, 2, 2), arr.reshape(8, 8) + 0.5j * (np.eye(8, k=1) - np.eye(8, k=-1)))


def _scale_inputs() -> dict:
    rng = np.random.default_rng(20261018)
    out = {}
    for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        tag = "x".join(map(str, dims))
        out[f"sep-{tag}"] = _terms(dims, [1.0, 2.0], rng)
        out[f"nonpsd-{tag}"] = _nonpsd(dims, rng)
    for dims in ((2, 2), (2, 3)):
        out[f"sep-real-{'x'.join(map(str, dims))}"] = _terms(dims, [1.0, 2.0], rng, real=True)
    out["csos-2x2"] = csos_not_hsos_tensor()
    for dims in ((2, 2), (3, 3), (2, 2, 2)):
        out[f"werner-{'x'.join(map(str, dims))}"] = _werner(dims, rng)
    for dims in ((2, 3), (3, 3)):
        out[f"lowrank-{'x'.join(map(str, dims))}"] = _terms(dims, [1.0, -0.7], rng)
    out["rpsd-2x2x2"] = _real_psd_222()
    return out


INPUTS = _scale_inputs()
VERBS = {
    "psd": ["psd", "--field", "COMPLEX"],
    "psd-real": ["psd", "--field", "REAL"],
    "eig": ["eig"],
    "hsos": ["hsos"],
    "csos": ["csos", "--iters", "{iters}"],
    "omega": ["omega", "--k", "{k}"],
    "sep-pipeline": ["sep-pipeline", "--effort", "2"],
    "real-check": ["real-check"],
    "bounds": ["bounds"],
    "unitary-check": ["unitary-check"],
    "jennrich": ["jennrich", "--rmax", "2"],
}


def _run_json(verb, h, path, capsys, powers=None) -> tuple[int, dict]:
    hio.save(path, h)
    k = ",".join(map(str, powers or [1] + [0] * (h.order - 1)))
    # CSOS runs to its verdict on [2,2] (K = 16); the larger bases stop early
    iters = 300 if h.size == 4 else 30
    code = cli.run(["--json"] + [a.format(k=k, iters=iters) for a in VERBS[verb]] + [str(path)])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else {}


def _times(report, s):
    """``report`` with every SCALED value multiplied by s and the numbers
    inside text removed (a detail may quote a scaled value)."""
    if isinstance(report, dict):
        return {k: v * s if k in SCALED else _times(v, s) for k, v in report.items()}
    if isinstance(report, list):
        return [_times(v, s) for v in report]
    if isinstance(report, str):
        return _NUMBER.sub("#", report)
    return report


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name", INPUTS)
def test_verbs_scale_exactly(name, verb, tmp_path, capsys):
    h = INPUTS[name]
    path = tmp_path / "h.hten"
    code, report = _run_json(verb, h, path, capsys)
    for s in EXACT:
        got, got_report = _run_json(verb, _scaled(h, s), path, capsys)
        assert (got, _times(got_report, 1.0)) == (code, _times(report, s)), s
    for s in INEXACT:
        got, _ = _run_json(verb, _scaled(h, s), path, capsys)
        assert got not in (64, 65) and {got, code} != {0, 1}, s


@pytest.mark.parametrize("name", INPUTS)
def test_local_frame_keeps_hsos_and_bounds(name, tmp_path, capsys):
    h = INPUTS[name]
    path = tmp_path / "h.hten"
    want = [_run_json(verb, h, path, capsys) for verb in ("hsos", "bounds")]
    rng = np.random.default_rng(7)
    qs = [random_unitary(rng, n) for n in h.dims]
    for s in [1.0] + EXACT:
        framed = core.congruent(qs, _scaled(h, s))
        hsos, bounds = (_run_json(verb, framed, path, capsys) for verb in ("hsos", "bounds"))
        assert (hsos[0], bounds) == (want[0][0], want[1]), s


# ---------------------------------------------------------------------------
# Relabelling: a mode permutation or entrywise conjugation of H is H in
# other coordinates, so the verdicts stand.  The coefficient map is built
# one mode at a time, CSOS sorts its basis into charge blocks by mode, and
# P(H) averages one mode at a time, which is where a mode-order slip would
# hide.


def _relabelings(h):
    """(perm, tensor) for every nontrivial mode permutation, whose mode i
    is h's mode perm[i], then for the entrywise conjugate."""
    m = h.order
    for perm in itertools.permutations(range(m)):
        if perm != tuple(range(m)):
            arr = h.mat.reshape(h.dims * 2).transpose(perm + tuple(m + p for p in perm))
            yield perm, core.HermitianTensor(tuple(h.dims[p] for p in perm), arr.reshape(h.mat.shape))
    yield tuple(range(m)), core.HermitianTensor(h.dims, h.mat.conj())


@pytest.mark.parametrize("name", INPUTS)
def test_relabeling_keeps_gram_verdicts(name, tmp_path, capsys):
    h = INPUTS[name]
    path = tmp_path / "h.hten"
    powers = [1] + [0] * (h.order - 1)
    # psd-real also guards that P(H) commutes with relabelling
    exact = ("hsos", "bounds", "real-check", "csos", "eig", "sep-pipeline", "jennrich",
             "unitary-check", "psd-real")
    want = {verb: _run_json(verb, h, path, capsys)[0] for verb in exact + ("omega", "psd")}
    for perm, g in _relabelings(h):
        for verb in exact:
            assert _run_json(verb, g, path, capsys)[0] == want[verb], (perm, verb)
        for verb in ("omega", "psd"):
            got = _run_json(verb, g, path, capsys, [powers[p] for p in perm])[0]
            assert got not in (64, 65) and {got, want[verb]} != {0, 1}, (perm, verb)
