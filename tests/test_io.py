import numpy as np
import pytest

from hermitia import core, decomposition as dec, io as hio, psd_sos
from hermitia.errors import FormatError

from conftest import random_unit


class TestHten:
    def test_roundtrip_exact(self, tmp_path):
        for seed in range(5):
            h = core.random_hermitian((2, 3), seed)
            path = tmp_path / f"t{seed}.hten"
            hio.save_hten(path, h)
            assert np.array_equal(hio.load_hten(path).mat, h.mat)

    def test_only_upper_pairs_listed(self):
        h = core.basis_tensor((1, 2), (2, 1), 1j, (2, 2))
        text = hio.dumps_hten(h)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith(("HTEN", "dims"))]
        assert len(lines) == 1  # the conjugate entry is reconstructed
        assert lines[0].split()[:4] == ["1", "2", "2", "1"]

    def test_zero_entries_unlisted(self):
        text = hio.dumps_hten(core.zero_tensor((2, 2)))
        assert text.strip().splitlines() == ["HTEN 1", "dims 2 2"]
        h = hio.loads_hten(text)
        assert core.norm(h) == 0.0

    def test_seventeen_digit_roundtrip(self):
        h = core.random_hermitian((2,), 123)
        again = hio.loads_hten(hio.dumps_hten(h))
        assert np.array_equal(again.mat, h.mat)

    def test_malformed_header(self):
        with pytest.raises(FormatError):
            hio.loads_hten("HTEN 2\ndims 2\n")

    def test_oversized_dims_rejected_before_allocation(self, monkeypatch):
        zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape) <= hio.MAX_N ** 2, f"allocation of shape {shape}"
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", small_zeros)
        with pytest.raises(FormatError, match="limit"):
            hio.loads_hten("HTEN 1\ndims 100000 100000\n")
        with pytest.raises(FormatError, match="limit"):
            hio.loads_hten(f"HTEN 1\ndims {hio.MAX_N + 1}\n")

    def test_lower_pair_rejected(self):
        with pytest.raises(FormatError):
            hio.loads_hten("HTEN 1\ndims 2 2\n2 2 1 1 1 0\n")

    def test_bad_number(self):
        with pytest.raises(FormatError):
            hio.loads_hten("HTEN 1\ndims 2\n1 1 x 0\n")

    def test_asymmetric_diagonal_rejected(self):
        # a diagonal entry with imaginary part breaks conjugate symmetry
        from hermitia.errors import SymmetryViolation
        with pytest.raises(SymmetryViolation):
            hio.loads_hten("HTEN 1\ndims 2\n1 1 1 1\n")


class TestHdec:
    def test_roundtrip_exact(self, tmp_path, rng):
        terms = tuple(
            (float(rng.standard_normal()), (random_unit(rng, 2), random_unit(rng, 3)))
            for _ in range(3)
        )
        d = dec.HermitianDecomposition((2, 3), terms)
        path = tmp_path / "d.hdec"
        hio.save_hdec(path, d)
        d2 = hio.load_hdec(path)
        assert d2.dims == d.dims and len(d2) == len(d)
        for (l1, vs1), (l2, vs2) in zip(d.terms, d2.terms):
            assert l1 == l2
            for v1, v2 in zip(vs1, vs2):
                assert np.array_equal(v1, v2)

    def test_real_vectors_serialize_with_zero_imag(self):
        d = dec.HermitianDecomposition(
            (2,), ((1.5, (np.array([1.0, -2.0], dtype=complex),)),)
        )
        text = hio.dumps_hdec(d)
        assert "v1 1 0 -2 0" in text.replace("-0", "0")

    def test_truncated_rejected(self):
        with pytest.raises(FormatError):
            hio.loads_hdec("HDEC 1\ndims 2\nterms 1\nlambda 1\n")


class TestMtxc:
    def test_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        path = tmp_path / "m.mtxc"
        hio.save_mtxc(path, m)
        assert np.array_equal(hio.load_mtxc(path), m)

    def test_size_line(self):
        text = hio.dumps_mtxc(np.zeros((2, 5)))
        assert text.splitlines()[1] == "size 2 5"


class TestGramAndSepv:
    def test_gram_roundtrip(self):
        h = core.identity_tensor((2, 2))
        cert = psd_sos.hsos_test(h).certificate
        again = hio.loads_gram(hio.dumps_gram(cert))
        assert again.dims == cert.dims
        assert again.basis == cert.basis
        assert np.array_equal(again.W, cert.W)
        assert again.residual == cert.residual

    def test_gram_w_must_match_the_basis(self):
        cert = psd_sos.hsos_test(core.identity_tensor((2, 2))).certificate
        bad = psd_sos.GramCertificate(cert.dims, cert.basis, np.eye(5), 0.0)
        with pytest.raises(FormatError, match="expected"):
            hio.loads_gram(hio.dumps_gram(bad))

    def test_sepv_embeds_payloads(self):
        from hermitia import separability
        d = dec.HermitianDecomposition(
            (2, 2),
            ((1.0, (np.array([1.0, 0.0], dtype=complex), np.array([1.0, 0.0], dtype=complex))),),
        )
        v = separability.SepVerdict("SEPARABLE_CERTIFIED", "COMPLEX", decomposition=d)
        text = hio.dumps_sepv(v)
        assert text.startswith("SEPV 1\nstatus SEPARABLE_CERTIFIED")
        assert "HDEC 1" in text
