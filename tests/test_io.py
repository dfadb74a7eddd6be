import re

import numpy as np
import pytest

from hermitia import core, decomposition as dec, flatten, io as hio, psd_sos, separability
from hermitia.errors import FormatError, ShapeMismatch

from conftest import random_unit


class TestHten:
    def test_roundtrip_exact(self, tmp_path):
        for seed in range(5):
            h = core.random_hermitian((2, 3), seed)
            path = tmp_path / f"t{seed}.hten"
            hio.save(path, h)
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


# (body lines of a dims 2 2 file, error class, exact message)
MALFORMED_HTEN = [
    (["1 1 1 1 0.5"], FormatError, "entry line needs 6 fields, got 5"),
    (["1 x 1 1 0.5 0"], FormatError, "entry labels: invalid literal for int() with base 10: 'x'"),
    (["1 1 1 1 y 0"], FormatError, "entry value: could not convert string to float: 'y'"),
    (["1 1 1 3 0.5 0"], ShapeMismatch, "multi-index (1, 3) out of range for shape (2, 2)"),
    (["0 1 1 1 0.5 0"], ShapeMismatch, "multi-index (0, 1) out of range for shape (2, 2)"),
    (["1 99999999999999999999 2 2 1 0"], ShapeMismatch,
     "multi-index (1, 99999999999999999999) out of range for shape (2, 2)"),
    (["2 2 1 1 1 0"], FormatError, "entry (2, 2)(1, 1) violates the I <= J listing rule"),
    # two bad lines: the first one in file order is reported
    (["1 1 1 1 1 0", "1 2 1 2 y 0", "1 1 1 1 0.5"], FormatError,
     "entry value: could not convert string to float: 'y'"),
    (["1 1 1 1 1 0", "1 1 1 1 0.5", "1 2 1 2 y 0"], FormatError, "entry line needs 6 fields, got 5"),
    (["2 2 1 1 1 0", "1 x 1 1 0.5 0"], FormatError, "entry (2, 2)(1, 1) violates the I <= J listing rule"),
]


class TestHtenBody:
    @pytest.mark.parametrize("body,error,message", MALFORMED_HTEN)
    def test_malformed_line_message(self, body, error, message):
        with pytest.raises(error) as excinfo:
            hio.loads_hten("HTEN 1\ndims 2 2\n" + "\n".join(body) + "\n")
        assert str(excinfo.value) == message

    def test_repeated_entry_keeps_the_last_value(self):
        h = hio.loads_hten("HTEN 1\ndims 2\n1 2 1 0\n2 2 4 0\n1 2 3 -1\n")
        assert h.mat[0, 1] == 3 - 1j and h.mat[1, 0] == 3 + 1j and h.mat[1, 1] == 4

    def test_blank_lines_tabs_and_crlf(self):
        text = "HTEN 1\r\ndims 2\r\n\r\n1\t1\t2 0\r\n  \t\r\n 1 2\t0.5 -1 \r\n\r\n"
        want = np.array([[2, 0.5 - 1j], [0.5 + 1j, 0]])
        assert np.array_equal(hio.loads_hten(text).mat, want)

    def test_error_in_the_second_parse_block(self):
        # the first block parses cleanly, so the error must come from the second
        body = ["1 2 1 0"] * hio._BLOCK + ["1 2 7 0", "1 1 x 0", "1 1 1"]
        with pytest.raises(FormatError) as excinfo:
            hio.loads_hten("HTEN 1\ndims 2\n" + "\n".join(body) + "\n")
        assert str(excinfo.value) == "entry value: could not convert string to float: 'x'"
        h = hio.loads_hten("HTEN 1\ndims 2\n" + "\n".join(body[:-2]) + "\n")
        assert h.mat[0, 1] == 7  # a repeat across blocks also keeps the last value


SPECIAL_FLOATS = [-0.0, 5e-324, 2.5e-310, 1e308, -1e308, np.inf, -np.inf, np.nan, 0.1, 1 / 3]


class TestRowFormat:
    def test_mtxc_matches_format_17g(self):
        reals = np.array(SPECIAL_FLOATS + [2.0, -0.0]).reshape(3, 4)
        text = hio.dumps_mtxc(reals.view(np.complex128))
        want = [" ".join(format(x, ".17g") for x in row) for row in reals.tolist()]
        assert text.splitlines()[2:] == want

    def test_gram_w_block_matches_format_17g(self):
        cert = psd_sos.hsos_test(core.identity_tensor((2, 2))).certificate
        w = np.array(SPECIAL_FLOATS[:8], dtype=float).view(np.complex128).reshape(2, 2)
        w_full = np.zeros(cert.W.shape, dtype=np.complex128)
        w_full[:2, :2] = w
        text = hio.dumps_gram(psd_sos.GramCertificate(cert.dims, cert.basis, w_full, -0.0))
        lines = text.splitlines()
        first = lines.index("MTXC 1") + 2
        row0 = w_full[0].view(np.float64).tolist()
        assert lines[first] == " ".join(format(x, ".17g") for x in row0)
        assert lines[-1] == "residual -0"


class TestHdec:
    def test_roundtrip_exact(self, tmp_path, rng):
        terms = tuple(
            (float(rng.standard_normal()), (random_unit(rng, 2), random_unit(rng, 3)))
            for _ in range(3)
        )
        d = dec.HermitianDecomposition((2, 3), terms)
        path = tmp_path / "d.hdec"
        hio.save(path, d)
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
        hio.save(path, m)
        assert np.array_equal(hio.load_mtxc(path), m)

    @pytest.mark.parametrize("rows,message", [
        ("1 x\n", "row 0: could not convert string to float: 'x'"),  # before the missing row 1
        ("1 0\n", "unexpected end of input while reading row 1"),
        ("1 0\n\n1 0 0\n", "row 1: expected 2 numbers, got 3"),
    ])
    def test_first_bad_row_reported(self, rows, message):
        with pytest.raises(FormatError) as excinfo:
            hio.loads_mtxc("MTXC 1\nsize 2 1\n" + rows)
        assert str(excinfo.value) == message

    def test_size_line(self):
        text = hio.dumps_mtxc(np.zeros((2, 5)))
        assert text.splitlines()[1] == "size 2 5"

    @pytest.mark.parametrize("size", ["0 99999999999999999999999", "5000 5000", f"1 {hio.MAX_N ** 2 + 1}"])
    def test_oversized_size_rejected_before_reading_rows(self, size):
        with pytest.raises(FormatError, match="above the limit"):
            hio.loads_mtxc(f"MTXC 1\nsize {size}\n")

    def test_size_at_the_limit_is_read(self):
        assert hio.loads_mtxc(f"MTXC 1\nsize 0 {hio.MAX_N ** 2}\n").shape == (0, hio.MAX_N ** 2)


_GRAM = hio.dumps_gram(psd_sos.hsos_test(core.identity_tensor((2, 2))).certificate)

# a text whose one bad header line is named by the error, and that error
HEADER_ERRORS = [
    ("HTEN 1\nsize 2\n", "expected 'dims', got 'size'"),
    ("HTEN 1\ndims 2 x\n", "dims: invalid literal for int() with base 10: 'x'"),
    ("HDEC 1\ndims 2\nterms 1 2\n", "terms: expected 1 number, got 2"),
    ("HDEC 1\ndims 2\nterms 1\nlambda x\n", "lambda: could not convert string to float: 'x'"),
    ("HDEC 1\ndims 2\nterms 1\nlambda 1\nv2 1 0 0 0\n", "expected 'v1', got 'v2'"),
    ("HDEC 1\ndims 2\nterms 1\nlambda 1\nv1 1 0 0\n", "v1: expected 4 numbers, got 3"),
    ("MTXC 1\nsize 2\n", "size: expected 2 numbers, got 1"),
    ("GRAM 1\ndims 2\nbasis two\n", "basis: invalid literal for int() with base 10: 'two'"),
    (_GRAM.replace("residual 0", "residual 0 1"), "residual: expected 1 number, got 2"),
]


@pytest.mark.parametrize("text,message", HEADER_ERRORS)
def test_header_errors_name_the_line(text, message):
    loads = {"HTEN": hio.loads_hten, "HDEC": hio.loads_hdec, "MTXC": hio.loads_mtxc, "GRAM": hio.loads_gram}
    with pytest.raises(FormatError) as excinfo:
        loads[text[:4]](text)
    assert str(excinfo.value) == message


class TestFiles:
    def test_save_matches_dumps_for_every_kind(self, tmp_path):
        h = core.random_hermitian((2, 2), 3)
        d = dec.basis_decomposition((1, 1), (2, 2), 1.0, (2, 2))
        artifacts = [
            (h, hio.dumps_hten), (d, hio.dumps_hdec), (hio.loads_gram(_GRAM), hio.dumps_gram),
            (separability.SepVerdict("SEPARABLE_CERTIFIED", "COMPLEX", decomposition=d), hio.dumps_sepv),
            (flatten.kronecker_flatten(h), hio.dumps_mtxc), (np.eye(2, 3), hio.dumps_mtxc),
        ]
        for i, (artifact, dumps) in enumerate(artifacts):
            path = tmp_path / str(i)
            hio.save(path, artifact)
            assert path.read_bytes() == dumps(artifact).encode("utf-8")

    @pytest.mark.parametrize("load", [hio.load_hten, hio.load_hdec, hio.load_mtxc])
    def test_unreadable_paths_are_format_errors(self, load, tmp_path):
        not_utf8 = tmp_path / "b"
        not_utf8.write_bytes(b"\xff\xfeHTEN 1\n")
        for path in (tmp_path / "missing", tmp_path, not_utf8):
            with pytest.raises(FormatError, match=re.escape(f"cannot read {path}: ")):
                load(path)


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

    def test_gram_rejects_negative_exponents(self):
        cert = psd_sos.hsos_test(core.identity_tensor((2, 2))).certificate
        lines = hio.dumps_gram(cert).splitlines()
        lines[3] = "2 -1 1 0 0 0 0 0"  # the first basis row; still degree 1 per mode
        with pytest.raises(FormatError, match="basis row 0 has a negative exponent"):
            hio.loads_gram("\n".join(lines) + "\n")

    def test_gram_rejects_oversized_basis_count(self):
        cert = psd_sos.hsos_test(core.identity_tensor((2, 2))).certificate
        lines = hio.dumps_gram(cert).splitlines()
        lines[2] = f"basis {hio.MAX_N + 1}"
        with pytest.raises(FormatError, match=f"basis count {hio.MAX_N + 1} is above the limit"):
            hio.loads_gram("\n".join(lines) + "\n")

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
