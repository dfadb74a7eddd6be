"""Text formats: HTEN (tensors), HDEC (decompositions), MTXC (matrices),
GRAM (certificates), SEPV (separability verdicts).

All formats are line-oriented UTF-8 with a ``NAME 1`` header line.
Numbers are written with 17 significant digits so float64 round-trips
exactly.  HTEN lists only nonzero entries with I <= J (lexicographic);
the loader reconstructs the conjugate pairs and treats unlisted entries
as zero.
"""

from __future__ import annotations

import numpy as np

from . import core
from .decomposition import HermitianDecomposition
from .errors import FormatError

# Largest N = n1...nm an HTEN file may declare; the loader allocates N x N.
MAX_N = 4096


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_floats(tokens, want: int, where: str) -> list[float]:
    if len(tokens) != want:
        raise FormatError(f"{where}: expected {want} numbers, got {len(tokens)}")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _parse_ints(tokens, where: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


class _Lines:
    def __init__(self, text: str):
        self.lines = [ln.rstrip("\n") for ln in text.splitlines()]
        self.pos = 0

    def next(self, where: str) -> str:
        while self.pos < len(self.lines):
            ln = self.lines[self.pos]
            self.pos += 1
            if ln.strip():
                return ln.strip()
        raise FormatError(f"unexpected end of input while reading {where}")

    def peek(self) -> str | None:
        pos = self.pos
        while pos < len(self.lines):
            if self.lines[pos].strip():
                return self.lines[pos].strip()
            pos += 1
        return None

    def expect(self, token: str):
        ln = self.next(token)
        if ln.split() != token.split():
            raise FormatError(f"expected {token!r}, got {ln!r}")


# ---------------------------------------------------------------------------
# HTEN


def dumps_hten(h: core.HermitianTensor) -> str:
    out = ["HTEN 1", "dims " + " ".join(str(n) for n in h.dims)]
    indices = core.multi_indices(h.dims)
    for ii, I in enumerate(indices):
        for jj in range(ii, len(indices)):
            J = indices[jj]
            v = h.mat[ii, jj]
            if v != 0:
                out.append(
                    " ".join(str(x) for x in I + J) + f" {_fmt(v.real)} {_fmt(v.imag)}"
                )
    return "\n".join(out) + "\n"


def loads_hten(text: str, tols: core.Tolerances = core.TOL) -> core.HermitianTensor:
    lines = _Lines(text)
    lines.expect("HTEN 1")
    header = lines.next("dims").split()
    if header[0] != "dims":
        raise FormatError(f"expected 'dims', got {header[0]!r}")
    dims = tuple(_parse_ints(header[1:], "dims"))
    dims = core.check_dims(dims)
    m = len(dims)
    n = core.size_of(dims)
    if n > MAX_N:
        raise FormatError(f"dims {dims} give N = {n}, above the limit {MAX_N}")
    mat = np.zeros((n, n), dtype=np.complex128)
    while lines.peek() is not None:
        tokens = lines.next("entry").split()
        if len(tokens) != 2 * m + 2:
            raise FormatError(f"entry line needs {2 * m + 2} fields, got {len(tokens)}")
        labels = _parse_ints(tokens[: 2 * m], "entry labels")
        re_val, im_val = _parse_floats(tokens[2 * m:], 2, "entry value")
        val = complex(re_val, im_val)
        I, J = tuple(labels[:m]), tuple(labels[m:])
        pi = core.flat_index(dims, I)
        pj = core.flat_index(dims, J)
        if I > J:
            raise FormatError(f"entry {I}{J} violates the I <= J listing rule")
        mat[pi, pj] = val
        mat[pj, pi] = np.conj(val)
    return core.validate(dims, mat, tols)


def save_hten(path, h: core.HermitianTensor):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_hten(h))


def load_hten(path, tols: core.Tolerances = core.TOL) -> core.HermitianTensor:
    with open(path, encoding="utf-8") as fh:
        return loads_hten(fh.read(), tols)


# ---------------------------------------------------------------------------
# HDEC


def dumps_hdec(d: HermitianDecomposition) -> str:
    out = ["HDEC 1", "dims " + " ".join(str(n) for n in d.dims), f"terms {len(d)}"]
    for lam, vectors in d.terms:
        out.append(f"lambda {_fmt(lam)}")
        for k, v in enumerate(vectors, start=1):
            pairs = " ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in v)
            out.append(f"v{k} {pairs}")
    return "\n".join(out) + "\n"


def loads_hdec(text: str) -> HermitianDecomposition:
    lines = _Lines(text)
    lines.expect("HDEC 1")
    header = lines.next("dims").split()
    if header[0] != "dims":
        raise FormatError(f"expected 'dims', got {header[0]!r}")
    dims = core.check_dims(tuple(_parse_ints(header[1:], "dims")))
    m = len(dims)
    tline = lines.next("terms").split()
    if tline[0] != "terms" or len(tline) != 2:
        raise FormatError(f"expected 'terms <r>', got {' '.join(tline)!r}")
    (r,) = _parse_ints(tline[1:], "terms")
    terms = []
    for _ in range(r):
        lam_line = lines.next("lambda").split()
        if lam_line[0] != "lambda" or len(lam_line) != 2:
            raise FormatError(f"expected 'lambda <re>', got {' '.join(lam_line)!r}")
        lam = _parse_floats(lam_line[1:], 1, "lambda")[0]
        vectors = []
        for k in range(1, m + 1):
            vline = lines.next(f"v{k}").split()
            if vline[0] != f"v{k}":
                raise FormatError(f"expected 'v{k}', got {vline[0]!r}")
            vals = _parse_floats(vline[1:], 2 * dims[k - 1], f"v{k}")
            vec = np.array(
                [complex(vals[2 * i], vals[2 * i + 1]) for i in range(dims[k - 1])]
            )
            vectors.append(vec)
        terms.append((lam, tuple(vectors)))
    return HermitianDecomposition(dims, tuple(terms))


def save_hdec(path, d: HermitianDecomposition):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_hdec(d))


def load_hdec(path) -> HermitianDecomposition:
    with open(path, encoding="utf-8") as fh:
        return loads_hdec(fh.read())


# ---------------------------------------------------------------------------
# MTXC


def dumps_mtxc(mat) -> str:
    arr = np.asarray(getattr(mat, "mat", mat), dtype=np.complex128)
    if arr.ndim != 2:
        raise FormatError(f"MTXC serializes matrices, got ndim={arr.ndim}")
    out = ["MTXC 1", f"size {arr.shape[0]} {arr.shape[1]}"]
    for row in arr:
        out.append(" ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in row))
    return "\n".join(out) + "\n"


def loads_mtxc(text: str) -> np.ndarray:
    lines = _Lines(text)
    return _read_mtxc_block(lines)


def _read_mtxc_block(lines: _Lines) -> np.ndarray:
    lines.expect("MTXC 1")
    header = lines.next("size").split()
    if header[0] != "size" or len(header) != 3:
        raise FormatError(f"expected 'size <r> <c>', got {' '.join(header)!r}")
    rows, cols = _parse_ints(header[1:], "size")
    if rows < 0 or cols < 0:
        raise FormatError("matrix dimensions must be nonnegative")
    mat = np.zeros((rows, cols), dtype=np.complex128)
    for i in range(rows):
        vals = _parse_floats(lines.next(f"row {i}").split(), 2 * cols, f"row {i}")
        mat[i] = [complex(vals[2 * j], vals[2 * j + 1]) for j in range(cols)]
    return mat


def save_mtxc(path, mat):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_mtxc(mat))


def load_mtxc(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return loads_mtxc(fh.read())


# ---------------------------------------------------------------------------
# GRAM


def dumps_gram(cert) -> str:
    out = ["GRAM 1", "dims " + " ".join(str(n) for n in cert.dims), f"basis {len(cert.basis)}"]
    for exps in cert.basis:
        out.append(" ".join(str(e) for e in exps))
    out.append(dumps_mtxc(cert.W).rstrip("\n"))
    out.append(f"residual {_fmt(cert.residual)}")
    return "\n".join(out) + "\n"


def loads_gram(text: str):
    from .psd_sos import GramCertificate

    lines = _Lines(text)
    lines.expect("GRAM 1")
    header = lines.next("dims").split()
    if header[0] != "dims":
        raise FormatError(f"expected 'dims', got {header[0]!r}")
    dims = core.check_dims(tuple(_parse_ints(header[1:], "dims")))
    bline = lines.next("basis").split()
    if bline[0] != "basis" or len(bline) != 2:
        raise FormatError("expected 'basis <count>'")
    (count,) = _parse_ints(bline[1:], "basis")
    width = 2 * sum(dims)
    basis = []
    for i in range(count):
        exps = _parse_ints(lines.next(f"basis row {i}").split(), f"basis row {i}")
        if len(exps) != width:
            raise FormatError(f"basis row {i} needs {width} exponents")
        basis.append(tuple(exps))
    w = _read_mtxc_block(lines)
    if w.shape != (count, count):
        raise FormatError(f"W has shape {w.shape}, expected {(count, count)} for {count} basis rows")
    rline = lines.next("residual").split()
    if rline[0] != "residual" or len(rline) != 2:
        raise FormatError("expected 'residual <value>'")
    res = _parse_floats(rline[1:], 1, "residual")[0]
    return GramCertificate(dims, tuple(basis), w, res)


# ---------------------------------------------------------------------------
# SEPV


def dumps_sepv(verdict) -> str:
    out = ["SEPV 1", f"status {verdict.status}", f"field {verdict.field}"]
    if verdict.note:
        out.append("note " + verdict.note.replace("\n", " "))
    if verdict.witness_value is not None:
        out.append(f"inner {_fmt(verdict.witness_value)}")
    if verdict.decomposition is not None:
        out.append("decomposition")
        out.append(dumps_hdec(verdict.decomposition).rstrip("\n"))
    if verdict.witness is not None:
        out.append("witness")
        out.append(dumps_hten(verdict.witness).rstrip("\n"))
    if verdict.witness_certificate is not None:
        out.append("certificate")
        out.append(dumps_gram(verdict.witness_certificate).rstrip("\n"))
    return "\n".join(out) + "\n"
