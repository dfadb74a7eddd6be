"""Text formats: HTEN (tensors), HDEC (decompositions), MTXC (matrices),
GRAM (certificates), SEPV (separability verdicts).

All formats are line-oriented UTF-8 with a ``NAME 1`` header line, and
every other header is one ``key values...`` line.  ``save`` writes any of
them, picking the format from the artifact's type.  Numbers are written
with 17 significant digits so float64 round-trips exactly.  HTEN lists
only nonzero entries with I <= J (lexicographic); the loader
reconstructs the conjugate pairs and treats unlisted entries as zero.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import core
from .decomposition import HermitianDecomposition
from .errors import FormatError
from .psd_sos import GramCertificate
from .separability import SepVerdict

# Largest N = n1...nm an HTEN file may declare; the loader allocates N x N.
# An MTXC matrix (either flattening has N^2 entries) and a GRAM basis are
# bounded by the same N.
MAX_N = 4096

# Entry lines per bulk parse step: bounds the token lists held at once, so
# the parse adds little to the N x N matrix even at MAX_N.
_BLOCK = 1024

# The same text as format(x, ".17g"), including -0, subnormals, inf and nan.
_FLOAT = "%.17g"


def _row_format(n_int: int, n_float: int) -> str:
    """``%``-format of one text row: ``n_int`` integers, then ``n_float`` floats."""
    return " ".join(["%d"] * n_int + [_FLOAT] * n_float)


def _reals(a) -> np.ndarray:
    """Complex entries as their interleaved real and imaginary parts."""
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)


def _parse(tokens, kind, want: int | None, where: str) -> list:
    """``tokens`` read with ``kind`` (int or float): exactly ``want`` of
    them, or any number when ``want`` is None."""
    if want is not None and len(tokens) != want:
        raise FormatError(f"{where}: expected {want} number{'s' * (want != 1)}, got {len(tokens)}")
    try:
        return [kind(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _parse_rows(rows, width: int, n_int: int, finish, check_row):
    """Parse token rows of ``width`` fields each in one bulk pass.

    The first ``n_int`` columns are read with ``int``, each as one strided
    slice of the flat token list, into an (n_int, k) int64 array; the
    others with ``float`` into a (k, width - n_int) float64 array.
    ``finish(ints, floats)`` builds the result, or returns None when a row
    is invalid.  On any failure ``check_row(i, tokens)`` runs on the rows
    in order, so the first bad row raises its own error.
    """
    k = len(rows)
    if set(map(len, rows)) <= {width}:
        flat = list(itertools.chain.from_iterable(rows))
        int_cols = [flat[c::width] for c in range(n_int)]
        try:
            # labels repeat: convert each distinct token once
            to_int = {t: int(t) for t in set(itertools.chain.from_iterable(int_cols))}
            ints = np.array([list(map(to_int.__getitem__, col)) for col in int_cols], dtype=np.int64)
            floats = list(map(float, itertools.chain.from_iterable(r[n_int:] for r in rows)))
        except (ValueError, OverflowError):  # a bad token, or a label beyond int64
            pass
        else:
            out = finish(ints.reshape(n_int, k), np.array(floats, dtype=np.float64).reshape(k, width - n_int))
            if out is not None:
                return out
    for i, tokens in enumerate(rows):
        check_row(i, tokens)
    raise AssertionError("a bulk check failed on rows that pass every line check")


class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, where: str) -> str:
        while self.pos < len(self.lines):
            ln = self.lines[self.pos]
            self.pos += 1
            if ln.strip():
                return ln.strip()
        raise FormatError(f"unexpected end of input while reading {where}")

    def take(self, count: int) -> list[list[str]]:
        """The next ``count`` nonblank lines split into tokens; fewer at the
        end of the input."""
        rows = []
        while len(rows) < count and self.pos < len(self.lines):
            chunk = self.lines[self.pos:self.pos + count - len(rows)]
            self.pos += len(chunk)
            rows += filter(None, map(str.split, chunk))
        return rows

    def expect(self, token: str):
        ln = self.next(token)
        if ln.split() != token.split():
            raise FormatError(f"expected {token!r}, got {ln!r}")

    def header(self, key: str, kind=int, want: int | None = None) -> list:
        """The values of the next nonblank line, a ``key values...`` line,
        read by ``_parse``."""
        tokens = self.next(key).split()
        if tokens[0] != key:
            raise FormatError(f"expected {key!r}, got {tokens[0]!r}")
        return _parse(tokens[1:], kind, want, key)


def _read(path) -> str:
    """The text of a file; one that cannot be opened or is not UTF-8 is
    a malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# HTEN


def dumps_hten(h: core.HermitianTensor) -> str:
    out = ["HTEN 1", "dims " + " ".join(str(n) for n in h.dims)]
    labels = np.array(core.multi_indices(h.dims))
    i, j = np.nonzero(np.triu(h.mat != 0))  # row-major: the I <= J listing order
    v = h.mat[i, j]
    fmt = _row_format(2 * len(h.dims), 2)
    out += [fmt % row for row in zip(*labels[i].T.tolist(), *labels[j].T.tolist(),
                                      v.real.tolist(), v.imag.tolist())]
    return "\n".join(out) + "\n"


def _check_entry(tokens, dims):
    """Raise the error of the first check an HTEN entry line fails, if any."""
    m = len(dims)
    if len(tokens) != 2 * m + 2:
        raise FormatError(f"entry line needs {2 * m + 2} fields, got {len(tokens)}")
    labels = _parse(tokens[: 2 * m], int, None, "entry labels")
    _parse(tokens[2 * m:], float, 2, "entry value")
    I, J = tuple(labels[:m]), tuple(labels[m:])
    core.flat_index(dims, I)
    core.flat_index(dims, J)
    if I > J:
        raise FormatError(f"entry {I}{J} violates the I <= J listing rule")


def _place_entries(dims, labels: np.ndarray, values: np.ndarray):
    """Flat positions (pi, pj) and values of parsed entry rows, or None when
    a label is out of range or an entry has I > J."""
    m = len(dims)
    if not ((labels >= 1) & (labels <= np.array(dims * 2)[:, None])).all():
        return None
    pi = np.ravel_multi_index(tuple(labels[:m] - 1), dims)
    pj = np.ravel_multi_index(tuple(labels[m:] - 1), dims)
    if not (pi <= pj).all():
        return None
    return pi, pj, values.view(np.complex128)[:, 0]


def loads_hten(text: str, tols: core.Tolerances = core.TOL) -> core.HermitianTensor:
    lines = _Lines(text)
    lines.expect("HTEN 1")
    dims = core.check_dims(tuple(lines.header("dims")))
    m = len(dims)
    n = core.size_of(dims)
    if n > MAX_N:
        raise FormatError(f"dims {dims} give N = {n}, above the limit {MAX_N}")
    mat = np.zeros((n, n), dtype=np.complex128)
    while rows := lines.take(_BLOCK):
        pi, pj, vals = _parse_rows(
            rows, 2 * m + 2, 2 * m,
            lambda labels, values: _place_entries(dims, labels, values),
            lambda _, tokens: _check_entry(tokens, dims),
        )
        # a repeated (I, J) keeps its last line; numpy does not order
        # repeated fancy-index writes, so drop the earlier ones first
        _, last = np.unique((pi * n + pj)[::-1], return_index=True)
        keep = len(pi) - 1 - last
        pi, pj, vals = pi[keep], pj[keep], vals[keep]
        mat[pi, pj] = vals
        mat[pj, pi] = vals.conj()
    return core.validate(dims, mat, tols)


def load_hten(path, tols: core.Tolerances = core.TOL) -> core.HermitianTensor:
    return loads_hten(_read(path), tols)


# ---------------------------------------------------------------------------
# HDEC


def dumps_hdec(d: HermitianDecomposition) -> str:
    out = ["HDEC 1", "dims " + " ".join(str(n) for n in d.dims), f"terms {len(d)}"]
    for lam, vectors in d.terms:
        out.append(f"lambda {_FLOAT}" % lam)
        for k, v in enumerate(vectors, start=1):
            out.append(f"v{k} " + _row_format(0, 2 * len(v)) % tuple(_reals(v).tolist()))
    return "\n".join(out) + "\n"


def loads_hdec(text: str) -> HermitianDecomposition:
    lines = _Lines(text)
    lines.expect("HDEC 1")
    dims = core.check_dims(tuple(lines.header("dims")))
    (r,) = lines.header("terms", int, 1)
    terms = []
    for _ in range(r):
        (lam,) = lines.header("lambda", float, 1)
        vectors = tuple(np.array(lines.header(f"v{k}", float, 2 * n)).view(np.complex128)
                        for k, n in enumerate(dims, start=1))
        terms.append((lam, vectors))
    return HermitianDecomposition(dims, tuple(terms))


def load_hdec(path) -> HermitianDecomposition:
    return loads_hdec(_read(path))


# ---------------------------------------------------------------------------
# MTXC


def dumps_mtxc(mat) -> str:
    arr = np.asarray(getattr(mat, "mat", mat), dtype=np.complex128)
    if arr.ndim != 2:
        raise FormatError(f"MTXC serializes matrices, got ndim={arr.ndim}")
    out = ["MTXC 1", f"size {arr.shape[0]} {arr.shape[1]}"]
    fmt = _row_format(0, 2 * arr.shape[1])
    out += [fmt % tuple(row.tolist()) for row in _reals(arr)]
    return "\n".join(out) + "\n"


def loads_mtxc(text: str) -> np.ndarray:
    lines = _Lines(text)
    return _read_mtxc_block(lines)


def _read_mtxc_block(lines: _Lines) -> np.ndarray:
    lines.expect("MTXC 1")
    rows, cols = lines.header("size", int, 2)
    if rows < 0 or cols < 0:
        raise FormatError("matrix dimensions must be nonnegative")
    if max(rows, 1) * max(cols, 1) > MAX_N ** 2:  # an empty side still shapes the array
        raise FormatError(f"size {rows} x {cols} is above the limit of {MAX_N}^2 entries")
    tokens = lines.take(rows)
    mat = _parse_rows(
        tokens, 2 * cols, 0, lambda _, floats: floats.view(np.complex128),
        lambda i, row: _parse(row, float, 2 * cols, f"row {i}"),
    )
    if len(tokens) < rows:
        raise FormatError(f"unexpected end of input while reading row {len(tokens)}")
    return mat


def load_mtxc(path) -> np.ndarray:
    return loads_mtxc(_read(path))


# ---------------------------------------------------------------------------
# GRAM


def dumps_gram(cert) -> str:
    out = ["GRAM 1", "dims " + " ".join(str(n) for n in cert.dims), f"basis {len(cert.basis)}"]
    for exps in cert.basis:
        out.append(" ".join(str(e) for e in exps))
    out.append(dumps_mtxc(cert.W).rstrip("\n"))
    out.append(f"residual {_FLOAT}" % cert.residual)
    return "\n".join(out) + "\n"


def loads_gram(text: str) -> GramCertificate:
    lines = _Lines(text)
    lines.expect("GRAM 1")
    dims = core.check_dims(tuple(lines.header("dims")))
    (count,) = lines.header("basis", int, 1)
    if count > MAX_N:
        raise FormatError(f"basis count {count} is above the limit {MAX_N}")
    width = 2 * sum(dims)
    basis = []
    for i in range(count):
        exps = _parse(lines.next(f"basis row {i}").split(), int, width, f"basis row {i}")
        if min(exps, default=0) < 0:
            raise FormatError(f"basis row {i} has a negative exponent")
        basis.append(tuple(exps))
    w = _read_mtxc_block(lines)
    if w.shape != (count, count):
        raise FormatError(f"W has shape {w.shape}, expected {(count, count)} for {count} basis rows")
    (res,) = lines.header("residual", float, 1)
    return GramCertificate(dims, tuple(basis), w, res)


# ---------------------------------------------------------------------------
# SEPV


def dumps_sepv(verdict) -> str:
    out = ["SEPV 1", f"status {verdict.status}", f"field {verdict.field}"]
    if verdict.note:
        out.append("note " + verdict.note.replace("\n", " "))
    if verdict.witness_value is not None:
        out.append(f"inner {_FLOAT}" % verdict.witness_value)
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


# ---------------------------------------------------------------------------
# Files


def save(path, artifact) -> None:
    """Write ``artifact`` in the format its type names; any other matrix
    (a flattening, say) is MTXC.  An unwritable path raises ``OSError``."""
    kinds = ((core.HermitianTensor, dumps_hten), (HermitianDecomposition, dumps_hdec),
             (GramCertificate, dumps_gram), (SepVerdict, dumps_sepv))
    text = next((dumps for kind, dumps in kinds if isinstance(artifact, kind)), dumps_mtxc)(artifact)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
