"""Independent re-check of emitted files, with numpy only.

Nothing here imports hermitia: every file is parsed from its text format and
every claim is tested against the known input tensor with numpy's own
eigensolvers and SVD.  Each check returns an error string, or None when the
file is sound.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PSD_TOL = 1e-7  # relative: min eigenvalue >= -PSD_TOL * max(1, ||W||)
RESIDUAL_TOL = 1e-6  # relative assembly residual ||sum - H|| <= RESIDUAL_TOL * ||H||
COEFF_TOL = 1e-6  # coefficient mismatch, relative to max(1, max |H|)
RANK_TOL = 1e-8  # singular values above RANK_TOL * s_max count


def _rows(text: str) -> list[list[str]]:
    return [ln.split() for ln in text.splitlines() if ln.strip()]


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _index(dims, labels) -> int:
    return int(np.ravel_multi_index([int(t) - 1 for t in labels], dims))


def parse_hten(rows) -> tuple[tuple[int, ...], np.ndarray]:
    if rows[0] != ["HTEN", "1"] or rows[1][0] != "dims":
        raise ValueError("not an HTEN record")
    dims = tuple(int(t) for t in rows[1][1:])
    m, n = len(dims), math.prod(dims)
    mat = np.zeros((n, n), dtype=np.complex128)
    for tok in rows[2:]:
        i, j = _index(dims, tok[:m]), _index(dims, tok[m:2 * m])
        mat[i, j] = complex(float(tok[2 * m]), float(tok[2 * m + 1]))
        mat[j, i] = np.conj(mat[i, j])
    return dims, mat


def parse_hdec(rows) -> tuple[tuple[int, ...], list[tuple[float, list[np.ndarray]]]]:
    if rows[0] != ["HDEC", "1"] or rows[1][0] != "dims" or rows[2][0] != "terms":
        raise ValueError("not an HDEC record")
    dims = tuple(int(t) for t in rows[1][1:])
    r, m = int(rows[2][1]), len(dims)
    if len(rows) != 3 + r * (m + 1):
        raise ValueError(f"HDEC with {r} terms has {len(rows) - 3} term lines")
    terms = []
    for t in range(r):
        block = rows[3 + t * (m + 1): 3 + (t + 1) * (m + 1)]
        if block[0][0] != "lambda":
            raise ValueError("expected a lambda line")
        vecs = []
        for k, row in enumerate(block[1:]):
            vals = np.array([float(x) for x in row[1:]])
            if row[0] != f"v{k + 1}" or vals.size != 2 * dims[k]:
                raise ValueError(f"bad vector line {row[0]}")
            vecs.append(vals[0::2] + 1j * vals[1::2])
        terms.append((float(block[0][1]), vecs))
    return dims, terms


def parse_mtxc(rows) -> np.ndarray:
    if rows[0] != ["MTXC", "1"] or rows[1][0] != "size":
        raise ValueError("not an MTXC record")
    r, c = int(rows[1][1]), int(rows[1][2])
    vals = np.array([[float(x) for x in row] for row in rows[2:2 + r]])
    if vals.shape != (r, 2 * c):
        raise ValueError(f"MTXC body has shape {vals.shape}, expected {(r, 2 * c)}")
    return vals[:, 0::2] + 1j * vals[:, 1::2]


def parse_gram(rows):
    if rows[0] != ["GRAM", "1"] or rows[1][0] != "dims" or rows[2][0] != "basis":
        raise ValueError("not a GRAM record")
    dims = tuple(int(t) for t in rows[1][1:])
    k = int(rows[2][1])
    basis = np.array([[int(e) for e in row] for row in rows[3:3 + k]], dtype=np.int64)
    w = parse_mtxc(rows[3 + k:3 + k + 2 + k])
    return dims, basis.reshape(k, 2 * sum(dims)), w


def parse_sepv(rows) -> dict:
    """Split a SEPV record into its header fields and embedded records."""
    if rows[0] != ["SEPV", "1"]:
        raise ValueError("not a SEPV record")
    out: dict = {}
    section = None
    for row in rows[1:]:
        if section is None and row[0] in ("status", "field", "inner", "note"):
            out[row[0]] = " ".join(row[1:])
        elif len(row) == 1 and row[0] in ("decomposition", "witness", "certificate"):
            section = row[0]
            out[section] = []
        elif section is not None:
            out[section].append(row)
        else:
            raise ValueError(f"unexpected SEPV line {' '.join(row)!r}")
    return out


def _rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0


def _min_eig_error(w: np.ndarray, what: str) -> str | None:
    herm = float(np.abs(w - w.conj().T).max()) if w.size else 0.0
    if herm > PSD_TOL * max(1.0, float(np.abs(w).max())):
        return f"{what} is not Hermitian (deviation {herm:.3e})"
    lo = float(np.linalg.eigvalsh((w + w.conj().T) / 2.0)[0])
    if lo < -PSD_TOL * max(1.0, float(np.linalg.norm(w))):
        return f"{what} is not PSD (min eigenvalue {lo:.3e})"
    return None


def assembly_error(dims, terms, h: np.ndarray, positive: bool, real: bool = False) -> str | None:
    """Residual of sum_i lambda_i z_i z_i^* against h; signs and realness."""
    if positive and any(lam <= 0.0 for lam, _ in terms):
        return "non-positive coefficient in a separable decomposition"
    if real and any(np.any(v.imag != 0.0) for _, vs in terms for v in vs):
        return "complex vector in a REAL decomposition"
    acc = np.zeros_like(h)
    for lam, vecs in terms:
        z = np.ones(1, dtype=np.complex128)
        for v in vecs:
            z = np.kron(z, v)
        acc += lam * np.outer(z, z.conj())
    res = float(np.linalg.norm(acc - h))
    if res > RESIDUAL_TOL * max(float(np.linalg.norm(h)), 1e-300):
        return f"assembly residual {res:.3e} against a tensor of norm {np.linalg.norm(h):.3e}"
    return None


def check_hdec(path, dims, h: np.ndarray, positive: bool, real: bool = False):
    """Returns (error or None, the parsed terms)."""
    fdims, terms = parse_hdec(_rows(_read(path)))
    if fdims != tuple(dims):
        return f"HDEC dims {fdims} differ from the input's {tuple(dims)}", terms
    return assembly_error(fdims, terms, h, positive, real), terms


def gram_error(dims, basis: np.ndarray, w: np.ndarray, h: np.ndarray) -> str | None:
    """W is PSD and b(x)^* W b(x) has exactly the coefficients of H(x, conj x).

    A basis row holds the exponents of the variables x and then those of
    conj(x); entry (p, q) contributes the monomial conj(b_p) b_q.
    """
    err = _min_eig_error(w, "Gram matrix")
    if err:
        return err
    t = sum(dims)
    k = basis.shape[0]
    if w.shape != (k, k) or basis.shape[1] != 2 * t:
        return f"Gram matrix {w.shape} does not match a basis of {k} rows of width {basis.shape[1]}"
    hol = basis[None, :, :t] + basis[:, None, t:]
    anti = basis[None, :, t:] + basis[:, None, :t]
    gram_keys = np.concatenate([hol, anti], axis=2).reshape(k * k, 2 * t)
    offs = np.concatenate([[0], np.cumsum(dims)[:-1]])
    labels = list(itertools.product(*(range(n) for n in dims)))
    n = len(labels)
    tgt_keys = np.zeros((n * n, 2 * t), dtype=np.int64)
    for a, lab_i in enumerate(labels):
        for b, lab_j in enumerate(labels):
            row = tgt_keys[a * n + b]
            row[offs + np.array(lab_j)] += 1  # x_J
            row[t + offs + np.array(lab_i)] += 1  # conj(x_I)
    keys, inverse = np.unique(np.concatenate([gram_keys, tgt_keys]), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    weights = np.concatenate([w.reshape(-1), -h.reshape(-1)])
    diff = (np.bincount(inverse, weights=weights.real, minlength=len(keys))
            + 1j * np.bincount(inverse, weights=weights.imag, minlength=len(keys)))
    worst = float(np.abs(diff).max())
    if worst > COEFF_TOL * max(1.0, float(np.abs(h).max())):
        return f"Gram coefficients differ from the tensor by {worst:.3e}"
    return None


def check_gram(path, dims, h: np.ndarray) -> str | None:
    fdims, basis, w = parse_gram(_rows(_read(path)))
    if fdims != tuple(dims):
        return f"GRAM dims {fdims} differ from the input's {tuple(dims)}"
    return gram_error(fdims, basis, w, h)


def check_sepv(path, dims, h: np.ndarray, status: str, field: str) -> str | None:
    """A SEPV record backs its status: a positive decomposition, or a PSD
    witness B with <A, B> < 0 (and B's own Gram certificate)."""
    rec = parse_sepv(_rows(_read(path)))
    if rec.get("status") != status or rec.get("field") != field:
        return f"SEPV says {rec.get('status')}/{rec.get('field')}, report says {status}/{field}"
    if status == "SEPARABLE_CERTIFIED":
        if "decomposition" not in rec:
            return "SEPV certifies separability without a decomposition"
        fdims, terms = parse_hdec(rec["decomposition"])
        if fdims != tuple(dims):
            return f"SEPV decomposition dims {fdims} differ from {tuple(dims)}"
        return assembly_error(fdims, terms, h, positive=True, real=(field == "REAL"))
    if status == "ENTANGLED_WITNESS":
        if "witness" not in rec:
            return "SEPV claims entanglement without a witness"
        bdims, b = parse_hten(rec["witness"])
        if bdims != tuple(dims):
            return f"SEPV witness dims {bdims} differ from {tuple(dims)}"
        err = _min_eig_error(b, "witness B")
        if err:
            return err
        value = float(np.real(np.vdot(b, h)))
        if not value < 0.0:
            return f"<A, B> = {value:.3e} is not negative"
        if "certificate" in rec:
            cdims, basis, w = parse_gram(rec["certificate"])
            return gram_error(cdims, basis, w, b)
        return None
    return None


def check_mtxc_kappa(path, dims, h: np.ndarray) -> str | None:
    """The written matrix equals the Kronecker flattening of h."""
    got = parse_mtxc(_rows(_read(path)))
    want = kappa_flatten(dims, h)
    if got.shape != want.shape:
        return f"MTXC shape {got.shape}, expected {want.shape}"
    dev = float(np.abs(got - want).max())
    if dev > 1e-12 * max(1.0, float(np.abs(want).max())):
        return f"MTXC entries differ from the Kronecker flattening by {dev:.3e}"
    return None


def kappa_flatten(dims, h: np.ndarray) -> np.ndarray:
    """Entry at row (I', J'), column (s, t) is H[(I', s), (J', t)], with the
    first smallest mode moved last and I', J' over the other modes."""
    m = len(dims)
    last = min(range(m), key=lambda k: (dims[k], k))
    order = [k for k in range(m) if k != last] + [last]
    arr = h.reshape(tuple(dims) + tuple(dims)).transpose(order + [k + m for k in order])
    pd = [dims[k] for k in order]
    d1 = math.prod(pd[:-1])
    axes = list(range(m - 1)) + list(range(m, 2 * m - 1)) + [m - 1, 2 * m - 1]
    return arr.transpose(axes).reshape(d1 * d1, pd[-1] * pd[-1])


def flattening_ranks(dims, h: np.ndarray) -> tuple[int, int]:
    return _rank(h), _rank(kappa_flatten(dims, h))


def kruskal_certified(dims, terms) -> bool:
    """sum_k (Kruskal rank of the mode-k vectors) >= r + m."""
    r, m = len(terms), len(dims)
    total = 0
    for k in range(m):
        vs = np.column_stack([vecs[k] for _, vecs in terms])
        kr = 0
        for size in range(1, min(r, dims[k]) + 1):
            if all(_rank(vs[:, list(sub)]) == size for sub in itertools.combinations(range(r), size)):
                kr = size
            else:
                break
        total += kr
    return total >= r + m

