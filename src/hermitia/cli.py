"""Command-line front end.

Exit codes: 0 affirmative/successful analysis; 1 negative verdict
(not real-decomposable, NOT_PSD_WITNESS, ENTANGLED_WITNESS, failed
verification); 2 UNKNOWN or INCONCLUSIVE; 64 usage error; 65 malformed
input file.  Reports are deterministic for a fixed --seed; --json mirrors
the text report field for field.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import core, decomposition, flatten, io, linalg, psd_sos, real_herm, separability, spectral
from .errors import (
    BasisTooLarge,
    FormatError,
    HermitiaError,
    NonRealDiagonal,
    OrderTooSmall,
    RankBudgetExceeded,
    RealityViolation,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_BADFILE = 65

TOL_NAMES = {
    "symTol": core.SYM_TOL,
    "eigTol": linalg.EIG_TOL,
    "rankTol": linalg.RANK_REL_TOL,
    "cpTol": decomposition.CP_TOL,
    "rdTol": real_herm.RD_TOL,
    "nfTol": real_herm.NF_TOL,
    "eigTupleTol": spectral.EIG_TUPLE_TOL,
    "eigGapTol": spectral.EIG_GAP_TOL,
    "r1Tol": spectral.R1_TOL,
    "gramTol": psd_sos.GRAM_TOL,
    "witTol": psd_sos.WIT_TOL,
    "sepTol": separability.SEP_TOL,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _dims_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise _UsageError(f"bad dims {text!r}: {exc}") from exc


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise _UsageError(f"bad complex value {text!r}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [_jsonable(complex(z)) for z in obj.reshape(-1)]
        return [float(x) for x in obj.reshape(-1)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(_jsonable(report), sort_keys=True))
        return
    for key, value in report.items():
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for item in value:
                print("  " + "  ".join(f"{k}={_fmt_val(v)}" for k, v in item.items()))
        else:
            print(f"{key}: {_fmt_val(value)}")


def _fmt_val(v):
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}j"
    if isinstance(v, (list, tuple)):
        return " ".join(str(_fmt_val(x)) for x in v)
    return str(v)


def _tols(args) -> dict:
    out = dict(TOL_NAMES)
    for item in args.tol or []:
        if "=" not in item:
            raise _UsageError(f"--tol expects name=value, got {item!r}")
        name, _, val = item.partition("=")
        if name not in out:
            raise _UsageError(f"unknown tolerance {name!r}; known: {', '.join(sorted(out))}")
        try:
            out[name] = float(val)
        except ValueError as exc:
            raise _UsageError(f"bad tolerance value {val!r}") from exc
    return out


def _load_tensor(path) -> core.HermitianTensor:
    try:
        return io.load_hten(path)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_decomposition(path) -> decomposition.HermitianDecomposition:
    try:
        return io.load_hdec(path)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _maybe_save_hdec(args, d) -> None:
    if getattr(args, "out", None):
        io.save_hdec(args.out, d)


def _maybe_save_gram(args, cert) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(io.dumps_gram(cert))


def build_parser() -> _Parser:
    p = _Parser(prog="hermitia", description="Hermitian tensor analyses")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (PCG64)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a named tolerance (repeatable)")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, **kwargs)

    sp = add("info");            sp.add_argument("input")
    sp = add("validate");        sp.add_argument("input")
    sp = add("flatten");         sp.add_argument("input")
    sp.add_argument("--map", choices=["m", "kappa"], default="m")
    sp.add_argument("--out")
    sp = add("bounds");          sp.add_argument("input")
    sp = add("basis-decompose")
    sp.add_argument("--dims", required=True); sp.add_argument("--I", required=True)
    sp.add_argument("--J", required=True);    sp.add_argument("--c", default="1")
    sp.add_argument("--out")
    sp = add("kruskal");         sp.add_argument("input", help="HDEC file")
    sp = add("jennrich");        sp.add_argument("input")
    sp.add_argument("--rmax", type=int, required=True); sp.add_argument("--out")
    sp = add("real-check");      sp.add_argument("input")
    sp = add("real-decompose");  sp.add_argument("input"); sp.add_argument("--out")
    sp = add("real-decompose-22"); sp.add_argument("input"); sp.add_argument("--out")
    sp = add("eig");             sp.add_argument("input")
    sp.add_argument("--field", choices=["COMPLEX", "REAL"], default="COMPLEX")
    sp.add_argument("--starts", type=int, default=spectral.DEFAULT_STARTS)
    sp = add("ortho");           sp.add_argument("input")
    sp = add("unitary-check");   sp.add_argument("input"); sp.add_argument("--out")
    sp = add("hsos");            sp.add_argument("input")
    sp.add_argument("--out", help="write the Gram certificate as a GRAM record")
    sp = add("csos");            sp.add_argument("input")
    sp.add_argument("--iters", type=int, default=psd_sos.CSOS_ITERS)
    sp.add_argument("--out", help="write the Gram certificate as a GRAM record")
    sp = add("omega");           sp.add_argument("input")
    sp.add_argument("--k", required=True, help="comma-separated powers, one per mode")
    sp.add_argument("--out", help="write the Gram certificate as a GRAM record")
    sp = add("psd");             sp.add_argument("input")
    sp.add_argument("--field", choices=["COMPLEX", "REAL"], default="COMPLEX")
    sp.add_argument("--effort", type=int, default=2)
    sp = add("sep-verify");      sp.add_argument("input")
    sp.add_argument("--decomposition", required=True)
    sp.add_argument("--field", choices=["COMPLEX", "REAL"], default="COMPLEX")
    sp = add("sep-witness");     sp.add_argument("input")
    sp.add_argument("--witness", required=True)
    sp = add("sep-search");      sp.add_argument("input")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--iters", type=int, default=200); sp.add_argument("--out")
    sp = add("sep-pipeline");    sp.add_argument("input")
    sp.add_argument("--field", choices=["COMPLEX", "REAL"], default="COMPLEX")
    sp.add_argument("--effort", type=int, default=4)
    sp.add_argument("--out", help="write the verdict as a SEPV record")
    sp = add("random")
    sp.add_argument("--dims", required=True); sp.add_argument("--out", required=True)
    sp = add("expected-rank");   sp.add_argument("--dims", required=True)
    return p


def _witness_text(witness) -> str:
    refI, refJ, I, J = witness
    def label(t):
        return "".join(str(x) for x in t) if all(x <= 9 for x in t) else ",".join(map(str, t))
    return f"{label(refI)}{label(refJ)} vs {label(I)}{label(J)}"


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tols = _tols(args)
        return _dispatch(args, tols)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BADFILE
    except (RankBudgetExceeded, BasisTooLarge, NonRealDiagonal, OrderTooSmall) as exc:
        # bad flag values, not bad files
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HermitiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADFILE


def _dispatch(args, tols) -> int:
    verb = args.verb
    emit = lambda report: _emit(report, args.json)  # noqa: E731

    if verb == "info":
        h = _load_tensor(args.input)
        emit({
            "dims": list(h.dims), "order": h.order, "size": h.size,
            "norm": core.norm(h), "expected_hrank": decomposition.expected_hrank(h.dims),
        })
        return EXIT_OK

    if verb == "validate":
        try:
            h = _load_tensor(args.input)
        except HermitiaError as exc:
            print(f"invalid: {exc}")
            return EXIT_NEGATIVE
        emit({"valid": True, "dims": list(h.dims)})
        return EXIT_OK

    if verb == "flatten":
        h = _load_tensor(args.input)
        fm = flatten.hermitian_flatten(h) if args.map == "m" else flatten.kronecker_flatten(h)
        if args.out:
            io.save_mtxc(args.out, fm)
        emit({"map": args.map, "rows": fm.rows, "cols": fm.cols,
              "rank": linalg.matrix_rank(fm.mat, tols["rankTol"])})
        return EXIT_OK

    if verb == "bounds":
        h = _load_tensor(args.input)
        rep = flatten.hrank_lower_bound(h, tols["rankTol"])
        emit({"m_rank": rep.m_rank, "kappa_rank": rep.kappa_rank, "lower_bound": rep.bound})
        return EXIT_OK

    if verb == "basis-decompose":
        dims = _dims_arg(args.dims)
        d = decomposition.basis_decomposition(_dims_arg(args.I), _dims_arg(args.J),
                                              _complex_arg(args.c), dims)
        _maybe_save_hdec(args, d)
        bt = core.basis_tensor(_dims_arg(args.I), _dims_arg(args.J), _complex_arg(args.c), dims)
        emit({"terms": len(d), "residual": decomposition.residual(d, bt)})
        return EXIT_OK

    if verb == "kruskal":
        d = _load_decomposition(args.input)
        rep = decomposition.kruskal_certify(d, tols["rankTol"])
        emit({"kruskal_ranks": list(rep.kruskal_ranks), "rank": rep.rank,
              "certified": rep.certified, "margin": rep.margin})
        return EXIT_OK if rep.certified else EXIT_UNKNOWN

    if verb == "jennrich":
        h = _load_tensor(args.input)
        out = decomposition.jennrich_decompose(h, args.rmax, seed=args.seed, cp_tol=tols["cpTol"])
        if isinstance(out, decomposition.Unknown):
            emit({"status": "UNKNOWN", "reason": out.reason, "seed": args.seed})
            return EXIT_UNKNOWN
        _maybe_save_hdec(args, out)
        emit({"status": "DECOMPOSED", "terms": len(out),
              "residual": decomposition.residual(out, h), "seed": args.seed})
        return EXIT_OK

    if verb == "real-check":
        h = _load_tensor(args.input)
        try:
            ok, witness = real_herm.is_real_decomposable(h, tols["symTol"])
        except RealityViolation as exc:
            emit({"real_decomposable": False, "detail": str(exc)})
            return EXIT_NEGATIVE
        if ok:
            emit({"real_decomposable": True})
            return EXIT_OK
        emit({"real_decomposable": False, "witness": _witness_text(witness)})
        return EXIT_NEGATIVE

    if verb in ("real-decompose", "real-decompose-22"):
        h = _load_tensor(args.input)
        fn = real_herm.real_decompose if verb == "real-decompose" else real_herm.real_decompose_22
        try:
            d = fn(h, rd_tol=tols["rdTol"])
        except HermitiaError as exc:
            emit({"status": "NOT_REAL_DECOMPOSABLE", "detail": str(exc)})
            return EXIT_NEGATIVE
        _maybe_save_hdec(args, d)
        emit({"status": "DECOMPOSED", "terms": len(d), "residual": decomposition.residual(d, h),
              "flattening_lower_bound": flatten.hrank_lower_bound(h).bound})
        return EXIT_OK

    if verb == "eig":
        h = _load_tensor(args.input)
        search = spectral.herm_eigenpair(h, seed=args.seed, field=args.field,
                                         starts=args.starts, tol=tols["eigTupleTol"])
        emit({
            "seed": args.seed, "field": args.field, "failed_starts": search.failed_starts,
            "tuples": [
                {"lambda": t.value, "max_residual": max(t.residuals)} for t in search.tuples
            ],
        })
        return EXIT_OK

    if verb == "ortho":
        h = _load_tensor(args.input)
        od = spectral.orthogonal_decompose(h, tols["rankTol"], tols["r1Tol"])
        emit({"terms": [
            {"lambda": t.value, "rank1_residual": t.rank1_residual, "unit_rank1": t.unit_rank1}
            for t in od.terms
        ]})
        return EXIT_OK

    if verb == "unitary-check":
        h = _load_tensor(args.input)
        rep = spectral.unitary_decomposable(h, tols["eigGapTol"], tols["r1Tol"])
        report = {"status": rep.status, "note": rep.note}
        if rep.status == "YES":
            report["terms"] = len(rep.decomposition)
            if args.out:
                io.save_hdec(args.out, rep.decomposition)
        emit(report)
        return {"YES": EXIT_OK, "NO": EXIT_NEGATIVE}.get(rep.status, EXIT_UNKNOWN)

    if verb == "hsos":
        h = _load_tensor(args.input)
        res = psd_sos.hsos_test(h, tols["eigTol"])
        if res.is_hsos:
            _maybe_save_gram(args, res.certificate)
            emit({"hsos": True, "gram_residual": res.certificate.residual})
            return EXIT_OK
        emit({"hsos": False, "negative_eigenvalue": res.negative_eigenvalue})
        return EXIT_NEGATIVE

    if verb == "csos":
        h = _load_tensor(args.input)
        res = psd_sos.csos_test(h, iters=args.iters, gram_tol=tols["gramTol"])
        if res.certificate is not None:
            _maybe_save_gram(args, res.certificate)
        emit({"status": res.status, "iterations": res.iterations, "residual": res.residual})
        return EXIT_OK if res.status == "FEASIBLE" else EXIT_UNKNOWN

    if verb == "omega":
        h = _load_tensor(args.input)
        powers = _dims_arg(args.k)
        res = psd_sos.multiplier_hsos_test(h, powers, eig_tol=tols["eigTol"])
        if res.certificate is not None:
            _maybe_save_gram(args, res.certificate)
        emit({"status": res.status, "powers": list(res.powers),
              "min_eigenvalue": res.min_eigenvalue})
        return EXIT_OK if res.status == "MEMBER" else EXIT_UNKNOWN

    if verb == "psd":
        h = _load_tensor(args.input)
        res = psd_sos.psd_verdict(h, field=args.field, effort=args.effort,
                                  seed=args.seed, wit_tol=tols["witTol"], eig_tol=tols["eigTol"],
                                  eig_tuple_tol=tols["eigTupleTol"])
        report = {"status": res.status, "field": res.field, "note": res.note, "seed": args.seed}
        if res.witness_value is not None:
            report["witness_value"] = res.witness_value
        emit(report)
        return {"PSD_CERTIFIED": EXIT_OK, "NOT_PSD_WITNESS": EXIT_NEGATIVE}.get(res.status, EXIT_UNKNOWN)

    if verb == "sep-verify":
        h = _load_tensor(args.input)
        d = _load_decomposition(args.decomposition)
        ok = separability.verify_positive_decomposition(d, h, args.field, tols["sepTol"])
        emit({"verified": ok, "field": args.field})
        return EXIT_OK if ok else EXIT_NEGATIVE

    if verb == "sep-witness":
        h = _load_tensor(args.input)
        b = _load_tensor(args.witness)
        res = separability.dual_witness_check(h, b, tols["witTol"])
        emit({"status": res.status, "inner": res.value})
        return EXIT_NEGATIVE if res.status == "ENTANGLED_WITNESS" else EXIT_UNKNOWN

    if verb == "sep-search":
        h = _load_tensor(args.input)
        res = separability.separable_search(h, args.r, seed=args.seed,
                                            iters=args.iters, sep_tol=tols["sepTol"])
        report = {"status": res.status, "note": res.note, "seed": args.seed}
        if res.decomposition is not None:
            report["terms"] = len(res.decomposition)
            _maybe_save_hdec(args, res.decomposition)
        emit(report)
        return EXIT_OK if res.status == "SEPARABLE_CERTIFIED" else EXIT_UNKNOWN

    if verb == "sep-pipeline":
        h = _load_tensor(args.input)
        res = separability.separability_pipeline(h, args.field, effort=args.effort,
                                                 seed=args.seed, sep_tol=tols["sepTol"],
                                                 wit_tol=tols["witTol"], eig_tol=tols["eigTol"])
        report = {"status": res.status, "field": res.field, "note": res.note, "seed": args.seed}
        if res.witness_value is not None:
            report["witness_value"] = res.witness_value
        if res.decomposition is not None:
            report["terms"] = len(res.decomposition)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(io.dumps_sepv(res))
        emit(report)
        return {"SEPARABLE_CERTIFIED": EXIT_OK, "ENTANGLED_WITNESS": EXIT_NEGATIVE}.get(res.status, EXIT_UNKNOWN)

    if verb == "random":
        dims = _dims_arg(args.dims)
        h = core.random_hermitian(dims, args.seed)
        io.save_hten(args.out, h)
        emit({"dims": list(dims), "seed": args.seed, "norm": core.norm(h), "out": args.out})
        return EXIT_OK

    if verb == "expected-rank":
        dims = _dims_arg(args.dims)
        emit({"dims": list(dims), "expected_hrank": decomposition.expected_hrank(dims)})
        return EXIT_OK

    raise _UsageError(f"unhandled verb {verb!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
