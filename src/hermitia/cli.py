"""Command-line front end.

Exit codes: 0 affirmative/successful analysis; 1 negative verdict
(not real-decomposable, NOT_PSD_WITNESS, ENTANGLED_WITNESS, failed
verification); 2 UNKNOWN or INCONCLUSIVE; 64 usage error (including an
``--out`` path that cannot be written); 65 malformed input file.  Reports
are deterministic for a fixed --seed; --json mirrors the text report field
for field.

Each verb is one ``VERBS`` entry, its arguments and a handler; ``run`` loads
the input, writes ``--out``, emits the report and maps the exit code for all.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import core, decomposition, flatten, io, linalg, psd_sos, real_herm, separability, spectral
from .errors import (
    BasisTooLarge,
    ConstructionFailed,
    FormatError,
    HermitiaError,
    NonRealDiagonal,
    NotRealDecomposable,
    NotShape22,
    OrderTooSmall,
    RankBudgetExceeded,
    RealityViolation,
    ShapeMismatch,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_BADFILE = 65

_AFFIRMATIVE = ("DECOMPOSED", "FEASIBLE", "MEMBER", "PSD_CERTIFIED", "SEPARABLE_CERTIFIED", "YES")
_REFUTED = ("NO", "NOT_PSD_WITNESS", "ENTANGLED_WITNESS", "NOT_REAL_DECOMPOSABLE")
# every other status (UNKNOWN, INCONCLUSIVE, INFEASIBLE_HINT) exits EXIT_UNKNOWN
STATUS_EXIT = {**dict.fromkeys(_AFFIRMATIVE, EXIT_OK), **dict.fromkeys(_REFUTED, EXIT_NEGATIVE)}


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


def _shape_arg(text: str) -> tuple[int, ...]:
    try:
        return core.check_dims(_dims_arg(text))
    except ShapeMismatch as exc:
        raise _UsageError(str(exc)) from exc


def _tensor_shape_arg(text: str) -> tuple[int, ...]:
    """A shape whose tensor is built: N at most the HTEN limit ``io.MAX_N``."""
    dims = _shape_arg(text)
    if core.size_of(dims) > io.MAX_N:
        raise _UsageError(f"dims {dims} give N = {core.size_of(dims)}, above the limit {io.MAX_N}")
    return dims


def _int_at_least(least: int):
    """argparse type: an int no smaller than ``least``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise _UsageError(f"bad complex value {text!r}: {exc}") from exc


def _jsonable(obj):
    """The report with each non-finite float spelled as the text report
    spells it ("inf", "-inf", "nan"), which strict JSON lacks."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt_val(obj)
    return obj


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(_jsonable(report), sort_keys=True, allow_nan=False))
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


def _tols(args) -> core.Tolerances:
    known = [f.name for f in dataclasses.fields(core.Tolerances)]
    out = {}
    for item in (args.tol or []) + getattr(args, "verb_tol", []):
        name, eq, val = item.partition("=")
        if not eq:
            raise _UsageError(f"--tol expects name=value, got {item!r}")
        if name not in known:
            raise _UsageError(f"unknown tolerance {name!r}; known: {', '.join(sorted(known))}")
        out[name] = val
    try:
        return dataclasses.replace(core.TOL, **{name: float(val) for name, val in out.items()})
    except ValueError as exc:  # not a number, or not finite and >= 0 (Tolerances checks)
        raise _UsageError(f"bad tolerance value: {exc}") from exc


VERBS: dict = {}  # name -> (handler, argparse arguments, loads an HTEN input)


def _arg(*flags, **kwargs):
    return flags, kwargs


_OUT = _arg("--out")
_GRAM_OUT = _arg("--out", help="write the Gram certificate as a GRAM record")
_FIELD = _arg("--field", choices=core.FIELDS, default="COMPLEX")
_DIMS = _arg("--dims", required=True, type=_tensor_shape_arg)


def _verb(name, *arguments, hten=True):
    """Register ``handler(h, args, tols) -> (report, status or exit code, artifact or None)``;
    ``hten`` declares the HTEN ``input`` that ``run`` loads and passes as ``h``."""
    def register(handler):
        VERBS[name] = (handler, arguments, hten)
        return handler
    return register


@_verb("info")
def _info(h, args, tols):
    return {"dims": list(h.dims), "order": h.order, "size": h.size, "norm": core.norm(h),
            "expected_hrank": decomposition.expected_hrank(h.dims)}, EXIT_OK, None


@_verb("validate", _arg("input"), hten=False)
def _validate(h, args, tols):
    try:
        h = io.load_hten(args.input, tols)
    except HermitiaError as exc:
        return {"valid": False, "detail": str(exc)}, EXIT_NEGATIVE, None
    return {"valid": True, "dims": list(h.dims)}, EXIT_OK, None


@_verb("flatten", _arg("--map", choices=["m", "kappa"], default="m"), _OUT)
def _flatten(h, args, tols):
    fm = flatten.hermitian_flatten(h) if args.map == "m" else flatten.kronecker_flatten(h)
    return {"map": args.map, "rows": fm.rows, "cols": fm.cols,
            "rank": linalg.matrix_rank(fm.mat, tols.rankTol)}, EXIT_OK, fm


@_verb("bounds")
def _bounds(h, args, tols):
    rep = flatten.hrank_lower_bound(h, tols)
    report = {"m_rank": rep.m_rank, "kappa_rank": rep.kappa_rank, "lower_bound": rep.bound}
    return report, EXIT_OK, None


@_verb("basis-decompose", _DIMS,
       _arg("--I", required=True, type=_dims_arg), _arg("--J", required=True, type=_dims_arg),
       _arg("--c", default="1", type=_complex_arg), _OUT, hten=False)
def _basis_decompose(h, args, tols):
    try:
        d = decomposition.basis_decomposition(args.I, args.J, args.c, args.dims)
    except ShapeMismatch as exc:  # no input file: a bad --I, --J or --c
        raise _UsageError(str(exc)) from exc
    bt = core.basis_tensor(args.I, args.J, args.c, args.dims)
    return {"terms": len(d), "residual": decomposition.residual(d, bt)}, EXIT_OK, d


@_verb("kruskal", _arg("input", help="HDEC file"), hten=False)
def _kruskal(h, args, tols):
    rep = decomposition.kruskal_certify(io.load_hdec(args.input), tols)
    report = {"kruskal_ranks": list(rep.kruskal_ranks), "rank": rep.rank,
              "certified": rep.certified, "margin": rep.margin}
    return report, EXIT_OK if rep.certified else EXIT_UNKNOWN, None


@_verb("jennrich", _arg("--rmax", type=int, required=True), _OUT)
def _jennrich(h, args, tols):
    out = decomposition.jennrich_decompose(h, args.rmax, seed=args.seed, tols=tols)
    if isinstance(out, decomposition.Unknown):
        return {"status": "UNKNOWN", "reason": out.reason, "seed": args.seed}, "UNKNOWN", None
    return {"status": "DECOMPOSED", "terms": len(out),
            "residual": decomposition.residual(out, h), "seed": args.seed}, "DECOMPOSED", out


@_verb("real-check")
def _real_check(h, args, tols):
    try:
        real_herm.real_decomposable_array(h, tols)
    except NotRealDecomposable as exc:
        return {"real_decomposable": False, "witness": str(exc)}, EXIT_NEGATIVE, None
    except RealityViolation as exc:
        return {"real_decomposable": False, "detail": str(exc)}, EXIT_NEGATIVE, None
    return {"real_decomposable": True}, EXIT_OK, None


@_verb("real-decompose-22", _OUT)
@_verb("real-decompose", _OUT)
def _real_decompose(h, args, tols):
    decompose = real_herm.real_decompose if args.verb == "real-decompose" else real_herm.real_decompose_22
    try:
        d = decompose(h, tols)
    except (NotRealDecomposable, RealityViolation) as exc:
        return {"status": "NOT_REAL_DECOMPOSABLE", "detail": str(exc)}, "NOT_REAL_DECOMPOSABLE", None
    except ConstructionFailed as exc:
        # a failed construction on an input that passed the real test is no verdict
        return {"status": "UNKNOWN", "detail": str(exc)}, "UNKNOWN", None
    report = {"status": "DECOMPOSED", "terms": len(d), "residual": decomposition.residual(d, h),
              "flattening_lower_bound": flatten.hrank_lower_bound(h, tols).bound}
    return report, "DECOMPOSED", d


@_verb("eig", _FIELD, _arg("--starts", type=_int_at_least(1), default=spectral.DEFAULT_STARTS))
def _eig(h, args, tols):
    search = spectral.herm_eigenpair(h, seed=args.seed, field=args.field,
                                     starts=args.starts, tols=tols)
    return {"seed": args.seed, "field": args.field, "failed_starts": search.failed_starts,
            "tuples": [{"lambda": t.value, "max_residual": max(t.residuals)}
                       for t in search.tuples]}, EXIT_OK, None


@_verb("ortho")
def _ortho(h, args, tols):
    od = spectral.orthogonal_decompose(h, tols)
    return {"terms": [{"lambda": t.value, "rank1_residual": t.rank1_residual,
                       "unit_rank1": t.unit_rank1} for t in od.terms]}, EXIT_OK, None


@_verb("unitary-check", _OUT)
def _unitary_check(h, args, tols):
    rep = spectral.unitary_decomposable(h, tols)
    report = {"status": rep.status, "note": rep.note}
    if rep.decomposition is not None:
        report["terms"] = len(rep.decomposition)
    return report, rep.status, rep.decomposition


@_verb("hsos", _GRAM_OUT)
def _hsos(h, args, tols):
    res = psd_sos.hsos_test(h, tols)
    if res.status == "MEMBER":
        return {"hsos": True, "gram_residual": res.certificate.residual}, EXIT_OK, res.certificate
    return {"hsos": False, "negative_eigenvalue": res.min_eigenvalue}, EXIT_NEGATIVE, None


@_verb("csos", _arg("--iters", type=_int_at_least(0), default=psd_sos.CSOS_ITERS), _GRAM_OUT)
def _csos(h, args, tols):
    res = psd_sos.csos_test(h, iters=args.iters, tols=tols)
    report = {"status": res.status, "iterations": res.iterations, "residual": res.residual}
    return report, res.status, res.certificate


@_verb("omega", _arg("--k", required=True, type=_dims_arg,
                     help="comma-separated powers, one per mode"), _GRAM_OUT)
def _omega(h, args, tols):
    if len(args.k) != h.order or min(args.k) < 0:
        raise _UsageError(f"--k needs {h.order} nonnegative powers, got {args.k}")
    res = psd_sos.multiplier_hsos_test(h, args.k, tols=tols)
    return {"status": res.status, "powers": list(res.powers),
            "min_eigenvalue": res.min_eigenvalue}, res.status, res.certificate


@_verb("psd", _FIELD, _arg("--effort", type=_int_at_least(0), default=2))
def _psd(h, args, tols):
    res = psd_sos.psd_verdict(h, field=args.field, effort=args.effort, seed=args.seed, tols=tols)
    report = {"status": res.status, "field": res.field, "note": res.note, "seed": args.seed}
    if res.witness_value is not None:
        report["witness_value"] = res.witness_value
    return report, res.status, None


@_verb("sep-verify", _arg("--decomposition", required=True), _FIELD)
def _sep_verify(h, args, tols):
    d = io.load_hdec(args.decomposition)
    ok = separability.verify_positive_decomposition(d, h, args.field, tols)
    return {"verified": ok, "field": args.field}, EXIT_OK if ok else EXIT_NEGATIVE, None


@_verb("sep-witness", _arg("--witness", required=True))
def _sep_witness(h, args, tols):
    b = io.load_hten(args.witness, tols)
    res = separability.dual_witness_check(h, b, tols)
    return {"status": res.status, "inner": res.value, "relative_inner": res.relative}, res.status, None


@_verb("sep-search", _arg("--r", type=_int_at_least(1), required=True),
       _arg("--iters", type=_int_at_least(0), default=separability.SEARCH_ITERS), _OUT)
def _sep_search(h, args, tols):
    res = separability.separable_search(h, args.r, seed=args.seed, iters=args.iters, tols=tols)
    report = {"status": res.status, "note": res.note, "seed": args.seed}
    if res.decomposition is not None:
        report["terms"] = len(res.decomposition)
    return report, res.status, res.decomposition


@_verb("sep-pipeline", _FIELD, _arg("--effort", type=_int_at_least(1), default=4),
       _arg("--out", help="write the verdict as a SEPV record"))
def _sep_pipeline(h, args, tols):
    res = separability.separability_pipeline(h, args.field, effort=args.effort,
                                             seed=args.seed, tols=tols)
    report = {"status": res.status, "field": res.field, "note": res.note, "seed": args.seed}
    if res.witness_value is not None:
        report["witness_value"] = res.witness_value
    if res.decomposition is not None:
        report["terms"] = len(res.decomposition)
    return report, res.status, res


@_verb("random", _DIMS, _arg("--out", required=True), hten=False)
def _random(h, args, tols):
    h = core.random_hermitian(args.dims, args.seed)
    report = {"dims": list(args.dims), "seed": args.seed, "norm": core.norm(h), "out": args.out}
    return report, EXIT_OK, h


@_verb("expected-rank", _arg("--dims", required=True, type=_shape_arg), hten=False)
def _expected_rank(h, args, tols):
    return {"dims": list(args.dims),
            "expected_hrank": decomposition.expected_hrank(args.dims)}, EXIT_OK, None


def _global_flags(p, after_verb: bool):
    """--seed, --json and --tol, accepted before and after the verb.  After
    it they default to absent, so they override only when given; --tol
    items from both places are kept (in ``tol`` and ``verb_tol``)."""
    absent = argparse.SUPPRESS
    p.add_argument("--seed", type=_int_at_least(0), default=absent if after_verb else 0,
                   help="PRNG seed (PCG64)")
    p.add_argument("--json", action="store_true", default=absent if after_verb else False,
                   help="machine-readable report")
    p.add_argument("--tol", action="append", default=absent if after_verb else None,
                   dest="verb_tol" if after_verb else "tol", metavar="NAME=VALUE",
                   help="override a named tolerance (repeatable)")


def build_parser() -> _Parser:
    p = _Parser(prog="hermitia", description="Hermitian tensor analyses")
    _global_flags(p, after_verb=False)
    sub = p.add_subparsers(dest="verb", required=True)
    for name, (_, arguments, hten) in VERBS.items():
        sp = sub.add_parser(name)
        _global_flags(sp, after_verb=True)
        if hten:
            sp.add_argument("input")
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
    return p


_parser = functools.cache(build_parser)  # one tree per process; parsing leaves it unchanged


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        tols = _tols(args)
        handler, _, hten = VERBS[args.verb]
        h = io.load_hten(args.input, tols) if hten else None
        report, status, artifact = handler(h, args, tols)
    except (_UsageError, RankBudgetExceeded, BasisTooLarge, NonRealDiagonal, NotShape22,
            OrderTooSmall) as exc:
        # the library errors listed here come from bad flag values, not bad files
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BADFILE
    except HermitiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADFILE
    if artifact is not None and getattr(args, "out", None):
        try:
            io.save(args.out, artifact)
        except OSError as exc:
            print(f"usage error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    _emit(report, args.json)
    return status if isinstance(status, int) else STATUS_EXIT.get(status, EXIT_UNKNOWN)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
