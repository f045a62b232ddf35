"""Command line surface.

Subcommands: ``code`` (construct and inspect a single code), ``awe``
(average weight enumerators and guaranteed-existence thresholds),
``search`` (scan a triple or first-row space), ``classify``
(equivalence classes of the optimal codes of one length), and
``verify-tables`` (recompute the recorded reference tables).

Machine-readable output (JSON or JSON-lines; CSV for ``awe --table``)
goes to standard output, human-readable summaries to standard error.
Exit codes: 0 success, 1 verification failure, 2 usage error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .average import (
    average_weight_enumerator,
    average_weight_enumerator_bruteforce,
    existence_bound_holds,
    minimal_guaranteed_length,
)
from .equivalence import UndecidedError
from .gf import GF, parse_vector, render_element, render_vector
from .linear import (
    BudgetExceededError,
    LinearCode,
    dual_code,
    is_formally_self_dual,
    minimum_weight,
    weight_enumerator,
)
from .search import (
    DEFAULT_TRIPLE_BUDGET,
    CheckpointError,
    classify,
    search_dt,
    search_family,
)
from .structured import (
    CirculantSpec,
    double_circulant_code,
    double_negacirculant_code,
    double_toeplitz_code,
    parse_triple,
)
from . import verify

WORKERS_ENV = "DTCODES_WORKERS"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{WORKERS_ENV} must be positive, got {value}")
    return value


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _note(text: str) -> None:
    sys.stderr.write(text + "\n")


# ---------------------------------------------------------------------------
# code


def _build_code_from_args(gf: GF, args) -> LinearCode:
    if args.dt is not None:
        return double_toeplitz_code(parse_triple(gf, args.dt))
    if args.dc is not None:
        r = parse_vector(gf, args.dc)
        return double_circulant_code(CirculantSpec(gf, tuple(r), 1))
    r = parse_vector(gf, args.nc)
    return double_negacirculant_code(CirculantSpec(gf, tuple(r), -1))


def cmd_code(args) -> int:
    gf = GF(args.q)
    code = _build_code_from_args(gf, args)
    label = f"[{code.n},{code.k}] code over F{gf.q}"
    if args.minwt:
        w = minimum_weight(code)
        _emit(w)
        _note(f"{label}: minimum weight {w}")
    elif args.wenum:
        W = weight_enumerator(code)
        _emit(list(W.coeffs))
        _note(f"{label}: weight enumerator with {W.total()} codewords")
    elif args.dual:
        D = dual_code(code)
        rows = [render_vector(gf, tuple(int(x) for x in row)) for row in D.G]
        _emit({"n": D.n, "k": D.k, "rows": rows})
        _note(f"{label}: dual is a [{D.n},{D.k}] code")
    else:
        fsd = is_formally_self_dual(code)
        _emit(fsd)
        _note(f"{label}: formally self-dual: {fsd}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# awe


def cmd_awe(args) -> int:
    gf = GF(args.q)
    if args.threshold:
        if args.d is None:
            raise ValueError("--threshold needs --d")
        n = minimal_guaranteed_length(gf, args.d)
        _emit(n)
        _note(f"minimum weight >= {args.d} over F{gf.q} is guaranteed from length {n}")
        return EXIT_OK
    if args.table:
        if args.dmin is None or args.dmax is None:
            raise ValueError("--table needs --dmin and --dmax")
        if args.dmin < 1 or args.dmax < args.dmin:
            raise ValueError("need 1 <= dmin <= dmax")
        sys.stdout.write("d,n\n")
        for d in range(args.dmin, args.dmax + 1):
            sys.stdout.write(f"{d},{minimal_guaranteed_length(gf, d)}\n")
        _note(f"thresholds for F{gf.q}, d = {args.dmin}..{args.dmax}")
        return EXIT_OK
    if args.n is None:
        raise ValueError("awe needs --n (or --threshold/--table)")
    psi = average_weight_enumerator(gf, args.n)
    _emit(list(psi.coeffs))
    if args.verify:
        oracle = average_weight_enumerator_bruteforce(gf, args.n)
        if psi.coeffs != oracle.coeffs:
            _note(f"MISMATCH: closed form differs from enumeration at n={args.n}")
            return EXIT_VERIFY
        _note(f"closed form matches enumeration over all codes at n={args.n}")
    else:
        _note(f"average weight enumerator over F{gf.q}, n={args.n}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# search / classify


def cmd_search(args) -> int:
    gf = GF(args.q)
    workers = args.workers if args.workers else _default_workers()
    common = dict(
        mode=args.mode,
        d=args.d,
        partitions=args.partitions,
        workers=workers,
        checkpoint_path=args.checkpoint,
        triple_budget=args.budget,
    )
    if args.family == "dt":
        d_ref, records = search_dt(gf, args.n, args.reduction, **common)
        for T, mw in records:
            _emit(
                {
                    "t": render_element(gf, T.t),
                    "a": render_vector(gf, T.a),
                    "b": render_vector(gf, T.b),
                    "min_weight": mw,
                }
            )
    else:
        if args.reduction in ("C2", "C3"):
            raise ValueError(f"the {args.reduction} filter applies to dt searches only")
        d_ref, records = search_family(gf, args.n, args.family.upper(), **common)
        for spec, mw in records:
            _emit(
                {
                    "r": render_vector(gf, spec.r),
                    "mu": spec.mu,
                    "min_weight": mw,
                }
            )
    what = {"find-optimal": "optimum", "at-least": "floor", "collect-at": "target"}
    _note(f"{what[args.mode]} d={d_ref}: {len(records)} codes")
    return EXIT_OK


def cmd_classify(args) -> int:
    gf = GF(args.q)
    workers = args.workers if args.workers else _default_workers()
    report = classify(
        gf,
        args.n,
        reduction=args.reduction,
        partitions=args.partitions,
        workers=workers,
        semimonomial=args.semimonomial,
        checkpoint_path=args.checkpoint,
        triple_budget=args.budget,
    )
    _emit(report.to_dict())
    _note(
        f"q={report.q} n={report.n}: d={report.d_opt}, "
        f"{report.n_dt} + {report.n_dc} + {report.n_nc} classes "
        "(plain + circulant + negacirculant)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-tables


def cmd_verify_tables(args) -> int:
    failures: list[str] = []
    count = 0
    for ok, text in verify.SUITES[args.suite]():
        count += 1
        if ok:
            _note(f"[pass] {text}")
        else:
            _note(f"[FAIL] {text}")
            failures.append(text)
    _emit({"suite": args.suite, "checks": count, "failures": len(failures)})
    if failures:
        _note(f"{len(failures)} of {count} checks failed; first: {failures[0]}")
        return EXIT_VERIFY
    _note(f"all {count} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtcodes",
        description="Double Toeplitz, double circulant and double negacirculant codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="construct and inspect one code")
    p_code.add_argument("--q", type=int, required=True, choices=(2, 3, 4))
    fam = p_code.add_mutually_exclusive_group(required=True)
    fam.add_argument("--dt", metavar="T;A;B", help="Toeplitz triple literal, e.g. '0;(1,1);(1,0)'")
    fam.add_argument("--dc", metavar="(R)", help="circulant first row, e.g. '(1,1,0)'")
    fam.add_argument("--nc", metavar="(R)", help="negacirculant first row")
    act = p_code.add_mutually_exclusive_group(required=True)
    act.add_argument("--minwt", action="store_true", help="minimum weight")
    act.add_argument("--wenum", action="store_true", help="weight enumerator coefficients")
    act.add_argument("--dual", action="store_true", help="generator matrix of the dual")
    act.add_argument("--fsd", action="store_true", help="formal self-duality")
    p_code.set_defaults(func=cmd_code)

    p_awe = sub.add_parser("awe", help="average weight enumerator and thresholds")
    p_awe.add_argument("--q", type=int, required=True, choices=(2, 3, 4))
    p_awe.add_argument("--n", type=int, help="code length (even)")
    p_awe.add_argument("--verify", action="store_true",
                       help="compare the closed form against enumeration over all codes")
    p_awe.add_argument("--threshold", action="store_true",
                       help="smallest length guaranteeing minimum weight >= d")
    p_awe.add_argument("--d", type=int, help="target minimum weight for --threshold")
    p_awe.add_argument("--table", action="store_true", help="CSV of thresholds for a d range")
    p_awe.add_argument("--dmin", type=int)
    p_awe.add_argument("--dmax", type=int)
    p_awe.set_defaults(func=cmd_awe)

    p_search = sub.add_parser("search", help="scan a triple or first-row space")
    p_search.add_argument("--q", type=int, required=True, choices=(2, 3, 4))
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--family", choices=("dt", "dc", "nc"), default="dt")
    p_search.add_argument("--reduction", choices=("auto", "none", "C2", "C3"), default="auto",
                          help="symmetry filter for dt searches")
    p_search.add_argument("--mode", choices=("find-optimal", "at-least", "collect-at"),
                          default="find-optimal")
    p_search.add_argument("--d", type=int, help="target weight for at-least / collect-at")
    p_search.add_argument("--workers", type=int, default=0,
                          help=f"worker processes (default ${WORKERS_ENV} or 1)")
    p_search.add_argument("--partitions", type=int, default=1)
    p_search.add_argument("--checkpoint", help="JSON checkpoint path for resume")
    p_search.add_argument("--budget", type=int, default=DEFAULT_TRIPLE_BUDGET,
                          help="largest candidate space the search will accept")
    p_search.set_defaults(func=cmd_search)

    p_cls = sub.add_parser("classify", help="equivalence classes of the optimal codes")
    p_cls.add_argument("--q", type=int, required=True, choices=(2, 3, 4))
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--reduction", choices=("auto", "none", "C2", "C3"), default="auto")
    p_cls.add_argument("--workers", type=int, default=0)
    p_cls.add_argument("--partitions", type=int, default=1)
    p_cls.add_argument("--checkpoint")
    p_cls.add_argument("--budget", type=int, default=DEFAULT_TRIPLE_BUDGET)
    p_cls.add_argument("--semimonomial", action="store_true",
                       help="F4 diagnostic: also merge Frobenius-conjugate classes")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify-tables", help="recompute the recorded reference tables")
    p_ver.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p_ver.set_defaults(func=cmd_verify_tables)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        _note(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except UndecidedError as exc:
        _note(f"equivalence search budget exceeded: {exc}")
        return EXIT_BUDGET
    except CheckpointError as exc:
        _note(f"checkpoint rejected: {exc}")
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
