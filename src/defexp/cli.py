"""Command-line interface: every verb prints exactly one JSON document.

Verbs: coeff, reduce, eisenstein, series, zeros, residuals, ratio, fj,
selftest.  Structured output goes to stdout with stable key order and
fixed decimal rendering, so identical invocations in the same
environment are byte-identical and CI can diff them; diagnostics go to
stderr.  Exit codes:

* 0 success;
* 1 computation failure, with a JSON error object {"code": ...,
  "message": ...} on stdout, the code being "bracket-failure" or
  "decomposition-error";
* 2 argument errors, an unwritable or empty --csv path among them,
  with the message on stderr and nothing on stdout.

The environment variable DEFEXP_PRECISION (integer bits) overrides the
default working precision of the numeric verbs; the zeros module sets
its floor of 8 bits.

Only the exact layer is imported with this module.  The numeric verbs
(zeros, residuals, ratio) and selftest import their functions when they
run, so coeff, reduce, eisenstein, series and fj load no mpmath.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .exactmath import BracketError, _positive_index, _q_fraction
from .jpoly import DecompositionError
from .qseries import a_series, eisenstein_q, eval_mpoly_series, fj_extract, jacobi_p0
from .symcoeff import c_n, reduced_c_n, to_eisenstein

PRECISION_ENV = "DEFEXP_PRECISION"


def _env_precision() -> int | None:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return None
    try:
        return int(raw)  # zero_table checks the floor
    except ValueError as exc:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from exc


def _parse_q(text: str) -> Fraction:
    """--q as zeros checks every q; argparse prints the reason and exits 2."""
    try:
        return _q_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(doc, csv_text: str | None = None, csv_path: str | None = None) -> None:
    if csv_text is not None and csv_path is not None:
        try:
            with open(csv_path, "w", encoding="ascii") as fh:
                fh.write(csv_text)
        except OSError as exc:  # an argument error: exit 2, nothing on stdout
            raise ValueError(f"cannot write --csv {csv_path}: {exc.strerror or exc}") from exc
        print(f"wrote {csv_path}", file=sys.stderr)
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _cmd_coeff(args) -> int:
    poly = c_n(args.n) if args.basis == "raw" else reduced_c_n(args.n)
    if args.basis == "eisenstein":
        poly = to_eisenstein(poly)
    _emit(poly.to_json())
    return 0


_SERIES_RE = re.compile(r"^(A|C)(\d+)$")


def _cmd_series(args) -> int:
    expr = args.expr
    trunc = args.trunc
    if expr in ("E2", "E4", "E6"):
        series = eisenstein_q(expr, trunc)
    elif expr == "P0":
        series = jacobi_p0(trunc)
    else:
        m = _SERIES_RE.match(expr)
        if not m:
            raise ValueError(f"unknown series expression {expr!r}")
        idx = int(m.group(2))  # c_n refuses C0 before any work
        series = a_series(idx, trunc) if m.group(1) == "A" else eval_mpoly_series(c_n(idx), trunc)
    _emit(series.to_json())
    return 0


def _zero_table(q, k_min: int, k_max: int, flag: str = "--kmin", n: int = 0, beyond: int = 0):
    """The zero table of a numeric verb, x_k for k_min <= k <= k_max + beyond
    at DEFEXP_PRECISION, once k_max >= k_min (`flag` names k_min's option)
    and the truncation order n >= 0 are checked: before the table, which
    takes seconds."""
    from .validate import zero_table

    if k_max < k_min:
        raise ValueError(f"--kmax must be at least {flag}")
    _positive_index(n, "truncation order", 0)  # residual_profile's rule, read early
    return zero_table(q, k_min, k_max + beyond, precision_bits=_env_precision())


def _cmd_zeros(args) -> int:
    k_max = args.kmax if args.kmax is not None else args.k
    table = _zero_table(args.q, args.k, k_max, flag="--k")
    _emit([table[k].to_json() for k in range(args.k, k_max + 1)])
    return 0


def _cmd_residuals(args) -> int:
    from .validate import residual_profile

    table = _zero_table(args.q, args.kmin, args.kmax, n=args.n)
    profile = residual_profile(args.q, args.n, range(args.kmin, args.kmax + 1), zeros=table)
    _emit(profile.to_json(), csv_text=profile.to_csv(), csv_path=args.csv)
    return 0


def _cmd_ratio(args) -> int:
    from .validate import ratio_check

    table = _zero_table(args.q, args.kmin, args.kmax, beyond=1)
    rows = ratio_check(args.q, args.kmin, args.kmax, zeros=table)
    doc = {
        "q": str(Fraction(args.q)),
        "rows": [{"k": k, "deviation_k2": d.to_decimal()} for k, d in rows],
    }
    csv_text = "k,deviation_k2\n" + "".join(
        f"{k},{d.to_decimal()}\n" for k, d in rows
    )
    _emit(doc, csv_text=csv_text, csv_path=args.csv)
    return 0


def _cmd_fj(args) -> int:
    table = fj_extract(args.imax, args.jmax)
    _emit(table.to_json(), csv_text=table.to_csv(), csv_path=args.csv)
    return 0


def _cmd_selftest(args) -> int:
    from .reference import run_selftest

    results = run_selftest()
    ok = all(r["pass"] for r in results)
    for r in results:
        status = "pass" if r["pass"] else "FAIL"
        print(f"{status}: {r['name']}", file=sys.stderr)
    _emit({"fixtures": results, "ok": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defexp",
        description="Exact expansion coefficients and zeros of the deformed exponential",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("coeff", help="the coefficient polynomial C_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basis", choices=("raw", "a012", "eisenstein"), default="raw")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("reduce", help="C_n reduced to the ring Q[A0, A1, A2]")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_coeff, basis="a012")

    p = sub.add_parser("eisenstein", help="C_n in the Eisenstein basis")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_coeff, basis="eisenstein")

    p = sub.add_parser("series", help="a named q-series, truncated")
    p.add_argument("--expr", required=True, help="A<i>, E2, E4, E6, P0 or C<n>")
    p.add_argument("--trunc", type=int, required=True)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("zeros", help="high-precision zeros x_k")
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kmax", type=int)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("residuals", help="scaled residual profile r_n(k)")
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmin", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--csv", help="also write the profile as CSV to this path")
    p.set_defaults(func=_cmd_residuals)

    p = sub.add_parser("ratio", help="consecutive-zero ratio deviations")
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--kmin", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--csv", help="also write the table as CSV to this path")
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("fj", help="coefficients of C_n by powers of q")
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--csv", help="also write the table as CSV to this path")
    p.set_defaults(func=_cmd_fj)

    p = sub.add_parser("selftest", help="replay the frozen regression fixtures")
    p.set_defaults(func=_cmd_selftest)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # structured errors first: DecompositionError is also a ValueError
    except (BracketError, DecompositionError) as exc:
        code = "bracket-failure" if isinstance(exc, BracketError) else "decomposition-error"
        _emit({"code": code, "message": str(exc)})
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
