"""The benchmark's workloads: which ops a sample runs and how each is checked.

Every workload is a list of ops run one after another in one process
(one closed-loop client, no threads).  An op is a label plus a callable
into the library; its check runs after the timed section and returns
None when the output is right, or a one-line reason when it is not.

* coeff    - exact symbolic work through ``defexp.cli.main``: for n = 1..14
             the verbs ``coeff --basis raw``, ``reduce`` and ``eisenstein``,
             then ``fj --imax 14 --jmax 30``.  Outputs must match the golden
             bytes.  C_n does not depend on q, so the seed is ignored.
* zeros    - ``find_zero(k, q)`` for k = 10..40, 60, 80, 100 (143..5679
             working bits at q = 1/2); every zero must pass the oracle.
             q comes from the seed and the sample's index in the run.
* validate - one zero table shared by the residual profiles n = 0..5, the
             ratio check and the scan oracle, as the paper's check runs it.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from pathlib import Path
from typing import Any, Callable

import oracle

WORKLOADS = ("coeff", "zeros", "validate")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

ZERO_KS = tuple(range(10, 41)) + (60, 80, 100)
SMOKE_ZERO_KS = (10, 11, 12)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def q_for_seed(seed: int, sample: int = 0) -> Fraction:
    """The q of one sample of a run.

    Seed 0 is q = 1/2 (the README value) in every sample.  Other seeds draw
    q = p/r with 11 <= r <= 40 and 9/20 <= q <= 11/20, afresh for each
    sample of the run: even-numbered samples from the lower half of that
    range, odd-numbered ones from the upper half.  The numeric ops cost
    what the bit budget costs, and the budget moves by about 15% across
    the range; a run's per-op medians, taken over samples from both
    halves, then sit near the middle of the range for every seed.  Dyadic
    q (1/2, 15/32, 17/32) is left to seed 0: its short binary mantissa
    makes eval_f up to twice as fast."""
    if seed == 0:
        return Fraction(1, 2)
    lo, hi = (Fraction(9, 20), Fraction(1, 2)) if sample % 2 == 0 else (Fraction(1, 2), Fraction(11, 20))
    rng = random.Random(f"{seed}:{sample}")
    while True:
        r = rng.randint(11, 40)
        if ceil(r * lo) > floor(r * hi):
            continue
        q = Fraction(rng.randint(ceil(r * lo), floor(r * hi)), r)
        den = q.denominator
        if den & (den - 1):
            return q


def coeff_argvs(smoke: bool = False) -> list[list[str]]:
    """CLI argument lists of the coeff workload, in run order."""
    top = 3 if smoke else 14
    argvs = []
    for n in range(1, top + 1):
        argvs.append(["coeff", "--n", str(n), "--basis", "raw"])
        argvs.append(["reduce", "--n", str(n)])
        argvs.append(["eisenstein", "--n", str(n)])
    if not smoke:
        argvs.append(["fj", "--imax", "14", "--jmax", "30"])
    return argvs


def golden_name(argv: list[str]) -> str:
    """File name of an argv's golden stdout, e.g. coeff_n07_raw.json."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "fj":
        return f"fj_i{int(opts['--imax']):02d}_j{int(opts['--jmax']):02d}.json"
    suffix = "_raw" if argv[0] == "coeff" else ""
    return f"{argv[0]}_n{int(opts['--n']):02d}{suffix}.json"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """defexp.cli.main in process, returning (exit code, captured stdout)."""
    from defexp.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _coeff_ops(smoke: bool) -> list[Op]:
    ops = []
    for argv in coeff_argvs(smoke):
        golden = (GOLDEN_DIR / "coeff" / golden_name(argv)).read_bytes()

        def check(out, golden=golden):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            if text.encode() != golden:
                return "stdout differs from the golden copy"
            return None

        ops.append(Op(" ".join(argv), lambda argv=argv: run_cli(argv), check))
    return ops


# Ops look library functions up at call time, so that a tracer installed
# after the ops are built sees the calls.


def _zeros_ops(q: Fraction, smoke: bool) -> list[Op]:
    import defexp.zeros as zeros

    return [
        Op(f"find_zero k={k}", lambda k=k: zeros.find_zero(k, q), lambda z, k=k: oracle.check_zero(z, k, q))
        for k in (SMOKE_ZERO_KS if smoke else ZERO_KS)
    ]


def scan_bounds(q: Fraction, count: int) -> float:
    """x_min = -2 count q^(1-count): twice the leading-order |x_count|."""
    return -2 * count * float(q) ** (1 - count)


def _validate_ops(q: Fraction, smoke: bool) -> list[Op]:
    import defexp.validate as validate
    import defexp.zeros as zeros

    k_lo, k_hi = 10, (13 if smoke else 26)  # the table holds k_hi for ratio_check
    orders = range(2 if smoke else 6)
    count = 4 if smoke else 16
    state: dict[str, Any] = {}

    def table():
        state["table"] = validate.zero_table(q, k_lo, k_hi)
        return state["table"]

    def check_table(tab):
        if sorted(tab) != list(range(k_lo, k_hi + 1)):
            return f"table keys {sorted(tab)}"
        for k, z in tab.items():
            why = oracle.check_zero(z, k, q)
            if why:
                return why
        return None

    ops = [Op(f"zero_table k={k_lo}..{k_hi}", table, check_table)]
    for n in orders:
        ops.append(
            Op(
                f"residual_profile n={n}",
                lambda n=n: validate.residual_profile(q, n, range(k_lo, k_hi), zeros=state["table"]),
                lambda prof, n=n: oracle.check_residuals(prof, q, n, state["table"], range(k_lo, k_hi)),
            )
        )
    ops.append(
        Op(
            f"ratio_check k={k_lo}..{k_hi - 1}",
            lambda: validate.ratio_check(q, k_lo, k_hi - 1, zeros=state["table"]),
            lambda rows: oracle.check_ratios(rows, q, state["table"], range(k_lo, k_hi)),
        )
    )
    ops.append(
        Op(
            f"scan_zeros count={count}",
            lambda: zeros.scan_zeros(q, scan_bounds(q, count), count),
            lambda found: oracle.check_scan(found, q, count),
        )
    )
    return ops


def build_ops(workload: str, seed: int, sample: int = 0, smoke: bool = False) -> list[Op]:
    if workload == "coeff":
        return _coeff_ops(smoke)
    q = q_for_seed(seed, sample)
    if workload == "zeros":
        return _zeros_ops(q, smoke)
    if workload == "validate":
        return _validate_ops(q, smoke)
    raise ValueError(f"unknown workload {workload!r}")
