"""Time the integer kernel of defexp.zeros per read and per zero.

For x_100 at its default budget, and for x_400, x_800, ..., x_6400 at 320
and 700 bits, all at q = 1/2, it prints the wall time of find_zero, the
terms one kernel read at the located zero walks (from the first term it
sums, T_0 or the head it skips to) and the time of that read, and the
first 25 digits of the zero.

    PYTHONPATH=src python tools/kernel_timing.py [--check] [--kmax K]

With --check it also locates each large-k zero at twice the bits and exits
1 unless the two agree to within 16 bits of the zero's tag.  It makes no
timing assertion: the times are for reading, on one machine.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from mpmath.libmp import mpf_abs, mpf_sub, to_str

import defexp.zeros as zeros

Q = Fraction(1, 2)


def _read(x: tuple, bits: int) -> tuple[int, float]:
    """The terms one kernel read at x walks, and its time in seconds."""
    head = getattr(zeros, "_head", None)  # a kernel without it sums from T_0
    n0 = head(x[1], x[2], Q, bits) if head else 0
    start = time.perf_counter()
    n = zeros._probe_sum(x, Q, bits)[3]
    return n - n0, time.perf_counter() - start


def _agrees(z, bits: int) -> bool:
    """z matches the zero found at twice its bits to within 16 bits of its tag."""
    twice = zeros.find_zero(z.k, Q, 2 * bits).x._mpf_
    gap = mpf_abs(mpf_sub(z.x._mpf_, twice, 2 * bits, "n"))
    _, man, exp, _ = mpf_abs(z.x._mpf_)
    return not gap[1] or gap[1].bit_length() + gap[2] <= man.bit_length() + exp - z.x.precision_bits + 16


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="check each large-k zero at twice the bits")
    parser.add_argument("--kmax", type=int, default=6400, help="the largest k (default 6400)")
    args = parser.parse_args(argv)
    cases = [(100, None)]
    k = 400
    while k <= args.kmax:
        cases += [(k, 320), (k, 700)]
        k *= 2
    print(f"{'k':>6} {'bits':>6} {'zero_s':>9} {'terms':>6} {'read_s':>9}  x")
    failed = 0
    for k, bits in cases:
        start = time.perf_counter()
        z = zeros.find_zero(k, Q, bits)
        took = time.perf_counter() - start
        terms, read_s = _read(z.x._mpf_, z.precision_bits)
        line = f"{k:>6} {z.precision_bits:>6} {took:>9.4f} {terms:>6} {read_s:>9.5f}  {to_str(z.x._mpf_, 25)}"
        if args.check and bits is not None:
            ok = _agrees(z, bits)
            failed += not ok
            line += "" if ok else "  DISAGREES at twice the bits"
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
