"""High-precision zeros of f(x) = sum x^n/n! q^(n(n-1)/2).

f is entire of order zero with simple zeros, all on the negative real
axis; the k-th zero sits near -k q^(1-k).  Evaluating f near a zero is
dominated by catastrophic cancellation between terms of size up to
q^(-k(k-1)/2), so every evaluation carries an explicit precision budget
and reports the bits that survive cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, log2
from threading import Lock

from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fone,
    from_float,
    from_int,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_shift,
)

from .precreal import PrecReal, context, to_mpf
from .qseries import SERIES_TRUNC, coefficient_value

__all__ = [
    "BracketError",
    "ZeroResult",
    "eval_f",
    "find_zero",
    "paired_term_gaps",
    "required_precision",
    "scan_zeros",
]

#: grid density of scan_zeros' first pass (the rescan uses four times it)
_SCAN_POINTS_PER_DECADE = 64

_NEAREST = "n"  # the rounding mode of every context(bits)
_HALF = from_float(0.5)
_Q_POWERS_LOCK = Lock()


class BracketError(RuntimeError):
    """No sign change found within the allowed bracket expansion."""


def required_precision(k: int, q) -> int:
    """Working bits needed to resolve the k-th zero: the peak term of the
    series near x_k has magnitude ~ q^(-k(k-1)/2) k^k/k!, all of which
    cancels; ceil(k(k-1)/2 log2(1/q) + k log2 k) plus 64 guard bits."""
    if k < 1:
        raise ValueError("zero index starts at 1")
    qf = Fraction(q)
    if not 0 < qf < 1:
        raise ValueError("q must lie in (0, 1)")
    return ceil(k * (k - 1) / 2 * _log2_inv_q(qf) + k * log2(k)) + 64


def _log2_inv_q(qf: Fraction) -> float:
    """log2(1/q) from the exact parts: float(q) underflows below ~1e-308."""
    return log2(qf.denominator) - log2(qf.numerator)


@lru_cache(maxsize=16)
def _q_powers(q: tuple, bits: int) -> list:
    """q^0, q^1, ... of the raw mpf q, each the product of the one before
    and q rounded to nearest at `bits`; eval_f extends the list in place,
    so every call at one (q, bits) shares the powers built so far."""
    return [fone]


def _extend_q_powers(qpows: list, q: tuple, bits: int, n: int) -> None:
    with _Q_POWERS_LOCK:  # two threads must not append the same power twice
        while len(qpows) <= n:
            qpows.append(mpf_mul(qpows[-1], q, bits, _NEAREST))


def eval_f(x, q, precision_bits: int) -> PrecReal:
    """Evaluate f(x) at the given working precision.

    Terms are accumulated by the ratio recurrence t_{n+1} = t_n x q^n/(n+1);
    summation stops once the ratio falls under 1/2 (geometric domination)
    and the current term is below 2^-precision_bits times the largest
    magnitude seen.  The result's precision metadata is the working
    precision minus the bits lost to cancellation; if nothing survives,
    a 1-bit value is returned so sign-probing callers can treat it as
    noise level.

    The loop works on mpmath's raw (sign, mantissa, exponent, bitcount)
    tuples through ``mpmath.libmp``: the same products, quotients, sums
    and comparisons as mpf operators in a round-to-nearest context, in
    the same order, so the result is the one those operators give,
    without their per-operation dispatch.  The powers q^n come from a
    table shared by all calls at the same q and precision.  The ratio
    |x| q^n/(n+1) is a chain of monotone roundings of a decreasing
    sequence, so once it is under 1/2 it stays there and is no longer
    computed.
    """
    if precision_bits < 4:
        raise ValueError("precision must be at least 4 bits")
    ctx = context(precision_bits)
    xv = to_mpf(ctx, x)
    qv = to_mpf(ctx, q if not isinstance(q, str) else Fraction(q))
    if not 0 < qv < 1:
        raise ValueError("q must lie in (0, 1)")
    X = getattr(xv, "_mpf_", None)
    if X is None:
        raise ValueError("x must be real")
    if X in (finf, fninf, fnan):
        raise ValueError("x must be finite")
    Q = qv._mpf_
    prec = precision_bits
    qpows = _q_powers(Q, prec)
    abs_x = mpf_abs(X, prec, _NEAREST)
    term = total = peak = fone
    floor_peak = mpf_shift(peak, -prec)  # 2^-prec * peak, exactly
    ratio_small = False
    n = 0
    while True:
        if len(qpows) <= n + 1:
            _extend_q_powers(qpows, Q, prec, n + 1)
        term = mpf_div(
            mpf_mul(mpf_mul(term, X, prec, _NEAREST), qpows[n], prec, _NEAREST),
            from_int(n + 1),
            prec,
            _NEAREST,
        )
        n += 1
        total = mpf_add(total, term, prec, _NEAREST)
        # term and total are already rounded to prec: abs needs no rounding
        mag = mpf_abs(term)
        at = mpf_abs(total)
        if mpf_gt(mag, peak):
            peak = mag
            floor_peak = mpf_shift(peak, -prec)
        if mpf_gt(at, peak):
            peak = at
            floor_peak = mpf_shift(peak, -prec)
        if not ratio_small:
            ratio = mpf_mul(abs_x, qpows[n], prec, _NEAREST)
            ratio_small = mpf_lt(mpf_div(ratio, from_int(n + 1), prec, _NEAREST), _HALF)
        if ratio_small and mpf_le(mag, floor_peak):
            break
    total = ctx.make_mpf(total)
    if total == 0:
        lost = precision_bits
    else:
        lost = max(0, ctx.mag(ctx.make_mpf(peak)) - ctx.mag(total))
    return PrecReal(total, max(1, precision_bits - lost))


def _sign(value: PrecReal) -> int:
    if value.value > 0:
        return 1
    if value.value < 0:
        return -1
    return 0


def _asymptotic_guess(ctx, k: int, qf: Fraction, n_guess: int, bits: int):
    corr = ctx.mpf(1)
    kk = ctx.mpf(k)
    for i in range(1, n_guess + 1):
        ci = coefficient_value(i, qf, SERIES_TRUNC, bits)
        corr += to_mpf(ctx, ci) * kk ** (-1 - i)
    qv = to_mpf(ctx, qf)
    return -kk * qv ** (1 - k) * corr


@dataclass(frozen=True)
class ZeroResult:
    """One located zero with its bracket and acceptance residual."""

    k: int
    q: Fraction
    x: PrecReal
    bracket: tuple[PrecReal, PrecReal]
    residual: PrecReal
    precision_bits: int
    newton_rel_steps: tuple[float, ...] = field(default=(), compare=False)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "q": str(self.q),
            "x": self.x.to_decimal(),
            "bracket": [self.bracket[0].to_decimal(), self.bracket[1].to_decimal()],
            "residual": self.residual.to_decimal(),
            "precision_bits": self.precision_bits,
        }


def find_zero(k: int, q, n_guess: int = 2, precision_bits: int | None = None) -> ZeroResult:
    """Locate x_k by asymptotic guess, bracket expansion, bisection, Newton.

    The guess is -k q^(1-k) (1 + sum_{i<=n_guess} C_i(q) k^(-1-i)).  A
    symmetric relative bracket of half-width k^(-n_guess-2) doubles until
    f changes sign, capped at 1/(4k) (beyond that a neighbouring zero
    could be captured); failure raises BracketError and the caller
    should fall back to scan_zeros.  Bisection narrows to ~60 bits (at
    most bits - 8), then Newton steps x -= f(x)/f(qx) finish at full
    precision (f' = f(q x) by the defining functional equation).
    """
    if k < 1:
        raise ValueError("zero index starts at 1")
    qf = Fraction(q)
    if not 0 < qf < 1:
        raise ValueError("q must lie in (0, 1)")
    bits = precision_bits if precision_bits is not None else required_precision(k, qf)
    ctx = context(bits)

    guess = _asymptotic_guess(ctx, k, qf, n_guess, bits)
    delta_max = ctx.mpf(1) / (4 * k)
    delta = min(ctx.mpf(k) ** (-(n_guess + 2)), delta_max)

    def f(t) -> PrecReal:
        return eval_f(t, qf, bits)

    while True:
        lo = guess * (1 + delta)  # the more negative endpoint
        hi = guess * (1 - delta)
        flo = f(lo)
        fhi = f(hi)
        if _sign(flo) * _sign(fhi) < 0:
            break
        if delta >= delta_max:
            raise BracketError(
                f"no sign change within relative half-width 1/(4k) around the "
                f"order-{n_guess} guess for k={k}, q={qf}"
            )
        delta = min(delta * 2, delta_max)
    bracket = (PrecReal(lo, bits), PrecReal(hi, bits))

    # bisection to roughly 60 correct bits, or 8 below the working
    # precision when that is lower (rounded midpoints get no closer)
    a, b, fa = lo, hi, flo
    coarse = abs(guess) * ctx.mpf(2) ** (-min(60, bits - 8))
    while (b - a) > coarse:
        mid = (a + b) / 2
        fm = f(mid)
        s = _sign(fm)
        if s == 0:
            a = b = mid
            break
        if s == _sign(fa):
            a, fa = mid, fm
        else:
            b = mid

    # Newton, converging quadratically to the working precision
    x = (a + b) / 2
    qv = to_mpf(ctx, qf)
    steps: list[float] = []
    target = ctx.mpf(2) ** (4 - bits)
    for _ in range(bits.bit_length() + 8):
        fx = f(x)
        fpx = eval_f(qv * x, qf, bits)
        if fpx.precision_bits <= 1:
            break  # derivative lost to cancellation; x is as good as it gets
        step = to_mpf(ctx, fx) / to_mpf(ctx, fpx)
        x = x - step
        rel = abs(step) / abs(x)
        steps.append(float(rel))
        if rel < target or fx.precision_bits <= 8:
            break

    residual = abs(f(x))
    return ZeroResult(
        k=k,
        q=qf,
        x=PrecReal(x, bits),
        bracket=bracket,
        residual=residual,
        precision_bits=bits,
        newton_rel_steps=tuple(steps),
    )


def _index_estimate(qf: Fraction, x_abs: float) -> int:
    """Smallest k with |k q^(1-k)| >= x_abs (locates the scan precision),
    compared in log2 so that q below the float range works."""
    log2_inv_q = _log2_inv_q(qf)
    log2_x = log2(x_abs)
    k = 1
    while log2(k) + (k - 1) * log2_inv_q < log2_x and k < 10_000:
        k += 1
    return k


def _bisect_refine(a, b, fa_sign: int, qf: Fraction, bits: int) -> tuple:
    """Plain bisection of a sign change down to the precision floor."""
    ctx = context(bits)
    a = to_mpf(ctx, a)
    b = to_mpf(ctx, b)
    floor_width = ctx.mpf(2) ** (8 - bits)
    last = None
    while (b - a) > abs(a) * floor_width:
        mid = (a + b) / 2
        fm = eval_f(mid, qf, bits)
        s = _sign(fm)
        last = fm
        if s == 0 or fm.precision_bits <= 1:
            a = b = mid
            break
        if s == fa_sign:
            a = mid
        else:
            b = mid
    mid = (a + b) / 2
    if last is None:
        last = eval_f(mid, qf, bits)
    return mid, last


def scan_zeros(q, x_min, count: int) -> list[ZeroResult]:
    """Find the first `count` zeros by scanning a geometric grid.

    Pure bisection oracle, independent of the asymptotic machinery in
    find_zero.  The grid runs from -1 toward x_min (f has no zeros in
    [-1, 0]: the alternating series at x = -1 is positive for every q).
    Consecutive zeros are separated by a factor >= 1/q > the grid step,
    so a cell holds at most one sign change at the default density; if
    the pass still comes up short against the expected -k q^(1-k)
    locations, one denser rescan is attempted before giving up.
    """
    qf = Fraction(q)
    if not 0 < qf < 1:
        raise ValueError("q must lie in (0, 1)")
    if count < 1:
        raise ValueError("count must be positive")
    x_min = float(x_min)
    if x_min >= -1:
        raise ValueError("x_min must be below -1")

    def one_pass(density: int) -> list[ZeroResult]:
        found: list[ZeroResult] = []
        step = 10 ** (1 / density)
        pos = 1.0  # |x| of the current grid point
        bits = required_precision(_index_estimate(qf, pos) + 2, qf)
        prev = -pos
        prev_sign = _sign(eval_f(prev, qf, bits))
        while len(found) < count and pos < abs(x_min):
            pos = min(pos * step, abs(x_min))
            k_here = _index_estimate(qf, pos) + 2
            bits = required_precision(k_here, qf)
            cur = -pos
            fcur = eval_f(cur, qf, bits)
            s = _sign(fcur)
            if s != 0 and prev_sign != 0 and s != prev_sign:
                k_found = len(found) + 1
                zbits = required_precision(k_found, qf)
                mid, fmid = _bisect_refine(cur, prev, s, qf, zbits)
                found.append(
                    ZeroResult(
                        k=k_found,
                        q=qf,
                        x=PrecReal(mid, zbits),
                        bracket=(PrecReal(cur, zbits), PrecReal(prev, zbits)),
                        residual=abs(fmid),
                        precision_bits=zbits,
                    )
                )
            if s != 0:
                prev, prev_sign = cur, s
            else:
                prev = cur
        return found

    zeros = one_pass(_SCAN_POINTS_PER_DECADE)
    if len(zeros) < count:
        zeros = one_pass(_SCAN_POINTS_PER_DECADE * 4)
    if len(zeros) < count:
        raise BracketError(
            f"only {len(zeros)} sign changes of f before x_min={x_min} (expected {count})"
        )
    return zeros


def paired_term_gaps(k: int, q, a) -> list[Fraction]:
    """Exact gaps v_j = u_{2k-1-j} - u_j of the paired alternating terms.

    u_n = (k + a/k)^n/n! q^(-n(2k-n-1)/2) is the magnitude of the n-th
    series term at the trial point x = -(k + a/k) q^(1-k), up to the
    common factor q^(k(k-1)/2); the exponent n(2k-n-1) is always even,
    so everything stays rational.  Positivity of all v_j forces the sign
    of f at the trial point.
    """
    if k < 1:
        raise ValueError("zero index starts at 1")
    qf = Fraction(q)
    af = Fraction(a)
    if not 0 < qf < 1:
        raise ValueError("q must lie in (0, 1)")
    base = Fraction(k) + af / k

    def u(n: int) -> Fraction:
        return base**n / factorial(n) * qf ** (-(n * (2 * k - n - 1)) // 2)

    return [u(2 * k - 1 - j) - u(j) for j in range(k)]
