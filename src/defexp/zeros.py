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
from math import ceil, factorial, inf, log2
from operator import index
from threading import Lock

from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_man_exp,
    mpf_abs,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_pos,
    mpf_sub,
)

from .precreal import PrecReal, _round_fraction, context, to_mpf
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

#: grid density of scan_zeros (each step is also capped at a factor 1/q)
_SCAN_POINTS_PER_DECADE = 64

# _probe_sum, one integer kernel for f at any working precision p, gives
# find_zero every f it reads off the kernel and the signs it certifies.
# Let u = 2^-p and P = 2^peak, its bound on every |term| and |partial sum|.
# Term n + 1 is term n times u_n/(n + 1), with u_n = t q^n carried with
# G = _PROBE_GUARD_BITS guard bits.  Each step is off by t's one rounding
# to p bits (< u), u_n's n floors to at least p + G bits
# (< n 2^(1 - G) u <= u, as n < 2^15 at every p), a truncating shift (< u)
# and a floor division by n + 1 (< 2u), less than 5u in all, so term n is
# off by less than (1 + 5u)^n - 1 < 7nu relative, and the exact sum of N
# terms by less than 7u P N(N + 1)/2.  The kernel stops once the ratio
# |t| q^n/(n + 1), bounded above with |t| q^n < |u_n| (1 + 2^(2 - p)), is
# under 1/2 and the last term is below 2^(peak - p), so the tail is under
# 2 P u.  The kernel is thus off by less than (4N(N + 1) + 2) P u < 2^33 P u
# at every p, and a sum of at least 2^(_SIGN_BITS - 1) P u has the sign
# of f(t).
_SIGN_BITS = 34
_PROBE_MAX_TERMS = 2**15
_PROBE_GUARD_BITS = _PROBE_MAX_TERMS.bit_length()

_NEAREST = "n"  # the rounding mode of every context(bits)
_Q_POWERS_LOCK = Lock()

# find_zero runs Newton on a precision ladder from this many working bits
# on: rungs p_0 = B, p_(i+1) = p_i // 2 + 32 down to the last one of at
# least _LADDER_BASE_BITS, where the guess's C_i are evaluated too.  One
# step from x correct to about p_(i+1) - 6 bits leaves it correct to
# about 2 p_(i+1) - 12 > p_i bits (Brent & Zimmermann, Modern Computer
# Arithmetic, 2010, section 4.2).  That step needs f'(x) = f(qx) only to
# about the bits x has, so a rung reads it at the rung below.  The ladder
# starts just above every README budget (647 bits at most,
# test_readme_budgets_are_below_the_newton_ladder): no golden zero takes it.
_LADDER_MIN_BITS = 648
_LADDER_BASE_BITS = 128


class BracketError(RuntimeError):
    """No sign change found within the allowed bracket expansion."""


def _q_fraction(q) -> Fraction:
    """q as an exact Fraction in (0, 1), the one q check: anything else
    (1/0, inf, nan, abc, 2) is a ValueError that names the reason."""
    try:
        qf = Fraction(q)
    except ZeroDivisionError:
        raise ValueError(f"q has a zero denominator, got {q!r}") from None
    except (ValueError, OverflowError):
        raise ValueError(f"q must be a finite rational number, got {q!r}") from None
    if not 0 < qf < 1:
        raise ValueError(f"q must lie in (0, 1), got {qf}")
    return qf


def _positive_index(k, what: str = "zero index", least: int = 1) -> int:
    """k as an int of at least `least`; anything else (0, 2.5, even 12.0
    for the default 1) is a ValueError naming `what`."""
    try:
        k = index(k)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {k!r}") from None
    if k < least:
        raise ValueError(f"{what} starts at {least}, got {k}")
    return k


def required_precision(k: int, q) -> int:
    """The default working bits for the k-th zero: log2 of the peak term
    ~ q^(-k(k-1)/2) k^k/k! of the series near x_k, plus 64 guard bits.
    mpf exponents absorb that size; only the cancellation costs bits."""
    k = _positive_index(k)
    qf = _q_fraction(q)
    return ceil(k * (k - 1) / 2 * _log2_inv_q(qf) + k * log2(k)) + 64


def _log2_inv_q(qf: Fraction) -> float:
    """log2(1/q) from the exact parts: float(q) underflows below ~1e-308."""
    return log2(qf.denominator) - log2(qf.numerator)


@lru_cache(maxsize=16)
def _q_powers(q: tuple, bits: int) -> list:
    """q^0, q^1, ... of the raw mpf q as (mantissa, exponent) pairs, each
    the product of the one before and q rounded to nearest at `bits`;
    eval_f extends the list in place, so every call at one (q, bits)
    shares the powers built so far."""
    return [(1, 0)]


def _extend_q_powers(qpows: list, q: tuple, bits: int, n: int) -> None:
    _, qm, qe, _ = q
    with _Q_POWERS_LOCK:  # two threads must not append the same power twice
        while len(qpows) <= n:
            m, e = qpows[-1]
            qpows.append(_round(m * qm, e + qe, bits))


def _probe_sum(X: tuple, qf: Fraction, p: int) -> tuple[int, int, int, int] | None:
    """The integer kernel at p bits: (total, base, peak, n), the sum total
    2^base of the terms T_0..T_n of f at the raw mpf t, every |term| and
    |partial sum| below 2^peak; None when it reaches _PROBE_MAX_TERMS terms.

    t is rounded once to p bits; u = t q^n is carried as a signed int
    mantissa of at least p + G bits times 2^ue, advanced by q = a/b in
    one floor division.  Each term is an int mantissa m of about p bits
    times 2^e, advanced by u/(n + 1) with one truncating shift and a floor
    division, and added exactly into one int `total` times 2^base.
    """
    sign, man, exp, _ = mpf_pos(X, p, _NEAREST)
    if not man:
        return 1, 0, 1, 0  # f(0) = 1
    a, b = qf.numerator, qf.denominator
    scale = p + _PROBE_GUARD_BITS + 1 + b.bit_length() - a.bit_length()
    lift = p + _PROBE_GUARD_BITS - man.bit_length()  # u_0: p + G bits
    u = (-man if sign else man) << lift
    ue = exp - lift
    m = total = 1
    e = base = 0
    peak = 1  # every |term| and |partial sum| so far is below 2^peak
    ratio_small = False
    n = 0
    while True:
        if n >= _PROBE_MAX_TERMS:
            return None
        x = m * u
        shift = x.bit_length() - p - (n + 1).bit_length()
        m = (x >> shift) // (n + 1)
        e += ue + shift
        n += 1
        if e >= base:
            total += m << (e - base)
        else:
            total = (total << (base - e)) + m
            base = e
        mag = m.bit_length() + e
        peak = max(peak, mag, total.bit_length() + base)
        # u = t q^n: the quotient has p + G to p + G + 2 bits
        s = scale - u.bit_length()
        u = (u * a << s) // b if s >= 0 else u * a // (b << -s)
        ue -= s
        if not ratio_small:
            # 2 |t| q^n < n + 1, with |t| q^n < |u| (1 + 2^(2 - p)) 2^ue
            lhs = (abs(u) + (abs(u) >> (p - 2)) + 1) << 1
            ratio_small = lhs << ue < n + 1 if ue >= 0 else lhs < (n + 1) << -ue
        if ratio_small and mag <= peak - p:
            return total, base, peak, n


def _kernel_sign(X: tuple, qf: Fraction, *precs: int) -> int | None:
    """The sign of f at the raw mpf X off _probe_sum at the first p of
    `precs` whose sum clears the bound derived at the constants, at least
    2^(_SIGN_BITS - 1 + peak - p); None when no p does or the kernel gives up."""
    for p in precs:
        total, base, peak, _ = _probe_sum(X, qf, p) or (0, 0, 0, 0)
        if total and total.bit_length() + base >= peak - p + _SIGN_BITS:
            return 1 if total > 0 else -1
    return None


def _read(X: tuple, qf: Fraction, prec: int, kernel: bool) -> tuple[int, int, int]:
    """f(x) at prec bits as _f_raw's (man, exp, tag): off _probe_sum when
    `kernel` is set, rounded to prec bits and tagged prec minus the bits
    lost below the peak; from _f_raw otherwise or when the kernel gives up."""
    probe = _probe_sum(X, qf, prec) if kernel else None
    if probe is None:
        return _f_raw(X, _round_fraction(qf, prec), prec)
    total, base, peak, _ = probe
    man, exp = _round(abs(total), base, prec)
    lost = max(0, peak - total.bit_length() - base) if total else prec
    return (man if total > 0 else -man), exp, max(1, prec - lost)


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man 2^exp (man >= 0) rounded to prec bits, half to even, as libmp's
    normalize rounds; the mantissa may come out as 2^prec after a carry."""
    shift = man.bit_length() - prec
    if shift <= 0:
        return man, exp
    r = man >> (shift - 1)  # the kept bits and the round bit
    if r & 1 and (r & 2 or man & ((1 << (shift - 1)) - 1)):
        r += 2
    return r >> 1, exp + shift


def _exceeds(a: int, ea: int, b: int, eb: int) -> bool:
    """a 2^ea > b 2^eb for a, b >= 0, b > 0: bit lengths first, then an
    aligned compare (the shift is at most the longer mantissa)."""
    if not a:
        return False
    la = a.bit_length() + ea
    lb = b.bit_length() + eb
    if la != lb:
        return la > lb
    if ea >= eb:
        return a << (ea - eb) > b
    return a > b << (eb - ea)


def _divide(man: int, exp: int, d: int, prec: int) -> tuple[int, int]:
    """man 2^exp / d rounded as _round rounds (man > 0 of at most prec + 1
    bits, d >= 1): an exact shift when d is a power of two, else a
    quotient of at least prec + 1 bits with a sticky bit for a remainder."""
    if not d & (d - 1):
        return man, exp - d.bit_length() + 1
    k = prec + d.bit_length() + 1 - man.bit_length()
    quot, rem = divmod(man << k, d)
    if rem:
        quot = quot << 1 | 1
        k += 1
    return _round(quot, exp - k, prec)


def eval_f(x, q, precision_bits: int) -> PrecReal:
    """Evaluate f(x) at the given working precision.

    Terms are accumulated by the ratio recurrence t_{n+1} = t_n x q^n/(n+1);
    summation stops once the ratio falls under 1/2 (geometric domination)
    and the current term is below 2^-precision_bits times the largest
    magnitude seen.  The result's precision metadata is the working
    precision minus the bits lost to cancellation; if nothing survives,
    a 1-bit value is returned so sign-probing callers can treat it as
    noise level.

    The loop (_f_raw, which Newton calls on raw mpfs with no context)
    runs on Python ints and calls no libmp arithmetic: the
    term, the running total and the peak are each a mantissa times a
    power of two.  Each step (the products by x and by q^n, the quotient
    by n + 1, the sum, and the ratio |x| q^n/(n + 1)) is formed exactly,
    or as a quotient with a sticky bit, and rounded once to
    precision_bits, half to even.  Every mpf operation in a
    round-to-nearest context is correctly rounded that way, so the result
    is bit for bit the one the mpf operators give, in the same order.  A
    sum of operands whose magnitudes lie more than precision_bits + 4
    bits apart is the larger one, as rounding gives it, so a tiny x
    builds no shift as long as its exponent.  The comparisons with the
    peak are exact, bit lengths first.  The powers q^n come from a table
    of (mantissa, exponent) pairs shared by all calls at the same q and
    precision.  The ratio is a chain of monotone roundings of a
    decreasing sequence, so once it is under 1/2 it stays there and is no
    longer computed.
    """
    precision_bits = _positive_index(precision_bits, "working precision in bits", 4)
    ctx = context(precision_bits)
    xv = to_mpf(ctx, x)
    qv = to_mpf(ctx, q if not isinstance(q, str) else _q_fraction(q))
    if not 0 < qv < 1:
        raise ValueError("q must lie in (0, 1)")
    X = getattr(xv, "_mpf_", None)
    if X is None:
        raise ValueError("x must be real")
    return _prec_real(ctx, *_f_raw(X, qv._mpf_, precision_bits))


def _prec_real(ctx, man: int, exp: int, tag: int) -> PrecReal:
    """_f_raw's (man, exp, tag) as eval_f returns it."""
    return PrecReal(ctx.make_mpf(from_man_exp(man, exp)), tag)


def _f_raw(X: tuple, Q: tuple, prec: int) -> tuple[int, int, int]:
    """eval_f's integer loop on raw mpfs x and q (0 < q < 1) at prec bits:
    (man, exp, tag) with f(x) = man 2^exp, man signed, and tag its bits.
    A non-finite x is a ValueError."""
    if X in (finf, fninf, fnan):
        raise ValueError("x must be finite")
    qpows = _q_powers(Q, prec)
    x_neg, xm, xe, _ = X
    if not xm:
        return 1, 0, prec  # f(0) = 1
    am, ae = _round(xm, xe, prec)  # |x| at prec, for the ratio
    tm, te, t_neg = 1, 0, False  # the term: (-1)^t_neg tm 2^te
    sm, se = 1, 0  # the running total: sm 2^se, sm signed
    pm, pe = 1, 0  # the peak of |term| and |total|: pm 2^pe
    peak_mag = 1  # pm.bit_length() + pe, so most compares need no call
    ratio_small = False
    n = 0
    while True:
        if len(qpows) <= n + 1:
            _extend_q_powers(qpows, Q, prec, n + 1)
        tm, te = _round(tm * xm, te + xe, prec)
        qm, qe = qpows[n]
        tm, te = _round(tm * qm, te + qe, prec)
        t_neg ^= x_neg
        n += 1
        tm, te = _divide(tm, te, n, prec)
        mag = tm.bit_length() + te
        # total += term, rounded once; of two operands more than prec + 4
        # bits apart in magnitude the smaller is below half a unit of the
        # larger, which the sum rounds back to
        tv = -tm if t_neg else tm
        gap = sm.bit_length() + se - mag
        if not sm or gap < -prec - 4:
            sm, se = tv, te
        elif gap <= prec + 4:
            if se >= te:
                s, e = (sm << (se - te)) + tv, te
            else:
                s, e = sm + (tv << (te - se)), se
            if s < 0:
                sm, se = _round(-s, e, prec)
                sm = -sm
            else:
                sm, se = _round(s, e, prec)
        if mag >= peak_mag and _exceeds(tm, te, pm, pe):
            pm, pe, peak_mag = tm, te, mag
        total_mag = sm.bit_length() + se
        if total_mag >= peak_mag and _exceeds(abs(sm), se, pm, pe):
            pm, pe, peak_mag = abs(sm), se, total_mag
        if not ratio_small:
            qm, qe = qpows[n]
            rm, re = _round(am * qm, ae + qe, prec)
            rm, re = _divide(rm, re, n + 1, prec)
            ratio_small = rm.bit_length() + re <= -1  # rm 2^re < 1/2
        # stop once |term| <= 2^-prec peak
        if ratio_small and mag <= peak_mag - prec and not _exceeds(tm, te, pm, pe - prec):
            break
    if not sm:
        lost = prec
    else:
        lost = max(0, peak_mag - sm.bit_length() - se)
    return sm, se, max(1, prec - lost)


def _sign(value: PrecReal) -> int:
    if value.value > 0:
        return 1
    if value.value < 0:
        return -1
    return 0


def _asymptotic_guess(ctx, k: int, qf: Fraction, bits: int):
    """-k q^(1-k) (1 + C_1(q)/k^2 + C_2(q)/k^3), the C_i read at `bits`."""
    corr = ctx.mpf(1)
    kk = ctx.mpf(k)
    for i in (1, 2):
        ci = coefficient_value(i, qf, SERIES_TRUNC, bits)
        corr += to_mpf(ctx, ci) * kk ** (-1 - i)
    qv = to_mpf(ctx, qf)
    return -kk * qv ** (1 - k) * corr


def _newton(
    x: tuple, qf: Fraction, prec: int, below: int, steps: list, limit: int, kernel: bool
) -> tuple:
    """At most `limit` Newton steps x -= f(x)/f(qx) on the raw mpf x (f' =
    f(qx) by the defining functional equation), f(x) read by _read at prec
    bits and f(qx) at `below` <= prec, every other operation rounded to
    nearest at prec, as context(prec) rounds it; log2 of each relative
    step |step|/|x - step| is appended to `steps`.  It stops once a step
    is below 2^(4 - prec) relative or f(x) keeps 8 bits or fewer, and
    before a step when f(qx) is lost to cancellation.  A ladder rung
    (below < prec) reads f(qx) once, sizes every step with it, does not
    take the last step and returns x with the f(x) that ended the loop;
    otherwise it returns (x, None)."""
    Q_below = _round_fraction(qf, below)
    target = from_man_exp(1, 4 - prec)
    dfx = None
    for _ in range(limit):
        fx = _read(x, qf, prec, kernel)
        if dfx is None or below == prec:
            dfx = _read(mpf_mul(Q_below, x, below, _NEAREST), qf, below, kernel)
        dm, de, dtag = dfx
        if dtag <= 1:
            break
        step = mpf_div(from_man_exp(fx[0], fx[1]), from_man_exp(dm, de), prec, _NEAREST)
        new = mpf_sub(x, step, prec, _NEAREST)
        _, rm, re, _ = rel = mpf_div(mpf_abs(step), mpf_abs(new), prec, _NEAREST)
        steps.append(log2(rm) + re if rm else -inf)
        done = mpf_lt(rel, target) or fx[2] <= 8
        if done and below < prec:
            return x, fx
        x = new
        if done:
            break
    return x, None


def _certify(guess, k: int, qf: Fraction, precs: list) -> tuple | None:
    """Newton from the guess, an mpf at precs[-1] bits, on the kernel at
    p = precs[0] bits to a zero x; when _kernel_sign at precs reads
    (-1)^k at x (1 + 2^-(p // 2)) and (-1)^(k - 1) at x (1 - 2^-(p // 2)),
    a sign change of x_k's parity, those two points at precs[-1] bits
    followed by the raw x and the log2 steps that located it; else None."""
    p = precs[0]
    steps: list[float] = []
    located, _ = _newton(guess._mpf_, qf, p, p, steps, p.bit_length() + 8, True)
    ctx = context(precs[-1])
    x, h = ctx.make_mpf(located), ctx.mpf(2) ** -(p // 2)
    points = (x * (1 + h), x * (1 - h))
    for t, want in zip(points, ((-1) ** k, (-1) ** (k - 1))):
        if _kernel_sign(t._mpf_, qf, *precs) != want:
            return None
    return (*points, located, steps)


def _bisect(lo: tuple, hi: tuple, slo: int, coarse: tuple, prec: int, bands, sign) -> tuple:
    """The bisection of [lo, hi] (raw mpfs, lo < hi < 0, f(lo) of sign
    slo) while b - a, rounded to prec bits, exceeds the raw mpf `coarse`,
    each midpoint (a + b)/2 with a + b rounded to nearest at prec; returns
    the raw mpf (a + b)/2 of the last bracket, or the first midpoint of
    sign 0.  These are the bytes of that loop on mpfs at prec bits, run on
    ints in units of 2^F, F at or below the last bit of lo, of hi and of
    every midpoint.  `bands` is None or the raw mpfs (beyond, c_out, c_in,
    within): a midpoint in [beyond, c_out] has the sign slo, one in
    [c_in, within] the sign -slo, and only any other goes to sign(t) on
    the raw mpf t.  find_zero bisects only below the Newton ladder, at the
    budgets whose bytes the README goldens pin."""
    # |a + b| >= 2 |hi| >= 2^mag(hi), so (a + b)/2 rounded is a multiple of 2^(mag(hi) - prec)
    F = min(lo[2], hi[2], hi[2] + hi[3] - prec)

    def scaled(X: tuple, up: bool = False) -> int:  # X/2^F, floored or ceiled
        s, m, e, _ = X
        v = -m if s else m
        if e >= F:
            return v << (e - F)
        return -(-v >> (F - e)) if up else v >> (F - e)

    def mid() -> int:
        m, e = _round(-(a + b), F, prec)  # at least prec + 1 bits, so e > F
        return -(m << (e - 1 - F))

    a, b = scaled(lo), scaled(hi)
    if bands:  # each band rounded to the scale toward its inside
        beyond, c_out, c_in, within = bands
        bands = (scaled(beyond, True), scaled(c_out), scaled(c_in, True), scaled(within))
    _, cm, ce, _ = coarse
    while _exceeds(*_round(b - a, F, prec), cm, ce):
        t = mid()
        if bands and bands[0] <= t <= bands[1]:
            s = slo
        elif bands and bands[2] <= t <= bands[3]:
            s = -slo
        else:
            s = sign(from_man_exp(t, F))
        if s == 0:
            return from_man_exp(t, F)
        if s == slo:
            a = t
        else:
            b = t
    return from_man_exp(mid(), F)


@dataclass(frozen=True)
class ZeroResult:
    """One located zero with its bracket and acceptance residual;
    newton_rel_steps holds log2 of each relative Newton step.  f changes
    sign across the bracket: find_zero's certificate points x (1 +- 2^-(p
    // 2)) around the located x on the Newton ladder, the bracket guess
    (1 +- delta) that it bisected below it, or scan_zeros' grid cell."""

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


def find_zero(k: int, q, precision_bits: int | None = None) -> ZeroResult:
    """Locate x_k from the asymptotic guess: certify a sign change, then Newton.

    The working precision is precision_bits (an int of at least 8, checked
    before any work) or else required_precision(k, q).  The guess is
    -k q^(1-k) (1 + C_1(q)/k^2 + C_2(q)/k^3), the paper's expansion to
    order 2.  As f(0) = 1 and the zeros are real and simple, sign f(-t) is
    -1 to the number of zeros in (-t, 0), and f > 0 on [0, inf): a guess
    that is not negative raises BracketError at once (the caller should
    fall back to scan_zeros on every BracketError).  Else _certify locates
    a zero x by Newton on the integer kernel at p bits (the ladder's
    bottom rung, or min(B, 128) below the ladder) and certifies the kernel
    signs (-1)^k at x (1 + 2^-(p // 2)) and (-1)^(k - 1) at
    x (1 - 2^-(p // 2)), a sign change of x_k's parity.

    From _LADDER_MIN_BITS = 648 working bits on, that certificate is the
    bracket.  It must exist and lie within relative half-width 1/(4k) of
    the guess (beyond that a neighbouring zero could be captured), else
    BracketError.  Newton climbs from the located x, whose steps open
    newton_rel_steps, up the rungs p_(i+1) = p_i // 2 + 32 above the bottom
    one to p_0 = B, every f read off _probe_sum at the rung's bits: one
    step on each rung, each about doubling the correct bits with f(qx)
    read once, at the rung below.  At B, f(x) is read once more, its step
    sized with that f(qx): below 2^(4 - B) relative, or with f(x) at 8
    bits or fewer, it is not taken and f(x) is the residual; else Newton
    steps on.  The guess's C_i are then at 128 bits.

    Below 648 bits, where the README goldens pin every byte, a relative
    bracket of half-width k^-4 doubles until f changes sign, capped at
    1/(4k); its outer end must read (-1)^k, or the sign change is not x_k.
    Either failure raises BracketError.  A sign out to a factor 1/q beyond
    a certificate point is the certificate's, as consecutive zeros lie
    more than that apart (scan_zeros); any other is a certified kernel
    sign at B, else eval_f's loop read at B.  Bisection on ints (_bisect)
    narrows to ~60 bits (at most B - 8), Newton on eval_f's loop at B
    finishes from its midpoint until a step is below 2^(4 - B) relative,
    and the residual is one more evaluation at B.  Either route leaves x
    correct to within about 8 bits of B.
    """
    k = _positive_index(k)
    qf = _q_fraction(q)
    bits = required_precision(k, qf) if precision_bits is None else precision_bits
    bits = _positive_index(bits, "working precision in bits", 8)
    ctx = context(bits)

    rungs = [bits]
    while bits >= _LADDER_MIN_BITS and rungs[-1] // 2 + 32 >= _LADDER_BASE_BITS:
        rungs.append(rungs[-1] // 2 + 32)
    ladder = len(rungs) > 1
    guess = _asymptotic_guess(ctx, k, qf, _LADDER_BASE_BITS if ladder else bits)
    delta_max = ctx.mpf(1) / (4 * k)
    no_change = (
        f"no sign change within relative half-width 1/(4k) around the "
        f"order-2 guess for k={k}, q={qf}"
    )
    if not guess < 0:  # f > 0 on [0, inf): no bracket around it changes sign
        raise BracketError(no_change)

    precs = sorted({rungs[-1] if ladder else min(bits, _LADDER_BASE_BITS), bits})
    cert = _certify(guess, k, qf, precs)
    if ladder:  # the certificate is the bracket, and Newton climbs from its x
        inside = cert and guess * (1 + delta_max) <= cert[0] and cert[1] <= guess * (1 - delta_max)
        if not inside:
            raise BracketError(no_change)
        lo, hi, x, steps = cert
    else:  # the bracket and the bisection that the README goldens pin
        bands = None
        if cert:
            c_out, c_in = cert[:2]
            # rounded so that beyond >= c_in/q, within <= q c_out
            a, b = qf.numerator, qf.denominator
            beyond = ctx.fdiv(ctx.fmul(c_in, b, exact=True), a, rounding="c")
            within = ctx.fdiv(ctx.fmul(c_out, a, exact=True), b, rounding="f")
            bands = tuple(t._mpf_ for t in (beyond, c_out, c_in, within))

        def read_sign(X: tuple) -> int:
            s = _kernel_sign(X, qf, bits) or _read(X, qf, bits, False)[0]
            return (s > 0) - (s < 0)

        def sign(t) -> int:
            if cert and beyond <= t <= c_out:
                return (-1) ** k
            if cert and c_in <= t <= within:
                return (-1) ** (k - 1)
            return read_sign(t._mpf_)

        delta = min(ctx.mpf(k) ** -4, delta_max)
        while True:
            lo = guess * (1 + delta)  # the more negative endpoint
            hi = guess * (1 - delta)
            slo = sign(lo)
            if slo * sign(hi) < 0:
                break
            if delta >= delta_max:
                raise BracketError(no_change)
            delta = min(delta * 2, delta_max)
        if slo != (-1) ** k:
            raise BracketError(
                f"the sign change around the order-2 guess for k={k}, q={qf} is "
                f"not x_k: f past it has the sign (-1)^(k+1)"
            )
        # bisection to roughly 60 correct bits, or 8 below the working
        # precision when that is lower (rounded midpoints get no closer)
        coarse = abs(guess) * ctx.mpf(2) ** (-min(60, bits - 8))
        x = _bisect(lo._mpf_, hi._mpf_, slo, coarse._mpf_, bits, bands, read_sign)
        steps = []

    # Newton to convergence at B, on the ladder after one step on each rung below
    for p, below in reversed(list(zip(rungs, rungs[1:])) or [(bits, bits)]):
        x, fx = _newton(x, qf, p, below, steps, p.bit_length() + 8 if p == bits else 1, ladder)
    x = ctx.make_mpf(x)

    residual = abs(eval_f(x, qf, bits) if fx is None else _prec_real(ctx, *fx))
    return ZeroResult(
        k=k,
        q=qf,
        x=PrecReal(x, bits),
        bracket=(PrecReal(lo, bits), PrecReal(hi, bits)),
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


def _past_zero(x, qf: Fraction) -> float:
    """|x|/q rounded down to a float, from the exact parts of q (so q below
    the float range works; a point past the float range comes back inf)."""
    ctx = context(53)
    num = ctx.fmul(abs(x), qf.denominator, exact=True)
    return float(ctx.fdiv(num, qf.numerator, rounding="d"))


def _refine_sign_change(a, b, qf: Fraction, bits: int) -> tuple:
    """Narrow the sign change of f between grid points a < b < 0 by
    safeguarded Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971)
    until the bracket is at most |a| 2^(8 - bits) wide, or until f comes
    back at noise level; returns (x, f(x)) at the last iterate.

    Both ends are first read at `bits`, the refinement's own precision
    (the grid read them at its own), and BracketError is raised when
    their signs are not opposite there.  Each step evaluates f at the
    secant point of the ends' values, and halves the value of an end
    kept twice in a row (Illinois).  It takes the midpoint instead when
    the secant point is not strictly inside the bracket, or when three
    secant steps in a row each failed to halve the bracket: from a plain
    start the third is the first to use a halved value, so Illinois gets
    one try before the midpoint, and no more than four calls go to any
    halving.
    """
    ctx = context(bits)
    a = to_mpf(ctx, a)
    b = to_mpf(ctx, b)
    fa = eval_f(a, qf, bits)
    fb = eval_f(b, qf, bits)
    sa = _sign(fa)
    if sa * _sign(fb) >= 0:
        raise BracketError(
            f"the sign change of f between {ctx.nstr(a, 8)} and {ctx.nstr(b, 8)} "
            f"does not survive at {bits} bits"
        )
    wa, wb = fa.value, fb.value  # the ends' secant weights: f, halved while kept
    moved = 0  # the end the last step replaced: -1 for a, 1 for b
    misses = 0  # secant steps in a row that failed to halve the bracket
    floor_width = ctx.mpf(2) ** (8 - bits)
    x, fx = a, fa
    while (b - a) > abs(a) * floor_width:
        width = b - a
        x = b - wb * width / (wb - wa)
        secant = misses < 3 and a < x < b
        if not secant:
            x = (a + b) / 2
        fx = eval_f(x, qf, bits)
        s = _sign(fx)
        if s == 0 or fx.precision_bits <= 1:
            break
        if s == sa:
            a, wa = x, fx.value
            if moved == -1:
                wb /= 2
            moved = -1
        else:
            b, wb = x, fx.value
            if moved == 1:
                wa /= 2
            moved = 1
        misses = misses + 1 if secant and b - a > width / 2 else 0
    return x, fx


def scan_zeros(q, x_min, count: int) -> list[ZeroResult]:
    """Find the first `count` zeros by scanning a geometric grid.

    An oracle of a grid plus safeguarded Illinois refinement, independent
    of the asymptotic machinery in find_zero: no guess, no sign-probe
    kernel.  The grid runs from -1 toward x_min (f has no zeros in
    [-1, 0]: the alternating series at x = -1 is positive for every q).
    Consecutive zeros lie a factor above 1/q apart, x_(k+1) < x_k/q < x_k:
    f'(x) = f(qx), and as f has order zero and only real simple zeros,
    f'/f = sum_j 1/(x - x_j) is positive on (x_1, 0) and falls strictly
    from +inf to -inf on each (x_(k+1), x_k), so the zeros x_j/q of f'
    lie one in each such interval, in order.  So one grid pass, of
    _SCAN_POINTS_PER_DECADE points per decade and each step capped at
    |x|/q rounded down (binding only for q above 10^(-1/64)), has no cell
    wider than a factor 1/q, hence none with two zeros; and as f keeps
    one sign from x_k to x_k/q, after each zero the grid resumes at
    |x_k|/q, rounded down, with the sign read just past x_k.  Fewer than
    `count` sign changes before x_min is a BracketError.  The k-th sign
    change is refined at required_precision(k, q) bits
    (_refine_sign_change), which raises BracketError when the change is
    lost there; x is the last iterate and the residual is |f(x)|.
    """
    qf = _q_fraction(q)
    count = _positive_index(count, "count")
    x_min = float(x_min)
    if not x_min < -1:
        raise ValueError("x_min must be below -1")

    found: list[ZeroResult] = []
    step = 10 ** (1 / _SCAN_POINTS_PER_DECADE)
    pos = 1.0  # |x| of the current grid point
    bits = required_precision(_index_estimate(qf, pos) + 2, qf)
    prev = -pos
    prev_sign = _sign(eval_f(prev, qf, bits))
    while len(found) < count and pos < abs(x_min):
        pos = min(pos * step, _past_zero(pos, qf), abs(x_min))
        bits = required_precision(_index_estimate(qf, pos) + 2, qf)
        cur = -pos
        s = _sign(eval_f(cur, qf, bits))
        if s != 0 and prev_sign != 0 and s != prev_sign:
            k_found = len(found) + 1
            zbits = required_precision(k_found, qf)
            x, fx = _refine_sign_change(cur, prev, qf, zbits)
            found.append(
                ZeroResult(
                    k=k_found,
                    q=qf,
                    x=PrecReal(x, zbits),
                    bracket=(PrecReal(cur, zbits), PrecReal(prev, zbits)),
                    residual=abs(fx),
                    precision_bits=zbits,
                )
            )
            pos = max(pos, min(_past_zero(x, qf), abs(x_min)))
            cur = -pos
        if s != 0:
            prev, prev_sign = cur, s
        else:
            prev = cur
    if len(found) < count:
        raise BracketError(
            f"only {len(found)} sign changes of f before x_min={x_min} (expected {count})"
        )
    return found


def paired_term_gaps(k: int, q, a) -> list[Fraction]:
    """Exact gaps v_j = u_{2k-1-j} - u_j of the paired alternating terms.

    u_n = (k + a/k)^n/n! q^(-n(2k-n-1)/2) is the magnitude of the n-th
    series term at the trial point x = -(k + a/k) q^(1-k), up to the
    common factor q^(k(k-1)/2); the exponent n(2k-n-1) is always even,
    so everything stays rational.  Positivity of all v_j forces the sign
    of f at the trial point.
    """
    k = _positive_index(k)
    qf = _q_fraction(q)
    af = Fraction(a)
    base = Fraction(k) + af / k

    def u(n: int) -> Fraction:
        return base**n / factorial(n) * qf ** (-(n * (2 * k - n - 1)) // 2)

    return [u(2 * k - 1 - j) - u(j) for j in range(k)]
