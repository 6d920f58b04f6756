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
from threading import Lock

from mpmath.libmp import (  # the raw mpf operations, each at an explicit precision and rounding
    finf, fnan, fninf, fone, from_int, from_man_exp, ftwo, fzero, mpf_abs, mpf_add, mpf_div,
    mpf_le, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pos, mpf_pow_int, mpf_sign, mpf_sub,
    to_float, to_str,
)

from .exactmath import BracketError, _positive_index, _q_fraction, _rational
from .precreal import PrecReal, _divide, _raw, _round, _round_fraction, _tagged
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

# _probe_sum, one integer kernel for f at any working precision p, read
# only through _read, gives find_zero every f it reads off the kernel and
# every sign it acts on, and scan_zeros every f and every sign.
# Let u = 2^-p and P = 2^peak, its bound on every |term| and |partial sum|.
# Term n + 1 is term n times u_n/(n + 1), with u_n = t q^n carried with
# G = _PROBE_GUARD_BITS guard bits.  Each step is off by t's one rounding
# to p bits (< u), u_n's n floors to at least p + G bits
# (< n 2^(1 - G) u <= u, as n < 2^15 at every p), a truncating shift (< u)
# and a floor division by n + 1 (< 2u), less than 5u in all, so term n is
# off by less than (1 + 5u)^n - 1 < 7nu relative, and the exact sum of N
# terms by less than 7u P N(N + 1)/2.  The kernel stops once the last
# term is below 2^(peak - p) and, tested only then, the ratio
# |t| q^n/(n + 1) is under 1/2, so the tail is under 2 P u.  The ratio is
# bounded above by B_n = (|u_n| + (|u_n| >> (p - 2)) + 1) 2^ue_n, as
# |t| q^n < |u_n| (1 + 2^(2 - p)) 2^ue_n.  Once 2 B_n < n + 1 it stays so:
# |u_(n+1)| has at least p + G - 1 bits and is at most q |u_n| 2^s + 1, so
# B_(n+1) < B_n (1 + 2^(3 - p - G)) <= B_n (1 + 2^-15) at every p >= 2,
# while n + 2 >= (n + 1)(1 + 2^-15) for n < 2^15; the stop is the one a
# ratio tested at every step gives.  The kernel is thus off by less than
# (4N(N + 1) + 2) P u < 2^33 P u at every p, and a sum of at least
# 2^(_SIGN_BITS - 1) P u has the sign of f(t): a kernel read's sign is
# certified when its tag, p - (peak - bitlen(total) - base), is at least
# _SIGN_BITS (the kernel keeps peak >= bitlen(total) + base; a zero total
# is tagged 1), and _sign_at doubles p, up to 16 times, until it is.
_SIGN_BITS = 34
_PROBE_MAX_TERMS = 2**15
_PROBE_GUARD_BITS = _PROBE_MAX_TERMS.bit_length()

_NEAREST = "n"  # the rounding mode of every context(bits), and of every step here
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


def required_precision(k: int, q) -> int:
    """The default working bits for the k-th zero: log2 of the peak term
    ~ q^(-k(k-1)/2) k^k/k! of the series near x_k, plus 64 guard bits.
    mpf exponents absorb that size; only the cancellation costs bits.
    log2(1/q) comes from q's exact parts: float(q) underflows below ~1e-308."""
    k = _positive_index(k)
    qf = _q_fraction(q)
    return ceil(k * (k - 1) / 2 * (log2(qf.denominator) - log2(qf.numerator)) + k * log2(k)) + 64


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
        if mag <= peak - p:
            lhs = (abs(u) + (abs(u) >> (p - 2)) + 1) << 1  # 2 B_n < n + 1
            if lhs << ue < n + 1 if ue >= 0 else lhs < (n + 1) << -ue:
                return total, base, peak, n


def _read(X: tuple, qf: Fraction, prec: int, kernel: bool) -> PrecReal:
    """f at the raw mpf X at prec bits, tagged prec minus the bits lost
    below the peak; the one reader of f.  With `kernel` set it is
    _probe_sum's sum rounded to prec bits, its sign certified when the tag
    is at least _SIGN_BITS (_sign_at), and a kernel that gives up at
    _PROBE_MAX_TERMS terms is a BracketError.  Otherwise it is _f_raw at q
    rounded to prec bits, the golden route (eval_f and the Newton below
    the ladder), where a q that rounds to 1 is a ValueError."""
    if kernel:
        probe = _probe_sum(X, qf, prec)
        if probe is None:
            raise BracketError(
                f"the kernel for f at x={to_str(X, 20)}, q={qf} gives up at "
                f"{_PROBE_MAX_TERMS} terms at {prec} bits"
            )
        total, base, peak, _ = probe
        man, exp = _round(abs(total), base, prec)
        lost = peak - total.bit_length() - base if total else prec
        man, tag = (man if total > 0 else -man), max(1, prec - lost)
    else:
        Q = _round_fraction(qf, prec)
        if Q == fone:
            raise ValueError("q must lie in (0, 1)")  # q rounds to 1 at prec bits
        man, exp, tag = _f_raw(X, Q, prec)
    return _tagged(from_man_exp(man, exp), prec, tag)


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


def eval_f(x, q, precision_bits: int) -> PrecReal:
    """Evaluate f(x) at the given working precision: _read with the kernel off.

    q is checked as every entry point checks it (_q_fraction) and rounded
    to precision_bits as every Fraction is (_round_fraction), so a float q
    is read as its exact Fraction; a q that rounds to 1 is a ValueError.
    x may be an mpf or PrecReal, an int or float (each read exactly), a
    Fraction (rounded as q is) or a string (read at precision_bits); any
    other x, or a non-finite one, is a ValueError.  The result is tagged
    the working precision minus the bits lost to cancellation, 1 bit when
    nothing survives, so sign-probing callers can treat it as noise.
    """
    precision_bits = _positive_index(precision_bits, "working precision in bits", 4)
    qf = _q_fraction(q)
    X = _raw(x, precision_bits)
    if X is None:
        raise ValueError("x must be real")
    return _read(X, qf, precision_bits, False)


def _f_raw(X: tuple, Q: tuple, prec: int) -> tuple[int, int, int]:
    """eval_f's integer loop on raw mpfs x and q (0 < q < 1) at prec bits:
    (man, exp, tag) with f(x) = man 2^exp, man signed, and tag its bits.
    A non-finite x is a ValueError.

    Term n + 1 is term n times x q^n/(n + 1).  The loop stops once a term
    is below 2^-prec times the largest magnitude seen and then the ratio
    |x| q^n/(n + 1) is under 1/2; that ratio is a chain of monotone
    roundings of a decreasing sequence, so once under 1/2 it stays there.
    Term, total and peak are each an int mantissa times a power of two.
    Each step (the products by x and by q^n, the quotient by n + 1, the
    sum and the ratio) is formed exactly, or as a quotient with a sticky
    bit, and rounded once to prec bits, half to even, as every mpf
    operation in a round-to-nearest context rounds: the result is bit for
    bit that of the mpf operators in the same order.  Of two summands
    more than prec + 4 bits apart in magnitude the sum is the larger, so
    a tiny x builds no shift as long as its exponent.  Compares with the
    peak are exact, bit lengths first.  The powers q^n come from a table
    shared by every call at the same q and precision."""
    if X in (finf, fninf, fnan):
        raise ValueError("x must be finite")
    qpows = _q_powers(Q, prec)
    x_neg, xm, xe, _ = X
    if not xm:
        return 1, 0, prec  # f(0) = 1
    am, ae = _round(xm, xe, prec)  # |x| at prec, for the ratio
    tm, te = 1, 0  # |term| = tm 2^te; the term is negative when x is and n is odd
    sm, se = 1, 0  # the running total: sm 2^se, sm signed
    pm, pe = 1, 0  # the peak of |term| and |total|: pm 2^pe
    peak_mag = 1  # pm.bit_length() + pe, so most compares need no call
    n = 0
    while True:
        if len(qpows) <= n + 1:
            _extend_q_powers(qpows, Q, prec, n + 1)
        tm, te = _round(tm * xm, te + xe, prec)
        qm, qe = qpows[n]
        tm, te = _round(tm * qm, te + qe, prec)
        n += 1
        tm, te = _divide(tm, te, n, prec)
        mag = tm.bit_length() + te
        # total += term, rounded once; of two operands more than prec + 4
        # bits apart in magnitude the smaller is below half a unit of the
        # larger, which the sum rounds back to
        tv = -tm if x_neg and n & 1 else tm
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
        # stop once |term| <= 2^-prec peak and then |x| q^n/(n + 1) < 1/2
        if mag <= peak_mag - prec and not _exceeds(tm, te, pm, pe - prec):
            qm, qe = qpows[n]
            rm, re = _round(am * qm, ae + qe, prec)
            rm, re = _divide(rm, re, n + 1, prec)
            if rm.bit_length() + re <= -1:  # rm 2^re < 1/2
                break
    if not sm:
        lost = prec
    else:
        lost = max(0, peak_mag - sm.bit_length() - se)
    return sm, se, max(1, prec - lost)


def _sign(value: PrecReal) -> int:
    return mpf_sign(value._mpf_)


def _asymptotic_guess(k: int, qf: Fraction, prec: int, bits: int) -> tuple:
    """-k q^(1-k) (1 + C_1(q)/k^2 + C_2(q)/k^3) as a raw mpf, each step
    rounded to nearest at prec bits, the C_i read at `bits`."""
    N = _NEAREST
    corr, kk = fone, from_int(k, prec, N)
    for i in (1, 2):
        ci = coefficient_value(i, qf, SERIES_TRUNC, bits)._mpf_
        corr = mpf_add(corr, mpf_mul(ci, mpf_pow_int(kk, -1 - i, prec, N), prec, N), prec, N)
    qp = mpf_pow_int(_round_fraction(qf, prec), 1 - k, prec, N)
    return mpf_mul(mpf_mul(mpf_neg(kk, prec, N), qp, prec, N), corr, prec, N)


def _around(x: tuple, d: tuple, prec: int) -> tuple:
    """x (1 + d) and x (1 - d), each step rounded to nearest at prec bits."""
    up, down = mpf_add(d, fone, prec, _NEAREST), mpf_sub(fone, d, prec, _NEAREST)
    return mpf_mul(x, up, prec, _NEAREST), mpf_mul(x, down, prec, _NEAREST)


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
        if dfx.precision_bits <= 1:
            break
        step = mpf_div(fx._mpf_, dfx._mpf_, prec, _NEAREST)
        new = mpf_sub(x, step, prec, _NEAREST)
        _, rm, re, _ = rel = mpf_div(mpf_abs(step), mpf_abs(new), prec, _NEAREST)
        steps.append(log2(rm) + re if rm else -inf)
        done = mpf_lt(rel, target) or fx.precision_bits <= 8
        if done and below < prec:
            return x, fx
        x = new
        if done:
            break
    return x, None


def _sign_at(X: tuple, qf: Fraction, bits: int) -> tuple[int, int]:
    """f's certified sign at the raw mpf X and the bits that certified it:
    the first kernel read at bits, 2 bits, ..., 16 bits tagged at least
    _SIGN_BITS (the comment at the constants); (0, bits) when none is."""
    for p in (bits, 2 * bits, 4 * bits, 8 * bits, 16 * bits):
        f = _read(X, qf, p, True)
        if f.precision_bits >= _SIGN_BITS:
            return _sign(f), p
    return 0, bits


def _certify(guess: tuple, k: int, qf: Fraction, p: int, bits: int) -> tuple | None:
    """Newton from the guess, a raw mpf at `bits`, on the kernel at p bits
    to a zero x; when the certified signs (_sign_at from p) are (-1)^k at
    x (1 + 2^-(p // 2)) and (-1)^(k - 1) at x (1 - 2^-(p // 2)), a sign
    change of x_k's parity, those two raw points at `bits` followed by
    the raw x and the log2 steps that located it; else None."""
    steps: list[float] = []
    located, _ = _newton(guess, qf, p, p, steps, p.bit_length() + 8, True)
    points = _around(located, mpf_pow_int(ftwo, -(p // 2), bits, _NEAREST), bits)
    for t, want in zip(points, ((-1) ** k, (-1) ** (k - 1))):
        if _sign_at(t, qf, p)[0] != want:
            return None
    return (*points, located, steps)


def _bisect(a: int, b: int, slo: int, coarse: int, prec: int, sign) -> int:
    """The bisection of [a, b] (ints in units of a grid 2^F, a < b < 0,
    f(a) of sign slo) while b - a exceeds `coarse`, each midpoint
    (a + b)/2 with a + b rounded to nearest at prec bits; returns the
    midpoint of the last bracket, or the first midpoint t that sign(t)
    reads as 0.  These are the bytes of that loop on mpfs at prec bits
    when 2^F lies at or below the last bit of a, of b and of every
    midpoint, |a + b| has at least prec + 2 bits and b - a at most prec
    (so the mpf loop's rounded gap is exact), as find_zero's grid ensures.
    find_zero bisects only below the Newton ladder, at the budgets whose
    bytes the README goldens pin."""

    def mid() -> int:
        m, shift = _round(-(a + b), 0, prec)  # shift >= 2: a + b has at least prec + 2 bits
        return -(m << (shift - 1))

    while b - a > coarse:
        t = mid()
        s = sign(t)
        if s == 0:
            return t
        if s == slo:
            a = t
        else:
            b = t
    return mid()


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
    x (1 - 2^-(p // 2)), a sign change of x_k's parity (_sign_at from p).

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
    Either failure raises BracketError.  Bracket, bands and bisection run
    on one integer grid 2^F.  A point out to a factor 1/q beyond a
    certificate point, compared exactly, has the certificate's sign, as
    consecutive zeros lie more than that apart (scan_zeros); any other
    sign is _sign_at's from B; one that no read certifies is 0, which
    widens the bracket or ends the bisection at that midpoint.
    Bisection on the grid (_bisect) narrows to ~60 bits (at most B - 8),
    Newton on eval_f's loop at B finishes from its midpoint until a step
    is below 2^(4 - B) relative, and the residual is one more evaluation
    at B.  Either route leaves x correct to within about 8 bits of B.
    """
    k = _positive_index(k)
    qf = _q_fraction(q)
    bits = required_precision(k, qf) if precision_bits is None else precision_bits
    bits = _positive_index(bits, "working precision in bits", 8)
    N = _NEAREST  # every step below rounds to nearest at B bits, as context(B) does

    rungs = [bits]
    while bits >= _LADDER_MIN_BITS and rungs[-1] // 2 + 32 >= _LADDER_BASE_BITS:
        rungs.append(rungs[-1] // 2 + 32)
    ladder = len(rungs) > 1
    guess = _asymptotic_guess(k, qf, bits, _LADDER_BASE_BITS if ladder else bits)
    delta_max = mpf_div(fone, from_int(4 * k), bits, N)
    no_change = (
        f"no sign change within relative half-width 1/(4k) around the "
        f"order-2 guess for k={k}, q={qf}"
    )
    if not mpf_lt(guess, fzero):  # f > 0 on [0, inf): no bracket around it changes sign
        raise BracketError(no_change)

    cert = _certify(guess, k, qf, rungs[-1] if ladder else min(bits, _LADDER_BASE_BITS), bits)
    if ladder:  # the certificate is the bracket, and Newton climbs from its x
        far, near = _around(guess, delta_max, bits)
        if not (cert and mpf_le(far, cert[0]) and mpf_le(cert[1], near)):
            raise BracketError(no_change)
        lo, hi, x, steps = cert
    else:  # the bracket and the bisection that the README goldens pin
        # one grid 2^F for bracket, bands and bisection: each bracket end
        # and midpoint has |t| > |guess|/2 and at most B bits, so its last
        # bit lies at or above F
        _, _, ge, gbc = guess
        F = ge + gbc - bits - 2

        def grid(t: tuple) -> int:  # raw mpf t in units of 2^F: exact on the grid, else floored
            s, m, e, _ = t
            v = -m if s else m
            return v << (e - F) if e >= F else v >> (F - e)

        if cert:  # the bands [c_in/q, c_out] and [c_in, q c_out], exact on the grid
            F = min(F, cert[0][2], cert[1][2])
            c_out, c_in = grid(cert[0]), grid(cert[1])
            beyond = -(-c_in * qf.denominator // qf.numerator)
            within = c_out * qf.numerator // qf.denominator

        def sign(t: int) -> int:
            if cert and beyond <= t <= c_out:
                return (-1) ** k
            if cert and c_in <= t <= within:
                return (-1) ** (k - 1)
            return _sign_at(from_man_exp(t, F), qf, bits)[0]

        delta = mpf_pow_int(from_int(k, bits, N), -4, bits, N)
        while True:
            delta = delta_max if mpf_lt(delta_max, delta) else delta  # min(delta, delta_max)
            lo, hi = _around(guess, delta, bits)  # lo the more negative endpoint
            slo = sign(grid(lo))
            if slo * sign(grid(hi)) < 0:
                break
            if not mpf_lt(delta, delta_max):
                raise BracketError(no_change)
            delta = mpf_mul_int(delta, 2, bits, N)
        if slo != (-1) ** k:
            raise BracketError(
                f"the sign change around the order-2 guess for k={k}, q={qf} is "
                f"not x_k: f past it has the sign (-1)^(k+1)"
            )
        # bisection to roughly 60 correct bits, or 8 below the working
        # precision when that is lower (rounded midpoints get no closer)
        scale = mpf_pow_int(ftwo, -min(60, bits - 8), bits, N)
        coarse = mpf_mul(mpf_abs(guess, bits, N), scale, bits, N)
        x = from_man_exp(_bisect(grid(lo), grid(hi), slo, grid(coarse), bits, sign), F)
        steps = []

    # Newton to convergence at B, on the ladder after one step on each rung below
    for p, below in reversed(list(zip(rungs, rungs[1:])) or [(bits, bits)]):
        x, fx = _newton(x, qf, p, below, steps, p.bit_length() + 8 if p == bits else 1, ladder)
    x = _tagged(x, bits)

    residual = abs(eval_f(x, qf, bits) if fx is None else fx)
    return ZeroResult(
        k=k,
        q=qf,
        x=x,
        bracket=(_tagged(lo, bits), _tagged(hi, bits)),
        residual=residual,
        precision_bits=bits,
        newton_rel_steps=tuple(steps),
    )


def _past_zero(x, qf: Fraction) -> float:
    """|x|/q rounded down to a float, from the exact parts of q (so q below
    the float range works; a point past the float range comes back inf)."""
    num = mpf_mul(mpf_abs(_raw(x, 53)), from_int(qf.denominator))  # exact
    return to_float(mpf_div(num, from_int(qf.numerator), 53, "d"))


def _refine_sign_change(a, b, qf: Fraction, bits: int) -> tuple:
    """Narrow the sign change of f between grid points a < b < 0 by
    safeguarded Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971)
    until the bracket is at most |a| 2^(8 - bits) wide, or until f comes
    back at noise level; returns (x, f(x)) at the last iterate, PrecReals
    at `bits`.  Every step rounds to nearest at `bits` on raw mpfs, and f
    is read at each point off the integer kernel (_read).

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
    N = _NEAREST

    def half(t: tuple) -> tuple:
        return mpf_div(t, ftwo, bits, N)

    a, b = _raw(a, bits), _raw(b, bits)
    fa, fb = _read(a, qf, bits, True), _read(b, qf, bits, True)
    sa = _sign(fa)
    if sa * _sign(fb) >= 0:
        raise BracketError(
            f"the sign change of f between {to_str(a, 8)} and {to_str(b, 8)} "
            f"does not survive at {bits} bits"
        )
    wa, wb = fa._mpf_, fb._mpf_  # the ends' secant weights: f, halved while kept
    moved = 0  # the end the last step replaced: -1 for a, 1 for b
    misses = 0  # secant steps in a row that failed to halve the bracket
    floor = mpf_pow_int(ftwo, 8 - bits, bits, N)  # the bracket's least relative width
    x, fx = a, fa
    while mpf_lt(mpf_mul(mpf_abs(a, bits, N), floor, bits, N), width := mpf_sub(b, a, bits, N)):
        step = mpf_div(mpf_mul(wb, width, bits, N), mpf_sub(wb, wa, bits, N), bits, N)
        x = mpf_sub(b, step, bits, N)
        secant = misses < 3 and mpf_lt(a, x) and mpf_lt(x, b)
        if not secant:
            x = half(mpf_add(a, b, bits, N))
        fx = _read(x, qf, bits, True)
        s = _sign(fx)
        if s == 0 or fx.precision_bits <= 1:
            break
        if s == sa:
            a, wa = x, fx._mpf_
            if moved == -1:
                wb = half(wb)
            moved = -1
        else:
            b, wb = x, fx._mpf_
            if moved == 1:
                wa = half(wa)
            moved = 1
        misses = misses + 1 if secant and mpf_lt(half(width), mpf_sub(b, a, bits, N)) else 0
    return _tagged(x, bits), fx


def scan_zeros(q, x_min, count: int) -> list[ZeroResult]:
    """Find the first `count` zeros by scanning a geometric grid.

    An oracle of a grid plus safeguarded Illinois refinement, a route
    independent of find_zero's: no guess, no certificate, no Newton and
    no numeric C_i.  Both read f off the one integer kernel, whose error
    bound is proved above _probe_sum; the scan reads it through _read.
    The grid runs from -1 toward x_min (f has no zeros in [-1, 0]: the
    alternating series at x = -1 is positive for every q).
    Consecutive zeros lie a factor above 1/q apart, x_(k+1) < x_k/q < x_k:
    f'(x) = f(qx), and as f has order zero and only real simple zeros,
    f'/f = sum_j 1/(x - x_j) is positive on (x_1, 0) and falls strictly
    from +inf to -inf on each (x_(k+1), x_k), so the zeros x_j/q of f'
    lie one in each such interval, in order.  So one grid pass, of
    _SCAN_POINTS_PER_DECADE points per decade and each step capped at
    |x|/q rounded down (binding only for q above 10^(-1/64)), has no cell
    wider than a factor 1/q, hence none with two zeros; and as f keeps
    one sign from x_k to x_k/q, after each zero the grid resumes at
    |x_k|/q, rounded down, with the sign read just past x_k.  Each grid
    sign is _sign_at's from the bits that certified the point before (from
    required_precision(2, q) at x = -1); an uncertified point keeps the
    sign before it.  Fewer than
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
    bits = required_precision(2, qf)  # f(-1) is about q/2 for a tiny q
    prev = -pos
    prev_sign, bits = _sign_at(_raw(prev, bits), qf, bits)
    while len(found) < count and pos < abs(x_min):
        pos = min(pos * step, _past_zero(pos, qf), abs(x_min))
        cur = -pos
        s, bits = _sign_at(_raw(cur, bits), qf, bits)
        if s != 0 and prev_sign != 0 and s != prev_sign:
            k_found = len(found) + 1
            zbits = required_precision(k_found, qf)
            x, fx = _refine_sign_change(cur, prev, qf, zbits)
            found.append(
                ZeroResult(
                    k=k_found,
                    q=qf,
                    x=x,
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
    base = Fraction(k) + _rational(a, "a") / k

    def u(n: int) -> Fraction:
        return base**n / factorial(n) * qf ** (-(n * (2 * k - n - 1)) // 2)

    return [u(2 * k - 1 - j) - u(j) for j in range(k)]
