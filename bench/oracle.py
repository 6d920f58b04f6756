"""Independent checks of the numeric outputs.

Nothing here calls the library's numerics (eval_f, coefficient_value,
eval_series_numeric).  Zeros are certified by a plain mpmath term loop of
f(x) = sum x^n q^(n(n-1)/2)/n! at twice the zero's precision tag plus 64
bits, with a rounding-error bound on each sign.  Reference C_i(q) values
come from the exact reduced polynomial (checked byte for byte by the coeff
workload) evaluated at Lambert-series values of A_0, A_1, A_2:

    A_0 = sum d q^d/(1-q^d)
    A_1 = sum d^2 q^d/(1-q^d)^2
    A_2 = sum d^3 q^d (1+q^d)/(1-q^d)^3
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor

from mpmath.ctx_mp import MPContext

REL_TOL = 1e-6  # residual and ratio rows against their recomputation
GUARD_BITS = 32  # the bracket is x (1 +- 2^-(tag - GUARD_BITS))
ROW_PREC = 192  # bits for recomputed residual and ratio rows


def _ctx(prec: int) -> MPContext:
    ctx = MPContext()
    ctx.prec = prec
    return ctx


def _frac(ctx: MPContext, r: Fraction):
    return ctx.mpf(r.numerator) / r.denominator


def f_sign(x, q: Fraction, prec: int) -> int:
    """Sign of f(x) at `prec` bits, or 0 when rounding could flip it."""
    ctx = _ctx(prec)
    x = ctx.mpf(x)
    qv = _frac(ctx, q)
    total = term = absum = ctx.mpf(1)
    qpow = ctx.mpf(1)  # q^(n-1) before the update below
    n = 0
    while True:
        n += 1
        term = term * x * qpow / n
        qpow *= qv
        total += term
        absum += abs(term)
        ratio = abs(x) * qpow / (n + 1)  # |t_(n+1) / t_n|, falling from here on
        if ratio < 0.5 and abs(term) < absum * ctx.ldexp(1, -prec):
            break
    # each term carries <= 3n roundings, the sum n more; the tail is <= |term|
    err = absum * (4 * n + 4) * ctx.ldexp(1, -prec) + abs(term)
    if abs(total) <= err:
        return 0
    return 1 if total > 0 else -1


def check_zero(z, k: int, q: Fraction) -> str | None:
    """Certify that z.x is the k-th zero to within 2^-(tag-32) relative.

    f(0) = 1 and the zeros are simple, negative and ordered by modulus, so
    f has sign (-1)^(k-1) just inside x_k and (-1)^k just outside.  That
    fixes the parity of k; the window q < |x| / (k q^(1-k)) < 1/q, whose
    ends lie about half-way to the neighbouring zeros, fixes the rest.
    """
    if z.k != k:
        return f"k={k}: result labelled k={z.k}"
    tag = z.x.precision_bits
    x = z.x.value
    if not x < 0:
        return f"k={k}: x={x} is not negative"
    lead = k * float(q) ** (1 - k)
    ratio = float(-x) / lead
    if not float(q) < ratio < 1 / float(q):
        return f"k={k}: |x|/(k q^(1-k)) = {ratio:.4g} outside (q, 1/q)"
    prec = 2 * tag + 64
    ctx = _ctx(prec)
    xv = ctx.mpf(x)
    eps = ctx.ldexp(1, -(tag - GUARD_BITS))
    inner = f_sign(xv * (1 - eps), q, prec)
    outer = f_sign(xv * (1 + eps), q, prec)
    want = 1 if k % 2 else -1
    if inner != want or outer != -want:
        return f"k={k}: f signs ({inner}, {outer}) around x at {tag}-{GUARD_BITS} bits, want ({want}, {-want})"
    return None


def check_scan(found, q: Fraction, count: int) -> str | None:
    if len(found) != count:
        return f"scan returned {len(found)} zeros, expected {count}"
    for k, z in enumerate(found, start=1):
        why = check_zero(z, k, q)
        if why:
            return "scan " + why
    return None


@lru_cache(maxsize=8)
def a012(q: Fraction, prec: int) -> tuple:
    """A_0, A_1, A_2 at q to `prec` bits from their Lambert series.

    Past d, the ratio of consecutive terms of each series is at most
    rho = (1 + 1/d)^3 q, so the tail is below term rho / (1 - rho).
    """
    ctx = _ctx(prec + 16)
    qv = _frac(ctx, q)
    tol = ctx.ldexp(1, -(prec + 8))
    sums = [ctx.mpf(0)] * 3
    qd = ctx.mpf(1)
    d = 0
    while True:
        d += 1
        qd *= qv
        w = qd / (1 - qd)
        terms = (d * w, d * d * w / (1 - qd), d**3 * w * (1 + qd) / (1 - qd) ** 2)
        sums = [s + t for s, t in zip(sums, terms)]
        rho = (1 + ctx.mpf(1) / d) ** 3 * qv
        if rho < 1 and all(t * rho / (1 - rho) < tol * s for s, t in zip(sums, terms)):
            return tuple(sums)


def c_reference(i: int, q: Fraction, prec: int):
    """C_i(q) to about `prec` bits: the reduced polynomial at Lambert A-values."""
    from defexp.symcoeff import c_n, reduce_to_A012

    work = prec + 64  # room for cancellation between the polynomial's terms
    ctx = _ctx(work)
    avals = [ctx.mpf(a) for a in a012(q, work)]
    total = ctx.mpf(0)
    for exps, c in reduce_to_A012(c_n(i)).canonical_terms():
        term = _frac(ctx, c)
        for a, e in zip(avals, exps):
            term *= a**e
        total += term
    return total


def _rel_diff(got, ref) -> float:
    return float(abs(got - ref) / abs(ref))


def check_residuals(profile, q: Fraction, n: int, table: dict, ks) -> str | None:
    """Recompute r_n(k) from the checked zeros with reference C_i values."""
    ks = list(ks)
    if [row[0] for row in profile.rows] != ks:
        return f"residual n={n}: rows for k={[row[0] for row in profile.rows]}"
    ctx = _ctx(ROW_PREC)
    qv = _frac(ctx, q)
    cs = [ctx.mpf(c_reference(i, q, ROW_PREC)) for i in range(1, n + 1)]
    for k, x, r in profile.rows:
        if x.to_decimal() != table[k].x.to_decimal():
            return f"residual n={n} k={k}: x differs from the zero table"
        kk = ctx.mpf(k)
        t = -ctx.mpf(table[k].x.value) / (kk * qv ** (1 - k)) - 1
        for i, c in enumerate(cs, start=1):
            t -= c * kk ** (-1 - i)
        ref = t * kk ** (n + 2)
        if _rel_diff(ctx.mpf(r.value), ref) > REL_TOL:
            return f"residual n={n} k={k}: r={r.to_decimal()[:20]} vs {ctx.nstr(ref, 15)}"
    return None


def check_ratios(rows, q: Fraction, table: dict, ks) -> str | None:
    """Recompute (q x_(k+1)/x_k - 1 - 1/k) k^2 from the checked zeros."""
    ks = list(ks)
    if [k for k, _ in rows] != ks:
        return f"ratio rows for k={[k for k, _ in rows]}"
    ctx = _ctx(ROW_PREC)
    qv = _frac(ctx, q)
    for k, dev in rows:
        xa = ctx.mpf(table[k].x.value)
        xb = ctx.mpf(table[k + 1].x.value)
        ref = (qv * xb / xa - 1 - ctx.mpf(1) / k) * k * k
        if _rel_diff(ctx.mpf(dev.value), ref) > REL_TOL:
            return f"ratio k={k}: {dev.to_decimal()[:20]} vs {ctx.nstr(ref, 15)}"
    return None


def coefficient_honesty(calls) -> tuple[int, int]:
    """(correct bits, claimed bits) of the worst coefficient_value result.

    `calls` holds (i, q, claimed value) triples; a value is correct to b bits
    when its relative error against the reference is below 2^-b.  The
    reference is computed 32 bits beyond the largest claim.
    """
    if not calls:
        return 0, 0
    prec = max(v.precision_bits for _, _, v in calls) + 32
    ctx = _ctx(prec)
    refs = {}
    worst = None
    for i, q, v in calls:
        if (i, q) not in refs:
            refs[i, q] = c_reference(i, q, prec)
        ref = refs[i, q]
        err = abs(ctx.mpf(v.value) - ref) / abs(ref)
        bits = v.precision_bits if err == 0 else min(v.precision_bits, floor(float(-ctx.log(err, 2))))
        if worst is None or bits < worst[0]:
            worst = (bits, v.precision_bits)
    return worst
