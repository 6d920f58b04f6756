"""Series evaluation, both zero finders, and the paired-term gap check."""

import functools
import json
import sys
import threading
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import factorial, floor, inf, isfinite, lgamma, log, log2

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp, mpf_mul

import defexp.zeros as zeros
from defexp.cli import main
from defexp.precreal import PrecReal, context, to_mpf
from defexp.qseries import a_series, coefficient_value, eval_series_numeric
from defexp.validate import ratio_check, residual_profile, zero_table
from defexp.zeros import (
    BracketError,
    ZeroResult,
    _asymptotic_guess,
    _sign,
    eval_f,
    find_zero,
    paired_term_gaps,
    required_precision,
    scan_zeros,
)

Q_HALF = Fraction(1, 2)
Q_TINY = Fraction(1, 10**40)
Q_9_19 = Fraction(9, 19)


def test_required_precision_pinned_values():
    assert required_precision(20, Q_HALF) == 341
    assert required_precision(1, Q_HALF) == 64
    assert required_precision(30, Q_HALF) == 647


def test_required_precision_accepts_string_and_float():
    """An mpf or PrecReal q is read exactly, as every exact binary q is."""
    assert required_precision(20, "1/2") == 341
    assert required_precision(20, 0.5) == 341
    assert required_precision(20, mpf("0.5")) == 341
    assert required_precision(20, PrecReal(0.5, 53)) == 341


def test_required_precision_takes_q_below_the_float_range():
    """float(1e-400) is 0.0; the budget reads log2(1/q) off the exact parts."""
    assert required_precision(10, Fraction(1, 10**400)) == 59892


def test_find_zero_brackets_a_sign_change_below_the_float_range():
    q = Fraction(1, 10**400)
    z = find_zero(2, q)
    lo, hi = z.bracket
    fl = eval_f(lo, q, z.precision_bits)
    fh = eval_f(hi, q, z.precision_bits)
    assert (fl.value > 0) != (fh.value > 0)


def test_required_precision_grows_with_k_and_shrinking_q():
    assert required_precision(25, Q_HALF) > required_precision(20, Q_HALF)
    assert required_precision(20, Fraction(1, 10)) > required_precision(20, Q_HALF)


def test_eval_f_at_origin_is_one():
    v = eval_f(0, Q_HALF, 64)
    assert v.value == 1
    assert v.precision_bits == 64


def test_eval_f_matches_exact_fraction_sum():
    q = Fraction(1, 3)
    x = Fraction(-3)
    exact = sum(x**n * q ** (n * (n - 1) // 2) / factorial(n) for n in range(60))
    got = eval_f(x, q, 200)
    ctx = context(200)
    err = abs(got.value - ctx.mpf(exact.numerator) / exact.denominator)
    assert err < ctx.mpf(2) ** (-190)


@pytest.mark.parametrize("q", [Fraction(1, 10), Q_HALF, Fraction(9, 10)])
def test_eval_f_positive_at_minus_one(q):
    # the alternating series pairs off positively there; the scanner
    # starts its grid at -1 on the strength of this
    assert eval_f(-1, q, 64).value > 0


def test_eval_f_functional_equation_derivative():
    """Central difference of f approximates f(qx), the exact derivative."""
    bits = 256
    ctx = context(bits)
    q = Fraction(2, 5)
    x0 = ctx.mpf(-7) / 3
    h = ctx.mpf(2) ** (-40)
    diff = (eval_f(x0 + h, q, bits).value - eval_f(x0 - h, q, bits).value) / (2 * h)
    there = eval_f(to_mpf(ctx, q) * x0, q, bits).value
    assert abs((diff - there) / there) < ctx.mpf(2) ** (-60)


def test_eval_f_reports_cancellation_loss():
    v = eval_f(-30, Fraction(99, 100), 300)
    assert 0 < v.precision_bits < 300
    assert v.value > 0


def test_eval_f_returns_one_bit_noise_when_budget_is_consumed():
    z = find_zero(6, Q_HALF)
    noise = eval_f(z.x, Q_HALF, 48)
    assert noise.precision_bits == 1


def test_eval_f_rejects_bad_parameters():
    """x is read without an mpmath context: a complex string or a Decimal
    is a ValueError too, with no mpmath exception escaping."""
    with pytest.raises(ValueError):
        eval_f(-1, Fraction(3, 2), 64)
    with pytest.raises(ValueError):
        eval_f(-1, Q_HALF, 2)
    for x in (1j, "x+1j", Decimal("1.5")):
        with pytest.raises(ValueError, match="x must be real"):
            eval_f(x, Q_HALF, 64)


@pytest.mark.parametrize(
    "q",
    ["1/0", float("inf"), float("nan"), "abc", "2", None, 1j, mpf("inf"), mpf("nan"), mpf(2)],
    ids=repr,
)
def test_a_q_that_is_no_number_in_the_unit_interval_is_a_value_error(q):
    """One q check for every entry point, the numeric C_i included: 1/0
    and inf are ValueErrors too, not ZeroDivisionError or OverflowError,
    and None and 1j not Fraction's or mpmath's TypeError.  An mpf q is read
    exactly, so its inf and nan are no finite rational and 2 lies outside.
    The same values as paired_term_gaps' a are ValueErrors naming a (inf
    was an OverflowError, nan Fraction's message), and so is None; a is
    read by the same reader, so 1/0 names its zero denominator and 2 is a
    fine a, as an mpf too."""
    calls = (
        lambda: find_zero(10, q),
        lambda: required_precision(10, q),
        lambda: scan_zeros(q, -100, 1),
        lambda: paired_term_gaps(10, q, 0),
        lambda: eval_f(-1, q, 64),
        lambda: eval_series_numeric(a_series(0, 5), q, 53),
        lambda: coefficient_value(1, q, 60, 53),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^q "):
            call()
    a = None if q in ("2", mpf(2)) else q
    why = "has a zero denominator" if q == "1/0" else "must be a finite rational number"
    with pytest.raises(ValueError, match=f"^a {why}, got "):
        paired_term_gaps(10, Q_HALF, a)


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan"), "inf", "nan"])
def test_eval_f_rejects_non_finite_x(x):
    """With a NaN the ratio test is never true, with an infinity the
    ratio stays infinite: the series loop would never end."""
    with pytest.raises(ValueError, match="x must be finite"):
        eval_f(x, Q_HALF, 64)


def _reference_eval_f(x, q, precision_bits: int) -> PrecReal:
    """eval_f as it was written on mpf operators, kept verbatim as the
    reference the integer kernel must reproduce bit for bit, but for q: a
    string or float q is read as its Fraction, as eval_f reads it."""
    if precision_bits < 4:
        raise ValueError("precision must be at least 4 bits")
    ctx = context(precision_bits)
    xv = to_mpf(ctx, x)
    qv = to_mpf(ctx, Fraction(q) if isinstance(q, (str, float)) else q)
    if not 0 < qv < 1:
        raise ValueError("q must lie in (0, 1)")
    one = ctx.mpf(1)
    term = one
    total = one
    peak = one
    qpow = one
    floor = ctx.mpf(2) ** (-precision_bits)
    n = 0
    while True:
        term = term * xv * qpow / (n + 1)
        qpow = qpow * qv
        n += 1
        total = total + term
        mag = abs(term)
        if mag > peak:
            peak = mag
        at = abs(total)
        if at > peak:
            peak = at
        ratio = abs(xv) * qpow / (n + 1)
        if ratio < 0.5 and mag <= floor * peak:
            break
    if total == 0:
        lost = precision_bits
    else:
        lost = max(0, ctx.mag(peak) - ctx.mag(total))
    return PrecReal(total, max(1, precision_bits - lost))


KERNEL_QS = [
    Q_HALF,
    Fraction(9, 19),
    Fraction(6, 11),
    Fraction(1, 10),
    Fraction(99, 100),
    Fraction(999, 1000),
    "3/7",
    0.3,
]
KERNEL_BITS = [4, 8, 16, 53, 64, 143, 647, 2189]


def _kernel_points(q, bits: int) -> list:
    """0, positive x, floats, and the ends and midpoint of a relative
    bracket of half-width k^-4 around -k q^(1-k) for k = 10, 25, 40."""
    ctx = context(bits)
    qv = to_mpf(ctx, q if not isinstance(q, str) else Fraction(q))
    points = [0, 3, Fraction(7, 2), 0.1, -0.75, -12.375, 1e3]
    for k in (10, 25, 40):
        guess = -ctx.mpf(k) * qv ** (1 - k)
        delta = ctx.mpf(k) ** -4
        lo, hi = guess * (1 + delta), guess * (1 - delta)
        points += [lo, hi, (lo + hi) / 2]
    return points


def _same(a: PrecReal, b: PrecReal) -> bool:
    return a.value._mpf_ == b.value._mpf_ and a.precision_bits == b.precision_bits


@pytest.mark.parametrize("q", KERNEL_QS, ids=str)
def test_eval_f_kernel_is_bit_identical_to_the_operator_loop(q):
    for bits in KERNEL_BITS:
        for x in _kernel_points(q, bits):
            try:
                want = _reference_eval_f(x, q, bits)
            except ValueError:  # 99/100 rounds to 1 at 4 bits
                with pytest.raises(ValueError, match="q must lie"):
                    eval_f(x, q, bits)
                continue
            assert _same(eval_f(x, q, bits), want), (q, bits, x)


def _edge_cases() -> list:
    """eval_f arguments on each path of the integer loop.  A sum of
    operands more than bits + 4 bits apart in magnitude, with exponents
    more than 100 apart, takes libmp's far-offset shortcut: the total over
    a tiny first term (x = -2^-200, +-1e-1000000000) and a huge first term
    over the total (x = 2^200, +-1e3000).  x = 3 and -12.375 at 4 bits meet
    exact ties (3 at q = 1/2: 4 + 9/4 lies halfway between 6 and 6.5), and
    every point with a term past n = 8 divides by n + 1 = 1, 2, 4, 8 with
    an exact shift and by the other n + 1 with a rounded quotient."""
    tiny = mpf("1e-1000000000")
    groups = [
        ("zero", [(0, q, bits) for q in (Q_HALF, Fraction(1, 10)) for bits in (4, 53, 647)]),
        (
            "tiny",
            [(s * tiny, q, bits) for s in (1, -1) for q in (Q_HALF, "3/7") for bits in (4, 64, 2189)],
        ),
        ("minus-2^-200", [(-(mpf(2) ** -200), q, b) for q in (Q_HALF, Fraction(9, 19)) for b in (4, 8)]),
        ("2^200", [(mpf(2) ** 200, Q_HALF, bits) for bits in (4, 8, 64)]),
        ("1e3000", [(s * mpf("1e3000"), Q_HALF, 64) for s in (1, -1)]),
        ("ties", [(x, q, 4) for x in (3, -12.375) for q in (Q_HALF, Fraction(1, 10))]),
    ]
    return [
        pytest.param(x, q, bits, name == "tiny", id=f"{name}-{i}")
        for name, cases in groups
        for i, (x, q, bits) in enumerate(cases)
    ]


@pytest.mark.parametrize("x, q, bits, timed", _edge_cases())
def test_eval_f_kernel_edge_paths_are_bit_identical(x, q, bits, timed):
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    start = time.perf_counter()
    got = eval_f(x, q, bits)
    took = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    if not tracing:
        tracemalloc.stop()
    assert _same(got, _reference_eval_f(x, q, bits)), (x, q, bits)
    if timed:  # the far-offset shortcut builds no shift as long as the exponent
        assert took < 0.5, took
        assert peak - before < 2**20, peak - before


@st.composite
def _dyadic_points(draw):
    """(x, q, bits) with x = m 2^e exact, m up to bits + 20 bits, |e| <= 400,
    and at most about 2,000 terms (the bound a q near 1 puts on |x|)."""
    bits = draw(st.integers(4, 700))
    man = draw(st.integers(1, 2 ** (bits + 20) - 1)) * draw(st.sampled_from([1, -1]))
    exp = draw(st.integers(-400, 400))
    q = draw(st.sampled_from(KERNEL_QS))
    assume((man.bit_length() + exp) / -log2(float(Fraction(q))) < 2000)
    return context(bits + 20).make_mpf(from_man_exp(man, exp)), q, bits


@settings(max_examples=200, deadline=None)
@given(point=_dyadic_points())
def test_eval_f_kernel_matches_the_operator_loop_on_dyadic_points(point):
    x, q, bits = point
    try:
        want = _reference_eval_f(x, q, bits)
    except ValueError:  # 99/100 rounds to 1 at 4 bits
        with pytest.raises(ValueError, match="q must lie"):
            eval_f(x, q, bits)
        return
    got = eval_f(x, q, bits)
    assert (got.value._mpf_, got.precision_bits) == (want.value._mpf_, want.precision_bits)


def _zero_fields(z) -> tuple:
    parts = (z.x, *z.bracket, z.residual)
    return (
        z.k,
        z.q,
        z.precision_bits,
        tuple((p.value._mpf_, p.precision_bits) for p in parts),
        z.newton_rel_steps,
    )


def _check_rows(zs: list) -> list:
    """The residual profiles n = 0..3 and the ratio row k = 10 at q = 7/15
    off a zero table, as raw tuples."""
    q = Fraction(7, 15)
    table = {z.k: z for z in zs}

    def raw(p: PrecReal) -> tuple:
        return p.value._mpf_, p.precision_bits

    rows = [
        (k, raw(x), raw(r))
        for n in range(4)
        for k, x, r in residual_profile(q, n, list(table), zeros=table).rows
    ]
    return rows + [(k, raw(r)) for k, r in ratio_check(q, 10, 10, zeros=table)]


def _reference_f_raw(X: tuple, Q: tuple, bits: int) -> tuple:
    """_f_raw on the operator loop, for raw mpfs x and q."""
    ctx = context(bits)
    v = _reference_eval_f(ctx.make_mpf(X), ctx.make_mpf(Q), bits)
    sign, man, exp, _ = v.value._mpf_
    return -man if sign else man, exp, v.precision_bits


def _nothing_certified(monkeypatch) -> None:
    """_SIGN_BITS above every precision: no kernel read's tag reaches it, so
    no sign is certified and no zero is: find_zero raises BracketError,
    below the ladder as on it."""
    monkeypatch.setattr(zeros, "_SIGN_BITS", 10**6)


def _rungs(bits: int) -> list:
    """The precisions of find_zero's Newton ladder from a budget of `bits`."""
    rungs = [bits]
    while bits >= 648 and rungs[-1] // 2 + 32 >= 128:
        rungs.append(rungs[-1] // 2 + 32)
    return rungs


def test_zero_finders_are_unchanged_on_the_reference_kernel(monkeypatch):
    """Every evaluation of f by _f_raw, eval_f's and the below-ladder
    Newton's alike, on the operator loop.  No sign is read there: bracket
    and bisection signs come from the kernel alone
    (test_uncertified_signs_have_no_fallback), and zeros on the Newton
    ladder and scan_zeros read no _f_raw at all
    (test_bracket_and_bisection_make_no_full_budget_call,
    test_a_kernel_that_gives_up_is_a_bracket_error)."""
    q = Fraction(7, 15)
    ks = (10, 11, 25)
    fast = [find_zero(k, q) for k in ks]
    seen = set()

    def reference(X, Q, bits):
        seen.add(bits)
        return _reference_f_raw(X, Q, bits)

    monkeypatch.setattr(zeros, "_f_raw", reference)
    slow = [find_zero(k, q) for k in ks]
    assert {required_precision(k, q) for k in ks} <= seen
    assert fast == slow
    assert [z.newton_rel_steps for z in fast] == [z.newton_rel_steps for z in slow]
    for a, b in zip(fast, slow):
        assert _zero_fields(a) == _zero_fields(b)
    assert _check_rows(fast) == _check_rows(slow)


def test_q_power_table_is_not_poisoned_across_q_and_precision():
    """Interleaved calls share the per-(q, bits) power tables; each must
    still equal a cold-cache call.  Fraction, string and float spellings
    of one q share a table, and 3/10 and 0.3 (different mpfs) do not.
    The powers of 0.3 round differently at 143 and 647 bits.  Every
    spelling of q, an mpf and a PrecReal among them, is read as its
    Fraction, below 53 bits too."""
    calls = []
    pairs = (
        (Q_HALF, Fraction(3, 8)),
        ("1/2", 0.375),
        (0.5, "3/8"),
        (Fraction(3, 10), 0.3),
        (0.3, "3/10"),
    )
    for q, q_other in pairs:
        for x in (-7.25, Fraction(-181, 3)):
            calls += [(x, q, 143), (x, q, 647), (x, q_other, 143), (x, q, 143)]
    zeros._q_powers.cache_clear()
    warm = [eval_f(*c) for c in calls]
    for c, w in zip(calls, warm):
        zeros._q_powers.cache_clear()
        assert _same(w, eval_f(*c)), c
        assert _same(w, _reference_eval_f(*c)), c
    for x in (-7.25, Fraction(-181, 3), -1):
        for bits in (4, 16, 52, 53, 64, 143):
            assert _same(eval_f(x, 0.3, bits), eval_f(x, Fraction(0.3), bits)), (x, bits)
            assert _same(eval_f(x, "9/19", bits), eval_f(x, Q_9_19, bits)), (x, bits)
            assert _same(eval_f(x, mpf(0.3), bits), eval_f(x, Fraction(0.3), bits)), (x, bits)
            assert _same(eval_f(x, PrecReal(0.5, 53), bits), eval_f(x, Q_HALF, bits)), (x, bits)


def _reference_find_zero(k: int, q, precision_bits=None) -> ZeroResult:
    """find_zero below the Newton ladder with every bracket and bisection
    sign read at the full budget and Newton written on contexts and
    eval_f, the reference that the certified signs and the raw Newton
    steps must reproduce bit for bit.  The residual is read afresh at the
    returned x."""
    if k < 1:
        raise ValueError("zero index starts at 1")
    qf = Fraction(q)
    if not 0 < qf < 1:
        raise ValueError("q must lie in (0, 1)")
    bits = precision_bits if precision_bits is not None else required_precision(k, qf)
    assert bits < 648, "no reference on the Newton ladder"
    ctx = context(bits)

    guess = ctx.make_mpf(_asymptotic_guess(k, qf, bits, bits))
    delta_max = ctx.mpf(1) / (4 * k)
    delta = min(ctx.mpf(k) ** -4, delta_max)

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
                f"order-2 guess for k={k}, q={qf}"
            )
        delta = min(delta * 2, delta_max)
    if _sign(flo) != (-1) ** k:
        raise BracketError(f"the sign change for k={k}, q={qf} is not x_k")
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

    # Newton at the full budget, converging quadratically
    x = (a + b) / 2
    steps: list[float] = []
    qv = to_mpf(ctx, qf)
    target = ctx.mpf(2) ** (4 - bits)
    for _ in range(bits.bit_length() + 8):
        fx = f(x)
        fpx = f(qv * x)
        if fpx.precision_bits <= 1:
            break  # derivative lost to cancellation; x is as good as it gets
        step = to_mpf(ctx, fx) / to_mpf(ctx, fpx)
        x = x - step
        rel = abs(step) / abs(x)
        steps.append(log2(rel.man) + rel.exp if rel else -inf)
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


@pytest.mark.parametrize(
    "q",
    [Q_HALF, Fraction(7, 15), Fraction(6, 11), pytest.param(Q_TINY, id="1/10^40")],
    ids=str,
)
def test_probed_find_zero_is_bit_identical_to_the_full_budget_loop(monkeypatch, q):
    """q = 10^-40 divides a 133-bit denominator out of u_n at every term;
    its zeros x_3..x_5 take about 10 ms each.  On the Newton ladder (from
    648 bits: x_40 and above, and x_4 and x_5 at q = 10^-40) a zero with
    no certificate has no other route: with no kernel sign certified
    there, find_zero raises the bracket's BracketError."""
    if q == Q_TINY:
        ks = (3, 4, 5)
    else:
        ks = (10, 25, 40, 60) + ((100,) if q == Q_HALF else ())
    for k in ks:
        if len(_rungs(required_precision(k, q))) == 1:
            assert _zero_fields(find_zero(k, q)) == _zero_fields(_reference_find_zero(k, q)), k
            continue
        with monkeypatch.context() as fallback:
            _nothing_certified(fallback)
            with pytest.raises(BracketError) as err:
                find_zero(k, q)
        assert str(err.value) == _no_sign_change(k, q), k


def _no_sign_change(k: int, q: Fraction) -> str:
    """find_zero's message when no sign change of x_k's parity is found."""
    return (
        f"no sign change within relative half-width 1/(4k) around the "
        f"order-2 guess for k={k}, q={q}"
    )


def test_probe_certification_threshold_covers_the_error_bound():
    """In units of P u (see the comment at the constants), the kernel's sum
    of at most M terms is off by less than 4M(M + 1) + 2.  A certified
    sum, at least 2^(_SIGN_BITS - 1), must reach that bound, and the
    constant is the least that does."""
    m = zeros._PROBE_MAX_TERMS
    bound = 4 * m * (m + 1) + 2
    assert 2 ** (zeros._SIGN_BITS - 1) >= bound
    assert 2 ** (zeros._SIGN_BITS - 2) < bound


def _exact_f(t, q: Fraction, depth: int = 224) -> tuple[int, int, int]:
    """The terms T_0..T_N of f at an mpf t != 0 over one common denominator
    D, with N such that every later ratio is under 1/2 and T_N is below
    2^-depth of the largest term: (sum, T_N, D) as ints, so the exact sum
    of the terms is sum/D and |T_N|/D bounds the tail."""
    sign, man, exp, _ = t._mpf_
    # t = num / 2^d
    num, d = (-man if sign else man) << max(exp, 0), max(-exp, 0)
    # N: the ratio |t| q^N/(N + 1) under 1/2 and T_N below 2^-depth of the
    # largest term, from float estimates of log2 |T_n|
    log_t, log_q = log2(man) + exp, log2(q)
    abs_t = abs(Fraction(num, 1 << d))
    logs = [0.0]
    big = 0
    while abs_t * q**big / (big + 1) >= Fraction(1, 2) or logs[-1] >= max(logs) - depth:
        big += 1
        logs.append(big * log_t + big * (big - 1) / 2 * log_q - lgamma(big + 1) / log(2))
    a, b = q.numerator, q.denominator
    # Horner's rule, 1 + r_0 (1 + r_1 (... (1 + r_(N-1)))) with r_j = t q^j/(j + 1)
    # = num a^j / (2^d b^j (j + 1)), over D = 2^(dN) b^(N(N-1)/2) N!
    total = den = 1
    for j in reversed(range(big)):
        den = den * b**j * (j + 1) << d
        total = den + num * a**j * total
    return total, num**big * a ** (big * (big - 1) // 2), den


def _exact_f_sign(t, q: Fraction) -> int | None:
    """The sign of f(t) at an mpf t from the exact sum of its terms, when
    that sum exceeds the tail bound; None when it does not."""
    if not t._mpf_[1]:
        return 1
    total, last, _ = _exact_f(t, q)
    if abs(total) <= abs(last):
        return None
    return 1 if total > 0 else -1


@functools.lru_cache(maxsize=None)
def _zero_near(k: int, q: Fraction):
    try:
        return find_zero(k, q).x.value
    except BracketError:
        return None


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 12),
    q=st.sampled_from([Q_HALF, Fraction(7, 15), Fraction(6, 11), Fraction(9, 19)]),
    j=st.integers(20, 200),
    side=st.sampled_from([1, -1]),
    wiggle=st.integers(0, 2**32 - 1),
)
def test_probe_kernel_sign_is_the_exact_sign(k, q, j, side, wiggle):
    """A certified kernel sign (a read tagged at least _SIGN_BITS), at 128
    bits or at the budget, is the sign of the exact sum of f at dyadic
    t = x_k (1 + side 2^-j (1 + wiggle 2^-32)), t rounded to x_k's budget."""
    x = _zero_near(k, q)
    assume(x is not None)
    bits = required_precision(k, q)
    ctx = context(bits)
    t = ctx.mpf(x) * (1 + side * ctx.mpf(2) ** -j * (1 + ctx.mpf(wiggle) / 2**32))
    for p in (128, bits):
        read = zeros._read(t._mpf_, q, p, True)
        if read.precision_bits >= zeros._SIGN_BITS:
            assert _sign(read) == _exact_f_sign(t, q), p


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 12),
    q=st.sampled_from([Q_HALF, Fraction(7, 15), Fraction(6, 11), Fraction(9, 19)]),
    j=st.integers(20, 400),
    side=st.sampled_from([1, -1]),
    start=st.integers(8, 160),
)
def test_sign_at_is_the_first_certified_read(k, q, j, side, start):
    """_sign_at's sign at t = x_k (1 + side 2^-j), t rounded to x_k's
    budget, is the sign of the exact sum of f when it is not 0, and its
    bits are the first of start 2^i (i < 5) whose kernel read is tagged at
    least _SIGN_BITS; with no such read it is (0, start)."""
    x = _zero_near(k, q)
    assume(x is not None)
    ctx = context(required_precision(k, q))
    t = (ctx.mpf(x) * (1 + side * ctx.mpf(2) ** -j))._mpf_
    sign, bits = zeros._sign_at(t, q, start)
    tags = [zeros._read(t, q, start << i, True).precision_bits for i in range(5)]
    first = next((i for i, tag in enumerate(tags) if tag >= zeros._SIGN_BITS), None)
    if first is None:
        assert (sign, bits) == (0, start)
    else:
        assert bits == start << first
        assert sign == _exact_f_sign(ctx.make_mpf(t), q) != 0


def test_uncertified_signs_have_no_fallback(monkeypatch):
    """No kernel sign is certified, as no read's tag reaches a threshold
    raised above every precision: below the ladder there is then no
    certificate, and every bracket sign, read by _sign_at at B, 2B, ...,
    16B, is 0, so the bracket widens to 1/(4k) and find_zero raises
    BracketError with no read of _f_raw's uncertified sign.  (A kernel that
    gives up is a BracketError too, test_a_kernel_that_gives_up_is_a_bracket_error.)"""
    k, q = 30, Fraction(6, 11)
    bits = required_precision(k, q)
    assert len(_rungs(bits)) == 1
    precs = set()
    kernel = zeros._probe_sum

    def counted_sum(X, q, p):
        precs.add(p)
        return kernel(X, q, p)

    def refuse(*args):
        raise AssertionError("_f_raw called")

    _nothing_certified(monkeypatch)
    monkeypatch.setattr(zeros, "_f_raw", refuse)
    monkeypatch.setattr(zeros, "_probe_sum", counted_sum)
    certificates = _kept_certificates(monkeypatch)
    with pytest.raises(BracketError) as err:
        find_zero(k, q)
    assert str(err.value) == _no_sign_change(k, q)
    assert certificates == [None]
    assert {bits << i for i in range(5)} <= precs
    assert max(precs) == 16 * bits


def test_probe_sign_near_a_zero_is_the_full_budget_sign():
    """At relative distances 2^-60..2^-170 from a zero a kernel sign, at
    128 bits or at the budget, is the sign of the full-budget evaluation
    wherever it is certified (its read tagged at least _SIGN_BITS); the far
    points are certified and the near ones are not."""
    certified = uncertain = 0
    for k, q in ((12, Q_HALF), (20, Fraction(6, 11))):
        z = find_zero(k, q)
        bits = z.precision_bits
        ctx = context(bits)
        for j in range(60, 172, 4):
            for side in (1, -1):
                t = ctx.mpf(z.x.value) * (1 + side * ctx.mpf(2) ** -j)
                want = _sign(eval_f(t, q, bits))
                for p in (128, bits):
                    read = zeros._read(t._mpf_, q, p, True)
                    if read.precision_bits < zeros._SIGN_BITS:
                        uncertain += 1
                    else:
                        assert _sign(read) == want, (k, j, side, p)
                        certified += 1
    assert certified > 40 and uncertain > 40


def _replica_probe_sum(t, q: Fraction, p: int) -> tuple:
    """_probe_sum's truncations at p bits restated on exact values: t
    rounded once to p bits in an mpf context, u_0 its mantissa lifted to
    p + G bits (G = _PROBE_MAX_TERMS.bit_length()), each u_(n+1) =
    floor(u_n q 2^s) with s such that u_(n+1) has p + G to p + G + 2
    bits, each new mantissa floor(m u_n / (2^shift (n + 1))) in one floor
    division, the terms summed as Fractions, and the stopping rule with
    Fraction bounds.  Returns the sum, the peak, the term count and
    whether the tail test held before the ratio test did (so the ratio
    test decided the stop)."""
    g = zeros._PROBE_MAX_TERMS.bit_length()
    sign, man, exp, _ = context(p).mpf(t)._mpf_
    lift = p + g - man.bit_length()
    um, ue = (-man if sign else man) << lift, exp - lift  # u_n = um 2^ue
    lead = p + g + 1 + q.denominator.bit_length() - q.numerator.bit_length()

    def mag(v: Fraction) -> int:  # floor(log2 |v|) + 1 of a dyadic v != 0
        return abs(v.numerator).bit_length() - v.denominator.bit_length() + 1

    m, e, n = 1, 0, 0
    total = Fraction(1)
    peak = 1
    ratio_small = tail_first = False
    while True:
        x = m * um
        shift = x.bit_length() - p - (n + 1).bit_length()
        m = x // ((n + 1) << shift)
        e += ue + shift
        n += 1
        total += m * Fraction(2) ** e
        term_mag = m.bit_length() + e
        peak = max(peak, term_mag, mag(total))
        tail_small = term_mag <= peak - p
        s = lead - um.bit_length()
        um, ue = floor(um * q * Fraction(2) ** s), ue - s
        if not ratio_small:
            bound = abs(um) * (1 + Fraction(1, 2 ** (p - 2))) * Fraction(2) ** ue
            ratio_small = 2 * bound < n + 1
            tail_first = tail_first or (tail_small and not ratio_small)
        if ratio_small and tail_small:
            return total, peak, n, tail_first


def _near_zero(q: Fraction, k: int, j: int, side: int):
    """x_k (1 + side 2^-j) at x_k's budget."""
    ctx = context(required_precision(k, q))
    return ctx.mpf(_zero_near(k, q)) * (1 + side * ctx.mpf(2) ** -j)


#: three points each near x_12 and x_20 at q = 9/19 and near x_4 and x_6
#: at q = 10^-40 (a 133-bit denominator, divided out at every term), as
#: (k, j, side) for t = x_k (1 + side 2^-j), and two at q = 999/1000 where
#: the terms fall _PROBE_BITS below the peak while the ratio is still
#: above 1/2, so the ratio test decides where the sum ends; all at
#: _PROBE_BITS.  Then the kernel at two Newton rungs: near x_40 at
#: q = 7/15 at its budget of 1,135 bits and near x_60 at q = 9/19 at
#: 2,327 bits, each at three distances from the zero.
PROBE_SUM_POINTS = [
    *(
        pytest.param(q, (k, j, side), False, 160, id=f"x{k}-2^-{j}{tag}")
        for q, ks, tag in ((Fraction(9, 19), (12, 20), ""), (Q_TINY, (4, 6), "-q1/10^40"))
        for k in ks
        for j, side in ((40, 1), (100, -1), (150, 1))
    ),
    *(pytest.param(Fraction(999, 1000), x, True, 160, id=f"{x}-q999/1000") for x in (-3000, 2000)),
    *(
        pytest.param(q, (k, j, side), False, p, id=f"x{k}-2^-{j}-q{q}-p{p}")
        for q, k, p in ((Fraction(7, 15), 40, 1135), (Q_9_19, 60, 2327))
        for j, side in ((60, 1), (p // 2, -1), (p - 40, 1))
    ),
]


@pytest.mark.parametrize("q, where, ratio_decides, p", PROBE_SUM_POINTS)
def test_probe_sum_is_the_exact_sum_of_its_truncated_terms(q, where, ratio_decides, p):
    """The kernel's integer total, its peak and its term count equal the
    replica's, so neither a missing term nor a stop before the ratio test
    can hide under the certification margin or in a ladder read."""
    t = _near_zero(q, *where) if isinstance(where, tuple) else mpf(where)
    total, base, peak, n = zeros._probe_sum(t._mpf_, q, p)
    want_total, want_peak, want_n, tail_first = _replica_probe_sum(t, q, p)
    assert tail_first == ratio_decides
    assert (total * Fraction(2) ** base, peak, n) == (want_total, want_peak, want_n)


@st.composite
def _probe_points(draw):
    """(t, q, p): a dyadic t with 2^-20 <= |t| < 2^12 and up to p + 8
    mantissa bits, so the kernel rounds it, a q from 10^-40 to near 1,
    where in about one draw in ten the terms fall p bits below the peak
    before the ratio falls under 1/2, and p from 8 to 300 bits."""
    p = draw(st.integers(8, 300))
    man = draw(st.integers(1, 2 ** (p + 8) - 1))
    exp = draw(st.integers(-19, 12)) - man.bit_length()
    near_one = (Fraction(99, 100), Fraction(997, 1000), Fraction(999, 1000))
    q = draw(st.sampled_from([Q_HALF, Q_9_19, *near_one, Q_TINY]))
    t = context(p + 8).make_mpf(from_man_exp(man * draw(st.sampled_from([1, -1])), exp))
    return t, q, p


@settings(max_examples=100, deadline=None)
@given(point=_probe_points())
def test_probe_sum_is_the_replica_on_dyadic_points(point):
    """The stop the kernel takes where it tests the ratio only once the
    term is small is the replica's, which tests it at every step."""
    t, q, p = point
    total, base, peak, n = zeros._probe_sum(t._mpf_, q, p)
    want_total, want_peak, want_n, _ = _replica_probe_sum(t, q, p)
    assert (total * Fraction(2) ** base, peak, n) == (want_total, want_peak, want_n)


@st.composite
def _kernel_reads(draw):
    """(t, q, p): a _probe_points draw, or half the time a point
    x_k (1 + side 2^-j) near a zero read at p within 2 bits of
    _SIGN_BITS plus the L bits that the kernel loses there at x_k's
    budget, so that its tag lies at the certification threshold or next
    to it."""
    if draw(st.booleans()):
        return draw(_probe_points())
    q = draw(st.sampled_from([Q_HALF, Q_9_19]))
    k = draw(st.integers(4, 12))
    t = _near_zero(q, k, draw(st.integers(8, 200)), draw(st.sampled_from([1, -1])))
    total, base, peak, _ = zeros._probe_sum(t._mpf_, q, required_precision(k, q))
    lost = peak - total.bit_length() - base
    return t, q, max(8, lost + zeros._SIGN_BITS + draw(st.integers(-2, 2)))


@settings(max_examples=150, deadline=None)
@given(point=_kernel_reads())
def test_a_kernel_read_is_certified_exactly_when_its_sum_meets_the_bound(point):
    """A kernel read is tagged at least _SIGN_BITS exactly when _probe_sum's
    total is at least 2^(_SIGN_BITS - 1 + peak - p), the bound proved at
    the constants, and then its sign is the sign of the exact sum of f."""
    t, q, p = point
    read = zeros._read(t._mpf_, q, p, True)
    total, base, peak, _ = zeros._probe_sum(t._mpf_, q, p)
    meets = bool(total) and total.bit_length() + base >= peak - p + zeros._SIGN_BITS
    assert (read.precision_bits >= zeros._SIGN_BITS) == meets
    if meets:
        exact, last, _ = _exact_f(t, q, p + 64)
        assert abs(exact) > abs(last)
        assert _sign(read) == (1 if exact > 0 else -1)


def test_a_kernel_that_gives_up_is_a_bracket_error(monkeypatch, capsys):
    """With the kernel capped at 8 terms, a ladder find_zero (x_60 at
    q = 1/2) and scan_zeros each raise a BracketError that names the cap,
    with no fallback to _f_raw's uncapped loop: a computation limit, not
    an argument error, so the zeros verb exits 1 with the bracket-failure
    object on stdout and nothing on stderr."""

    def refuse(*args):
        raise AssertionError("_f_raw called")

    monkeypatch.setattr(zeros, "_PROBE_MAX_TERMS", 8)
    monkeypatch.setattr(zeros, "_f_raw", refuse)
    assert len(_rungs(required_precision(60, Q_HALF))) > 1
    with pytest.raises(BracketError, match="gives up at 8 terms"):
        find_zero(60, Q_HALF)
    with pytest.raises(BracketError, match="gives up at 8 terms"):
        scan_zeros(Q_HALF, -300, 6)
    assert main(["zeros", "--q", "1/2", "--k", "60"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["code"] == "bracket-failure"
    assert doc["message"].startswith("the kernel for f at x=") and "gives up at 8 terms" in doc["message"]


@pytest.mark.parametrize("q, k, p", [(Fraction(7, 15), 40, 1135), (Q_9_19, 60, 2327)], ids=str)
def test_probe_sum_is_within_its_error_bound_of_the_exact_sum(q, k, p):
    """At a Newton rung's p the kernel's sum of N terms lies within
    (4N(N + 1) + 2) 2^(peak - p) of the exact f (the bound derived at the
    constants), at points 2^-60 to 2^-(p - 8) from x_k; compared in
    integers over the exact sum's common denominator.  The read Newton
    takes, that sum rounded to p bits, is off by at most one more
    2^(peak - p), and away from the zero its tag is eval_f's to a bit."""
    for j, side in ((60, 1), (p // 2, -1), (p - 40, 1), (p - 8, -1)):
        t = _near_zero(q, k, j, side)
        total, base, peak, n = zeros._probe_sum(t._mpf_, q, p)
        read = zeros._read(t._mpf_, q, p, True)
        tag, (sign, man, exp, _) = read.precision_bits, read._mpf_
        man = -man if sign else man
        exact, last, den = _exact_f(t, q, p + 64)
        s = max(0, -base, -exp, p - peak)  # 2^s clears every power of two
        bound = (4 * n * (n + 1) + 2) * den << (peak - p + s)
        for m, e, extra in ((total, base, 0), (man, exp, den << (peak - p + s))):
            err = abs((m * den << (e + s)) - (exact << s)) + (abs(last) << s)
            assert err < bound + extra, (j, side)
        if j <= p // 2:
            assert abs(tag - eval_f(t, q, p).precision_bits) <= 1, (j, side)


def test_bracket_and_bisection_make_no_full_budget_call(monkeypatch):
    """At k = 60 and 100 find_zero runs on the integer kernel alone: no
    eval_f call, so the residual is not read afresh, and no _f_raw call.
    The kernel first locates the zero on the bottom rung, then reads the
    certificate's two signs there; the certificate is the bracket, so no
    bracket or bisection sign is read.  The locate is the only run on
    the bottom rung: the ladder climbs from the located x, reading f at
    the full budget twice, for the one step at B and for the check whose
    f(x) is the residual, and f(qx) once at the rung below B; each rung
    between reads its f(x) and its f(qx) at the rung below.  No read is
    at 160 bits."""
    reads = []
    marks = {}
    kernel, newton, certify = zeros._probe_sum, zeros._newton, zeros._certify

    def counted_sum(X, q, p):
        reads.append(p)
        return kernel(X, q, p)

    def marked_newton(*args):
        got = newton(*args)
        marks.setdefault("located", len(reads))
        return got

    def marked_certify(*args):
        got = certify(*args)
        marks["certified"] = len(reads)
        return got

    def refuse(*args):
        raise AssertionError("eval_f or _f_raw called")

    for k in (60, 100):
        bits = required_precision(k, Q_HALF)
        rungs = _rungs(bits)
        reads.clear()
        marks.clear()
        with monkeypatch.context() as counted:
            counted.setattr(zeros, "eval_f", refuse)
            counted.setattr(zeros, "_f_raw", refuse)
            counted.setattr(zeros, "_probe_sum", counted_sum)
            counted.setattr(zeros, "_newton", marked_newton)
            counted.setattr(zeros, "_certify", marked_certify)
            z = find_zero(k, Q_HALF)
        assert 160 not in reads, k
        located, certified = marks["located"], marks["certified"]
        assert located >= 4 and reads[:located] == [rungs[-1]] * located, k
        assert reads[located:certified] == [rungs[-1]] * 2, k
        ladder = reads[certified:]
        climb = [p for pair in zip(rungs[-2::-1], rungs[:0:-1]) for p in pair] + [bits]
        assert ladder == climb, k
        assert ladder.count(bits) == 2, k
        x = z.x.value._mpf_
        want = abs(zeros._read(x, Q_HALF, bits, True))
        assert (z.residual.value._mpf_, z.residual.precision_bits) == (
            want.value._mpf_,
            want.precision_bits,
        ), k


@pytest.mark.parametrize("q", [Q_HALF, Q_9_19, Fraction(11, 21)], ids=str)
@pytest.mark.parametrize("k", [12, 26, 40, 100])
def test_find_zero_reads_the_kernel_a_few_times_per_zero(monkeypatch, k, q):
    """One warm find_zero reads the kernel at most 16 times below the
    ladder (the locate, the certificate and the rare sign it does not
    answer) and at most 26 times on it, where the ladder climbs from the
    located zero, never at 160 bits; _f_raw serves only Newton at B and
    the residual below the ladder, and nothing on it."""
    find_zero(k, q)
    reads, raw = [], []
    kernel, f_raw = zeros._probe_sum, zeros._f_raw

    def counted_sum(X, q, p):
        reads.append(p)
        return kernel(X, q, p)

    def counted_raw(X, Q, p):
        raw.append(p)
        return f_raw(X, Q, p)

    monkeypatch.setattr(zeros, "_probe_sum", counted_sum)
    monkeypatch.setattr(zeros, "_f_raw", counted_raw)
    find_zero(k, q)
    assert len(reads) <= (16 if k < 40 else 26)
    assert 160 not in reads
    assert len(raw) == {12: 7, 26: 11, 40: 0, 100: 0}[k]


def _kept_certificates(monkeypatch) -> list:
    """The list that every _certify result is appended to from now on."""
    certify, kept = zeros._certify, []

    def keep(*args):
        kept.append(certify(*args))
        return kept[-1]

    monkeypatch.setattr(zeros, "_certify", keep)
    return kept


@pytest.mark.parametrize("q", [Q_HALF, Q_9_19, Fraction(1, 10)], ids=str)
@pytest.mark.parametrize("k", [10, 26, 40])
def test_certificate_points_have_the_exact_signs_of_x_k(monkeypatch, k, q):
    """The two points of find_zero's certificate carry the exact signs of
    f on either side of x_k: (-1)^k outside and (-1)^(k - 1) inside."""
    got = _kept_certificates(monkeypatch)
    find_zero(k, q)
    (cert,) = got
    assert cert is not None
    outer, inner = (context(64).make_mpf(t) for t in cert[:2])
    assert outer < inner < 0
    assert _exact_f_sign(outer, q) == (-1) ** k
    assert _exact_f_sign(inner, q) == (-1) ** (k - 1)


@pytest.mark.parametrize("offset", [-2, 2])
def test_a_certificate_answers_only_within_a_factor_1_over_q(monkeypatch, offset):
    """A certificate's signs hold only out to a factor 1/q beyond its
    points, where the next zero may lie.  The certificate of x_(k +- 2),
    which has x_k's parity, must therefore answer no sign around x_k, and
    find_zero(k, q) must come out as before."""
    k, q = 12, Q_HALF
    want = find_zero(k, q)
    other = _kept_certificates(monkeypatch)
    find_zero(k + offset, q)
    assert other[0] is not None
    monkeypatch.setattr(zeros, "_certify", lambda *args: other[0])
    assert _zero_fields(find_zero(k, q)) == _zero_fields(want)


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_a_guess_that_is_not_negative_raises_before_any_read(monkeypatch, k):
    """At q = 24/25 the order-2 guesses for k = 1, 2, 3 and 10 are
    positive, where f > 0: find_zero raises at once, with the message of
    a bracket that found no sign change, and reads f nowhere."""
    q = Fraction(24, 25)
    assert context(128).make_mpf(_asymptotic_guess(k, q, 128, 128)) > 0

    def refuse(*args):
        raise AssertionError("f read")

    monkeypatch.setattr(zeros, "_probe_sum", refuse)
    monkeypatch.setattr(zeros, "_f_raw", refuse)
    with pytest.raises(BracketError) as err:
        find_zero(k, q)
    assert str(err.value) == _no_sign_change(k, q)


@pytest.mark.parametrize("q", [Q_HALF, Q_9_19, Fraction(1, 10)], ids=str)
@pytest.mark.parametrize("k", [40, 60, 100])
def test_a_ladder_bracket_is_the_certificate(k, q):
    """On the Newton ladder the bracket is the certificate: its ends lie at
    x (1 + 2^-(p // 2)) and x (1 - 2^-(p // 2)) around the returned x (to
    2^-32 of that distance, as the climb moves x by far less), p the
    bottom rung, and f has its exact signs there, (-1)^k outside and
    (-1)^(k - 1) inside."""
    z = find_zero(k, q)
    rungs = _rungs(z.precision_bits)
    assert len(rungs) > 1
    x = _exact(z.x.value._mpf_)
    h = Fraction(1, 2 ** (rungs[-1] // 2))
    outer, inner = (end.value for end in z.bracket)
    for end, side in ((outer, 1), (inner, -1)):
        gap = (_exact(end._mpf_) - x) / x * side
        assert h * (1 - Fraction(1, 2**32)) < gap < h * (1 + Fraction(1, 2**32)), side
    assert _exact_f_sign(outer, q) == (-1) ** k
    assert _exact_f_sign(inner, q) == (-1) ** (k - 1)


@pytest.mark.parametrize("other", [None, 62], ids=["uncertified", "certificate-of-x62"])
def test_a_ladder_zero_without_its_certificate_has_no_second_route(monkeypatch, other):
    """x_60 at q = 1/2 (2,048 bits) with no certificate, or with the
    certificate of x_62 (the same parity, a factor about 1/q^2 out, beyond
    relative half-width 1/(4k) of the guess): find_zero raises the
    bracket's BracketError and neither bisects nor reads f off eval_f's
    loop."""
    k = 60
    assert len(_rungs(required_precision(k, Q_HALF))) > 1
    cert = None
    if other:
        kept = _kept_certificates(monkeypatch)
        find_zero(other, Q_HALF)
        cert = kept[0]
        assert cert is not None
    def refuse(*args):
        raise AssertionError("a second route taken")

    monkeypatch.setattr(zeros, "_certify", lambda *args: cert)
    for name in ("_bisect", "eval_f", "_f_raw"):
        monkeypatch.setattr(zeros, name, refuse)
    with pytest.raises(BracketError) as err:
        find_zero(k, Q_HALF)
    assert str(err.value) == _no_sign_change(k, Q_HALF)


def _reference_bisect(lo, hi, slo, coarse, prec, sign) -> tuple:
    """The bisection loop on mpfs at prec bits that _bisect runs on ints:
    the bracket ends and coarse as raw mpfs in, the raw mpf result out."""
    ctx = context(prec)
    a, b, coarse = ctx.make_mpf(lo), ctx.make_mpf(hi), ctx.make_mpf(coarse)
    while (b - a) > coarse:
        mid = (a + b) / 2
        s = sign(mid._mpf_)
        if s == 0:
            a = b = mid
            break
        if s == slo:
            a = mid
        else:
            b = mid
    return ((a + b) / 2)._mpf_


def _exact(X: tuple) -> Fraction:
    s, m, e, _ = X
    return Fraction(-m if s else m) * Fraction(2) ** e


def _sign_about(z: Fraction, slo: int, calls: list):
    """sign(X) of an f with one zero z: slo before z, -slo past it and 0
    at z; each X is appended to `calls`."""

    def sign(X) -> int:
        calls.append(X)
        t = _exact(X)
        return 0 if t == z else slo if t < z else -slo

    return sign


def _on_grid(X: tuple, F: int) -> int:
    """The raw mpf X in units of 2^F, floored."""
    s, m, e, _ = X
    v = -m if s else m
    return v << (e - F) if e >= F else v >> (F - e)


@st.composite
def _bisections(draw):
    """The mpf loop's arguments as find_zero builds them: a bracket guess
    (1 +- delta) at prec bits, the guess next to a power of two half the
    time, coarse = |guess| 2^-min(60, prec - 8), and a zero z at a dyadic
    fraction i/2^j of the bracket; with find_zero's grid 2^F, F = mag(guess)
    - prec - 2, lowered as a certificate point far inside the guess would
    lower it a quarter of the time."""
    prec = draw(st.one_of(st.integers(8, 64), st.sampled_from([143, 341, 647])))
    ctx = context(prec)
    e = draw(st.integers(-40, 40))
    if draw(st.booleans()):
        guess = -ctx.ldexp(1 + draw(st.integers(-8, 8)) * ctx.ldexp(1, -prec), e)
    else:
        guess = -ctx.ldexp(draw(st.integers(1, 2**prec - 1)), e - prec)
    delta = ctx.ldexp(1, -draw(st.integers(1, 30)))
    lo, hi = guess * (1 + delta), guess * (1 - delta)
    coarse = abs(guess) * ctx.ldexp(1, -min(60, prec - 8))
    j = draw(st.integers(1, 80))
    z = _exact(lo._mpf_) + (_exact(hi._mpf_) - _exact(lo._mpf_)) * draw(
        st.integers(1, 2**j - 1)
    ) / 2**j
    slo = draw(st.sampled_from([1, -1]))
    _, _, ge, gbc = guess._mpf_
    F = ge + gbc - prec - 2 - draw(st.sampled_from([0, 0, 0, 1, 70]))
    return (lo._mpf_, hi._mpf_, slo, coarse._mpf_, prec), F, z


@settings(max_examples=400, deadline=None)
@given(case=_bisections())
def test_integer_bisection_is_the_mpf_loop(case):
    """_bisect on find_zero's grid returns the mpf loop's last midpoint and
    hands the same midpoints, in the same order, to sign, for an f whose
    one zero is z; the bracket ends lie on the grid."""
    (lo, hi, slo, coarse, prec), F, z = case
    assert lo[2] >= F and hi[2] >= F
    grid_calls, mpf_calls = [], []
    grid_sign = _sign_about(z, slo, grid_calls)
    got = zeros._bisect(
        _on_grid(lo, F),
        _on_grid(hi, F),
        slo,
        _on_grid(coarse, F),
        prec,
        lambda t: grid_sign(from_man_exp(t, F)),
    )
    want = _reference_bisect(lo, hi, slo, coarse, prec, _sign_about(z, slo, mpf_calls))
    assert (from_man_exp(got, F), grid_calls) == (want, mpf_calls)


@pytest.mark.parametrize("q", [Q_HALF, Q_9_19, Q_TINY], ids=str)
@pytest.mark.parametrize("k", [10, 12, 26])
def test_no_point_in_a_certificate_band_is_read_below_the_ladder(monkeypatch, k, q):
    """Below the ladder a bracket end or midpoint in the exact bands
    [c_in/q, c_out] or [c_in, q c_out] of find_zero's certificate takes
    the band's sign: from the return of _certify to that of _bisect, no
    such point goes to _read, and at least one bracket end
    lies in a band.  The budget is the default, or 640 bits where that is
    on the ladder (q = 10^-40)."""
    bits = min(required_precision(k, q), 640)
    kept = _kept_certificates(monkeypatch)
    bisect, reads, done = zeros._bisect, [], []

    read = zeros._read

    def recorded(X, *args):
        if kept and not done:
            reads.append(_exact(X))
        return read(X, *args)

    def marked_bisect(*args):
        done.append(bisect(*args))
        return done[-1]

    monkeypatch.setattr(zeros, "_read", recorded)
    monkeypatch.setattr(zeros, "_bisect", marked_bisect)
    z = find_zero(k, q, bits)
    (cert,) = kept
    assert cert is not None and done
    c_out, c_in = (_exact(t) for t in cert[:2])

    def in_band(t: Fraction) -> bool:
        return c_in / q <= t <= c_out or c_in <= t <= q * c_out

    assert [t for t in reads if in_band(t)] == []
    assert any(in_band(_exact(end.value._mpf_)) for end in z.bracket)


def test_scan_oracle_shares_no_route_with_find_zero(monkeypatch, scanned_q_half):
    """scan_zeros checks find_zero by a route of its own: with the guess,
    the certificate, Newton, the bisection and the numeric C_i broken it
    still finds the same zeros, while find_zero stops on them.  The two
    read f off the same kernel, so the scan's brackets are checked on the
    exact sum of f: (-1)^k at the outer end, (-1)^(k - 1) at the inner."""

    def broken(*args, **kwargs):
        raise RuntimeError("find_zero's route taken")

    for name in ("_asymptotic_guess", "_certify", "_newton", "_bisect", "coefficient_value"):
        monkeypatch.setattr(zeros, name, broken)
    with pytest.raises(RuntimeError, match="route taken"):
        find_zero(12, Q_HALF)
    again = scan_zeros(Q_HALF, -300, 6)
    assert [_zero_fields(z) for z in again] == [_zero_fields(z) for z in scanned_q_half]
    for z in again:
        outer, inner = z.bracket
        assert _exact_f_sign(outer, Q_HALF) == (-1) ** z.k, z.k
        assert _exact_f_sign(inner, Q_HALF) == (-1) ** (z.k - 1), z.k


@pytest.mark.parametrize("k", range(4, 11))
def test_find_zero_contract(k):
    z = find_zero(k, Q_HALF)
    assert z.k == k
    assert z.precision_bits == required_precision(k, Q_HALF)
    assert z.x.value < 0
    lo, hi = z.bracket
    assert min(lo.value, hi.value) < z.x.value < max(lo.value, hi.value)
    assert abs(z.residual.value) < 2.0 ** (-z.precision_bits / 2)
    fl = eval_f(lo, Q_HALF, z.precision_bits)
    fh = eval_f(hi, Q_HALF, z.precision_bits)
    assert (fl.value > 0) != (fh.value > 0)


def test_find_zero_newton_converges_quadratically():
    """newton_rel_steps holds log2 of each relative step: each about
    doubles the one before, up to a modest constant."""
    z = find_zero(8, Q_HALF)
    steps = z.newton_rel_steps
    assert len(steps) >= 2
    for early, late in zip(steps, steps[1:]):
        assert late < early
        assert late < 2 * early + log2(1e6)  # quadratic up to a modest constant


def test_ladder_newton_steps_stay_finite_below_the_float_range():
    """At 5,679 bits the converged steps lie far below 2^-1074, where a
    float step read 0.0; their log2 stays finite, and the last entry is
    the check at B whose step was not taken.  That step is sized by an
    f(x) at the kernel's noise level, so it lies within a few bits of
    2^(4 - B), below or above."""
    z = find_zero(100, Q_HALF)
    steps = z.newton_rel_steps
    assert all(isfinite(s) for s in steps)
    assert min(steps) < -1100
    assert steps[-1] < 16 - z.precision_bits
    assert z.residual.precision_bits <= 8 or steps[-1] < 4 - z.precision_bits


@pytest.mark.parametrize(
    "k, q",
    [
        (35, Q_HALF),
        (60, Q_HALF),
        (100, Q_HALF),
        (60, Q_9_19),
        (100, Q_9_19),
        (40, Fraction(1, 10)),
    ],
    ids=str,
)
def test_ladder_zeros_change_sign_within_16_bits_of_the_budget(k, q):
    """A check that runs no Newton step: f, read by eval_f at B + 64 bits,
    changes sign across x (1 -+ 2^-(B - 16)) for zeros found on the ladder,
    x_35 at q = 1/2 among them at 839 bits (measured: x is correct to
    within 8 bits of B, as before the ladder)."""
    z = find_zero(k, q)
    bits = z.precision_bits
    assert bits >= zeros._LADDER_MIN_BITS
    ctx = context(bits + 64)
    x = to_mpf(ctx, z.x)
    eps = ctx.ldexp(1, 16 - bits)
    inner = eval_f(x * (1 - eps), q, bits + 64)
    outer = eval_f(x * (1 + eps), q, bits + 64)
    want = 1 if k % 2 else -1
    assert (_sign(inner), _sign(outer)) == (want, -want)
    assert min(inner.precision_bits, outer.precision_bits) > 32


@pytest.mark.parametrize("k", [1, 2, 3])
def test_find_zero_small_k_bracket_failure(k):
    """At q = 1/2 the low-order guess misses by more than the safe
    half-width for the first three zeros; the scanner covers those."""
    with pytest.raises(BracketError):
        find_zero(k, Q_HALF)


@pytest.mark.parametrize("k", [80, 100])
def test_a_budget_too_small_to_certify_the_bracket_raises(k):
    """At q = 24/25 and 128 bits the bracket's kernel signs certify nothing
    at 128 bits, and the default budget already finds no sign change.  An
    uncertified sign once filled in, and x_80 came back as -2144.98...,
    where f < 0 on both sides (bench/oracle.py:f_sign at 3,000 bits, at
    2^-20, 2^-60 and 2^-100 relative); with every sign from _sign_at
    there is no bracket to return."""
    with pytest.raises(BracketError, match="no sign change"):
        find_zero(k, Fraction(24, 25), precision_bits=128)


def test_find_zero_explicit_precision_override():
    z = find_zero(7, Q_HALF, precision_bits=200)
    assert z.precision_bits == 200


@pytest.mark.parametrize("bits", [16, 32, 48, 61])
def test_find_zero_below_sixty_bits_ends_near_the_zero(bits):
    """The bisection stop width follows the working precision; a fixed
    2^-60 width could never be reached by rounded midpoints."""
    ref = find_zero(10, Q_HALF)
    z = find_zero(10, Q_HALF, precision_bits=bits)
    assert z.precision_bits == bits
    rel = abs((z.x.value - ref.x.value) / ref.x.value)
    assert rel < 2.0 ** (8 - bits)


def test_find_zero_rejects_bad_index():
    with pytest.raises(ValueError):
        find_zero(0, Q_HALF)


@pytest.mark.parametrize("k", [12.0, 2.5, 0], ids=repr)
def test_zero_index_and_count_must_be_positive_integers(k):
    """One check behind all four entry points: an integral float is no
    index either (find_zero(12.0, q) once reported "k": 12.0, and
    scan_zeros(q, -300, 2.5) three zeros)."""
    with pytest.raises(ValueError, match="zero index"):
        required_precision(k, Q_HALF)
    with pytest.raises(ValueError, match="zero index"):
        find_zero(k, Q_HALF)
    with pytest.raises(ValueError, match="zero index"):
        paired_term_gaps(k, Q_HALF, 1)
    with pytest.raises(ValueError, match="count"):
        scan_zeros(Q_HALF, -300, k)


def _refuse(*args, **kwargs):
    raise AssertionError("work done before the working precision was checked")


@pytest.mark.parametrize("bits", [100.5, 7, 0], ids=repr)
def test_zero_precision_is_an_integer_of_at_least_8_bits(monkeypatch, bits):
    """find_zero, and so zero_table, check an explicit precision at entry,
    with the floor DEFEXP_PRECISION had: 100.5 once built the guess and
    died with a TypeError in the rounding kernel."""
    monkeypatch.setattr(zeros, "eval_f", _refuse)
    monkeypatch.setattr(zeros, "_f_raw", _refuse)
    monkeypatch.setattr(zeros, "coefficient_value", _refuse)
    match = "working precision in bits " + ("must be an integer" if bits == 100.5 else "starts at 8")
    with pytest.raises(ValueError, match=match):
        find_zero(10, Q_HALF, precision_bits=bits)
    with pytest.raises(ValueError, match=match):
        zero_table(Q_HALF, 10, 12, precision_bits=bits)


def test_eval_f_precision_is_an_integer(monkeypatch):
    """An integral float is no precision either; the check comes before
    x is read."""
    monkeypatch.setattr(zeros, "_raw", _refuse)
    with pytest.raises(ValueError, match="working precision in bits must be an integer"):
        eval_f(-1, Q_HALF, 64.0)
    with pytest.raises(ValueError, match="working precision in bits starts at 4, got 3"):
        eval_f(-1, Q_HALF, 3)


def test_scan_zeros_indices_and_ordering(scanned_q_half):
    assert [z.k for z in scanned_q_half] == [1, 2, 3, 4, 5, 6]
    xs = [z.x.value for z in scanned_q_half]
    assert all(b < a < 0 for a, b in zip(xs, xs[1:]))


def test_scan_zeros_locations_track_the_leading_term(scanned_q_half):
    for z in scanned_q_half:
        lead = -z.k * float(Q_HALF) ** (1 - z.k)
        assert abs(float(z.x.value) / lead - 1) < 0.5 / z.k


def test_scan_agrees_with_find(scanned_q_half):
    for z in scanned_q_half:
        if z.k < 4:
            continue
        zf = find_zero(z.k, Q_HALF)
        rel = abs((zf.x.value - z.x.value) / zf.x.value)
        assert rel < 2.0 ** (-50)


def test_scan_zeros_raises_when_window_is_short(monkeypatch):
    """The scan gives up after one grid pass: 93 reads of f here."""
    made = []
    real_eval = zeros._read

    def counted(*args):
        made.append(args)
        return real_eval(*args)

    monkeypatch.setattr(zeros, "_read", counted)
    with pytest.raises(BracketError):
        scan_zeros(Q_HALF, -100, 6)  # the sixth zero sits near -201
    assert len(made) <= 120, len(made)


def test_scan_zeros_raises_when_a_sign_change_is_lost_at_the_zero_precision():
    """At q = 99/100 the grid finds sign changes near -40, -43 and -45, but
    at the 64..69 bits of k = 1..3 f is noise there (at 4000 bits it changes
    sign in (-39.9, -39.5), (-42.9, -42) and (-46, -44.6)).  Trusting the
    grid's signs gave three zeros about 1% off, tagged 64..69 bits."""
    q = Fraction(99, 100)
    with pytest.raises(BracketError, match="does not survive at 64 bits"):
        scan_zeros(q, -2 * 3 * float(q) ** -2 * 50, 3)


SCAN_CASES = [(Q_HALF, 16), (Fraction(9, 19), 16), (Fraction(1, 10), 8)]


@functools.cache
def _counted_scan(q: Fraction, count: int) -> tuple:
    """scan_zeros for the first `count` zeros, with x_min twice the
    leading-order |x_count|, the reads of f (_read) of each refinement,
    the reads of the whole scan, and the |x| of the grid reads (every
    read outside a refinement), one list per stretch between refinements."""
    calls: list[int] = []
    made = [0]
    grid: list[list] = [[]]  # the last entry is None while a refinement runs
    real_eval, real_refine = zeros._read, zeros._refine_sign_change

    def counted(*args):
        made[0] += 1
        if grid[-1] is not None:
            grid[-1].append(abs(_exact(args[0])))
        return real_eval(*args)

    def refine(*args):
        before = made[0]
        grid.append(None)
        out = real_refine(*args)
        grid[-1] = []
        calls.append(made[0] - before)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "_read", counted)
        patch.setattr(zeros, "_refine_sign_change", refine)
        found = scan_zeros(q, -2 * count * float(q) ** (1 - count), count)
    return found, calls, made[0], grid


@pytest.mark.parametrize("q, count", SCAN_CASES, ids=str)
def test_scan_refinement_takes_at_most_20_evaluations_per_zero(q, count):
    """Bisection took one read of f per bit, 52..250 per zero here; the
    Illinois refinement takes 7..15, the reads of the two grid ends included."""
    found, calls, _, _ = _counted_scan(q, count)
    assert len(calls) == len(found) == count
    assert max(calls) <= 20, calls


PREMISE_CASES = SCAN_CASES + [
    (Fraction(3, 4), 12),
    (Fraction(17, 20), 16),
    (Fraction(9, 10), 16),
    (Fraction(97, 100), 16),
]


@pytest.mark.parametrize("q, count", PREMISE_CASES, ids=str)
def test_consecutive_scan_zeros_lie_a_factor_above_1_over_q_apart(q, count):
    """The premise of the scan's skip past each zero: q x_(k+1)/x_k > 1
    (the scan_zeros docstring proves it).  The ratio falls toward 1 about
    as 1 + 1/k (x_k is near -k q^(1-k)); the smallest over these cases is
    1.032, at q = 97/100 and k = 15, where the scan's tags over-claim.
    The sign of f halfway (geometrically) between x_k and x_(k+1) is
    (-1)^k, so no zero was passed over."""
    found, _, _, _ = _counted_scan(q, count)
    for a, b in zip(found, found[1:]):
        bits = 2 * b.precision_bits + 64
        ctx = context(bits)
        xa, xb = to_mpf(ctx, a.x), to_mpf(ctx, b.x)
        assert to_mpf(ctx, q) * xb / xa > 1, a.k
        assert _sign(_reference_eval_f(-ctx.sqrt(xa * xb), q, bits)) == (-1) ** a.k, a.k


def test_scan_grid_steps_at_most_a_factor_1_over_q():
    """At q = 97/100, 1/q = 1.0309 is below the 64-per-decade step 1.0366,
    so the cap |x|/q sets every step: consecutive grid reads with no
    refinement between them lie at most a factor 1/q apart, and no cell
    can hold two zeros."""
    q = Fraction(97, 100)
    found, _, _, grid = _counted_scan(q, 16)
    assert len(found) == 16
    for stretch in grid:
        for a, b in zip(stretch, stretch[1:]):
            assert Fraction(b) * q <= Fraction(a), (a, b)


@pytest.mark.parametrize("q", [Q_HALF, Fraction(9, 19), Fraction(3, 7), Fraction(1, 10**400)])
def test_scan_resumes_at_or_below_x_over_q(q):
    """|x|/q from the exact q, rounded down: never past the next zero."""
    ctx = context(200)
    for x in (ctx.mpf(-1), -ctx.pi * 1000, ctx.mpf(-2) ** 1000 / 3):
        man, exp = x.man_exp
        exact = abs(man) * Fraction(2) ** exp / q
        past = zeros._past_zero(x, q)
        if exact >= 2**1024:
            assert past == float("inf")
        else:
            assert Fraction(past) <= exact < Fraction(past) * (1 + Fraction(1, 2**50))


def test_scan_skips_the_zero_free_stretch_after_each_zero():
    """Resuming the grid at |x_k|/q leaves 265 reads of f for the first
    16 zeros at q = 1/2; a grid run through every stretch made 549."""
    _, _, made, _ = _counted_scan(Q_HALF, 16)
    assert made <= 300, made


@pytest.mark.parametrize("q, count", SCAN_CASES, ids=str)
def test_scan_zeros_change_sign_within_their_tag(q, count):
    """f changes sign across x (1 -+ 2^-(tag - 12)), read by the reference
    loop at 2 tag + 64 bits; the worst case measured is tag - 7."""
    found, _, _, _ = _counted_scan(q, count)
    for z in found:
        tag = z.precision_bits
        bits = 2 * tag + 64
        ctx = context(bits)
        x = to_mpf(ctx, z.x)
        eps = ctx.ldexp(1, 12 - tag)
        inner = _reference_eval_f(x * (1 - eps), q, bits)
        outer = _reference_eval_f(x * (1 + eps), q, bits)
        want = 1 if z.k % 2 else -1
        assert (_sign(inner), _sign(outer)) == (want, -want), z.k
        assert min(inner.precision_bits, outer.precision_bits) > 32, z.k


@pytest.mark.parametrize("q, count", SCAN_CASES, ids=str)
def test_scan_residual_is_f_at_the_returned_x(q, count):
    """The residual is |f(x)| as the scan reads it off the kernel at the
    zero's working bits p, and that read lies within _probe_sum's error
    bound 2^33 P 2^-p (P = 2^peak), plus the half unit of rounding its sum
    to p bits, of the exact f(x), whose tail past T_N is below |T_N|."""
    found, _, _, _ = _counted_scan(q, count)
    for z in found:
        p = z.precision_bits
        fx = zeros._read(z.x._mpf_, q, p, True)
        assert _same(z.residual, abs(fx)), z.k
        _, _, peak, _ = zeros._probe_sum(z.x._mpf_, q, p)
        total, last, den = _exact_f(z.x, q)
        sign, man, exp, _ = fx._mpf_
        gap = abs((-man if sign else man) * Fraction(2) ** exp - Fraction(total, den))
        assert gap <= (2**33 + 1) * Fraction(2) ** (peak - p) + Fraction(abs(last), den), z.k


def _one_sided_flat(r, flat_side: int):
    """A stand-in for the scan's f with its one root at r: sign(t - r) |t - r|^9
    on the side sign(t - r) = flat_side, flat there, and t - r on the other."""

    def f(t, q, bits):
        d = to_mpf(context(bits), t) - r
        if (d > 0) - (d < 0) == flat_side:
            d = flat_side * abs(d) ** 9
        return PrecReal(d, bits)

    return f


def _bisection_calls(f, a, b, bits: int) -> int:
    """The calls plain bisection makes to narrow [a, b] to the refinement's
    floor, the reads of both ends included."""
    ctx = context(bits)
    a, b = ctx.mpf(a), ctx.mpf(b)
    sa = _sign(f(a, Q_HALF, bits))
    f(b, Q_HALF, bits)
    calls = 2
    while b - a > abs(a) * ctx.ldexp(1, 8 - bits):
        mid = (a + b) / 2
        calls += 1
        if _sign(f(mid, Q_HALF, bits)) == sa:
            a = mid
        else:
            b = mid
    return calls


@pytest.mark.parametrize("bits", [64, 200])
@pytest.mark.parametrize("flat_side", [-1, 1])
@pytest.mark.parametrize("a, b", [(-8, -5), (-5.4, -5)])
def test_refinement_safeguard_on_a_one_sided_flat_function(monkeypatch, bits, flat_side, a, b):
    """Where one end's value is tiny against the other's, the secant point
    crawls from the flat side; the midpoint steps keep the count within
    twice bisection's plus 4, and the result still pins the root."""
    ctx = context(bits)
    r = ctx.mpf(-5.3)
    f = _one_sided_flat(r, flat_side)
    calls = []

    def counted(t, q, p, kernel):
        calls.append(t)
        return f(context(p).make_mpf(t), q, p)

    monkeypatch.setattr(zeros, "_read", counted)
    x, fx = zeros._refine_sign_change(a, b, Q_HALF, bits)
    x = x.value
    assert a < x < b
    assert abs(x - r) <= abs(r) * ctx.ldexp(1, 9 - bits)
    assert _same(fx, f(x, Q_HALF, bits))
    assert len(calls) <= 2 * _bisection_calls(f, a, b, bits) + 4


def test_q_power_table_survives_concurrent_extension():
    """Threads that extend one shared table at once must not append a
    power twice: every entry is the one before it times q."""
    q, bits = Fraction(9, 19), 647
    qv = to_mpf(context(bits), q)._mpf_
    xs = [-(Fraction(k) ** 3) for k in range(3, 11)]
    want = [_reference_eval_f(x, q, bits) for x in xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            zeros._q_powers.cache_clear()
            got = [None] * len(xs)
            start = threading.Barrier(len(xs))

            def work(i):
                start.wait(timeout=60)
                got[i] = eval_f(xs[i], q, bits)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(_same(g, w) for g, w in zip(got, want))
            table = [from_man_exp(m, e) for m, e in zeros._q_powers(qv, bits)]
            assert all(b == mpf_mul(a, qv, bits, "n") for a, b in zip(table, table[1:]))
    finally:
        sys.setswitchinterval(interval)


def test_threads_find_the_serial_zeros():
    """Four threads (more than the machine's two cores) switching every
    10 us build the power table of x_25 at q = 1/2 (480 bits, below the
    ladder) from cold together and run the kernel on x_100's ladder, and
    every zero equals the serial one."""
    want = [_zero_fields(find_zero(k, Q_HALF)) for k in (25, 100)]
    got = [[] for _ in range(4)]
    start = threading.Barrier(len(got))

    def work(i):
        start.wait(timeout=60)
        for _ in range(2):
            got[i].append([_zero_fields(find_zero(k, Q_HALF)) for k in (25, 100)])

    interval = sys.getswitchinterval()
    zeros._q_powers.cache_clear()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want] * 2] * len(got)


def test_scan_zeros_takes_q_below_the_float_range():
    """float(1e-400) is 0.0; required_precision, whose x_2 budget the grid
    starts at (f(-1) is about q/2), and _past_zero read q's exact parts."""
    q = Fraction(1, 10**400)
    (z,) = scan_zeros(q, -1e6, 1)
    assert z.k == 1
    lo, hi = z.bracket
    assert lo.value < z.x.value < hi.value
    fl = eval_f(lo, q, z.precision_bits)
    fh = eval_f(hi, q, z.precision_bits)
    assert (fl.value > 0) != (fh.value > 0)


def test_scan_zeros_input_validation():
    with pytest.raises(ValueError):
        scan_zeros(Q_HALF, -0.5, 1)
    with pytest.raises(ValueError):
        scan_zeros(Q_HALF, -10, 0)
    with pytest.raises(ValueError):
        scan_zeros(Q_HALF, float("nan"), 1)


def test_zero_result_json_shape():
    """An mpf or PrecReal q gives the JSON of its exact Fraction."""
    z = find_zero(5, Q_HALF)
    doc = z.to_json()
    assert find_zero(5, mpf("0.5")).to_json() == find_zero(5, PrecReal(0.5, 53)).to_json() == doc
    assert find_zero(10, mpf("0.5")).to_json() == find_zero(10, Q_HALF).to_json()
    assert doc["k"] == 5
    assert doc["q"] == "1/2"
    assert doc["x"].startswith("-84.977")
    assert doc["precision_bits"] == required_precision(5, Q_HALF)
    assert len(doc["bracket"]) == 2


def truncated_c1(q, order):
    series = a_series(0, order)
    return sum(c * q**m for m, c in enumerate(series.coeffs))


def test_paired_gaps_all_positive_and_exact():
    a = truncated_c1(Q_HALF, 60)
    gaps = paired_term_gaps(15, Q_HALF, a)
    assert len(gaps) == 15
    assert all(isinstance(g, Fraction) for g in gaps)
    assert all(g > 0 for g in gaps)


def test_paired_gaps_increase_over_the_observed_run():
    a = truncated_c1(Q_HALF, 60)
    gaps = paired_term_gaps(15, Q_HALF, a)
    # observed: strictly increasing up to j = 12, one dip at the top end
    for j in range(0, 13):
        assert gaps[j] < gaps[j + 1]


def test_paired_gaps_smallest_case():
    gaps = paired_term_gaps(1, Q_HALF, Fraction(2))
    base = Fraction(1) + Fraction(2)  # k + a/k at k = 1
    assert gaps == [base - 1]
    # a is read as q is: an mpf or PrecReal a is its exact binary rational
    for a in (mpf(0.5), PrecReal(0.5, 53)):
        assert paired_term_gaps(1, Q_HALF, a) == [Fraction(1, 2)]
        assert paired_term_gaps(3, a, a) == paired_term_gaps(3, Q_HALF, Fraction(1, 2))


def test_paired_gaps_validation():
    with pytest.raises(ValueError):
        paired_term_gaps(0, Q_HALF, 1)
    with pytest.raises(ValueError):
        paired_term_gaps(3, Fraction(5, 4), 1)
    for a in (mpf("inf"), PrecReal(mpf("nan"), 53)):
        with pytest.raises(ValueError, match="^a must be a finite rational number, got "):
            paired_term_gaps(3, Q_HALF, a)
