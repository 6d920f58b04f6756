"""Series evaluation, both zero finders, and the paired-term gap check."""

import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from mpmath.libmp import mpf_mul

import defexp.zeros as zeros
from defexp.precreal import PrecReal, context, to_mpf
from defexp.qseries import a_series
from defexp.zeros import (
    BracketError,
    eval_f,
    find_zero,
    paired_term_gaps,
    required_precision,
    scan_zeros,
)

Q_HALF = Fraction(1, 2)


def test_required_precision_pinned_values():
    assert required_precision(20, Q_HALF) == 341
    assert required_precision(1, Q_HALF) == 64
    assert required_precision(30, Q_HALF) == 647


def test_required_precision_accepts_string_and_float():
    assert required_precision(20, "1/2") == 341
    assert required_precision(20, 0.5) == 341


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
    with pytest.raises(ValueError):
        eval_f(-1, Fraction(3, 2), 64)
    with pytest.raises(ValueError):
        eval_f(-1, Q_HALF, 2)
    with pytest.raises(ValueError, match="x must be real"):
        eval_f(1j, Q_HALF, 64)


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan"), "inf", "nan"])
def test_eval_f_rejects_non_finite_x(x):
    """With a NaN the ratio test is never true, with an infinity the
    ratio stays infinite: the series loop would never end."""
    with pytest.raises(ValueError, match="x must be finite"):
        eval_f(x, Q_HALF, 64)


def _reference_eval_f(x, q, precision_bits: int) -> PrecReal:
    """eval_f as it was written on mpf operators, kept verbatim as the
    reference the raw-tuple kernel must reproduce bit for bit."""
    if precision_bits < 4:
        raise ValueError("precision must be at least 4 bits")
    ctx = context(precision_bits)
    xv = to_mpf(ctx, x)
    qv = to_mpf(ctx, q if not isinstance(q, str) else Fraction(q))
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


def _zero_fields(z) -> tuple:
    parts = (z.x, *z.bracket, z.residual)
    return (
        z.k,
        z.q,
        z.precision_bits,
        tuple((p.value._mpf_, p.precision_bits) for p in parts),
        z.newton_rel_steps,
    )


def test_zero_finders_are_unchanged_on_the_reference_kernel(monkeypatch, scanned_q_half):
    q = Fraction(7, 15)
    fast = [find_zero(k, q) for k in (10, 25, 40)]
    monkeypatch.setattr(zeros, "eval_f", _reference_eval_f)
    slow = [find_zero(k, q) for k in (10, 25, 40)]
    slow_scan = scan_zeros(Q_HALF, -300, 6)
    assert fast == slow
    assert slow_scan == scanned_q_half
    assert [z.newton_rel_steps for z in fast] == [z.newton_rel_steps for z in slow]
    for a, b in zip(fast + scanned_q_half, slow + slow_scan):
        assert _zero_fields(a) == _zero_fields(b)


def test_q_power_table_is_not_poisoned_across_q_and_precision():
    """Interleaved calls share the per-(q, bits) power tables; each must
    still equal a cold-cache call.  Fraction, string and float spellings
    of one q share a table, and 3/10 and 0.3 (different mpfs) do not.
    The powers of 0.3 round differently at 143 and 647 bits."""
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
    z = find_zero(8, Q_HALF)
    steps = z.newton_rel_steps
    assert len(steps) >= 2
    for early, late in zip(steps, steps[1:]):
        assert late < early
        assert late < early**2 * 1e6  # quadratic up to a modest constant


@pytest.mark.parametrize("k", [1, 2, 3])
def test_find_zero_small_k_bracket_failure(k):
    """At q = 1/2 the low-order guess misses by more than the safe
    half-width for the first three zeros; the scanner covers those."""
    with pytest.raises(BracketError):
        find_zero(k, Q_HALF)


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


def test_scan_zeros_raises_when_window_is_short():
    with pytest.raises(BracketError):
        scan_zeros(Q_HALF, -100, 6)  # the sixth zero sits near -201


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
            table = zeros._q_powers(qv, bits)
            assert all(b == mpf_mul(a, qv, bits, "n") for a, b in zip(table, table[1:]))
    finally:
        sys.setswitchinterval(interval)


def test_scan_zeros_takes_q_below_the_float_range():
    """float(1e-400) is 0.0; the scan's index estimate reads log2(1/q)
    off the exact parts, as required_precision does."""
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


def test_zero_result_json_shape():
    z = find_zero(5, Q_HALF)
    doc = z.to_json()
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


def test_paired_gaps_validation():
    with pytest.raises(ValueError):
        paired_term_gaps(0, Q_HALF, 1)
    with pytest.raises(ValueError):
        paired_term_gaps(3, Fraction(5, 4), 1)
