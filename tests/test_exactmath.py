"""Rational utilities checked against independent oracles."""

from fractions import Fraction
from math import comb

import pytest

from defexp.exactmath import (
    bernoulli,
    divisor_sigma,
    gen_binomial,
    power_sum_poly,
)
from defexp.jpoly import J, JPoly


def akiyama_tanigawa(n):
    """Independent Bernoulli oracle (yields the B_1 = +1/2 convention)."""
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        for m in range(n + 1 - j):
            row[m] = (m + 1) * (row[m] - row[m + 1])
    return row[0]


@pytest.mark.parametrize("n", range(0, 21, 2))
def test_bernoulli_even_against_akiyama_tanigawa(n):
    assert bernoulli(n) == akiyama_tanigawa(n)


def test_bernoulli_odd_and_sign_convention():
    assert bernoulli(1) == Fraction(-1, 2)
    for n in range(3, 20, 2):
        assert bernoulli(n) == 0


def test_bernoulli_known_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


@pytest.mark.parametrize("m", range(1, 60))
def test_divisor_sigma_brute_force(m):
    assert divisor_sigma(m) == sum(d for d in range(1, m + 1) if m % d == 0)
    assert divisor_sigma(m, 3) == sum(d**3 for d in range(1, m + 1) if m % d == 0)


def test_divisor_sigma_rejects_nonpositive():
    """A nonpositive m, or a negative power whose sum is no int."""
    with pytest.raises(ValueError, match="positive integer"):
        divisor_sigma(0)
    with pytest.raises(ValueError, match="nonnegative power"):
        divisor_sigma(6, -1)


def test_gen_binomial_integer_orders_match_comb():
    for k in range(0, 12):
        poly = gen_binomial(J, k)  # the same binomial as a polynomial in j
        assert isinstance(poly, JPoly)  # k = 0 included
        for a in range(0, 8):
            assert gen_binomial(a, k) == comb(a, k)
            assert poly(a) == comb(a, k)


def test_gen_binomial_half_order():
    expected = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 8),
        Fraction(1, 16),
        Fraction(-5, 128),
    ]
    for k, want in enumerate(expected):
        assert gen_binomial(Fraction(1, 2), k) == want


def test_gen_binomial_pascal_identity_fractional():
    a = Fraction(-3, 7)
    for k in range(1, 10):
        assert gen_binomial(a, k) == gen_binomial(a - 1, k) + gen_binomial(a - 1, k - 1)


@pytest.mark.parametrize("m", range(1, 8))
def test_power_sum_poly_matches_brute_sums(m):
    p = power_sum_poly(m)
    for j in range(1, 9):
        assert p(Fraction(j)) == sum(Fraction(i) ** m for i in range(1, j))


def test_power_sum_poly_rejects_zero_exponent():
    with pytest.raises(ValueError):
        power_sum_poly(0)


def test_power_sum_linear_coefficient_is_signed_bernoulli():
    # the subtracted top term shifts the m = 1 case off the closed form
    assert power_sum_poly(1).coeff(1) == Fraction(-1, 2)
    for m in range(2, 10):
        assert power_sum_poly(m).coeff(1) == (-1) ** m * bernoulli(m)

