"""Rational utilities checked against independent oracles."""

import re
from fractions import Fraction
from math import comb

import pytest

from defexp.exactmath import (
    bernoulli,
    divisor_sigma,
    gen_binomial,
    power_sum_poly,
    ring_power,
)
from defexp.jpoly import J, JPoly, delta, g_coeff, h_coeff, q_poly, sigma_poly
from defexp.precreal import PrecReal, context
from defexp.qseries import QSeries, a_series, coefficient_value, fj_extract
from defexp.reference import bernoulli_linear_parts
from defexp.symcoeff import MPoly, c_n, c_symbol, kernel_expand, p_m, reduced_c_n, s_poly
from defexp.validate import ratio_check, residual_profile, zero_table


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
    with pytest.raises(ValueError, match="^divisor sum argument starts at 1, got 0$"):
        divisor_sigma(0)
    with pytest.raises(ValueError, match="^divisor sum power starts at 0, got -1$"):
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


_HALF = Fraction(1, 2)

# name: (call with the index v, the `what` its message names, least value)
_INDEX_READERS = {
    "bernoulli": (bernoulli, "Bernoulli index", 0),
    "gen_binomial": (lambda v: gen_binomial(3, v), "lower index", 0),
    "divisor_sigma-m": (divisor_sigma, "divisor sum argument", 1),
    "divisor_sigma-power": (lambda v: divisor_sigma(4, v), "divisor sum power", 0),
    "ring_power": (lambda v: ring_power(2, v, 1), "power", 0),
    "JPoly-pow": (lambda v: JPoly((1, 1)) ** v, "power", 0),
    "QSeries-pow": (lambda v: a_series(1, 5) ** v, "power", 0),
    "power_sum_poly": (power_sum_poly, "power sum exponent", 1),
    "sigma_poly": (sigma_poly, "sigma index", 0),
    "q_poly": (q_poly, "Q index", 0),
    "g_coeff-N": (lambda v: g_coeff(v, 0), "block order", 0),
    "h_coeff-m": (lambda v: h_coeff(4, v), "block index", 0),
    "delta-N": (lambda v: delta(v, 1), "block order", 0),
    "delta-m": (lambda v: delta(4, v), "block index", 0),
    "MPoly.symbol": (lambda v: MPoly.symbol("A", v), "symbol index", 0),
    "c_symbol": (c_symbol, "C index", 1),
    "p_m": (p_m, "P index", 1),
    "s_poly-i": (lambda v: s_poly(v, 3), "S index i", 0),
    "s_poly-n": (lambda v: s_poly(0, v), "S order n", 1),
    "c_n": (c_n, "C index", 1),
    "kernel_expand": (kernel_expand, "kernel order", 1),
    "QSeries.coeff": (lambda v: QSeries((1, 2, 3)).coeff(v), "order", 0),
    "residual_profile-n": (lambda v: residual_profile(_HALF, v, [10], zeros={}), "truncation order", 0),
    "residual_profile-k": (lambda v: residual_profile(_HALF, 1, [v], zeros={}), "zero index", 1),
    "zero_table-k_min": (lambda v: zero_table(_HALF, v, 11), "zero index", 1),
    "zero_table-k_max": (lambda v: zero_table(_HALF, 10, v), "zero index", 1),
    "ratio_check-k_min": (lambda v: ratio_check(_HALF, v, 11, zeros={}), "zero index", 1),
    "ratio_check-k_max": (lambda v: ratio_check(_HALF, 10, v, zeros={}), "zero index", 1),
    "bernoulli_linear_parts": (bernoulli_linear_parts, "linear-term pattern index", 2),
    "PrecReal": (lambda v: PrecReal("0.1", v), "precision in bits", 1),
    "context": (context, "precision in bits", 1),
    # these refused a non-integer already; only their lower bound is new
    "fj_extract-i_max": (lambda v: fj_extract(v, 3), "table bound", 1),
    "fj_extract-j_max": (lambda v: fj_extract(2, v), "table bound", 1),
    "a_series-i": (lambda v: a_series(v, 5), "A index", 0),
    "QSeries-trunc": (lambda v: QSeries((1,), v), "truncation order", 0),
}
_BELOW_ONLY = ("fj_extract-i_max", "fj_extract-j_max", "a_series-i", "QSeries-trunc")
# values seen mishandled besides 2.5 (PrecReal's was a 2-bit tag): p_m's
# RecursionError, divisor_sigma's float sum, QSeries.coeff's TypeError
_MEASURED = [("p_m", 1.5), ("divisor_sigma-power", 0.5), ("QSeries.coeff", 1.5)]


@pytest.mark.parametrize(
    "name, value",
    [(name, v) for name in _INDEX_READERS if name not in _BELOW_ONLY for v in (2.5, 2.0)]
    + _MEASURED
    + [(name, None) for name in _INDEX_READERS],
    ids=lambda v: "below" if v is None else str(v),
)
def test_every_index_goes_through_the_one_rule(name, value):
    """Every index, order, power and bit count is read by _positive_index:
    a non-integer (2.0 included) or a value below the least is a
    ValueError naming the argument, never a TypeError, a recursion, a
    silent float or a rounded tag."""
    call, what, least = _INDEX_READERS[name]
    if value is None:
        value, message = least - 1, f"{what} starts at {least}, got {least - 1}"
    else:
        message = f"{what} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "call, what",
    [
        (context, "precision in bits"),
        (reduced_c_n, "C index"),
        (lambda v: coefficient_value(v, _HALF, 20, 53), "C index"),
    ],
    ids=["context", "reduced_c_n", "coefficient_value"],
)
def test_a_cached_index_answers_no_integral_float(call, what):
    """2.0 equals and hashes as 2, so an untyped cache once answered it
    from the entry for 2 without reading it; the public caches are typed."""
    call(2)
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got 2.0$"):
        call(2.0)
