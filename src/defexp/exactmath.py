"""Exact scalar arithmetic: Bernoulli numbers, binomials, divisor sums,
and the dense product and power shared by the polynomial and series types.

All quantities are exact rationals (`fractions.Fraction`).  Wherever the
package writes a rational out, it is ``str(Fraction)``: ``"p/q"`` in
lowest terms with the sign on the numerator, which ``Fraction(str)``
parses back.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, isqrt

__all__ = [
    "bernoulli",
    "divisor_sigma",
    "gen_binomial",
    "power_sum_poly",
]


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number, convention B_1 = -1/2.

    Computed from the defining recurrence sum_{k=0}^{n} C(n+1,k) B_k = 0
    and cached per index.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return _bernoulli(n)


@cache
def _bernoulli(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    # ascending k: each B_k is cached before B_(k+1) asks for it
    for k in range(n):
        acc += _bernoulli(k) * comb(n + 1, k)
    return -acc / (n + 1)


def gen_binomial(alpha, k: int):
    """Generalized binomial coefficient alpha*(alpha-1)*...*(alpha-k+1)/k!.

    alpha may be an exact scalar (int or Fraction) or any ring element
    supporting subtraction of ints and multiplication by Fractions (e.g. a
    polynomial); the result has the matching kind, for k = 0 as well, where
    it is alpha**0.
    """
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    result = alpha**0
    for i in range(k):
        result = result * (alpha - i)
    return result * Fraction(1, factorial(k))


def divisor_sigma(m: int, power: int = 1) -> int:
    """Sum of d**power over the positive divisors d of m, by trial division."""
    if m < 1:
        raise ValueError("divisor sum needs a positive integer")
    total = 0
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            total += d**power
            e = m // d
            if e != d:
                total += e**power
    return total


def truncated_product(a, b, trunc: int) -> list:
    """Coefficients 0..trunc of the product of the dense coefficient lists
    a and b (lowest order first), on ints or Fractions alike."""
    out = [0] * (trunc + 1)
    for i, x in enumerate(a[: trunc + 1]):
        if x:
            for k, y in enumerate(b[: trunc + 1 - i], start=i):
                out[k] += x * y
    return out


def ring_power(base, n: int, one):
    """base**n by repeated squaring, starting from the unit `one`."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def power_sum_poly(m: int):
    """Sum 1^m + 2^m + ... + (j-1)^m as an exact polynomial in j.

    Uses the Bernoulli closed form for the sum up to j and subtracts the
    top term j^m; degree m+1.  For m >= 2 the coefficient of j is
    (-1)^m B_m (at m = 1 the subtracted top term lands on j as well).
    """
    if m < 1:
        raise ValueError("power sum exponent must be >= 1")
    from .jpoly import JPoly  # deferred: JPoly layer builds on this module

    coeffs = [Fraction(0)] * (m + 2)
    for i in range(m + 1):
        coeffs[m + 1 - i] = Fraction((-1) ** i * comb(m + 1, i), m + 1) * _bernoulli(i)
    coeffs[m] -= 1
    return JPoly(coeffs)
