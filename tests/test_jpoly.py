"""Dense polynomial arithmetic, the (u, v) rewriting, and the block table."""

from fractions import Fraction
from functools import lru_cache

import pytest

from defexp.jpoly import (
    JPoly,
    delta,
    g_coeff,
    h_coeff,
    q_poly,
    sigma_poly,
    uv_decompose,
)

SAMPLES = [
    JPoly(()),
    JPoly((Fraction(3),)),
    JPoly((1, -2)),
    JPoly((Fraction(1, 2), 0, Fraction(-5, 3), 7)),
    JPoly((0, 0, 0, 0, 1)),
]

POINTS = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 7)]


def test_degree_and_trim():
    assert JPoly(()).degree == -1
    assert JPoly((0, 0)).degree == -1
    assert JPoly((5,)).degree == 0
    assert JPoly((0, 1, 0)).degree == 1


def test_constant_polynomials_hash_as_the_numbers_they_equal():
    for value in (0, 3, Fraction(-7, 4)):
        for p in (JPoly((value,)), JPoly((value, 0, 0)), JPoly((1, 2)) - JPoly((1, 2)) + value):
            assert p == value and hash(p) == hash(value)
            assert value in {p} and p in {value}
    assert JPoly() == 0 and hash(JPoly()) == hash(0) and 0 in {JPoly()}
    assert JPoly((0, 1)) not in {0}


@pytest.mark.parametrize("p", SAMPLES)
@pytest.mark.parametrize("r", SAMPLES)
def test_ring_ops_agree_with_evaluation(p, r):
    for x in POINTS:
        assert (p + r)(x) == p(x) + r(x)
        assert (p - r)(x) == p(x) - r(x)
        assert (p * r)(x) == p(x) * r(x)


def test_pow_and_scalar_ops():
    p = JPoly((1, 1))
    assert p**4 == JPoly((1, 4, 6, 4, 1))
    assert (p * Fraction(1, 2))(Fraction(3)) == Fraction(2)
    assert (p + 1)(Fraction(1)) == 3


def test_composition():
    p = JPoly((0, 0, 1))
    inner = JPoly((1, -1))
    assert p(inner) == JPoly((1, -2, 1))


def brute_elementary_symmetric(i, j):
    """e_i over {1, ..., j-1} by expanding the product (1 + m t)."""
    coeffs = [Fraction(1)]
    for m in range(1, j):
        nxt = coeffs + [Fraction(0)]
        for idx in range(len(coeffs)):
            nxt[idx + 1] += coeffs[idx] * m
        coeffs = nxt
    return coeffs[i] if i < len(coeffs) else Fraction(0)


@pytest.mark.parametrize("i", range(0, 5))
def test_sigma_poly_against_brute_force(i):
    for j in range(1, 9):
        assert sigma_poly(i)(Fraction(j)) == brute_elementary_symmetric(i, j)


def test_q_poly_is_reciprocal_of_sigma_series():
    """Power-series inverse of the product (1+t)(1+2t)(1+3t), long division."""
    j = 4
    order = 6
    prod = [Fraction(1)]
    for m in range(1, j):
        nxt = prod + [Fraction(0)]
        for idx in range(len(prod)):
            nxt[idx + 1] += prod[idx] * m
        prod = nxt
    prod += [Fraction(0)] * (order + 1 - len(prod))
    inv = [Fraction(1)]
    for n in range(1, order + 1):
        inv.append(-sum(prod[i] * inv[n - i] for i in range(1, n + 1)))
    for n in range(order + 1):
        assert q_poly(n)(Fraction(j)) == inv[n]


@lru_cache(maxsize=None)
def recursive_q_poly(k):
    """Q_k by the defining chain Q_0 = 1, Q_k = -sum_{i=1}^{k} sigma_i Q_{k-i}."""
    if k == 0:
        return JPoly((1,))
    acc = JPoly(())
    for i in range(1, k + 1):
        acc = acc + sigma_poly(i) * recursive_q_poly(k - i)
    return -acc


def test_q_poly_taylor_shift_matches_recursion():
    for k in range(21):
        assert q_poly(k) == recursive_q_poly(k), k


def test_sigma_q_convolution_identity():
    for k in range(1, 9):
        acc = JPoly(())
        for i in range(k + 1):
            acc = acc + sigma_poly(i) * q_poly(k - i)
        assert acc == JPoly(())


def test_uv_round_trip():
    v = JPoly((0, -1, 1))
    for p in SAMPLES + [JPoly((2, -3, 5, 7, -1, 4))]:
        even, odd = uv_decompose(p)
        rebuilt = odd.to_jpoly()
        for i, c in enumerate(even):
            rebuilt = rebuilt + v**i * c
        assert rebuilt == p


def test_uv_decompose_splits_j_itself():
    # j = 1/2 + 1/2 u: a genuine even part, so not every input is u-divisible
    even, odd = uv_decompose(JPoly((0, 1)))
    assert even == [Fraction(1, 2)]
    assert odd.vcoeffs == (Fraction(1, 2),)


def test_block_entries_need_compatible_indices():
    with pytest.raises(ValueError):
        g_coeff(3, 2)
    with pytest.raises(ValueError):
        h_coeff(1, 1)


def test_delta_zero_blocks():
    assert delta(4, 2).vdegree == -1
    assert delta(5, 2).vdegree == -1


def test_delta_structure_bounds():
    for n in range(2, 13):
        for m in range(0, n // 2 + 1):
            d = delta(n, m)
            assert d.vdegree <= (2 * n - 3 * m - 1) // 2
            if (n, m) != (2, 1):
                assert d.coeff(0) == 0


def test_delta_2_1_has_constant_part():
    assert delta(2, 1).coeff(0) != 0

