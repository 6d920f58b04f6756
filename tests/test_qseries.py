"""Truncated q-expansions against divisor-sum and Lambert-series oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, mpf_div

from defexp.exactmath import _q_fraction, divisor_sigma
from defexp.precreal import _round_fraction, context
from defexp.qseries import (
    QSeries,
    a_series,
    coefficient_value,
    eisenstein_q,
    eval_mpoly_series,
    eval_series_numeric,
    fj_extract,
    jacobi_p0,
    jacobi_p0_product,
)
from defexp.symcoeff import (
    MPoly,
    c_n,
    reduce_to_A012,
    reduced_c_n,
    to_eisenstein,
)

T = 40


def lambert_series(front, power, trunc):
    """1 + front * sum_n n^power q^n / (1 - q^n), expanded directly."""
    coeffs = [Fraction(0)] * (trunc + 1)
    coeffs[0] = Fraction(1)
    for n in range(1, trunc + 1):
        for m in range(n, trunc + 1, n):
            coeffs[m] += front * n**power
    return QSeries(coeffs, trunc)


def test_constructor_pads_and_rejects_excess():
    s = QSeries((1, 2), 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        QSeries((1, 2, 3), 1)


def test_coeff_bounds():
    s = QSeries((1, 2, 3))
    assert s.coeff(2) == 3
    with pytest.raises(IndexError):
        s.coeff(3)


def test_ring_ops_truncate_to_shorter_operand():
    a = QSeries((1, 1, 1, 1), 3)
    b = QSeries((1, -1), 5)
    assert (a + b).trunc == 3
    assert (a * b).trunc == 3
    assert (a * b).coeffs == (1, 0, 0, 0)


def test_mul_is_cauchy_product():
    a = QSeries((1, 2, 3), 4)
    b = QSeries((0, 1, -1), 4)
    assert (a * b).coeffs == (0, 1, 1, 1, -3)


def test_pow_matches_repeated_mul():
    s = QSeries((1, 1), 6)
    assert s**4 == s * s * s * s


def test_theta_multiplies_by_order():
    s = QSeries((5, 1, 2, 3), 3)
    assert s.theta().coeffs == (0, 1, 4, 9)


def test_json_round_trip():
    """The document the series verb prints parses back to the same series."""
    s = QSeries((Fraction(1, 3), -2, 0, 7), 5)
    doc = s.to_json()
    assert QSeries([Fraction(c) for c in doc["coeffs"]], doc["trunc"]) == s


@pytest.mark.parametrize(
    "name,front,power",
    [("E2", Fraction(-24), 1), ("E4", Fraction(240), 3), ("E6", Fraction(-504), 5)],
)
def test_eisenstein_against_lambert_expansion(name, front, power):
    assert eisenstein_q(name, T) == lambert_series(front, power, T)


@pytest.mark.parametrize("i", range(0, 4))
def test_a_series_coefficients_are_weighted_divisor_sums(i):
    s = a_series(i, T)
    assert s.coeff(0) == 0
    for m in range(1, T + 1):
        assert s.coeff(m) == m**i * divisor_sigma(m)


def test_theta_ladder_on_a_series():
    for i in range(0, 3):
        assert a_series(i, T).theta() == a_series(i + 1, T)


def test_basis_conversions_hold_as_series(from_eisenstein):
    for i in range(3):
        sym = MPoly.symbol("A", i)
        assert eval_mpoly_series(to_eisenstein(sym), T) == a_series(i, T)
    for name, slot in (("E2", 0), ("E4", 1), ("E6", 2)):
        sym = MPoly.symbol("E", slot)
        assert eval_mpoly_series(from_eisenstein(sym), T) == eisenstein_q(name, T)


def test_closure_of_fourth_symbol_holds_as_series():
    reduced = reduce_to_A012(MPoly.symbol("A", 3))
    assert eval_mpoly_series(reduced, T) == a_series(3, T)


def test_theta_sum_equals_product_form():
    assert jacobi_p0(T) == jacobi_p0_product(T)


def test_both_forms_of_p0_reject_a_negative_truncation():
    for form in (jacobi_p0, jacobi_p0_product):
        with pytest.raises(ValueError, match="^truncation order starts at 0, got -1$"):
            form(-1)


def test_theta_sum_coefficients_are_signed_odd_numbers():
    s = jacobi_p0(25)
    expected = {0: 1, 1: -3, 3: 5, 6: -7, 10: 9, 15: -11, 21: 13}
    for m in range(26):
        assert s.coeff(m) == expected.get(m, 0)


def test_numeric_evaluation_matches_exact_horner():
    s = a_series(1, 30)
    q0 = Fraction(1, 3)
    exact = sum(c * q0**m for m, c in enumerate(s.coeffs))
    got = eval_series_numeric(s, q0, 128)
    ctx = context(128)
    err = abs(got.value - ctx.mpf(exact.numerator) / exact.denominator)
    assert err < ctx.mpf(2) ** (-126)
    assert got.precision_bits == 128


def test_numeric_evaluation_rejects_bad_point():
    with pytest.raises(ValueError):
        eval_series_numeric(a_series(0, 10), Fraction(3, 2), 64)


@pytest.mark.parametrize("bits", [0, 3, True], ids=repr)
def test_numeric_c_i_needs_4_working_bits(bits):
    """Below 4 working bits (True is 1) the numeric C_i is a ValueError in
    eval_f's words; at 0 bits it once came back as PrecReal(2.0, bits=1)."""
    match = f"^working precision in bits starts at 4, got {int(bits)}$"
    with pytest.raises(ValueError, match=match):
        coefficient_value(1, Fraction(1, 2), 60, bits)
    with pytest.raises(ValueError, match=match):
        eval_series_numeric(a_series(0, 5), Fraction(1, 2), bits)
    assert coefficient_value(1, Fraction(1, 2), 60, 4).precision_bits == 4


def _libmp_round_fraction(x: Fraction, bits: int) -> tuple:
    """_round_fraction on libmp calls, as it was written: numerator and
    denominator each rounded to nearest at bits, then mpf_div."""
    bits = max(bits, 2)
    return mpf_div(from_int(x.numerator, bits, "n"), from_int(x.denominator, bits, "n"), bits, "n")


def _exact_sum(s: QSeries, q0) -> Fraction:
    """The truncated series at the exact q0, term by term in Fractions."""
    q = _q_fraction(q0)
    return sum(c * q**m for m, c in enumerate(s.coeffs))


HORNER_QS = [
    Fraction(1, 2),
    Fraction(9, 19),
    Fraction(6, 11),
    Fraction(1, 10),
    Fraction(99, 100),
    Fraction(1, 10**40),
    0.3,
]
HORNER_BITS = [4, 5, 8, 53, 137, 471, 647, 2000, 5679]


@pytest.mark.parametrize("i", range(1, 8))
def test_numeric_c_i_is_the_exact_sum_rounded_once(i):
    """The numeric C_i is the exact truncated sum rounded by _round_fraction
    and tagged bits.  No q in (0, 1) raises: 99/100 at 4 and 5 bits, where
    q once rounded to 1 and was a ValueError, gives its value too."""
    series = eval_mpoly_series(reduced_c_n(i), 60)
    for q0 in HORNER_QS:
        exact = _exact_sum(series, q0)
        for bits in HORNER_BITS:
            got = coefficient_value(i, q0, 60, bits)
            assert (got._mpf_, got.precision_bits) == (_round_fraction(exact, bits), bits), (q0, bits)
    for bits in (4, 5):
        got = coefficient_value(i, Fraction(99, 100), 60, bits)
        assert got._mpf_ == _round_fraction(_exact_sum(series, Fraction(99, 100)), bits)


@pytest.mark.parametrize("i", range(1, 8))
def test_numeric_c_i_is_within_its_tag_of_the_exact_sum(i):
    """Each numeric C_i lies within 2^(2 - bits), relative, of the exact
    truncated sum, read by mpmath at 30,000 bits; rounding the series
    term by term once left values up to 6.6 bits short of their tag."""
    ctx = context(30000)
    series = eval_mpoly_series(reduced_c_n(i), 60)
    for q0 in HORNER_QS:
        exact = _exact_sum(series, q0)
        want = ctx.mpf(exact.numerator) / exact.denominator
        for bits in HORNER_BITS:
            got = ctx.make_mpf(coefficient_value(i, q0, 60, bits)._mpf_)
            assert abs(got - want) <= abs(want) * ctx.ldexp(1, 2 - bits), (q0, bits)


@pytest.mark.parametrize(
    "call, args",
    [
        (a_series, (0.5, 4)),
        (a_series, (1, 2.0)),
        (eisenstein_q, ("E4", 2.5)),
        (jacobi_p0, (3.0,)),
        (jacobi_p0_product, (3.0,)),
        (eval_mpoly_series, (MPoly.symbol("A", 1), 2.5)),
        (QSeries, ((1, 2), 1.0)),
        (fj_extract, (2.0, 3)),
        (fj_extract, (2, 3.5)),
        (coefficient_value, (2.5, Fraction(1, 2), 60, 53)),
        (coefficient_value, (1, Fraction(1, 2), 60.5, 53)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_a_non_integer_index_or_order_is_a_value_error(call, args):
    """An index, order or truncation that is no int is refused before any
    work; a_series(0.5, 4) once summed m^0.5 sigma(m) through floats, and
    the others raised a bare TypeError."""
    with pytest.raises(ValueError, match=" must be an integer, got "):
        call(*args)


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(-(2**700), 2**700),
    den=st.integers(1, 2**700),
    bits=st.integers(0, 800),
)
def test_round_fraction_is_the_libmp_quotient(num, den, bits):
    x = Fraction(num, den)
    assert _round_fraction(x, bits) == _libmp_round_fraction(x, bits)


def test_coefficient_value_converges_in_truncation():
    q0 = Fraction(1, 2)
    for n in (5, 6):
        a = coefficient_value(n, q0, 60, 160)
        b = coefficient_value(n, q0, 90, 160)
        assert abs((a.value - b.value) / b.value) < 1e-8


def test_coefficient_value_of_first_orders():
    q0 = Fraction(1, 2)
    c1 = coefficient_value(1, q0, 60, 96)
    assert float(c1.value) == pytest.approx(2.744033888759488, rel=1e-12)
    c2 = coefficient_value(2, q0, 60, 96)
    assert float(c2.value) == pytest.approx(-8.838068070451195, rel=1e-12)


def test_eval_mpoly_series_is_multiplicative():
    p = reduce_to_A012(c_n(3))
    r = MPoly.symbol("A", 1) + MPoly.const("A", 2)
    lhs = eval_mpoly_series(p * r, 25)
    rhs = eval_mpoly_series(p, 25) * eval_mpoly_series(r, 25)
    assert lhs == rhs


def series_by_ring_ops(p, trunc):
    """The q-series of p from QSeries sums and products of the generators."""
    if p.family == "A":
        gens = [a_series(i, trunc) for i in range(p.max_index() + 1)]
    else:
        gens = [eisenstein_q(name, trunc) for name in ("E2", "E4", "E6")]
    acc = QSeries.zero(trunc)
    for exps, c in p.terms.items():
        term = QSeries.const(c, trunc)
        for i, e in enumerate(exps):
            term = term * gens[i] ** e
        acc = acc + term
    return acc


@pytest.mark.parametrize("n", [4, 6])
def test_eval_mpoly_series_matches_ring_ops(n):
    for p in (c_n(n), reduced_c_n(n), to_eisenstein(reduced_c_n(n))):
        for trunc in (0, 7, 25):
            assert eval_mpoly_series(p, trunc) == series_by_ring_ops(p, trunc)


def test_eval_mpoly_series_rejects_negative_truncation():
    for p in (MPoly.const("E", 3), MPoly.symbol("A", 1)):
        with pytest.raises(ValueError):
            eval_mpoly_series(p, -1)


def test_coefficient_value_is_horner_on_the_reduced_series():
    q0 = Fraction(3, 7)
    for bits in (64, 128):
        series = eval_mpoly_series(reduce_to_A012(c_n(3)), 60)
        want = eval_series_numeric(series, q0, bits)
        got = coefficient_value(3, q0, 60, bits)
        assert got.precision_bits == want.precision_bits == bits
        assert got.value == want.value
