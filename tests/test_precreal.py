"""Precision-tagged reals, the shared mpmath context cache, and the raw
numeric layer that builds no context."""

from fractions import Fraction

import pytest

from defexp import cli
from defexp.precreal import PrecReal, context, to_mpf
from defexp.qseries import coefficient_value
from defexp.validate import ratio_check, residual_profile, zero_table
from defexp.zeros import eval_f, find_zero, scan_zeros


def test_context_instances_are_cached_and_isolated():
    c1 = context(128)
    c2 = context(128)
    c3 = context(256)
    assert c1 is c2
    assert c1 is not c3
    assert c1.prec == 128
    assert c3.prec == 256


def test_to_mpf_accepts_fractions_exactly():
    ctx = context(200)
    v = to_mpf(ctx, Fraction(1, 3))
    assert abs(v * 3 - 1) < ctx.mpf(2) ** (-190)
    # the rule is the context's own: both parts rounded, then divided
    for bits in (2, 3, 53, 200):
        ctx = context(bits)
        for x in (Fraction(1, 3), Fraction(-22, 7), Fraction(10**30 + 1, 3**40)):
            assert to_mpf(ctx, x) == ctx.mpf(x.numerator) / ctx.mpf(x.denominator)


def test_to_mpf_unwraps_precreal():
    ctx = context(80)
    pr = PrecReal(context(160).mpf("0.25"), 160)
    assert to_mpf(ctx, pr) == ctx.mpf("0.25")


def test_comparisons_use_values():
    a = PrecReal(context(100).mpf(2), 100)
    b = PrecReal(context(60).mpf(3), 60)
    assert a != b
    assert a == PrecReal(context(30).mpf(2), 30)
    assert a == Fraction(2)
    assert hash(a) == hash(PrecReal(context(30).mpf(2), 30))


def test_abs_keeps_the_tag():
    m = abs(PrecReal(context(70).mpf(-3), 70))
    assert m.value == 3
    assert m.precision_bits == 70


def test_warranted_digits_tracks_bits():
    assert PrecReal(context(64).mpf(1), 64).warranted_digits == 19
    assert PrecReal(context(10).mpf(1), 10).warranted_digits == 3
    assert PrecReal(context(2).mpf(1), 2).warranted_digits == 1


def test_to_decimal_length_is_bounded_by_warranty():
    pr = PrecReal(context(64).pi, 64)
    digits = sum(ch.isdigit() for ch in pr.to_decimal())
    assert digits <= pr.warranted_digits + 1  # mpmath may round the last place


@pytest.mark.parametrize("bits", [1, 2, 3, 53, 64, 200])
def test_values_round_as_the_tag_context_did(bits):
    """Without a context per tag, a PrecReal still converts, compares, takes
    abs and prints as it did through context(bits): mpfs exactly, Fractions
    with both parts rounded first, abs and the decimal at the tag."""
    ctx = context(bits)
    for x in (Fraction(1, 3), Fraction(-22, 7), Fraction(10**30 + 1, 3**40)):
        pr = PrecReal(x, bits)
        assert pr.value == to_mpf(ctx, x)
        assert pr == x
    v = -context(300).mpf(2) / 3
    pr = PrecReal(v, bits)
    assert pr.value == v
    assert abs(pr).value == abs(ctx.convert(v))
    assert pr.to_decimal() == ctx.nstr(ctx.convert(v), pr.warranted_digits)
    assert abs(pr).to_decimal() == ctx.nstr(abs(ctx.convert(v)), pr.warranted_digits)


def test_tags_build_no_context():
    work = context(64)
    before = context.cache_info().misses
    values = [PrecReal(Fraction(1, 3), 1000 + b) for b in range(5)]
    values += [PrecReal(work.mpf(2) / 3, 777), PrecReal(5, 999), PrecReal(0.25, 998)]
    for v in values:
        v.to_decimal()
        abs(v)
        assert v == v.value
    assert values[0] == Fraction(1, 3)  # the Fraction rounded at the tag too
    assert context.cache_info().misses == before


def test_strings_round_at_the_tag_and_complex_values_are_refused():
    assert PrecReal("0.1", 20).value == context(20).mpf("0.1")
    for value in (complex(1, 2), "x+1j"):
        with pytest.raises(ValueError, match="real"):
            PrecReal(value, 64)
        with pytest.raises(ValueError, match="real"):
            to_mpf(context(64), value)


Q = Fraction(12, 25)


def _mpf_ratio(ctx, x: Fraction):
    return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)


def test_the_numeric_layer_builds_no_context(capsys):
    """Zeros below and on the Newton ladder, the checks that read a zero
    table, the scan oracle and the zeros verb compute on raw mpfs: no
    context is built until a caller reads .value."""
    context.cache_clear()
    coefficient_value.cache_clear()  # so the numeric C_i are summed afresh
    below, _ = find_zero(10, Q), find_zero(40, Q)
    table = zero_table(Q, 10, 13)
    for n in range(6):
        residual_profile(Q, n, range(10, 13), zeros=table)
    ratio_check(Q, 10, 12, zeros=table)
    scan_zeros(Q, -8 * float(Q) ** -3, 4)
    assert cli.main(["zeros", "--q", "12/25", "--k", "10", "--kmax", "11"]) == 0
    assert context.cache_info().misses == 0
    assert below.x.value.context is context(below.precision_bits)
    assert context.cache_info().misses == 1


def test_a_value_lives_at_its_working_precision():
    """.value is an mpf of context(working bits), whatever the tag, so
    arithmetic on it keeps the bits it was computed at."""
    for k in (10, 40):
        z = find_zero(k, Q)
        for v in (z.x, z.residual, *z.bracket):
            assert v.value.context.prec == z.precision_bits, k
    near = eval_f(find_zero(10, Q).x, Q, 64)
    assert near.precision_bits < 64
    for v in (near, eval_f(-1, Q, 64)):
        assert v.value.context.prec == 64
    assert coefficient_value(3, Q, 60, 200).value.context.prec == 200


def test_the_raw_layer_keeps_the_bytes_of_the_mpf_formulas():
    """Each step is the libmp call the mpf operator makes in context(bits),
    so r_n(k) and the ratio rows are byte for byte the mpf formulas
    evaluated in that context."""
    table = zero_table(Q, 10, 13)
    for n in (0, 3):
        for k, x, r in residual_profile(Q, n, range(10, 13), zeros=table).rows:
            bits = table[k].precision_bits
            ctx = context(bits)
            kk = ctx.mpf(k)
            t = -x.value / (kk * _mpf_ratio(ctx, Q) ** (1 - k)) - 1
            for i in range(1, n + 1):
                t -= coefficient_value(i, Q, 60, bits).value * kk ** (-1 - i)
            assert r.value._mpf_ == (t * kk ** (n + 2))._mpf_, (n, k)
    for k, d in ratio_check(Q, 10, 12, zeros=table):
        ctx = context(min(table[k].precision_bits, table[k + 1].precision_bits))
        xa, xb = (table[j].x.value for j in (k, k + 1))
        dev = _mpf_ratio(ctx, Q) * xb / xa - 1 - ctx.mpf(1) / k
        assert d.value._mpf_ == (dev * ctx.mpf(k) ** 2)._mpf_, k
