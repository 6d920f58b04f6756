"""Precision-tagged reals and the shared mpmath context cache."""

from fractions import Fraction

import pytest

from defexp.precreal import PrecReal, context, to_mpf


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
    with pytest.raises(ValueError, match="real"):
        PrecReal(complex(1, 2), 64)
