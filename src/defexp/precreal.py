"""Arbitrary-precision reals that carry their own precision metadata.

Thin wrapper over mpmath.  Every working precision gets its own
MPContext instance, so no process-global precision state is ever
mutated; a PrecReal pairs an mpf value with the number of bits it is
warranted to.  It carries no arithmetic of its own: callers compute on
the mpf values in a context of their choosing and tag the result
themselves.  A tag needs no context of its own: a PrecReal keeps an
mpf in the context it came from and rounds anything else at its tag with
mpmath.libmp into one shared context.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_int, mpf_abs, mpf_div, to_str

__all__ = ["PrecReal", "context", "to_mpf"]

_DIGITS_PER_BIT = 0.3010299956639812  # log10(2)


@lru_cache(maxsize=64)
def context(bits: int) -> MPContext:
    """Shared context at a fixed binary precision (never mutated after creation)."""
    if bits < 2:
        bits = 2
    ctx = MPContext()
    ctx.prec = bits
    return ctx


def to_mpf(ctx: MPContext, x):
    """Convert scalars (including Fraction and PrecReal) to ctx's mpf."""
    if isinstance(x, PrecReal):
        return ctx.convert(x.value)
    if isinstance(x, Fraction):
        return ctx.make_mpf(_round_fraction(x, ctx.prec))
    return ctx.convert(x)


_VALUES = MPContext()  # holds the values not given as mpfs; never mutated


def _round_fraction(x: Fraction, bits: int) -> tuple:
    """x rounded at `bits`, the one rule for Fractions: numerator and
    denominator each to nearest, then their quotient."""
    bits = max(bits, 2)  # the precision of context(bits)
    num = from_int(x.numerator, bits, "n")
    den = from_int(x.denominator, bits, "n")
    return mpf_div(num, den, bits, "n")


def _value(x, bits: int):
    """The mpf to_mpf(context(bits), x) would give, without that context:
    an mpf keeps its value and its own context, ints and floats are exact,
    a Fraction is rounded at `bits`; all but mpfs go to _VALUES."""
    if isinstance(x, PrecReal):
        return x.value
    raw = getattr(x, "_mpf_", None)
    if raw is not None:
        return getattr(x, "context", _VALUES).make_mpf(raw)
    if isinstance(x, Fraction):
        return _VALUES.make_mpf(_round_fraction(x, bits))
    if isinstance(x, (int, float)):
        return _VALUES.convert(x)
    value = context(bits).convert(x)  # strings and rarer types, rounded at bits
    if not hasattr(value, "_mpf_"):
        raise ValueError("a PrecReal holds a real value")
    return value


class PrecReal:
    """A real number plus the binary precision it is warranted to."""

    __slots__ = ("value", "precision_bits")

    def __init__(self, value, precision_bits: int):
        precision_bits = int(precision_bits)
        if precision_bits < 1:
            precision_bits = 1
        object.__setattr__(self, "value", _value(value, precision_bits))
        object.__setattr__(self, "precision_bits", precision_bits)

    def __abs__(self):
        """|value| rounded to nearest at the tag (at least 2 bits)."""
        v = self.value
        raw = mpf_abs(v._mpf_, max(self.precision_bits, 2), "n")
        return PrecReal(v.context.make_mpf(raw), self.precision_bits)

    def __eq__(self, other):
        """Equal values, whatever the tags (ZeroResult's equality uses this)."""
        if isinstance(other, PrecReal):
            other = other.value
        elif isinstance(other, Fraction):
            other = _VALUES.make_mpf(_round_fraction(other, self.precision_bits))
        return self.value == other

    def __hash__(self):
        return hash(self.value)

    @property
    def warranted_digits(self) -> int:
        return max(1, int(self.precision_bits * _DIGITS_PER_BIT))

    def to_decimal(self) -> str:
        """Decimal string with exactly the digits the precision warrants."""
        return to_str(self.value._mpf_, self.warranted_digits)

    def __repr__(self) -> str:
        return f"PrecReal({self.to_decimal()}, bits={self.precision_bits})"
