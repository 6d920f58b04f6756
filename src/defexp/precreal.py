"""Arbitrary-precision reals that carry their own precision metadata.

Thin wrapper over mpmath.  Every precision level gets its own MPContext
instance, so no process-global precision state is ever mutated; a
PrecReal pairs an mpf value with the number of bits it is warranted to.
It carries no arithmetic of its own: callers compute on the mpf values
in a context of their choosing and tag the result themselves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_mp import MPContext

__all__ = ["PrecReal", "context", "to_mpf"]

_DIGITS_PER_BIT = 0.3010299956639812  # log10(2)


@lru_cache(maxsize=None)
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
        return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    return ctx.convert(x)


class PrecReal:
    """A real number plus the binary precision it is warranted to."""

    __slots__ = ("value", "precision_bits")

    def __init__(self, value, precision_bits: int):
        precision_bits = int(precision_bits)
        if precision_bits < 1:
            precision_bits = 1
        ctx = context(precision_bits)
        object.__setattr__(self, "value", to_mpf(ctx, value))
        object.__setattr__(self, "precision_bits", precision_bits)

    def __abs__(self):
        return PrecReal(abs(self.value), self.precision_bits)

    def __eq__(self, other):
        """Equal values, whatever the tags (ZeroResult's equality uses this)."""
        if isinstance(other, PrecReal):
            other = other.value
        elif isinstance(other, Fraction):
            other = to_mpf(context(self.precision_bits), other)
        return self.value == other

    def __hash__(self):
        return hash(self.value)

    @property
    def warranted_digits(self) -> int:
        return max(1, int(self.precision_bits * _DIGITS_PER_BIT))

    def to_decimal(self) -> str:
        """Decimal string with exactly the digits the precision warrants."""
        ctx = context(self.precision_bits)
        return ctx.nstr(self.value, self.warranted_digits)

    def __repr__(self) -> str:
        return f"PrecReal({self.to_decimal()}, bits={self.precision_bits})"
