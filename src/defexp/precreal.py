"""Arbitrary-precision reals that carry their own precision metadata.

Thin wrapper over mpmath.  Every precision level gets its own MPContext
instance, so no process-global precision state is ever mutated; a
PrecReal pairs an mpf value with the number of bits it is warranted to.
Binary operations never claim more precision than the least precise
input.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_mp import MPContext

__all__ = ["PrecReal", "PrecisionError", "context", "to_mpf"]

_DIGITS_PER_BIT = 0.3010299956639812  # log10(2)


class PrecisionError(ArithmeticError):
    """The requested result is below the cancellation noise floor."""


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

    # -- arithmetic with min-precision propagation ----------------------

    def _bits_with(self, other) -> int:
        if isinstance(other, PrecReal):
            return min(self.precision_bits, other.precision_bits)
        return self.precision_bits

    def _binop(self, other, op):
        bits = self._bits_with(other)
        ctx = context(bits)
        a = to_mpf(ctx, self)
        b = to_mpf(ctx, other)
        return PrecReal(op(a, b), bits)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __neg__(self):
        return PrecReal(-self.value, self.precision_bits)

    def __abs__(self):
        return PrecReal(abs(self.value), self.precision_bits)

    # -- comparisons (on the underlying values) -------------------------

    def _other_value(self, other):
        if isinstance(other, PrecReal):
            return other.value
        if isinstance(other, Fraction):
            return to_mpf(context(self.precision_bits), other)
        return other

    def __lt__(self, other):
        return self.value < self._other_value(other)

    def __le__(self, other):
        return self.value <= self._other_value(other)

    def __gt__(self, other):
        return self.value > self._other_value(other)

    def __ge__(self, other):
        return self.value >= self._other_value(other)

    def __eq__(self, other):
        return self.value == self._other_value(other)

    def __hash__(self):
        return hash(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    @property
    def warranted_digits(self) -> int:
        return max(1, int(self.precision_bits * _DIGITS_PER_BIT))

    def to_decimal(self) -> str:
        """Decimal string with exactly the digits the precision warrants."""
        ctx = context(self.precision_bits)
        return ctx.nstr(self.value, self.warranted_digits)

    def __repr__(self) -> str:
        return f"PrecReal({self.to_decimal()}, bits={self.precision_bits})"
