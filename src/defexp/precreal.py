"""Arbitrary-precision reals that carry their own precision metadata.

The numeric layer computes on raw mpmath.libmp tuples, each operation one
libmp call at an explicit precision, rounded to nearest, so no
process-global precision state is ever mutated and no MPContext is built
to compute.  Its integer loops round as those calls round, half to even,
through the one rule held here: _round, _divide and _round_fraction,
which rounds the numeric C_i's one exact sum once.
A PrecReal pairs such a raw value with the number of bits it is
warranted to (its tag) and the working bits it was computed at.  It
carries no arithmetic of its own.  Its .value is an mpf of
context(working bits), the one shared MPContext per precision, built on
the first read; comparison, hashing, abs and printing read the raw value
and build none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_float, from_int, from_man_exp, from_str, mpf_abs, mpf_eq, mpf_hash, to_str

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
    """x as ctx's mpf for each type _raw reads; any other is a ValueError."""
    raw = _raw(x, ctx.prec)
    if raw is None:
        raise ValueError(f"to_mpf takes a real value, got {x!r}")
    return ctx.make_mpf(raw)


_VALUES = MPContext()  # holds the values given as Fractions, ints and floats; never mutated


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man 2^exp (man >= 0) rounded to prec bits, half to even, as libmp's
    normalize rounds; the mantissa may come out as 2^prec after a carry."""
    shift = man.bit_length() - prec
    if shift <= 0:
        return man, exp
    r = man >> (shift - 1)  # the kept bits and the round bit
    if r & 1 and (r & 2 or man & ((1 << (shift - 1)) - 1)):
        r += 2
    return r >> 1, exp + shift


def _divide(man: int, exp: int, d: int, prec: int) -> tuple[int, int]:
    """man 2^exp / d rounded as _round rounds (man > 0 of at most prec + 1
    bits, d >= 1): an exact shift when d is a power of two, else a
    quotient of at least prec + 1 bits with a sticky bit for a remainder."""
    if not d & (d - 1):
        return man, exp - d.bit_length() + 1
    k = prec + d.bit_length() + 1 - man.bit_length()
    quot, rem = divmod(man << k, d)
    if rem:
        quot = quot << 1 | 1
        k += 1
    return _round(quot, exp - k, prec)


def _round_fraction(x: Fraction, bits: int) -> tuple:
    """x rounded at `bits`, the one rule for Fractions: numerator and
    denominator each to nearest by _round, then their correctly rounded
    quotient by _divide, the raw mpf that libmp's from_int and mpf_div give."""
    n = x.numerator
    bits = max(bits, 2)  # the precision of context(bits)
    nm, ne = _round(abs(n), 0, bits)
    dm, de = _round(x.denominator, 0, bits)
    m, e = _divide(nm, ne - de, dm, bits)
    return from_man_exp(-m if n < 0 else m, e)


def _raw(x, bits: int):
    """The raw mpf of x for the types listed here, read with no context:
    an mpf or PrecReal (an _mpf_ carrier) as it is, unrounded, an int or
    float exactly, a Fraction by _round_fraction and a string by from_str
    at bits; None for a string from_str rejects (a complex one among them)
    and for every other type."""
    raw = getattr(x, "_mpf_", None)
    if raw is not None:
        return raw
    if isinstance(x, Fraction):
        return _round_fraction(x, bits)
    if isinstance(x, (int, float)):
        return from_int(x) if isinstance(x, int) else from_float(x)
    if isinstance(x, str):
        try:
            return from_str(x, max(bits, 2), "n")
        except ValueError:
            pass
    return None


def _tagged(raw: tuple, bits, tag: int | None = None) -> PrecReal:
    """The raw mpf computed at `bits` (or in the context `bits`), tagged `tag` or bits."""
    pr = object.__new__(PrecReal)
    pr._mpf_, pr._home, pr.precision_bits = raw, bits, bits if tag is None else tag
    return pr


class PrecReal:
    """A real number plus the binary precision it is warranted to: the raw
    mpf _mpf_, the tag and the home of .value, a context or the working
    bits of context(bits) until the first read.  An mpf given to the
    constructor keeps its own context, a Fraction, int or float lives in
    _VALUES, and a string in context(tag)."""

    __slots__ = ("_mpf_", "_home", "precision_bits")

    def __init__(self, value, precision_bits: int):
        precision_bits = max(int(precision_bits), 1)
        raw = _raw(value, precision_bits)
        if raw is None:
            raise ValueError("a PrecReal holds a real value")
        home = getattr(value, "_home", None) or getattr(value, "context", None)
        if home is None:
            home = _VALUES if isinstance(value, (Fraction, int, float)) else precision_bits
        self._mpf_, self._home, self.precision_bits = raw, home, precision_bits

    @property
    def value(self):
        """The value as an mpf of its home context, built on the first read."""
        if isinstance(self._home, int):
            self._home = context(self._home)
        return self._home.make_mpf(self._mpf_)

    def __abs__(self):
        """|value| rounded to nearest at the tag (at least 2 bits)."""
        raw = mpf_abs(self._mpf_, max(self.precision_bits, 2), "n")
        return _tagged(raw, self._home, self.precision_bits)

    def __eq__(self, other):
        """Equal values, whatever the tags; a Fraction is rounded at the tag."""
        if isinstance(other, (Fraction, int, float)) or hasattr(other, "_mpf_"):
            return mpf_eq(self._mpf_, _raw(other, self.precision_bits))
        return self.value == other

    def __hash__(self):
        return mpf_hash(self._mpf_)

    @property
    def warranted_digits(self) -> int:
        return max(1, int(self.precision_bits * _DIGITS_PER_BIT))

    def to_decimal(self) -> str:
        """Decimal string with exactly the digits the precision warrants."""
        return to_str(self._mpf_, self.warranted_digits)

    def __repr__(self) -> str:
        return f"PrecReal({self.to_decimal()}, bits={self.precision_bits})"
