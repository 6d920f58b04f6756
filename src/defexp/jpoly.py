"""Polynomials in the zero index j and their (u, v) normal form.

The combinatorial layer works in Q[j].  Two families recur everywhere:
sigma_i(j), the elementary symmetric sums of {1, ..., j-1} (equivalently
unsigned Stirling numbers of the first kind read as polynomials in j),
and their reciprocal-product companions Q_k(j).  Differences of the
kernel blocks G(N,m) - H(N,m) always factor through the change of basis

    u = 2j - 1,    v = j(j - 1),

as u times a polynomial in v; uv_decompose performs that rewrite and
delta() insists on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import gcd, lcm

from .exactmath import _positive_index, gen_binomial, power_sum_poly, ring_power, truncated_product

__all__ = [
    "DecompositionError",
    "JPoly",
    "UVForm",
    "delta",
    "g_coeff",
    "h_coeff",
    "q_poly",
    "sigma_poly",
    "uv_decompose",
]


class DecompositionError(ValueError):
    """A polynomial expected to be u * (poly in v) has a pure-v residue."""


class JPoly:
    """Dense univariate polynomial over Q, lowest degree first.

    The coefficients are integer numerators `nums` over one positive
    denominator `den`, in canonical form: no trailing zero numerator, and
    the gcd of the denominator and all numerators is 1 (the zero
    polynomial has denominator 1).  `coeffs` is the Fraction view.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: list[int], den: int) -> None:
        # pops trailing zeros off nums in place: pass a list no one else holds
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self.nums = tuple(nums)
        self.den = den

    @classmethod
    def _from_nums(cls, nums: list[int], den: int = 1) -> "JPoly":
        """Integer numerators over den > 0, brought to canonical form."""
        p = object.__new__(cls)
        p._set(nums, den)
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, JPoly):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self == JPoly((other,))
        return NotImplemented

    def __hash__(self):
        if self.degree < 1:  # equal to a number, so hash as one
            return hash(self.coeff(0))
        return hash((self.nums, self.den))

    def __neg__(self) -> "JPoly":
        return JPoly._from_nums([-c for c in self.nums], self.den)

    def __add__(self, other) -> "JPoly":
        if isinstance(other, (int, Fraction)):
            other = JPoly((other,))
        if not isinstance(other, JPoly):
            return NotImplemented
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return JPoly._from_nums(
            [a * sa + b * sb for a, b in zip_longest(self.nums, other.nums, fillvalue=0)], den
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = JPoly((other,))
        if not isinstance(other, JPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return JPoly((other,)) + (-self)

    def __mul__(self, other) -> "JPoly":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return JPoly._from_nums([c * f.numerator for c in self.nums], self.den * f.denominator)
        if not isinstance(other, JPoly):
            return NotImplemented
        top = len(self.nums) + len(other.nums) - 2
        return JPoly._from_nums(truncated_product(self.nums, other.nums, top), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "JPoly":
        return ring_power(self, n, JPoly((1,)))

    def __call__(self, x):
        """Evaluate by Horner; x may be a scalar or another JPoly."""
        acc = Fraction(0) if not isinstance(x, JPoly) else JPoly()
        for c in reversed(self.nums):
            acc = acc * x + c
        return acc * Fraction(1, self.den)

    def __repr__(self) -> str:
        return f"JPoly({[str(c) for c in self.coeffs]})"


#: the variable j itself
J = JPoly((0, 1))
#: u = 2j - 1 and v = j(j-1) as plain polynomials in j
U_POLY = JPoly((-1, 2))
V_POLY = JPoly((0, -1, 1))


class UVForm:
    """u times a polynomial in v, with u = 2j-1 and v = j(j-1).

    The polynomial in v is held as a JPoly, `vpoly`; the constructor takes
    its coefficients or that JPoly itself.
    """

    __slots__ = ("vpoly",)

    def __init__(self, vcoeffs=()):
        self.vpoly = vcoeffs if isinstance(vcoeffs, JPoly) else JPoly(vcoeffs)

    @property
    def vcoeffs(self) -> tuple[Fraction, ...]:
        return self.vpoly.coeffs

    @property
    def vdegree(self) -> int:
        return self.vpoly.degree

    def coeff(self, i: int) -> Fraction:
        return self.vpoly.coeff(i)

    def __bool__(self) -> bool:
        return bool(self.vpoly)

    def __eq__(self, other) -> bool:
        if isinstance(other, UVForm):
            return self.vpoly == other.vpoly
        return NotImplemented

    def __hash__(self):
        return hash(self.vpoly)

    def to_jpoly(self) -> JPoly:
        """Expand back to a plain polynomial in j."""
        return U_POLY * self.vpoly(V_POLY)

    def __repr__(self) -> str:
        return f"UVForm({[str(c) for c in self.vcoeffs]})"


def uv_decompose(p: JPoly) -> tuple[list[Fraction], UVForm]:
    """Split p(j) into pure-v and u-times-v parts.

    Returns (even, odd) with p = sum(even[i] v^i) + u * sum(odd[i] v^i).
    The split is unique: v^i has even degree 2i and u v^i odd degree
    2i+1, so the two families together form a basis of Q[j].

    Reduction: j^2 = v + j lowers the j-degree until only 1 and j are
    left with v-polynomial coefficients; then j = (u+1)/2.  The rewrite
    runs on p's integer numerators; both parts come out over 2 den(p),
    and the even part becomes Fractions only when it is not zero.
    """
    layers: list[list[int]] = [[c] for c in p.nums]

    def _add_into(dst: list[int], src: list[int], shift: int) -> None:
        while len(dst) < len(src) + shift:
            dst.append(0)
        for i, c in enumerate(src):
            dst[i + shift] += c

    while len(layers) > 2:
        top = layers.pop()  # was the j^t layer; j^t = v j^(t-2) + j^(t-1)
        _add_into(layers[-2], top, 1)
        _add_into(layers[-1], top, 0)
    alpha = layers[0] if layers else []
    beta = layers[1] if len(layers) > 1 else []
    # over the denominator 2 den(p): even = 2 alpha + beta, odd = beta
    even = [2 * c for c in alpha]
    _add_into(even, beta, 0)
    while even and even[-1] == 0:
        even.pop()
    den = 2 * p.den
    return [Fraction(c, den) for c in even], UVForm(JPoly._from_nums(beta, den))


def sigma_poly(i: int) -> JPoly:
    """Elementary symmetric sum of degree i over {1, ..., j-1}, in Q[j].

    Built by Newton's identities from the power sums p_k(j):
    m sigma_m = sum_{k=1}^{m} (-1)^(k-1) p_k sigma_{m-k}.  Degree 2i;
    sigma_i(j) vanishes at integers j <= i.
    """
    return _sigma(_positive_index(i, "sigma index", 0))


@cache
def _sigma(m: int) -> JPoly:
    if m == 0:
        return JPoly((1,))
    acc = JPoly()
    # descending k asks for sigma_0, sigma_1, ... in turn, so a cold build
    # recurses one level deep, not m
    for k in range(m, 0, -1):
        term = power_sum_poly(k) * _sigma(m - k)
        acc = acc + term if k % 2 else acc - term
    return acc * Fraction(1, m)


def q_poly(k: int) -> JPoly:
    """Companion polynomials defined by Q_0 = 1, Q_k = -sum sigma_i Q_{k-i}.

    These are the series coefficients of 1 / prod_{i=1}^{j-1} (1 + i x);
    they satisfy Q_k(j) = (-1)^k sigma_k(1 - j), which builds each one
    from sigma_k by a Taylor shift in integer additions.
    """
    return _q(_positive_index(k, "Q index", 0))


@cache
def _q(m: int) -> JPoly:
    s = _sigma(m)
    a = list(s.nums)
    # sigma_m(1 + t): the coefficients of a(t + 1), in place
    for i in range(len(a) - 1):
        for t in range(len(a) - 2, i - 1, -1):
            a[t] += a[t + 1]
    # then t = -j, times (-1)^m
    return JPoly._from_nums([-c if (t + m) % 2 else c for t, c in enumerate(a)], s.den)


def _block_indices(n_order, m) -> tuple[int, int]:
    """N and m read by the index rule (_positive_index), with 2m <= N."""
    n_order, m = _positive_index(n_order, "block order", 0), _positive_index(m, "block index", 0)
    if n_order < 2 * m:
        raise ValueError(f"block indices need 0 <= 2m <= N, got N={n_order}, m={m}")
    return n_order, m


def g_coeff(n_order: int, m: int) -> JPoly:
    """Kernel block G(N, m) = C(j, m) * Q_{N-2m}(j)."""
    n_order, m = _block_indices(n_order, m)
    return gen_binomial(J, m) * _q(n_order - 2 * m)


def h_coeff(n_order: int, m: int) -> JPoly:
    """Kernel block H(N, m) = (-1)^N * C(1-j, m) * sigma_{N-2m}(j)."""
    n_order, m = _block_indices(n_order, m)
    p = gen_binomial(JPoly((1, -1)), m) * _sigma(n_order - 2 * m)
    return -p if n_order % 2 else p


def delta(n_order: int, m: int) -> UVForm:
    """G(N, m) - H(N, m) in (u, v) form.

    The difference always lies in the span of u v^i; a nonzero pure-v
    part would mean the blocks were assembled wrongly, and raises
    DecompositionError.
    """
    n_order, m = _block_indices(n_order, m)
    return _delta(n_order, m)


@cache
def _delta(n_order: int, m: int) -> UVForm:
    # H first: it builds sigma_(N-2m), which G's Q_(N-2m) reads, one call
    # nearer the top of a cold build's stack
    h = h_coeff(n_order, m)
    even, odd = uv_decompose(g_coeff(n_order, m) - h)
    if any(even):
        raise DecompositionError(
            f"G-H for N={n_order}, m={m} has a pure-v part {[str(c) for c in even]}"
        )
    return odd
