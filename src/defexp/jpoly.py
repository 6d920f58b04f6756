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
from itertools import zip_longest

from .exactmath import gen_binomial, power_sum_poly

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
    """Dense univariate polynomial over Fraction, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, JPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == JPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "JPoly":
        return JPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "JPoly":
        if isinstance(other, (int, Fraction)):
            other = JPoly((other,))
        if not isinstance(other, JPoly):
            return NotImplemented
        return JPoly(
            tuple(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0)))
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
            return JPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, JPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return JPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for k, b in enumerate(other.coeffs):
                    out[i + k] += a * b
        return JPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "JPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = JPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner; x may be a scalar or another JPoly."""
        acc = Fraction(0) if not isinstance(x, JPoly) else JPoly()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"JPoly({[str(c) for c in self.coeffs]})"


#: the variable j itself
J = JPoly((0, 1))
#: u = 2j - 1 and v = j(j-1) as plain polynomials in j
U_POLY = JPoly((-1, 2))
V_POLY = JPoly((0, -1, 1))


class UVForm:
    """u times a polynomial in v, with u = 2j-1 and v = j(j-1)."""

    __slots__ = ("vcoeffs",)

    def __init__(self, vcoeffs=()):
        cs = [Fraction(c) for c in vcoeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.vcoeffs = tuple(cs)

    @property
    def vdegree(self) -> int:
        return len(self.vcoeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.vcoeffs):
            return self.vcoeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.vcoeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UVForm):
            return self.vcoeffs == other.vcoeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.vcoeffs)

    def to_jpoly(self) -> JPoly:
        """Expand back to a plain polynomial in j."""
        acc = JPoly()
        for c in reversed(self.vcoeffs):
            acc = acc * V_POLY + c
        return U_POLY * acc

    def __repr__(self) -> str:
        return f"UVForm({[str(c) for c in self.vcoeffs]})"


def uv_decompose(p: JPoly) -> tuple[list[Fraction], UVForm]:
    """Split p(j) into pure-v and u-times-v parts.

    Returns (even, odd) with p = sum(even[i] v^i) + u * sum(odd[i] v^i).
    The split is unique: v^i has even degree 2i and u v^i odd degree
    2i+1, so the two families together form a basis of Q[j].

    Reduction: j^2 = v + j lowers the j-degree until only 1 and j are
    left with v-polynomial coefficients; then j = (u+1)/2.
    """
    layers: list[list[Fraction]] = [[c] for c in p.coeffs]

    def _add_into(dst: list[Fraction], src: list[Fraction], shift: int) -> None:
        while len(dst) < len(src) + shift:
            dst.append(Fraction(0))
        for i, c in enumerate(src):
            dst[i + shift] += c

    while len(layers) > 2:
        top = layers.pop()  # was the j^t layer; j^t = v j^(t-2) + j^(t-1)
        _add_into(layers[-2], top, 1)
        _add_into(layers[-1], top, 0)
    alpha = layers[0] if layers else []
    beta = layers[1] if len(layers) > 1 else []
    half_beta = [c / 2 for c in beta]
    even = list(alpha)
    _add_into(even, half_beta, 0)
    while even and even[-1] == 0:
        even.pop()
    return even, UVForm(half_beta)


_sigma_cache: list[JPoly] = [JPoly((1,))]


def sigma_poly(i: int) -> JPoly:
    """Elementary symmetric sum of degree i over {1, ..., j-1}, in Q[j].

    Built by Newton's identities from the power sums p_k(j):
    m sigma_m = sum_{k=1}^{m} (-1)^(k-1) p_k sigma_{m-k}.  Degree 2i;
    sigma_i(j) vanishes at integers j <= i.
    """
    if i < 0:
        raise ValueError("sigma index must be nonnegative")
    while len(_sigma_cache) <= i:
        m = len(_sigma_cache)
        acc = JPoly()
        for k in range(1, m + 1):
            term = power_sum_poly(k) * _sigma_cache[m - k]
            acc = acc + term if k % 2 else acc - term
        _sigma_cache.append(acc * Fraction(1, m))
    return _sigma_cache[i]


_q_cache: list[JPoly] = [JPoly((1,))]


def q_poly(k: int) -> JPoly:
    """Companion polynomials defined by Q_0 = 1, Q_k = -sum sigma_i Q_{k-i}.

    These are the series coefficients of 1 / prod_{i=1}^{j-1} (1 + i x);
    they satisfy Q_n(1 - t) = (-1)^n sigma_n(t).
    """
    if k < 0:
        raise ValueError("Q index must be nonnegative")
    while len(_q_cache) <= k:
        m = len(_q_cache)
        acc = JPoly()
        for i in range(1, m + 1):
            acc = acc + sigma_poly(i) * _q_cache[m - i]
        _q_cache.append(-acc)
    return _q_cache[k]


def _check_block_indices(n_order: int, m: int) -> None:
    if m < 0 or n_order < 2 * m:
        raise ValueError(f"block indices need 0 <= 2m <= N, got N={n_order}, m={m}")


def g_coeff(n_order: int, m: int) -> JPoly:
    """Kernel block G(N, m) = C(j, m) * Q_{N-2m}(j)."""
    _check_block_indices(n_order, m)
    b = gen_binomial(J, m)
    return (b if isinstance(b, JPoly) else JPoly((b,))) * q_poly(n_order - 2 * m)


def h_coeff(n_order: int, m: int) -> JPoly:
    """Kernel block H(N, m) = (-1)^N * C(1-j, m) * sigma_{N-2m}(j)."""
    _check_block_indices(n_order, m)
    b = gen_binomial(JPoly((1, -1)), m)
    p = (b if isinstance(b, JPoly) else JPoly((b,))) * sigma_poly(n_order - 2 * m)
    return -p if n_order % 2 else p


_delta_cache: dict[tuple[int, int], UVForm] = {}


def delta(n_order: int, m: int) -> UVForm:
    """G(N, m) - H(N, m) in (u, v) form.

    The difference always lies in the span of u v^i; a nonzero pure-v
    part would mean the blocks were assembled wrongly, and raises
    DecompositionError.
    """
    _check_block_indices(n_order, m)
    key = (n_order, m)
    cached = _delta_cache.get(key)
    if cached is None:
        even, odd = uv_decompose(g_coeff(n_order, m) - h_coeff(n_order, m))
        if any(even):
            raise DecompositionError(
                f"G-H for N={n_order}, m={m} has a pure-v part {[str(c) for c in even]}"
            )
        cached = _delta_cache[key] = odd
    return cached
