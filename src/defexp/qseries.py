"""Exact truncated q-series and their numerical evaluation.

A QSeries is a power series in q known through a fixed truncation
order; coefficients are exact rationals.  The generators of interest
are the divisor-power series A_i = sum m^i sigma(m) q^m, the Eisenstein
series E2/E4/E6 (their Lambert series rewritten as divisor sums), and
Jacobi's cube P0 = prod (1-q^n)^3 = sum (-1)^(j-1) (2j-1) q^(j(j-1)/2).
fj_extract repackages the reduced C_i by powers of q.  Only
eval_series_numeric rounds, once, after an exact sum: it loads mpmath
and precreal when called, so the exact layer imports neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactmath import _integer, _positive_index, _q_fraction, divisor_sigma, ring_power, truncated_product
from .symcoeff import _unpack, reduced_c_n

__all__ = [
    "FjTable",
    "QSeries",
    "a_series",
    "coefficient_value",
    "eisenstein_q",
    "eval_mpoly_series",
    "eval_series_numeric",
    "fj_extract",
    "jacobi_p0",
    "jacobi_p0_product",
]

#: q-series truncation behind every numeric C_i(q)
SERIES_TRUNC = 60

#: fj_extract reports negative truncated F_j(1/k) for k = 1..K_REPORT
_K_REPORT = 20


def _order(n, what: str = "truncation order") -> int:
    """n as an int (_integer) of at least 0, else a ValueError naming `what`."""
    n = _integer(n, what)
    if n < 0:
        raise ValueError(f"{what} must be nonnegative")
    return n


class QSeries:
    """Truncated power series in q over Fraction (orders 0..trunc)."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, coeffs, trunc: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        trunc = _order(len(cs) - 1 if trunc is None else trunc)
        if len(cs) > trunc + 1:
            raise ValueError("more coefficients than the truncation order admits")
        cs.extend([Fraction(0)] * (trunc + 1 - len(cs)))
        self.trunc = trunc
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls((), trunc)

    @classmethod
    def const(cls, value, trunc: int) -> "QSeries":
        return cls((value,), trunc)

    def coeff(self, m: int) -> Fraction:
        if not 0 <= m <= self.trunc:
            raise IndexError(f"order {m} outside truncation {self.trunc}")
        return self.coeffs[m]

    # -- ring operations, always at the weaker truncation ----------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries.const(other, self.trunc)
        return other if isinstance(other, QSeries) else None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.trunc, o.trunc)
        return QSeries([a + b for a, b in zip(self.coeffs, o.coeffs)][: n + 1], n)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self.coeffs], self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        return QSeries(truncated_product(self.coeffs, other.coeffs, n), n)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        return ring_power(self, n, QSeries.const(1, self.trunc))

    def theta(self) -> "QSeries":
        """q d/dq, term by term; truncation is preserved."""
        return QSeries([m * c for m, c in enumerate(self.coeffs)], self.trunc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.trunc, self.coeffs))

    def to_json(self) -> dict:
        return {"trunc": self.trunc, "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if self.trunc >= 8 else ""
        return f"QSeries([{shown}{more}], trunc={self.trunc})"


def a_series(i: int, trunc: int) -> QSeries:
    """A_i = sum_{m>=1} m^i sigma(m) q^m, truncated."""
    i, trunc = _order(i, "A index"), _order(trunc)
    return QSeries(
        [Fraction(0)] + [Fraction(m**i * divisor_sigma(m)) for m in range(1, trunc + 1)],
        trunc,
    )


_EISENSTEIN = {"E2": (-24, 1), "E4": (240, 3), "E6": (-504, 5)}


def eisenstein_q(which: str, trunc: int) -> QSeries:
    """E2, E4 or E6 with the Lambert series rewritten as divisor sums.

    E.g. E4 = 1 + 240 sum n^3 q^n/(1-q^n) = 1 + 240 sum_m sigma_3(m) q^m.
    """
    if which not in _EISENSTEIN:
        raise ValueError(f"unknown Eisenstein series {which!r}")
    trunc = _order(trunc)
    scale, power = _EISENSTEIN[which]
    coeffs = [Fraction(1)] + [
        Fraction(scale * divisor_sigma(m, power)) for m in range(1, trunc + 1)
    ]
    return QSeries(coeffs, trunc)


def jacobi_p0(trunc: int) -> QSeries:
    """P0 as the theta sum: sum_{j>=1} (-1)^(j-1) (2j-1) q^(j(j-1)/2)."""
    trunc = _order(trunc)
    coeffs = [Fraction(0)] * (trunc + 1)
    j = 1
    while j * (j - 1) // 2 <= trunc:
        coeffs[j * (j - 1) // 2] += (-1) ** (j - 1) * (2 * j - 1)
        j += 1
    return QSeries(coeffs, trunc)


def jacobi_p0_product(trunc: int) -> QSeries:
    """P0 as the product prod_{n>=1} (1-q^n)^3, truncated.

    Independent of the theta-sum route; factors with n > trunc cannot
    touch the kept orders.
    """
    trunc = _order(trunc)
    coeffs = [Fraction(0)] * (trunc + 1)
    coeffs[0] = Fraction(1)
    for n in range(1, trunc + 1):
        for _ in range(3):
            # multiply in place by (1 - q^n); descending order keeps the
            # old values on the right-hand side
            for t in range(trunc, n - 1, -1):
                coeffs[t] -= coeffs[t - n]
    return QSeries(coeffs, trunc)


def _series_base(family: str, i: int, trunc: int) -> QSeries:
    if family == "A":
        return a_series(i, trunc)
    return eisenstein_q(("E2", "E4", "E6")[i], trunc)


@lru_cache(maxsize=None)
def _monomial_series(family: str, exps: tuple, trunc: int) -> tuple[int, ...]:
    """Integer q-series of one A- or E-monomial, shared across calls.

    Every generator has integer coefficients; the monomial is the one
    with its last exponent lowered by one, times that generator.
    """
    if not exps:
        return (1,) + (0,) * trunc
    i = len(exps) - 1
    unit = (0,) * i + (1,)
    if exps == unit:
        return tuple(int(c) for c in _series_base(family, i, trunc).coeffs)
    lower = exps[:i] + (exps[i] - 1,)
    while lower and lower[-1] == 0:
        lower = lower[:-1]
    series = _monomial_series(family, lower, trunc)
    return tuple(truncated_product(series, _monomial_series(family, unit, trunc), trunc))


def eval_mpoly_series(p, trunc: int) -> QSeries:
    """Evaluate an A- or E-symbol polynomial into its exact q-series.

    Monomials are integer series; the polynomial's integer numerators
    enter the sum, and its one denominator only the final coefficients.
    """
    family = p.family
    if family not in ("A", "E"):
        raise ValueError(f"cannot evaluate symbol family {family!r} as q-series")
    trunc = _order(trunc)
    acc = [0] * (trunc + 1)
    for key, c in p.nums.items():
        for k, v in enumerate(_monomial_series(family, _unpack(key), trunc)):
            if v:
                acc[k] += c * v
    return QSeries([Fraction(v, p.den) for v in acc], trunc)


def eval_series_numeric(s: QSeries, q0, precision_bits: int) -> PrecReal:
    """The truncated series at 0 < q0 < 1, as one exact sum rounded once,
    at a working precision of at least 4 bits.  q0 is read as an exact
    Fraction a/b (_q_fraction) and the coefficients are n_j/den over
    their one denominator, so the sum is acc/(den b^T) with the integer
    acc = sum n_j a^j b^(T-j), formed by Horner from the top order down;
    that Fraction is rounded by _round_fraction and tagged bits."""
    from .precreal import _round_fraction, _tagged

    bits = _positive_index(precision_bits, "working precision in bits", 4)
    qf = _q_fraction(q0)
    a, b = qf.numerator, qf.denominator
    den = lcm(*(c.denominator for c in s.coeffs))
    acc, bp = 0, 1  # bp = b^(T-j)
    for c in reversed(s.coeffs):
        acc = acc * a + c.numerator * (den // c.denominator) * bp
        bp *= b
    return _tagged(_round_fraction(Fraction(acc, den * b**s.trunc), bits), bits)


@lru_cache(maxsize=None)
def _coefficient_series(i: int, trunc: int) -> QSeries:
    """Exact q-series of the reduced C_i, shared by every bit count."""
    return eval_mpoly_series(reduced_c_n(i), trunc)


@lru_cache(maxsize=256)  # keyed by bits, which every k sets anew
def coefficient_value(i: int, q: Fraction, trunc: int, precision_bits: int) -> PrecReal:
    """Numeric C_i(q) from the reduced coefficient's truncated q-series."""
    series = _coefficient_series(_positive_index(i, "C index"), _order(trunc))
    return eval_series_numeric(series, q, precision_bits)


@dataclass(frozen=True)
class FjTable:
    """Coefficients C_{ij} = [q^j] C_i plus a truncated-positivity report.

    F_j(1/k) = sum_i C_{ij} k^(-i-1); `negatives` lists every (j, k)
    with k <= k_report where the truncated sum dips below zero.
    """

    i_max: int
    j_max: int
    k_report: int
    c: tuple[tuple[Fraction, ...], ...]  # row i-1 holds [q^0..q^j_max] of C_i
    negatives: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "i_max": self.i_max,
            "j_max": self.j_max,
            "k_report": self.k_report,
            "c": [[str(v) for v in row] for row in self.c],
            "negatives": list(self.negatives),
        }

    def to_csv(self) -> str:
        lines = ["i\\j," + ",".join(str(j) for j in range(self.j_max + 1))]
        for i, row in enumerate(self.c, start=1):
            lines.append(f"{i}," + ",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def fj_extract(i_max: int, j_max: int) -> FjTable:
    """Exact C_{ij} table from the reduced coefficients' q-series."""
    i_max, j_max = _integer(i_max, "table bound"), _integer(j_max, "table bound")
    if i_max < 1 or j_max < 1:
        raise ValueError("table bounds must be positive")
    rows = []
    for i in range(1, i_max + 1):
        series = eval_mpoly_series(reduced_c_n(i), j_max)
        rows.append(tuple(series.coeff(j) for j in range(j_max + 1)))
    negatives = []
    for j in range(1, j_max + 1):
        # F_j(1/k) = s(k) / (den k^(i_max+1)), s(k) = sum_i nums[i-1] k^(i_max-i)
        den = lcm(*(row[j].denominator for row in rows))
        nums = [row[j].numerator * (den // row[j].denominator) for row in rows]
        for k in range(1, _K_REPORT + 1):
            s = 0
            for c in nums:
                s = s * k + c
            if s < 0:
                val = Fraction(s, den * k ** (i_max + 1))
                negatives.append({"j": j, "k": k, "value": str(val)})
    return FjTable(
        i_max=i_max,
        j_max=j_max,
        k_report=_K_REPORT,
        c=tuple(rows),
        negatives=tuple(negatives),
    )
