"""Exact truncated q-series and their numerical evaluation.

A QSeries is a power series in q known through a fixed truncation
order; coefficients are exact rationals.  The generators of interest
are the divisor-power series A_i = sum m^i sigma(m) q^m, the Eisenstein
series E2/E4/E6 (their Lambert series rewritten as divisor sums), and
Jacobi's cube P0 = prod (1-q^n)^3 = sum (-1)^(j-1) (2j-1) q^(j(j-1)/2).
fj_extract repackages the reduced C_i by powers of q.  Only
eval_series_numeric rounds: it loads mpmath and precreal when called,
so the exact layer imports neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactmath import _positive_index, _q_fraction, divisor_sigma, ring_power, truncated_product
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


class QSeries:
    """Truncated power series in q over Fraction (orders 0..trunc)."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, coeffs, trunc: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if trunc is None:
            trunc = len(cs) - 1
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
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
    if i < 0:
        raise ValueError("A index must be nonnegative")
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
    scale, power = _EISENSTEIN[which]
    coeffs = [Fraction(1)] + [
        Fraction(scale * divisor_sigma(m, power)) for m in range(1, trunc + 1)
    ]
    return QSeries(coeffs, trunc)


def jacobi_p0(trunc: int) -> QSeries:
    """P0 as the theta sum: sum_{j>=1} (-1)^(j-1) (2j-1) q^(j(j-1)/2)."""
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
    if trunc < 0:
        raise ValueError("truncation order must be nonnegative")
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
    if trunc < 0:
        raise ValueError("truncation order must be nonnegative")
    acc = [0] * (trunc + 1)
    for key, c in p.nums.items():
        for k, v in enumerate(_monomial_series(family, _unpack(key), trunc)):
            if v:
                acc[k] += c * v
    return QSeries([Fraction(v, p.den) for v in acc], trunc)


def eval_series_numeric(s: QSeries, q0, precision_bits: int) -> PrecReal:
    """Horner evaluation at 0 < q0 < 1 on Python ints, at a working
    precision of at least 4 bits.  q0 is read as an exact Fraction
    (_q_fraction); it and each coefficient are rounded as _round_fraction
    rounds, and each product acc q and each sum is formed exactly and
    rounded once to nearest, half to even.  That is bit for bit the loop
    of libmp's mpf_mul and mpf_add it replaces: a sum of operands more
    than bits + 4 bits apart in magnitude rounds back to the larger."""
    from mpmath.libmp import from_man_exp

    from .precreal import _fraction_bits, _round, _tagged

    bits = _positive_index(precision_bits, "working precision in bits", 4)
    qm, qe = _fraction_bits(_q_fraction(q0), bits)
    if qm.bit_length() + qe > 0:  # q0 rounds to 1
        raise ValueError("series evaluation needs 0 < q0 < 1")
    am = ae = 0  # the accumulator am 2^ae, am signed
    for c in reversed(s.coeffs):
        if am:
            m, ae = _round(abs(am) * qm, ae + qe, bits)
            am = -m if am < 0 else m
        cm, ce = _fraction_bits(c, bits)
        if not cm:
            continue
        gap = am.bit_length() + ae - cm.bit_length() - ce
        if not am or gap < -bits - 4:
            am, ae = cm, ce
        elif gap <= bits + 4:
            e = min(ae, ce)
            total = (am << (ae - e)) + (cm << (ce - e))
            m, ae = _round(abs(total), e, bits)
            am = -m if total < 0 else m
    return _tagged(from_man_exp(am, ae), bits)


@lru_cache(maxsize=None)
def _coefficient_series(i: int, trunc: int) -> QSeries:
    """Exact q-series of the reduced C_i, shared by every bit count."""
    return eval_mpoly_series(reduced_c_n(i), trunc)


@lru_cache(maxsize=256)  # keyed by bits, which every k sets anew
def coefficient_value(i: int, q: Fraction, trunc: int, precision_bits: int) -> PrecReal:
    """Numeric C_i(q) from the reduced coefficient's truncated q-series."""
    series = _coefficient_series(i, trunc)
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
