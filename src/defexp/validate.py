"""Numerical cross-checks of the expansion against computed zeros.

The scaled residual

    r_n(k) = (-x_k/(k q^(1-k)) - 1 - sum_{i=1}^n C_i(q) k^(-1-i)) * k^(n+2)

tends to C_{n+1}(q) as k grows; residual_profile tabulates it from a
zero_table of independently computed zeros.  ratio_check probes the
consecutive-zero ratio law q x_{k+1}/x_k = 1 + 1/k + o(k^-2) on the same
table.  The exact C_{ij} table (FjTable, fj_extract) lives in qseries
and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import fone, from_int, mpf_div, mpf_mul, mpf_neg, mpf_pow_int, mpf_sub

from .exactmath import _positive_index, _q_fraction
from .precreal import PrecReal, _round_fraction, _tagged
from .qseries import SERIES_TRUNC, FjTable, coefficient_value, fj_extract
from .zeros import ZeroResult, find_zero

__all__ = [
    "FjTable",
    "ResidualProfile",
    "fj_extract",
    "ratio_check",
    "residual_profile",
    "zero_table",
]


def zero_table(
    q, k_min: int, k_max: int, precision_bits: int | None = None
) -> dict[int, ZeroResult]:
    """find_zero over a k range, keyed by k: the checks below read zeros
    only from such a table.  The k bounds are read by _positive_index, and
    find_zero checks q and precision_bits (an int of at least 8) before any work."""
    k_min, k_max = _positive_index(k_min), _positive_index(k_max)
    return {k: find_zero(k, q, precision_bits=precision_bits) for k in range(k_min, k_max + 1)}


def _supplied_zero(zeros: dict[int, ZeroResult], k: int, qf: Fraction) -> ZeroResult:
    """zeros[k], checked to be x_k at qf; a table lacking k is a ValueError."""
    zr = zeros.get(k)
    if zr is None:
        raise ValueError(f"zero table lacks x_{k} at q = {qf}")
    if zr.k != k or zr.q != qf:
        raise ValueError(
            f"zero table entry {k} holds x_{zr.k} at q = {zr.q}, not x_{k} at q = {qf}"
        )
    return zr


@dataclass(frozen=True)
class ResidualProfile:
    """Rows (k, x_k, r_n(k)) for one truncation order n."""

    q: Fraction
    n: int
    rows: tuple[tuple[int, PrecReal, PrecReal], ...]

    def to_json(self) -> dict:
        return {
            "q": str(self.q),
            "n": self.n,
            "rows": [
                {"k": k, "x": x.to_decimal(), "r": r.to_decimal()}
                for k, x, r in self.rows
            ],
        }

    def to_csv(self) -> str:
        lines = ["k,x_k,r_n"]
        for k, x, r in self.rows:
            lines.append(f"{k},{x.to_decimal()},{r.to_decimal()}")
        return "\n".join(lines) + "\n"


def residual_profile(q, n: int, k_values, zeros: dict[int, ZeroResult]) -> ResidualProfile:
    """Scaled residuals r_n(k) over the given k values, each at its zero's
    working precision.

    The zeros are read only from `zeros` (a zero_table, so several orders
    n share one expensive table): n and each k are read by _positive_index,
    the entry keyed k must be x_k at this q, and a k the table lacks is a
    ValueError raised before any row.  Each step is one libmp call on
    raw mpfs, rounded to nearest at those bits.
    """
    n = _positive_index(n, "truncation order", 0)
    qf = _q_fraction(q)
    rows = []
    for zr in [_supplied_zero(zeros, _positive_index(k), qf) for k in sorted(k_values)]:
        k, b = zr.k, zr.precision_bits
        kk = from_int(k, b, "n")
        lead = mpf_mul(kk, mpf_pow_int(_round_fraction(qf, b), 1 - k, b, "n"), b, "n")
        t = mpf_sub(mpf_div(mpf_neg(zr.x._mpf_, b, "n"), lead, b, "n"), fone, b, "n")
        for i in range(1, n + 1):
            ci = coefficient_value(i, qf, SERIES_TRUNC, b)._mpf_
            t = mpf_sub(t, mpf_mul(ci, mpf_pow_int(kk, -1 - i, b, "n"), b, "n"), b, "n")
        rows.append((k, zr.x, _tagged(mpf_mul(t, mpf_pow_int(kk, n + 2, b, "n"), b, "n"), b)))
    return ResidualProfile(q=qf, n=n, rows=tuple(rows))


def ratio_check(
    q, k_min: int, k_max: int, zeros: dict[int, ZeroResult]
) -> list[tuple[int, PrecReal]]:
    """Rows (k, (q x_{k+1}/x_k - 1 - 1/k) * k^2) for k in [k_min, k_max].

    Needs x_{k_max+1}; the deviation times k^2 should stay bounded with
    no growth trend.  Zeros are read only from `zeros`, as in
    residual_profile: a table lacking any of k_min..k_max + 1 is a
    ValueError raised before any row.
    """
    qf = _q_fraction(q)
    k_min, k_max = _positive_index(k_min), _positive_index(k_max)
    out = []
    table = {k: _supplied_zero(zeros, k, qf) for k in range(k_min, k_max + 2)}
    for k in range(k_min, k_max + 1):
        za, zb = table[k], table[k + 1]
        b = min(za.precision_bits, zb.precision_bits)  # each step rounded to nearest there
        ratio = mpf_div(mpf_mul(_round_fraction(qf, b), zb.x._mpf_, b, "n"), za.x._mpf_, b, "n")
        dev = mpf_sub(mpf_sub(ratio, fone, b, "n"), mpf_div(fone, from_int(k), b, "n"), b, "n")
        k2 = mpf_pow_int(from_int(k, b, "n"), 2, b, "n")
        out.append((k, _tagged(mpf_mul(dev, k2, b, "n"), b)))
    return out
