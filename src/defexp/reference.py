"""Known-good closed forms for the first expansion coefficients.

Frozen, hand-checked data: the polynomials C_1..C_6 (raw and reduced),
the small Delta table in both its j-polynomial and (u, v) encodings,
the first S-constants, and the Bernoulli-number pattern of the linear
terms.  The selftest verb and the exact regression tests replay
everything here against the live recursion.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import _positive_index, bernoulli
from .jpoly import J, JPoly, UVForm, delta
from .symcoeff import (
    MPoly,
    c_n,
    c_symbol,
    linear_part,
    p_m,
    reduced_c_n,
    s_poly,
)

__all__ = [
    "REFERENCE_C_RAW",
    "REFERENCE_C_REDUCED",
    "REFERENCE_DELTA_JPOLY",
    "REFERENCE_DELTA_UV",
    "REFERENCE_P2",
    "REFERENCE_S_CONSTANTS",
    "reference_s12",
    "run_selftest",
    "bernoulli_linear_parts",
]


def _apoly(terms: dict) -> MPoly:
    return MPoly("A", {e: Fraction(*c) if isinstance(c, tuple) else Fraction(c) for e, c in terms.items()})


#: C_n exactly as produced by the recursion (polynomials in A_0..A_{n-1})
REFERENCE_C_RAW: dict[int, MPoly] = {
    1: _apoly({(1,): 1}),
    2: _apoly({(0, 1): -1}),
    3: _apoly({(1,): (-1, 10), (0, 1): (3, 5), (0, 0, 1): (1, 2), (2,): (-13, 10)}),
    4: _apoly(
        {
            (0, 1): (1, 10),
            (0, 0, 1): (-14, 15),
            (0, 0, 0, 1): (-1, 6),
            (1, 1): (23, 5),
        }
    ),
}

#: the same coefficients pushed into Q[A_0, A_1, A_2]
REFERENCE_C_REDUCED: dict[int, MPoly] = {
    1: REFERENCE_C_RAW[1],
    2: REFERENCE_C_RAW[2],
    3: REFERENCE_C_RAW[3],
    4: _apoly(
        {
            (0, 1): (1, 10),
            (0, 0, 1): (-11, 10),
            (1, 1): (23, 5),
            (0, 2): -6,
            (1, 0, 1): 4,
        }
    ),
    5: _apoly(
        {
            (1,): (1, 21),
            (0, 1): (-2, 7),
            (0, 0, 1): (26, 21),
            (2,): (53, 70),
            (0, 2): 22,
            (1, 2): -36,
            (1, 1): (-159, 35),
            (1, 0, 1): (-43, 2),
            (0, 1, 1): 2,
            (3,): (737, 210),
            (2, 0, 1): 24,
        }
    ),
    6: _apoly(
        {
            (0, 1): (-1, 21),
            (0, 0, 1): (-20, 21),
            (1, 1): (-74, 35),
            (0, 2): (-1401, 35),
            (0, 0, 2): (-2, 5),
            (1, 0, 1): (705, 14),
            (0, 1, 1): (-101, 10),
            (1, 2): (1662, 5),
            (2, 1): (-321, 14),
            (0, 3): (-36, 5),
            (2, 0, 1): (-1132, 5),
            (2, 2): (-864, 5),
            (1, 1, 1): (72, 5),
            (3, 0, 1): (576, 5),
        }
    ),
}

#: P_2 = A_1 - 3 A_0^2
REFERENCE_P2 = _apoly({(0, 1): 1, (2,): -3})

#: the Delta(N, m) table as plain polynomials in j, factored form
REFERENCE_DELTA_JPOLY: dict[tuple[int, int], JPoly] = {
    (0, 0): JPoly(),
    (1, 0): JPoly(),
    (2, 0): Fraction(1, 6) * J * (J - 1) * (2 * J - 1),
    (2, 1): 2 * J - 1,
    (3, 0): Fraction(-1, 12) * (J - 1) ** 2 * J**2 * (2 * J - 1),
    (3, 1): Fraction(-1, 2) * (J - 1) * J * (2 * J - 1),
    (4, 0): Fraction(1, 240) * (J - 1) * J * (2 * J - 1) * JPoly((-4, -12, 17, -10, 5)),
    (4, 1): Fraction(1, 24) * (J - 1) * J * (2 * J - 1) * JPoly((2, -3, 3)),
    (4, 2): JPoly(),
    (5, 0): Fraction(-1, 1440) * (J - 1) ** 2 * J**2 * (2 * J - 1) * JPoly((-12, -56, 61, -10, 5)),
    (5, 1): Fraction(-1, 48) * (J - 1) ** 2 * J**2 * (2 * J - 1) * JPoly((6, -1, 1)),
    (5, 2): JPoly(),
}

#: the same table rewritten by hand in the (u, v) basis
REFERENCE_DELTA_UV: dict[tuple[int, int], UVForm] = {
    (0, 0): UVForm(),
    (1, 0): UVForm(),
    (2, 0): UVForm((0, Fraction(1, 6))),
    (2, 1): UVForm((1,)),
    (3, 0): UVForm((0, 0, Fraction(-1, 12))),
    (3, 1): UVForm((0, Fraction(-1, 2))),
    (4, 0): UVForm((0, Fraction(-1, 60), Fraction(1, 20), Fraction(1, 48))),
    (4, 1): UVForm((0, Fraction(1, 12), Fraction(1, 8))),
    (4, 2): UVForm(),
    (5, 0): UVForm((0, 0, Fraction(1, 120), Fraction(-7, 180), Fraction(-1, 288))),
    (5, 1): UVForm((0, 0, Fraction(-1, 8), Fraction(-1, 48))),
    (5, 2): UVForm(),
}

#: first constant S-values: S_0(1)=0, S_1(1)=1/6, S_0(2)=0, S_2(2)=-1/12
REFERENCE_S_CONSTANTS: dict[tuple[int, int], Fraction] = {
    (0, 1): Fraction(0),
    (1, 1): Fraction(1, 6),
    (0, 2): Fraction(0),
    (2, 2): Fraction(-1, 12),
}


def reference_s12() -> MPoly:
    """S_1(2) = -C_1/2."""
    return Fraction(-1, 2) * c_symbol(1)


def bernoulli_linear_parts(n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Linear parts of the reduced C_{2n-1} and C_{2n} for n >= 2.

    C_{2n-1}: (6 B_{2n}/n) A_0 - (36 B_{2n}/n) A_1 + (1 + 30 B_{2n}/n) A_2
    C_{2n}:                 - (6 B_{2n}/n) A_1 + (6 B_{2n}/n - 1) A_2
    """
    n = _positive_index(n, "linear-term pattern index", 2)
    b = bernoulli(2 * n) / n
    odd = (6 * b, -36 * b, 1 + 30 * b)
    even = (Fraction(0), -6 * b, 6 * b - 1)
    return odd, even


def run_selftest() -> list[dict]:
    """Replay every frozen fixture against the live code.

    Returns one record per fixture group with a pass flag; everything is
    exact arithmetic, so any mismatch is a real regression.
    """
    results: list[dict] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        rec = {"name": name, "pass": bool(ok)}
        if detail and not ok:
            rec["detail"] = detail
        results.append(rec)

    for n, want in REFERENCE_C_RAW.items():
        got = c_n(n)
        check(f"c{n}-raw", got == want, f"got {got!r}")
    for n, want in REFERENCE_C_REDUCED.items():
        got = reduced_c_n(n)
        check(f"c{n}-reduced", got == want, f"got {got!r}")

    check("p2", p_m(2) == REFERENCE_P2, repr(p_m(2)))

    uv_ok = all(delta(nm[0], nm[1]) == want for nm, want in REFERENCE_DELTA_UV.items())
    check("delta-uv-table", uv_ok)
    j_ok = all(
        delta(nm[0], nm[1]).to_jpoly() == want
        for nm, want in REFERENCE_DELTA_JPOLY.items()
    )
    check("delta-jpoly-table", j_ok)

    s_ok = all(
        s_poly(i, n) == MPoly.const("C", v)
        for (i, n), v in REFERENCE_S_CONSTANTS.items()
    )
    check("s-constants", s_ok)
    check("s12", s_poly(1, 2) == reference_s12(), repr(s_poly(1, 2)))

    t2_ok = True
    t2_detail = ""
    for n in range(2, 7):
        odd, even = bernoulli_linear_parts(n)
        got_odd = linear_part(reduced_c_n(2 * n - 1))
        got_even = linear_part(reduced_c_n(2 * n))
        if got_odd != odd or got_even != even:
            t2_ok = False
            t2_detail = f"n={n}: {got_odd} vs {odd}; {got_even} vs {even}"
            break
    check("linear-closed-forms", t2_ok, t2_detail)

    return results
