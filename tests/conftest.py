"""Shared fixtures: the q = 1/2 zero tables are expensive, build them once;
the inverse of to_eisenstein, which only the tests need."""

from fractions import Fraction

import pytest

from defexp.symcoeff import MPoly
from defexp.validate import zero_table
from defexp.zeros import scan_zeros


@pytest.fixture(scope="session")
def q_half():
    return Fraction(1, 2)


@pytest.fixture(scope="session")
def zeros_q_half(q_half):
    """x_k for k = 10..30 at required_precision(k, q) bits."""
    return zero_table(q_half, 10, 30)


@pytest.fixture(scope="session")
def scanned_q_half(q_half):
    """The first six zeros from the grid-scan oracle (covers k <= 6)."""
    return scan_zeros(q_half, -300, 6)


_E_IN_A: dict[int, MPoly] = {
    # E2 = 1 - 24 A_0
    0: MPoly("A", {(): 1, (1,): -24}),
    # E4 = 1 - 48 A_0 + 576 A_0^2 + 288 A_1
    1: MPoly("A", {(): 1, (1,): -48, (2,): 576, (0, 1): 288}),
    # E6 = 1 - 72 A_0 + 1728 A_0^2 - 13824 A_0^3 + 432 A_1 - 10368 A_0 A_1 - 864 A_2
    2: MPoly(
        "A",
        {
            (): 1,
            (1,): -72,
            (2,): 1728,
            (3,): -13824,
            (0, 1): 432,
            (1, 1): -10368,
            (0, 0, 1): -864,
        },
    ),
}


def _from_eisenstein(p: MPoly) -> MPoly:
    """Rewrite an E-polynomial in terms of A_0, A_1, A_2."""
    if p.family != "E":
        raise ValueError("from_eisenstein acts on E-symbols")
    return p.substitute(_E_IN_A)


@pytest.fixture(scope="session")
def from_eisenstein():
    """The inverse of to_eisenstein, for the round-trip and series checks."""
    return _from_eisenstein
