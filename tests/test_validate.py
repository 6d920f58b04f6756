"""Residual profiles, the ratio law, and the q-coefficient table."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

import defexp.validate
import defexp.zeros
from defexp.exactmath import divisor_sigma
from defexp.precreal import PrecReal, context, to_mpf
from defexp.qseries import coefficient_value
from defexp.validate import (
    fj_extract,
    ratio_check,
    residual_profile,
)
from defexp.zeros import ZeroResult, find_zero, required_precision

Q_HALF = Fraction(1, 2)


def test_zero_table_contents(zeros_q_half):
    assert sorted(zeros_q_half) == list(range(10, 31))
    for k, z in zeros_q_half.items():
        assert z.k == k
        assert z.precision_bits == required_precision(k, Q_HALF)


def synthetic_zero(n, k, bits, series_trunc=60):
    """A fabricated x built from the expansion itself, one order deeper."""
    ctx = context(bits)
    kk = ctx.mpf(k)
    q = to_mpf(ctx, Q_HALF)
    acc = ctx.mpf(1)
    for i in range(1, n + 2):
        ci = coefficient_value(i, Q_HALF, series_trunc, bits)
        acc += to_mpf(ctx, ci) * kk ** (-1 - i)
    x = -kk * q ** (1 - k) * acc
    zero = ctx.mpf(0)
    return ZeroResult(
        k=k,
        q=Q_HALF,
        x=PrecReal(x, bits),
        bracket=(PrecReal(x, bits), PrecReal(x, bits)),
        residual=PrecReal(zero, 1),
        precision_bits=bits,
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_residual_recovers_the_next_coefficient_algebraically(n):
    """Feeding the truncated expansion back in must return C_{n+1} exactly
    (up to roundoff): the subtraction telescopes away every lower order."""
    bits = 320
    k = 17
    prof = residual_profile(Q_HALF, n, [k], zeros={k: synthetic_zero(n, k, bits)})
    (_, _, r), = prof.rows
    want = coefficient_value(n + 1, Q_HALF, 60, bits)
    ctx = context(bits)
    assert abs((to_mpf(ctx, r) - to_mpf(ctx, want)) / to_mpf(ctx, want)) < ctx.mpf(2) ** (
        -bits + 40
    )


def test_residual_profile_rows_and_limit(zeros_q_half):
    prof = residual_profile(Q_HALF, 0, range(10, 31), zeros=zeros_q_half)
    ks = [k for k, _, _ in prof.rows]
    assert ks == list(range(10, 31))
    c1 = coefficient_value(1, Q_HALF, 60, 160)
    gaps = [abs(float(r.value) / float(c1.value) - 1) for _, _, r in prof.rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.11


def test_residual_profile_reports_are_stable_under_extra_precision(zeros_q_half):
    ks = [12, 20]
    bumped = {
        k: find_zero(k, Q_HALF, precision_bits=required_precision(k, Q_HALF) + 64)
        for k in ks
    }
    for n in (0, 3):
        base_rows = residual_profile(Q_HALF, n, ks, zeros=zeros_q_half).rows
        bump_rows = residual_profile(Q_HALF, n, ks, zeros=bumped).rows
        for (_, _, r0), (_, _, r1) in zip(base_rows, bump_rows):
            ctx = context(r1.precision_bits)
            rel = abs((to_mpf(ctx, r0) - to_mpf(ctx, r1)) / to_mpf(ctx, r1))
            assert rel < ctx.mpf(2) ** (-32)


def test_residual_profile_validation(zeros_q_half):
    with pytest.raises(ValueError, match="truncation order"):
        residual_profile(Q_HALF, -1, [10], zeros=zeros_q_half)


def test_a_table_lacking_k_is_an_error_not_a_search(monkeypatch, zeros_q_half):
    """The checks read zeros only from the table: a missing k is a
    ValueError naming k and q, never a find_zero at the default budget."""

    def no_search(*args, **kwargs):
        raise AssertionError("a zero was searched for outside zero_table")

    monkeypatch.setattr(defexp.validate, "find_zero", no_search)
    monkeypatch.setattr(defexp.zeros, "find_zero", no_search)
    with pytest.raises(ValueError, match=r"zero table lacks x_31 at q = 1/2"):
        residual_profile(Q_HALF, 1, [29, 30, 31], zeros=zeros_q_half)
    with pytest.raises(ValueError, match=r"zero table lacks x_31 at q = 1/2"):
        ratio_check(Q_HALF, 29, 30, zeros=zeros_q_half)
    with pytest.raises(ValueError, match=r"zero table lacks x_10 at q = 1/2"):
        residual_profile(Q_HALF, 0, [10], zeros={})


@pytest.mark.parametrize(
    "case, match",
    [
        pytest.param(case, match, id=case)
        for case, match in [
            ("table-for-another-q", "zero table entry 10 holds x_10 at q = 1/2"),
            ("entry-under-the-wrong-k", "zero table entry 10 holds x_11"),
            ("q-above-one", "q must lie in"),
            ("q-zero", "q must lie in"),
        ]
    ],
)
def test_supplied_zero_tables_are_checked(zeros_q_half, case, match):
    """A supplied table is checked against the q and k asked for, and q
    against (0, 1), rather than read as if it were the right zeros."""
    q, table = Q_HALF, zeros_q_half
    if case == "table-for-another-q":
        q = Fraction(1, 3)
    elif case == "entry-under-the-wrong-k":
        table = {**zeros_q_half, 10: zeros_q_half[11]}
    elif case == "q-above-one":
        # every entry claims q = 3/2, so only the range check can refuse it
        q = Fraction(3, 2)
        table = {k: replace(z, q=q) for k, z in zeros_q_half.items()}
    else:
        q = 0
    with pytest.raises(ValueError, match=match):
        residual_profile(q, 1, [10, 11], zeros=table)
    with pytest.raises(ValueError, match=match):
        ratio_check(q, 10, 11, zeros=table)


def test_profile_serialization(zeros_q_half):
    prof = residual_profile(Q_HALF, 1, [10, 11], zeros=zeros_q_half)
    doc = prof.to_json()
    assert doc["q"] == "1/2"
    assert doc["n"] == 1
    assert [row["k"] for row in doc["rows"]] == [10, 11]
    json.dumps(doc)  # must be serializable as-is
    csv = prof.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "k,x_k,r_n"
    assert len(lines) == 3
    assert lines[1].startswith("10,-5223.38")


def test_ratio_deviations_bounded_and_shrinking(zeros_q_half):
    rows = ratio_check(Q_HALF, 10, 25, zeros=zeros_q_half)
    assert [k for k, _ in rows] == list(range(10, 26))
    devs = [float(d.value) for _, d in rows]
    assert all(abs(d) < 0.5 for d in devs)
    assert all(abs(b) < abs(a) for a, b in zip(devs, devs[1:]))


def test_fj_table_first_row_is_the_divisor_sum():
    table = fj_extract(4, 8)
    assert table.c[0][0] == 0
    for j in range(1, 9):
        assert table.c[0][j] == divisor_sigma(j)


def test_fj_table_q_linear_column_alternates():
    table = fj_extract(8, 2)
    for i in range(1, 9):
        assert table.c[i - 1][1] == (-1) ** (i + 1)


def test_fj_truncated_sums_dip_negative_only_at_the_origin():
    table = fj_extract(6, 8)
    assert table.k_report == 20
    spots = {(item["j"], item["k"]) for item in table.negatives}
    assert spots == {(2, 1)}


def test_fj_validation_and_serialization():
    with pytest.raises(ValueError):
        fj_extract(0, 3)
    table = fj_extract(2, 3)
    doc = table.to_json()
    assert doc["c"] == [["0", "1", "3", "4"], ["0", "-1", "-6", "-12"]]
    csv = table.to_csv()
    assert csv.strip().splitlines()[0] == "i\\j,0,1,2,3"
