"""Multivariate symbol layer, the derivation, closure, and the recursion."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defexp.exactmath import truncated_product
from defexp.jpoly import JPoly
from defexp.qseries import QSeries
from defexp.reference import (
    REFERENCE_C_RAW,
    REFERENCE_C_REDUCED,
    REFERENCE_P2,
    REFERENCE_S_CONSTANTS,
    bernoulli_linear_parts,
    reference_s12,
)
from defexp.symcoeff import (
    _A_IN_E,
    MPoly,
    _weighted_sum,
    c_n,
    kernel_expand,
    linear_part,
    p_m,
    reduce_to_A012,
    reduced_c_n,
    s_poly,
    theta,
    to_eisenstein,
)

A0 = MPoly.symbol("A", 0)
A1 = MPoly.symbol("A", 1)
A2 = MPoly.symbol("A", 2)


def constant_eval(p, values):
    """Evaluate an A-polynomial at rational symbol values."""
    mapping = {i: MPoly.const("A", v) for i, v in enumerate(values)}
    out = p.substitute(mapping)
    assert out.max_index() == -1
    return out.constant_term()


def test_mpoly_arithmetic_via_evaluation():
    vals = (Fraction(2), Fraction(-1, 3), Fraction(5))
    p = A0 * A0 - A1 * Fraction(3) + MPoly.const("A", Fraction(1, 2))
    q = A2 * A1 + A0
    assert constant_eval(p + q, vals) == constant_eval(p, vals) + constant_eval(q, vals)
    assert constant_eval(p * q, vals) == constant_eval(p, vals) * constant_eval(q, vals)
    assert constant_eval(p - q, vals) == constant_eval(p, vals) - constant_eval(q, vals)


def test_mpoly_canonical_order_and_json():
    p = A2 + A0 * A1 + MPoly.const("A", 7)
    doc = p.to_json()
    assert doc["symbols"] == ["A0", "A1", "A2"]
    degrees = [sum(t["exps"]) for t in doc["terms"]]
    assert degrees == sorted(degrees)


def test_packed_exponents_stop_at_127():
    """Each exponent has an 8-bit field under a guard bit: reaching 128
    raises instead of carrying into the next slot."""
    p = A0
    for _ in range(126):
        p = p * A0
    assert p.terms == {(127,): 1}
    assert (p * A1).terms == {(127, 1): 1}  # a full field does not carry
    with pytest.raises(ValueError):
        p * A0
    with pytest.raises(ValueError):
        _weighted_sum("A", [(1, p, A0)])
    with pytest.raises(ValueError):
        theta(MPoly("A", {(1, 127): 1}))
    with pytest.raises(ValueError):
        MPoly("A", {(1, 127): 1}).substitute({0: A1})
    assert MPoly("A", {(0, 0, 127): 2}).max_index() == 2
    for exps in ((128,), (0, 0, 128), (1, 200)):
        with pytest.raises(ValueError):
            MPoly("A", {exps: 1})
    with pytest.raises(ValueError):
        MPoly("A", {(128,): 0})  # checked even where the coefficient is zero


def test_constant_polynomials_hash_as_the_numbers_they_equal():
    for value in (0, 3, Fraction(-7, 4)):
        for p in (MPoly.const("A", value), MPoly.const("E", value), A0 - A0 + value):
            assert p == value and hash(p) == hash(value)
            assert value in {p} and p in {value}
    assert MPoly.zero("C") == 0 and hash(MPoly.zero("C")) == hash(0)
    assert 0 in {MPoly.zero("C")} and A0 not in {0}


def test_theta_is_a_derivation():
    p = A0 * A1
    q = A0 + A2
    lhs = theta(p * q)
    rhs = theta(p) * q + p * theta(q)
    assert lhs == rhs


def test_theta_shifts_symbol_index():
    assert theta(A0) == A1
    assert theta(A1) == A2
    assert theta(A2) == MPoly.symbol("A", 3)


def test_theta_with_closure_stays_in_three_symbols():
    closed = reduce_to_A012(theta(A2))
    assert closed.max_index() <= 2
    assert closed == A2 + A1 * A1 * Fraction(36) - A0 * A2 * Fraction(24)


def test_closure_chain_consistency():
    """Reducing A_{n+1} must equal applying the closed derivation to reduced A_n."""
    for n in range(2, 6):
        lower = reduce_to_A012(MPoly.symbol("A", n))
        lifted = reduce_to_A012(theta(lower))
        assert lifted == reduce_to_A012(MPoly.symbol("A", n + 1))


def test_reduce_is_identity_on_low_symbols():
    p = A0 * A2 - A1
    assert reduce_to_A012(p) == p


def test_raw_and_reduced_coefficients_agree_as_functions():
    """Substituting the closure values for A_3, A_4, ... collapses raw to reduced."""
    base = (Fraction(1, 2), Fraction(-2, 3), Fraction(4, 5))
    for n in range(1, 9):
        raw = c_n(n)
        top = raw.max_index()
        values = list(base)
        for i in range(3, top + 1):
            values.append(constant_eval(reduce_to_A012(MPoly.symbol("A", i)), base))
        assert constant_eval(raw, values) == constant_eval(reduce_to_A012(raw), base)


@pytest.mark.parametrize("n", sorted(REFERENCE_C_RAW))
def test_c_n_raw_reference(n):
    assert c_n(n) == REFERENCE_C_RAW[n]


@pytest.mark.parametrize("n", sorted(REFERENCE_C_REDUCED))
def test_c_n_reduced_reference(n):
    assert reduce_to_A012(c_n(n)) == REFERENCE_C_REDUCED[n]


def c_symbol_route(n):
    """C_n from the certified S-polynomials: C_j -> c_n(j) substituted."""
    lower = {j - 1: c_n(j) for j in range(1, n)}

    def sigma(p):
        # an empty mapping (n = 1) keeps the C family; S_i(1) are constants
        return p.substitute(lower) if lower else MPoly.const("A", p.constant_term())

    total = -sigma(s_poly(0, n))
    for i in range(1, n + 1):
        total = total + (3 * 2**i) * sigma(s_poly(i, n)) * p_m(i)
    return total


@pytest.mark.parametrize("n", range(1, 13))
def test_a_ring_route_matches_c_symbol_route(n):
    """c_n composes in the A-ring; kernel_expand certifies s_poly only."""
    assert c_n(n) == c_symbol_route(n)


def weight(exps):
    """A_i has weight 2i + 2."""
    return sum((2 * i + 2) * e for i, e in enumerate(exps))


@pytest.mark.parametrize("n", range(1, 25))
def test_weight_filtration(n):
    weights = [weight(e) for e in reduced_c_n(n).terms]
    assert max(weights) == 2 * n  # bounded by 2n, top part not empty
    assert min(weights) == (2 if n % 2 else 4)
    raw_top = [e for e in c_n(n).terms if weight(e) == 2 * n]
    assert len(raw_top) == 1


def test_reduced_c_n_is_memoised_reduction():
    assert reduced_c_n(7) == reduce_to_A012(c_n(7))
    assert reduced_c_n(7) is reduced_c_n(7)


# Four threads on a barrier build C_1..C_8 at once in a fresh process,
# switching every microsecond; "warm" builds the Bernoulli numbers and the
# Delta blocks first, so the threads race on the recursion's own caches.
_THREAD_RACE = """
import json, sys, threading
from defexp.exactmath import bernoulli
from defexp.jpoly import delta
from defexp.symcoeff import c_n

if sys.argv[1] == "warm":
    bernoulli(12)
    for n_order in range(2, 10):
        for m in range(n_order // 2 + 1):
            delta(n_order, m)
barrier = threading.Barrier(4)
results = [None] * 4

def work(slot):
    barrier.wait()
    try:
        results[slot] = [c_n(n).to_json() for n in range(1, 9)]
    except Exception as exc:
        results[slot] = repr(exc)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "results": results}))
"""


def _fresh_python(script, *args):
    """stdout of `script` run in a new interpreter on the defexp under test."""
    src = str(Path(sys.modules["defexp"].__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_c_n_from_several_threads_matches_one_thread(start):
    doc = json.loads(_fresh_python(_THREAD_RACE, start))
    assert doc["alive"] == 0
    want = [c_n(n).to_json() for n in range(1, 9)]
    for n, ref in REFERENCE_C_RAW.items():
        assert want[n - 1] == ref.to_json()
    assert doc["results"] == [want] * 4


_PEAK_DEPTH = """
import sys
from defexp.symcoeff import c_n

depth = peak = 0

def count(frame, event, arg):
    global depth, peak
    if event == "call":
        depth += 1
        peak = max(peak, depth)
    elif event == "return":
        depth -= 1

sys.setprofile(count)
c_n(int(sys.argv[1]))
sys.setprofile(None)
print(peak)
"""


def test_cold_c_n_stack_depth_does_not_grow_with_n():
    """C_1..C_n are built in ascending order, so a cold C_12 needs no
    deeper a stack than a cold C_4."""
    assert int(_fresh_python(_PEAK_DEPTH, "12")) <= int(_fresh_python(_PEAK_DEPTH, "4"))


def test_p_chain_reference_and_recursion():
    assert p_m(1) == A0
    assert p_m(2) == REFERENCE_P2
    # the chain lives in the extended symbol family, no closure applied
    for m in range(1, 5):
        assert p_m(m + 1) == theta(p_m(m)) - A0 * p_m(m) * Fraction(3)


def test_linear_part_of_low_order_coefficients():
    assert linear_part(reduce_to_A012(c_n(3))) == (
        Fraction(-1, 10),
        Fraction(3, 5),
        Fraction(1, 2),
    )
    assert linear_part(reduce_to_A012(c_n(2))) == (0, -1, 0)


@pytest.mark.parametrize("n", range(7, 13))
def test_bernoulli_linear_parts_beyond_the_acceptance_range(n):
    """C_13..C_24: the paper's Bernoulli pattern past criterion 2's n <= 6."""
    odd, even = bernoulli_linear_parts(n)
    assert linear_part(reduced_c_n(2 * n - 1)) == odd
    assert linear_part(reduced_c_n(2 * n)) == even


def test_linear_part_requires_reduced_input():
    with pytest.raises(ValueError):
        linear_part(c_n(4))  # raw form still mentions A_3


def test_to_eisenstein_shared_powers_match_a_fresh_cache():
    for n in range(1, 15):
        p = reduced_c_n(n)
        assert to_eisenstein(p) == p.substitute(dict(_A_IN_E), powers={})


def test_eisenstein_round_trips(from_eisenstein):
    for p in (A0, A1, A2, A0 * A2 - A1 * A1, reduce_to_A012(c_n(4))):
        assert from_eisenstein(to_eisenstein(p)) == p
    e_poly = MPoly.symbol("E", 0) * MPoly.symbol("E", 1)
    assert to_eisenstein(from_eisenstein(e_poly)) == e_poly


def test_s_constant_references():
    for (i, n), want in REFERENCE_S_CONSTANTS.items():
        assert s_poly(i, n).constant_term() == want
    assert s_poly(1, 2) == reference_s12()


def test_s0_is_a_coefficient_convolution():
    """The i = 0 polynomial is the full convolution sum over split indices."""
    for n in range(3, 9):
        want = MPoly.zero("C")
        for i1 in range(1, n - 1):
            i2 = n - 1 - i1
            want = want + MPoly.symbol("C", i1 - 1) * MPoly.symbol("C", i2 - 1)
        assert s_poly(0, n) == want


@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_expansion_matches_recursion_polynomials(n):
    s_table = kernel_expand(n)
    for i in range(0, n + 1):
        assert s_table[i] == s_poly(i, n)



# -- integer numerators against a Fraction reference -----------------------

_coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
_exps = st.lists(st.integers(0, 2), max_size=3).map(tuple)
_terms = st.dictionaries(_exps, _coeffs, max_size=5)
# small exponents and exponents next to the packed limit of 127
_edge_exps = st.lists(st.integers(0, 2) | st.integers(125, 127), max_size=3).map(tuple)
_edge_terms = st.dictionaries(_edge_exps, _coeffs, max_size=5)

#: the guard (top) bit of each 8-bit exponent field of a packed key
_GUARD_BITS = int.from_bytes(b"\x80" * 16, "little")


def _trim(e):
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def _ref_clean(terms):
    out = {}
    for e, c in terms.items():
        e = _trim(tuple(e))
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            n = max(len(e1), len(e2))
            e = tuple(x + y for x, y in zip(e1 + (0,) * (n - len(e1)), e2 + (0,) * (n - len(e2))))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref_clean(out)


def _ref_product(x, y):
    prod = [0] * max(len(x) + len(y) - 1, 0)
    for i, a in enumerate(x):
        for k, b in enumerate(y):
            prod[i + k] += a * b
    return prod


def _ref_substitute(terms, slot, repl):
    out = {}
    for e, c in terms.items():
        kept = _trim(tuple(0 if i == slot else x for i, x in enumerate(e)))
        part = {kept: c}
        for _ in range(e[slot] if slot < len(e) else 0):
            part = _ref_mul(part, repl)
        for k, v in part.items():
            out[k] = out.get(k, Fraction(0)) + v
    return _ref_clean(out)


def _ref_theta(terms):
    out = {}
    for e, c in terms.items():
        for i, x in enumerate(e):
            if x:
                ne = list(e) + [0] * (i + 2 - len(e))
                ne[i] -= 1
                ne[i + 1] += 1
                out[tuple(ne)] = out.get(tuple(ne), Fraction(0)) + c * x
    return _ref_clean(out)


def _canonical(p):
    if isinstance(p, JPoly):
        nums = p.nums
        well_formed = not nums or nums[-1] != 0
    else:
        # packed keys: nonnegative ints with every field's guard bit clear
        nums = tuple(p.nums.values())
        well_formed = all(
            c and isinstance(e, int) and e >= 0 and not e & _GUARD_BITS for e, c in p.nums.items()
        )
    return well_formed and p.den > 0 and gcd(p.den, *nums) == 1


def _overflows(terms):
    return any(x >= 128 for e in terms for x in e)


_weights = st.one_of(st.integers(-6, 6), _coeffs)


def _ref_scaled(w, terms):
    return {e: w * c for e, c in terms.items()}


@settings(max_examples=100, deadline=None, database=None)
@given(
    _edge_terms,
    _terms,
    st.integers(0, 2),
    st.lists(_coeffs, max_size=5),
    st.lists(_coeffs, max_size=5),
    st.tuples(_weights, _weights),
    st.integers(0, 9),
    st.integers(-1, 5),
)
def test_integer_numerators_match_fraction_reference(ta, tb, slot, ja, jb, ws, trunc, n):
    a, b = MPoly("A", ta), MPoly("A", tb)
    ra, rb = _ref_clean(ta), _ref_clean(tb)
    assert _canonical(a) and _canonical(b) and a.terms == ra and b.terms == rb
    total = dict(ra)
    for e, c in rb.items():
        total[e] = total.get(e, Fraction(0)) + c
    weighted = _ref_scaled(ws[0], _ref_mul(ra, rb))
    for e, c in _ref_scaled(ws[1], rb).items():
        weighted[e] = weighted.get(e, Fraction(0)) + c
    # the substitution raises b to a's exponent in `slot`: keep that small
    ra_sub = {e: c for e, c in ra.items() if (e[slot] if slot < len(e) else 0) <= 2}
    a_sub = MPoly("A", ra_sub)
    checks = [
        (lambda: a + b, _ref_clean(total)),
        (lambda: _weighted_sum("A", [(ws[0], a, b), (ws[1], b, None)]), _ref_clean(weighted)),
        (lambda: a - a, {}),
        (lambda: a * b, _ref_mul(ra, rb)),
        (lambda: a_sub.substitute({slot: b}), _ref_substitute(ra_sub, slot, rb)),
        (lambda: theta(a), _ref_theta(ra)),
    ]
    for op, want in checks:
        if _overflows(want):  # a result past the packed limit raises
            with pytest.raises(ValueError):
                op()
            continue
        got = op()
        assert _canonical(got)
        assert got.terms == want
        assert got == MPoly("A", want) and hash(got) == hash(MPoly("A", want))
    pa, pb = JPoly(ja), JPoly(jb)
    prod = _ref_product(ja, jb)
    got = pa * pb
    assert _canonical(pa) and _canonical(got)
    assert got == JPoly(prod)
    assert list(got.coeffs) + [0] * (len(prod) - len(got.coeffs)) == prod
    for x, y in ((ja, jb), ([c.numerator for c in ja], [c.numerator for c in jb])):
        want = (_ref_product(x, y) + [0] * (trunc + 1))[: trunc + 1]
        assert truncated_product(x, y, trunc) == want
    qa = QSeries(ja[: trunc + 1], trunc)
    for base, one in ((pa, JPoly((1,))), (qa, QSeries.const(1, trunc))):
        if n < 0:
            with pytest.raises(ValueError):
                base**n
            continue
        want = one
        for _ in range(n):
            want = want * base
        assert base**n == want
