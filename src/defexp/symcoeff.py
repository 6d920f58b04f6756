"""Symbolic expansion coefficients C_n and their basis changes.

C_n(q) lives in the polynomial ring generated by the divisor-power
series A_i = sum_m m^i sigma(m) q^m.  This module builds the C_n by the
kernel recursion, rewrites them in the closed ring Q[A_0, A_1, A_2]
(every A_n with n >= 3 is itself a polynomial in the first three), and
converts to and from the Eisenstein generators E_2, E_4, E_6.

Two independent routes produce the kernel coefficients:

* s_poly assembles S_i(n) from the Delta(N, m) blocks with the
  composition-sum bookkeeping, in the symbols C_1, C_2, ...;
* kernel_expand multiplies the kernel factors out as literal truncated
  power series and reads the x^(n-1) coefficient off directly.

Tests compare the two term-for-term; that cross-check is what certifies
the index bookkeeping in s_poly.  c_n runs the same bookkeeping (one
shared loop over the Delta blocks) on compositions built directly in
the A-ring, so each product of lower coefficients is formed only once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from math import gcd, lcm
from operator import add, or_

from .exactmath import _positive_index, gen_binomial
from .jpoly import (
    DecompositionError,
    J,
    JPoly,
    delta,
    q_poly,
    sigma_poly,
    uv_decompose,
)

__all__ = [
    "MPoly",
    "a_symbol",
    "c_n",
    "c_symbol",
    "kernel_expand",
    "linear_part",
    "p_m",
    "reduce_to_A012",
    "reduced_c_n",
    "s_poly",
    "theta",
    "to_eisenstein",
]

_E_NAMES = ("E2", "E4", "E6")
#: symbol families: A_i (i >= 0), C_i (i >= 1), Eisenstein
_FAMILIES = ("A", "C", "E")


#: bits per exponent field of a packed monomial key (one byte, so _pack and
#: _unpack go through bytes); the top bit of each field is a guard, so
#: exponents stay below _FIELD_LIMIT
_FIELD_BITS = 8
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_FIELD_LIMIT = 1 << (_FIELD_BITS - 1)


def _pack(exps) -> int:
    """The packed key of an exponent tuple: slot i in bits 8i..8i+7."""
    exps = tuple(exps)
    if any(x < 0 for x in exps):
        raise ValueError("negative exponent")
    if any(x >= _FIELD_LIMIT for x in exps):
        raise ValueError(f"exponent {max(exps)} is past the packed limit {_FIELD_LIMIT - 1}")
    return int.from_bytes(bytes(exps), "little")


def _unpack(key: int) -> tuple:
    """The trimmed exponent tuple of a packed key."""
    return tuple(key.to_bytes((key.bit_length() + 7) // 8, "little"))


def _add_product(out: dict, t1: dict, t2: dict, scale: int = 1) -> None:
    """out += scale * t1 * t2 on integer numerators; zero entries may remain.

    Keys are packed monomials below the guard bits, so each monomial
    product is one int addition that no field carries out of."""
    for e1, c1 in t1.items():
        if scale != 1:
            c1 = c1 * scale
        for e2, c2 in t2.items():
            e = e1 + e2
            cur = out.get(e)
            out[e] = c1 * c2 if cur is None else cur + c1 * c2


class MPoly:
    """Sparse multivariate polynomial over Q in one symbol family.

    The coefficients are integer numerators `nums` over one positive
    denominator `den`, and the form is canonical, with the gcd of den and
    all numerators 1 (the zero polynomial has den 1).  Slot i of an
    exponent tuple refers to the i-th symbol of the family (A_i, or
    C_{i+1}, or E2/E4/E6).

    nums maps packed monomial keys to nonzero ints: the exponent of slot i
    sits in the 8-bit field at bit 8i, so a monomial product is one int
    addition.  The top bit of every field is a guard: exponents are at
    most 127, and a constructor, product, substitution or theta that
    would reach 128 in any slot raises ValueError.  (The weight of C_n is
    2n, so no exponent met while building C_n exceeds n.)  Exponent
    tuples appear only at the boundary: the constructor takes them, and
    `terms` (the Fraction view) and `canonical_terms` return trimmed
    tuples; canonical term order for printing and serialization is
    graded lexicographic on those tuples.
    """

    __slots__ = ("family", "nums", "den")

    def __init__(self, family: str, terms=None):
        if family not in _FAMILIES:
            raise ValueError(f"unknown symbol family {family!r}")
        clean: dict[int, Fraction] = {}
        for exps, c in (terms or {}).items():
            e, c = _pack(exps), Fraction(c)
            if not c:
                continue
            if family == "E" and e >> (3 * _FIELD_BITS):
                raise ValueError("Eisenstein family has only E2, E4, E6")
            clean[e] = clean.get(e, Fraction(0)) + c
        den = lcm(*(c.denominator for c in clean.values()))
        self._set(family, {e: c.numerator * (den // c.denominator) for e, c in clean.items()}, den)

    def _set(self, family: str, nums: dict, den: int) -> None:
        nums = {e: c for e, c in nums.items() if c}
        # a field of the keys' bitwise or holds the or of that slot's exponents
        if max(_unpack(reduce(or_, nums, 0)), default=0) >= _FIELD_LIMIT:
            raise ValueError(f"an exponent passed the packed limit {_FIELD_LIMIT - 1}")
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
        self.family = family
        self.nums = nums
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def _from_nums(cls, family: str, nums: dict, den: int = 1) -> "MPoly":
        """Integer numerators over den > 0 on packed keys, in canonical
        form: zero entries dropped, the common gcd divided out."""
        p = object.__new__(cls)
        p._set(family, nums, den)
        return p

    @classmethod
    def zero(cls, family: str) -> "MPoly":
        return cls(family, {})

    @classmethod
    def const(cls, family: str, value) -> "MPoly":
        return cls(family, {(): Fraction(value)})

    @classmethod
    def symbol(cls, family: str, index: int) -> "MPoly":
        index = _positive_index(index, "symbol index", 0)
        return cls(family, {(0,) * index + (1,): Fraction(1)})

    # -- queries --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple, Fraction]:
        """The coefficients as Fractions, in a fresh dict."""
        den = self.den
        return {_unpack(e): Fraction(c, den) for e, c in self.nums.items()}

    def max_index(self) -> int:
        """Largest symbol slot actually used; -1 for constants."""
        return len(_unpack(max(self.nums, default=0))) - 1

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(0, 0), self.den)

    def linear_coefficient(self, index: int) -> Fraction:
        return Fraction(self.nums.get(1 << (_FIELD_BITS * index), 0), self.den)

    def canonical_terms(self) -> list[tuple[tuple, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.family, other)
        if isinstance(other, MPoly):
            if other.family != self.family:
                raise ValueError(f"family mismatch: {self.family} vs {other.family}")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _weighted_sum(self.family, ((1, self, None), (1, o, None)))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._from_nums(self.family, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, int] = {}
        _add_product(out, self.nums, o.nums)
        return MPoly._from_nums(self.family, out, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.family, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.family == other.family and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        if self.max_index() < 0:  # equal to a number, so hash as one
            return hash(self.constant_term())
        return hash((self.family, self.den, frozenset(self.nums.items())))

    def substitute(
        self,
        mapping: dict[int, "MPoly"],
        powers: dict[tuple[int, int], "MPoly"] | None = None,
    ) -> "MPoly":
        """Replace symbol slot i by mapping[i]; unmapped slots stay put.

        The result lives in the family the replacements share (the
        receiver's own for an empty mapping); when that differs from the
        receiver's, every slot that occurs must be mapped.  Terms that
        share their mapped exponents are summed before the product of
        replacement powers is applied.  `powers` caches mapping[i]**e
        under (i, e); pass the same dict only with the same mapping.
        """
        out_family = next(iter(mapping.values())).family if mapping else self.family
        for repl in mapping.values():
            if repl.family != out_family:
                raise ValueError("replacement family mismatch")
        if powers is None:
            powers = {}
        moved_mask = sum(_FIELD_MASK << (_FIELD_BITS * i) for i in mapping)
        groups: dict[int, dict[int, int]] = {}
        for exps, c in self.nums.items():
            kept = exps & ~moved_mask
            if kept and out_family != self.family:
                slot = next(i for i, e in enumerate(_unpack(kept)) if e)
                raise ValueError(f"symbol slot {slot} not mapped across families")
            groups.setdefault(exps & moved_mask, {})[kept] = c
        prods = []
        for moved, kept_nums in groups.items():
            prod = None
            for i, e in enumerate(_unpack(moved)):
                if e:
                    pw = _power(powers, mapping, i, e)
                    prod = pw if prod is None else prod * pw
            prods.append((kept_nums, prod if moved else MPoly._from_nums(out_family, {0: 1})))
        # every group shares self.den; the products bring their own
        den = lcm(*(prod.den for _, prod in prods))
        out: dict[int, int] = {}
        for kept_nums, prod in prods:
            _add_product(out, kept_nums, prod.nums, den // prod.den)
        return MPoly._from_nums(out_family, out, self.den * den)

    # -- presentation ---------------------------------------------------

    def symbol_names(self) -> list[str]:
        mx = self.max_index()
        if self.family == "E":
            return list(_E_NAMES[: mx + 1])
        offset = 1 if self.family == "C" else 0
        return [f"{self.family}{i + offset}" for i in range(mx + 1)]

    def to_json(self) -> dict:
        return {
            "symbols": self.symbol_names(),
            "terms": [
                {"exps": list(e), "coeff": str(c)} for e, c in self.canonical_terms()
            ],
        }

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        names = self.symbol_names()
        parts = []
        for e, c in self.canonical_terms():
            syms = "*".join(
                names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(e) if k
            )
            parts.append(f"({c})" + (f"*{syms}" if syms else ""))
        return " + ".join(parts)


def _weighted_sum(family: str, terms) -> MPoly:
    """Sum of w * a * b over (w, a, b) in `terms`, over one common
    denominator: w is an int or a Fraction, a and b are MPolys, and b is
    None where the term is w * a alone."""
    terms = [(w, a, b, w.denominator * a.den * (1 if b is None else b.den)) for w, a, b in terms]
    den = lcm(*(d for *_, d in terms))
    out: dict[int, int] = {}
    for w, a, b, d in terms:
        scale = w.numerator * (den // d)
        if b is not None:
            _add_product(out, a.nums, b.nums, scale)
            continue
        for e, c in a.nums.items():
            cur = out.get(e)
            out[e] = c * scale if cur is None else cur + c * scale
    return MPoly._from_nums(family, out, den)


def _power(powers: dict, mapping: dict, i: int, e: int) -> MPoly:
    """mapping[i]**e, memoised in `powers` with every lower power."""
    p = powers.get((i, e))
    if p is None:
        p = mapping[i] if e == 1 else _power(powers, mapping, i, e - 1) * mapping[i]
        powers[(i, e)] = p
    return p


def a_symbol(i: int) -> MPoly:
    """The generator A_i as a one-term polynomial."""
    return MPoly.symbol("A", i)


def c_symbol(i: int) -> MPoly:
    """The coefficient symbol C_i (i >= 1) as a one-term polynomial."""
    return MPoly.symbol("C", _positive_index(i, "C index") - 1)


# ---------------------------------------------------------------------------
# the theta derivation and the A_{>=3} closure


def theta(p: MPoly) -> MPoly:
    """The derivation q d/dq on the A-ring: each A_i maps to A_{i+1}.

    The result may mention A_{max+1}; reduce_to_A012 folds it back into
    Q[A_0, A_1, A_2].
    """
    if p.family != "A":
        raise ValueError("theta acts on A-symbols")
    out: dict[int, int] = {}
    for exps, c in p.nums.items():
        for i, e in enumerate(_unpack(exps)):
            if e:
                # one unit from field i to field i+1: add 2^(8(i+1)) - 2^(8i)
                key = exps + (_FIELD_MASK << (_FIELD_BITS * i))
                out[key] = out.get(key, 0) + c * e
    return MPoly._from_nums("A", out, p.den)


#: A_3 = A_2 + 36 A_1^2 - 24 A_0 A_2, the base of the closure chain
_A3_CLOSURE = MPoly(
    "A",
    {
        (0, 0, 1): Fraction(1),
        (0, 2): Fraction(36),
        (1, 0, 1): Fraction(-24),
    },
)

#: reduced powers A_i^e (i >= 3) keyed by (i, e), shared by every reduction
_closure_powers: dict[tuple[int, int], MPoly] = {}


@cache
def _a_closure(n: int) -> MPoly:
    """A_n written in Q[A_0, A_1, A_2], for n >= 3; successors by theta.

    theta of a reduced A_(n-1) mentions A_3 at most, whose closure is the
    base of the chain, so the reduction here recurses no further;
    reduce_to_A012 asks for A_3, A_4, ... in ascending order, so A_(n-1)
    is cached by the time A_n is built.
    """
    if n == 3:
        return _A3_CLOSURE
    return reduce_to_A012(theta(_a_closure(n - 1)))


def reduce_to_A012(p: MPoly) -> MPoly:
    """Rewrite an A-polynomial in the closed ring Q[A_0, A_1, A_2]."""
    if p.family != "A":
        raise ValueError("reduce_to_A012 acts on A-symbols")
    mx = p.max_index()
    if mx <= 2:
        return p
    closure = {i: _a_closure(i) for i in range(3, mx + 1)}
    return p.substitute(closure, powers=_closure_powers)


def linear_part(p: MPoly) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients of A_0, A_1, A_2 in a reduced polynomial."""
    if p.family != "A":
        raise ValueError("linear_part acts on A-symbols")
    if p.max_index() > 2:
        raise ValueError("reduce to A_0..A_2 first")
    return (p.linear_coefficient(0), p.linear_coefficient(1), p.linear_coefficient(2))


# ---------------------------------------------------------------------------
# Eisenstein basis

_A_IN_E: dict[int, MPoly] = {
    # A_0 = (1 - E2)/24
    0: MPoly("E", {(): Fraction(1, 24), (1,): Fraction(-1, 24)}),
    # A_1 = (E4 - E2^2)/288
    1: MPoly("E", {(0, 1): Fraction(1, 288), (2,): Fraction(-1, 288)}),
    # A_2 = -(E2^3 - 3 E2 E4 + 2 E6)/1728
    2: MPoly(
        "E",
        {
            (3,): Fraction(-1, 1728),
            (1, 1): Fraction(1, 576),
            (0, 0, 1): Fraction(-1, 864),
        },
    ),
}


#: powers of the _A_IN_E polynomials keyed by (i, e), shared by every call
_eisenstein_powers: dict[tuple[int, int], MPoly] = {}


def to_eisenstein(p: MPoly) -> MPoly:
    """Rewrite a reduced A-polynomial in the generators E2, E4, E6."""
    if p.family != "A":
        raise ValueError("to_eisenstein acts on A-symbols")
    if p.max_index() > 2:
        raise ValueError("reduce to A_0..A_2 first")
    return p.substitute(_A_IN_E, powers=_eisenstein_powers)


# ---------------------------------------------------------------------------
# the coefficient recursion
#
# P_1 = A_0 and P_{m+1} = theta(P_m) - 3 A_0 P_m.  The recursion
#
#     C_n = -S_0(n) + sum_{i=1}^{n} 3 * 2^i * S_i(n) * P_i
#
# takes S_i(n) with C_1..C_{n-1} substituted, i.e. assembled from the
# A-ring compositions of the lower coefficients; it yields C_n as a
# polynomial in A_0..A_{n-1}.  Everything below is cached per process,
# keyed by its indices.


def p_m(m: int) -> MPoly:
    """P_m (P_1 = A_0, P_{m+1} = theta(P_m) - 3 A_0 P_m)."""
    return _p(_positive_index(m, "P index"))


@cache
def _p(m: int) -> MPoly:
    if m == 1:
        return a_symbol(0)
    prev = _p(m - 1)
    return theta(prev) - 3 * a_symbol(0) * prev


def s_poly(i: int, n: int) -> MPoly:
    """S_i(n) as a polynomial in the symbols C_1..C_{n-1}."""
    i, n = _positive_index(i, "S index i", 0), _positive_index(n, "S order n")
    if i > n:
        raise ValueError(f"S indices need 0 <= i <= n, got i={i}, n={n}")
    return _s(n)[i]


@cache
def _s(n: int) -> tuple[MPoly, ...]:
    return tuple(_assemble_s(n, "C", partial(_composition, c_symbol, "C")))


def c_n(n: int) -> MPoly:
    """The expansion coefficient C_n, raw form in A_0..A_{n-1}."""
    n = _positive_index(n, "C index")
    # ascending, so every build finds C_1..C_{m-1} cached and a cold
    # call's stack depth does not grow with n
    for m in range(1, n):
        _c(m)
    return _c(n)


@cache
def _c(m: int) -> MPoly:
    # C_m needs compositions of C_1..C_{m-1} only
    s_a = _assemble_s(m, "A", partial(_composition, _c, "A"))
    terms = [(3 * 2**i, s_a[i], p_m(i)) for i in range(1, m + 1)]
    return _weighted_sum("A", [(-1, s_a[0], None)] + terms)


@lru_cache(maxsize=None, typed=True)  # typed: a cached C_2 answers no 2.0
def reduced_c_n(n: int) -> MPoly:
    """C_n rewritten in Q[A_0, A_1, A_2] (cached reduce_to_A012(c_n(n)))."""
    return reduce_to_A012(c_n(n))


def _assemble_s(n: int, family: str, comp_of) -> list[MPoly]:
    """S_0(n), ..., S_n(n) from the compositions comp_of(m, d) of one family.

    The single loop over the Delta blocks, shared by the C-symbol and the
    A-ring route:

    S_i(n) = [u v^i] Delta(n+1, 0)
           + sum_{N=3}^{n+1} sum_{m=1}^{floor(N/2)}
               ([u v^i] Delta(N, m) + [u v^i] Delta(N-2, m-1))
               * sum_{i_1+...+i_m = n-N+m+1, i_l >= 1} C_{i_1}...C_{i_m}

    Each S_i(n) collects its weighted parts first and is summed over
    their common denominator once.
    """
    one, head = MPoly._from_nums(family, {0: 1}), delta(n + 1, 0).vpoly
    parts = [[(head.coeff(i), one, None)] for i in range(n + 1)]
    for n_order in range(3, n + 2):
        for m in range(1, n_order // 2 + 1):
            d = n - n_order + m + 1
            block = None
            for i, w in enumerate(_block_weights(n_order, m)[: n + 1]):
                if w:
                    if block is None:
                        block = comp_of(m, d)
                    parts[i].append((w, block, None))
    return [_weighted_sum(family, ps) for ps in parts]


@cache
def _block_weights(n_order: int, m: int) -> tuple[Fraction, ...]:
    """[u v^i] Delta(N, m) + [u v^i] Delta(N-2, m-1) for i = 0, 1, ..."""
    return (delta(n_order, m).vpoly + delta(n_order - 2, m - 1).vpoly).coeffs


@cache
def _composition(coeff, family: str, m: int, d: int) -> MPoly:
    """Sum of coeff(i_1) ... coeff(i_m) over i_1 + ... + i_m = d, i_l >= 1,
    for 1 <= m <= d (_assemble_s asks for d = n - N + m + 1 >= m).

    Built by peeling off the first factor, so comp(m, d) needs coeff(i)
    only for i <= d - m + 1; cached under (coeff, family, m, d).
    """
    if m == 1:
        return coeff(d)
    return _weighted_sum(
        family,
        [(1, coeff(i), _composition(coeff, family, m - 1, d - i)) for i in range(1, d - m + 2)],
    )


# ---------------------------------------------------------------------------
# the series oracle for the kernel coefficients

_J_ONE = JPoly((1,))


def _unit_exps(i: int) -> tuple:
    return (0,) * i + (1,)


def _add_exps(e1: tuple, e2: tuple) -> tuple:
    # the oracle keys its monomials by trimmed exponent tuples, apart from
    # MPoly's packed keys; the sum of two trimmed tuples stays trimmed
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    if not e2:
        return e1
    return tuple(map(add, e1, e2)) + e1[len(e2) :]


def _ring_mul(a_ser, b_ser, top: int):
    """Multiply truncated series whose coefficients map monomials to JPoly."""
    out = [dict() for _ in range(top + 1)]
    for s, da in enumerate(a_ser):
        if s > top:
            break
        if not da:
            continue
        for t, db in enumerate(b_ser):
            if s + t > top:
                break
            if not db:
                continue
            bucket = out[s + t]
            for ea, pa in da.items():
                for eb, pb in db.items():
                    e = _add_exps(ea, eb)
                    cur = bucket.get(e)
                    bucket[e] = pa * pb if cur is None else cur + pa * pb
    for bucket in out:
        for e in [e for e, p in bucket.items() if not p]:
            del bucket[e]
    return out


def kernel_expand(n: int) -> tuple[MPoly, ...]:
    """S_0(n), ..., S_n(n) read off the kernel's x^(n-1) coefficient, exactly.

    The kernel is (G - H)/x^2 * (1 + a(x) x^2) with a(x) = sum a_t x^t and
    a_t = C_{t+1}, so a_t is written as the C-symbol in slot t.  Its
    factors are expanded as truncated power series in x whose
    coefficients are JPoly-valued polynomials in those symbols:
    G = (1 + a(x) x^2)^j * sum Q_k x^k and
    H = (1 + a(x) x^2)^(1-j) * sum (-1)^k sigma_k x^k.

    The x^(n-1) coefficient is u * (C_n + sum_i S_i(n) v^i); it is
    decomposed in the (u, v) basis, and a pure-v part raises
    DecompositionError.
    """
    n = _positive_index(n, "kernel order")
    top = n + 1  # G and H are needed through x^(n+1)

    ax2 = [dict() for _ in range(top + 1)]
    for t in range(n):  # a_t enters the x^(n-1) coefficient only for t <= n-1
        if t + 2 <= top:
            ax2[t + 2][_unit_exps(t)] = _J_ONE

    max_m = top // 2
    pow_ax2 = [[{(): _J_ONE}] + [dict() for _ in range(top)]]
    for _ in range(max_m):
        pow_ax2.append(_ring_mul(pow_ax2[-1], ax2, top))

    def binom_series(alpha: JPoly):
        acc = [dict() for _ in range(top + 1)]
        for m in range(max_m + 1):
            bp = gen_binomial(alpha, m)
            if not bp:
                continue
            for t, bucket in enumerate(pow_ax2[m]):
                for e, p in bucket.items():
                    cur = acc[t].get(e)
                    acc[t][e] = p * bp if cur is None else cur + p * bp
        return acc

    q_ser = [{(): q_poly(t)} for t in range(top + 1)]
    sig_ser = [{(): sigma_poly(t) * (1 if t % 2 == 0 else -1)} for t in range(top + 1)]
    g_ser = _ring_mul(binom_series(J), q_ser, top)
    h_ser = _ring_mul(binom_series(JPoly((1, -1))), sig_ser, top)

    diff = []
    for db_g, db_h in zip(g_ser, h_ser):
        bucket = dict(db_g)
        for e, p in db_h.items():
            cur = bucket.get(e, JPoly())
            bucket[e] = cur - p
        diff.append({e: p for e, p in bucket.items() if p})
    if diff[0] or diff[1]:
        raise DecompositionError("kernel numerator must vanish to order x^1")

    one_plus = [dict() for _ in range(n)]
    one_plus[0][()] = _J_ONE
    for t in range(2, n):
        one_plus[t][_unit_exps(t - 2)] = _J_ONE
    ker = _ring_mul(diff[2:], one_plus, n - 1)
    raw = ker[n - 1]

    # the j-degree is at most 2n + 1, so v^n is the top power
    by_v: list[dict[tuple, Fraction]] = [{} for _ in range(n + 1)]
    for exps, poly in raw.items():
        even, odd = uv_decompose(poly)
        if any(even):
            raise DecompositionError(
                f"kernel coefficient at order {n} has a pure-v part on monomial {exps}"
            )
        for i, cv in enumerate(odd.vcoeffs):
            if cv:
                by_v[i][exps] = cv
    s_table = [MPoly("C", d) for d in by_v]
    s_table[0] = s_table[0] - c_symbol(n)
    return tuple(s_table)
