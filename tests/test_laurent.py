"""Exact-arithmetic tests.

Oracles are independent of the implementation under test: the two-term
recursion Delta_n = delta Delta_(n-1) - Delta_(n-2) for the closed form
of Delta_n, a Gaussian-binomial construction in q = A^4 for the
quantum binomials, and long division and gcd over every exponent from
the lowest to the highest for the strided ones in laurent.  The one
normal form of Q(A), laurent._reduce, is checked against the two
normalizers it replaced, kept here as oracles: RationalFunction's own
shift, gcd, divide and sign, and temperley_lieb's gcd loop over the
numerators of an element.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab import laurent
from skeinlab.laurent import (
    A,
    ONE,
    ZERO,
    LaurentPolynomial,
    RationalFunction,
    _reduce,
    crossing_expansion_coefficient,
    divide_exact,
    laurent_gcd,
    loop_value,
    quantum_binomial,
    quantum_dimension,
)

L = LaurentPolynomial


def from_json(data) -> LaurentPolynomial:
    """Decode the dense {"minDeg", "coeffs"} form of to_json."""
    return L({data["minDeg"] + i: c for i, c in enumerate(data["coeffs"])})


def delta_oracle(n):
    # Delta_-1 = 0, Delta_0 = 1, Delta_n = delta Delta_(n-1) - Delta_(n-2),
    # unrolled so that no n is too deep for the stack
    before, value = ZERO, ONE
    for _ in range(n + 1):
        before, value = value, loop_value() * value - before
    return before


def gaussian_binomial_q(n, k):
    # Pascal recurrence over Z[q]: qb(n,k) = q^k qb(n-1,k) + qb(n-1,k-1)
    if k < 0 or k > n:
        return {}
    row = {0: {0: 1}}
    for m in range(1, n + 1):
        new = {}
        for j in range(0, min(k, m) + 1):
            acc = {}
            upper = row.get(j)
            if upper is not None:
                for e, c in upper.items():
                    acc[e + j] = acc.get(e + j, 0) + c
            if j - 1 in row:
                for e, c in row[j - 1].items():
                    acc[e] = acc.get(e, 0) + c
            new[j] = {e: c for e, c in acc.items() if c}
        row = new
    return row[k]


def binomial_oracle(n, k):
    # [n k]_A = A^{-2k(n-k)} * qb(n,k) evaluated at q = A^4
    qb = gaussian_binomial_q(n, k)
    return L({4 * e - 2 * k * (n - k): c for e, c in qb.items()})


def dense_oracle(p: LaurentPolynomial) -> tuple:
    lo, hi = p.min_degree(), p.max_degree()
    return lo, [p.coefficient(e) for e in range(lo, hi + 1)]


def divide_exact_oracle(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Long division over Z on the dense coefficients at every exponent."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    plo, rem = dense_oracle(p)
    qlo, qc = dense_oracle(q)
    if len(rem) < len(qc):
        raise ValueError("not divisible")
    out = [0] * (len(rem) - len(qc) + 1)
    for i in reversed(range(len(out))):
        lead = rem[i + len(qc) - 1]
        if lead % qc[-1]:
            raise ValueError("not divisible")
        out[i] = lead // qc[-1]
        for j, c in enumerate(qc):
            rem[i + j] -= out[i] * c
    if any(rem):
        raise ValueError("not divisible")
    return L({plo - qlo + i: c for i, c in enumerate(out)})


def gcd_oracle(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Primitive Euclid over Z on the dense coefficients at every exponent,
    both shifted to lowest degree 0; content times the primitive gcd, with
    a positive leading coefficient."""
    def primitive(cs):
        g = math.gcd(*cs)
        return [c // g for c in cs] if g > 1 else cs

    def trim(cs):
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    f, g = (dense_oracle(x)[1] if x else [] for x in (p, q))
    if not f and not g:
        return ZERO
    content = math.gcd(*f, *g)
    f, g = primitive(f), primitive(g)
    while g:
        if len(f) < len(g):
            f, g = g, f
            continue
        r = list(f)
        while len(r) >= len(g) and trim(r):  # pseudo-remainder of f by g
            lead, shift = r[-1], len(r) - len(g)
            r = [c * g[-1] for c in r]
            for j, c in enumerate(g):
                r[shift + j] -= lead * c
            trim(r)
        f, g = g, primitive(r)
    sign = 1 if f[-1] > 0 else -1
    return L({i: sign * content * c for i, c in enumerate(f)})


def rational_oracle(num: LaurentPolynomial, den: LaurentPolynomial) -> tuple:
    """(num, den) reduced as RationalFunction's constructor once did it:
    den shifted to lowest degree 0, both divided by their gcd, then both
    negated if den leads with a negative coefficient."""
    if num.is_zero():
        return ZERO, ONE
    num = num.shift(-den.min_degree())
    den = den.shift(-den.min_degree())
    g = laurent_gcd(num, den)
    if g != ONE:
        num = divide_exact(num, g)
        den = divide_exact(den, g)
    if den.coefficient(den.max_degree()) < 0:
        num, den = -num, -den
    return num, den


def numerators_oracle(q: LaurentPolynomial, nums: list) -> tuple:
    """(q, numerators) reduced as temperley_lieb's element normalizer once
    did it: zero numerators dropped, the gcd of q with each numerator in
    turn, stopping at 1, times the unit that takes q's lowest degree and
    leading sign; q and the numerators divided by it."""
    nums = [num for num in nums if num]
    g = q = q if nums else ONE
    for num in nums:
        g = laurent_gcd(g, num)
        if g == ONE:
            break
    g = g * LaurentPolynomial.monomial(1 if q.coefficient(q.max_degree()) > 0 else -1,
                                       q.min_degree())
    if g != ONE:
        q = divide_exact(q, g)
        nums = [divide_exact(num, g) for num in nums]
    return q, nums


small_polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-9, max_value=9), max_size=6
).map(L)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@st.composite
def strided_polys(draw, stride=None):
    """A polynomial at one exponent stride and residue (stride 1 to 6 unless
    given); at most five terms, possibly zero."""
    stride = stride or draw(st.integers(1, 6))
    shift = draw(st.integers(-12, 12))
    coeffs = draw(st.lists(st.integers(-5, 5), max_size=5))
    return L({shift + stride * i: c for i, c in enumerate(coeffs)})


# a pair at one stride (both residues free) or at two unrelated strides
strided_pairs = st.one_of(
    st.integers(1, 6).flatmap(lambda s: st.tuples(strided_polys(s), strided_polys(s))),
    st.tuples(strided_polys(), strided_polys()))


class TestRing:
    def test_construction_drops_zeros(self):
        assert L({3: 0, 1: 2}) == L({1: 2})
        assert L({5: 0}).is_zero()

    def test_squared_loop_value(self):
        d = loop_value()
        assert d * d == L({4: 1, 0: 2, -4: 1})

    def test_min_degree(self):
        p = L({7: 1, 3: 1, -1: 1, -9: -1})
        assert p.min_degree() == -9
        assert p.max_degree() == 7

    def test_degree_of_zero_raises(self):
        with pytest.raises(ValueError):
            ZERO.min_degree()

    def test_mirror(self):
        p = L({7: 1, 3: 1, -1: 1, -9: -1})
        assert p.mirror() == L({-7: 1, -3: 1, 1: 1, 9: -1})

    def test_power(self):
        assert (A + 1) ** 2 == A * A + 2 * A + 1

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p + ZERO == p
        assert p * ONE == p

    @given(small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_mirror_is_ring_map(self, p, q):
        assert (p * q).mirror() == p.mirror() * q.mirror()
        assert (p + q).mirror() == p.mirror() + q.mirror()


class TestSerialization:
    def test_text_form(self):
        p = L({7: 1, 3: 1, -1: 1, -9: -1})
        assert str(p) == "-A^-9 + A^-1 + A^3 + A^7"
        assert str(ZERO) == "0"
        assert str(L({0: 3, 1: -2})) == "3 - 2A"

    def test_json_round_trip(self):
        p = L({7: 1, 3: 1, -1: 1, -9: -1})
        data = p.to_json()
        assert data["minDeg"] == -9
        assert len(data["coeffs"]) == 17
        assert data["coeffs"][0] == -1 and data["coeffs"][-1] == 1
        assert from_json(data) == p

    def test_zero_json(self):
        assert from_json(ZERO.to_json()).is_zero()

    @given(small_polys)
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_random(self, p):
        assert from_json(p.to_json()) == p


class TestDivisionGcd:
    def test_divide_exact(self):
        p = loop_value() * L({3: 2, -2: 5})
        assert divide_exact(p, loop_value()) == L({3: 2, -2: 5})

    def test_divide_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            divide_exact(A + 1, A - 1)

    def test_gcd(self):
        p = (A + 1) * (A + 2)
        q = (A + 1) * L({1: 1, 0: -3})
        g = laurent_gcd(p.shift(-4), q.shift(3))
        assert g == A + 1

    def test_gcd_of_coprime_is_constant(self):
        g = laurent_gcd(L({2: 2}), L({0: 3, 5: 3}))
        assert g == L({0: 1})

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_gcd_is_canonical(self, p, q, r):
        # lowest degree 0 and a positive leading coefficient, so a gcd that
        # is a unit is exactly 1; the common factor r makes most gcds larger
        p, q = p * r, q * r
        g = laurent_gcd(p, q)
        assert g.min_degree() == 0
        assert g.coefficient(g.max_degree()) > 0
        assert divide_exact(p, g) * g == p
        assert divide_exact(q, g) * g == q
        if g.is_unit():
            assert g == ONE

    @given(strided_pairs, strided_polys())
    @settings(max_examples=300, deadline=None)
    def test_strided_division_matches_dense_oracle(self, pair, r):
        # exact quotients p*r / p and arbitrary, mostly non-divisible, p / q
        p, q = pair
        for num, den in ((p * r, p), (p, q), (q, p), (p * r, q)):
            try:
                expect = divide_exact_oracle(num, den)
            except (ValueError, ZeroDivisionError) as e:
                with pytest.raises(type(e)):
                    divide_exact(num, den)
            else:
                assert divide_exact(num, den) == expect

    @given(strided_pairs, strided_polys())
    @settings(max_examples=300, deadline=None)
    def test_strided_gcd_matches_dense_oracle(self, pair, r):
        p, q = pair
        for x, y in ((p, q), (p * r, q * r), (p, ZERO), (ZERO, q)):
            assert laurent_gcd(x, y) == gcd_oracle(x, y)

    def test_stride_examples(self):
        # residues differ, strides 4 and 4: x = A^4
        p = L({1: 1, 5: -2, 9: 1}) * L({2: 3, 6: 1})
        assert divide_exact(p, L({2: 3, 6: 1})) == L({1: 1, 5: -2, 9: 1})
        with pytest.raises(ValueError):
            divide_exact(L({0: 1, 4: 1}), L({0: 1, 8: 1}))
        with pytest.raises(ValueError):
            divide_exact(L({3: 1}), L({0: 1, 4: 1}))
        assert laurent_gcd(L({0: 2, 8: -2}), L({3: 4, 7: 4})) == L({0: 2, 4: 2})
        assert laurent_gcd(ZERO, L({-2: -6, 4: 3})) == L({0: -6, 6: 3})


class TestQuantumScalars:
    def test_delta_small_values(self):
        assert quantum_dimension(0) == ONE
        assert quantum_dimension(1) == loop_value()
        assert quantum_dimension(2) == L({4: 1, 0: 1, -4: 1})

    @pytest.mark.parametrize("n", range(-1, 61))
    def test_closed_form_matches_the_recursion(self, n):
        assert quantum_dimension(n) == delta_oracle(n)

    def test_delta_needs_n_at_least_minus_one(self):
        with pytest.raises(ValueError):
            quantum_dimension(-2)

    def test_large_color_needs_no_deep_recursion(self):
        # the closed form has no call depth: Delta_1000 has 1001 terms
        value = quantum_dimension(1000)
        assert (value.min_degree(), value.max_degree()) == (-2000, 2000)
        assert len(value.terms) == 1001

    def test_binomial_pinned_values(self):
        assert quantum_binomial(2, 1) == L({2: 1, -2: 1})
        assert quantum_binomial(3, 1) == L({4: 1, 0: 1, -4: 1})
        assert quantum_binomial(4, 0) == ONE
        assert quantum_binomial(4, 4) == ONE
        assert quantum_binomial(3, 5).is_zero()
        assert quantum_binomial(3, -1).is_zero()

    @pytest.mark.parametrize("n", range(0, 10))
    def test_binomial_matches_gaussian_oracle(self, n):
        for k in range(0, n + 1):
            assert quantum_binomial(n, k) == binomial_oracle(n, k)

    @pytest.mark.parametrize("n", range(0, 10))
    def test_binomial_symmetry(self, n):
        for k in range(0, n + 1):
            assert quantum_binomial(n, k) == quantum_binomial(n, n - k)

    def test_expansion_coefficient_base_cases(self):
        assert crossing_expansion_coefficient(1, 0) == A
        assert crossing_expansion_coefficient(1, 1) == L({-1: 1})
        assert crossing_expansion_coefficient(2, 1) == L({2: 1, -2: 1})

    def test_expansion_coefficient_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            crossing_expansion_coefficient(3, 4)
        with pytest.raises(ValueError):
            crossing_expansion_coefficient(3, -1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_expansion_coefficient_recursion(self, n):
        # C_{n,k} = A^{2n-1} C_{n-1,k} + A^{-2n+1} C_{n-1,k-1}
        for k in range(0, n + 1):
            expect = ZERO
            if k <= n - 1:
                expect = expect + crossing_expansion_coefficient(n - 1, k).shift(2 * n - 1)
            if k >= 1:
                expect = expect + crossing_expansion_coefficient(n - 1, k - 1).shift(-2 * n + 1)
            assert crossing_expansion_coefficient(n, k) == expect

    @pytest.mark.parametrize("n", range(0, 13))
    def test_expansion_coefficient_min_degree(self, n):
        for k in range(0, n + 1):
            c = crossing_expansion_coefficient(n, k)
            assert c.min_degree() == 2 * k * k - 4 * k * n + n * n


class TestRationalFunction:
    def test_unit_shift_cancels(self):
        p, q = A + 1, loop_value()
        assert RationalFunction(p.shift(5), q.shift(5)) == RationalFunction(p, q)

    def test_common_factor_cancels(self):
        f = RationalFunction((A + 1) * loop_value(), loop_value() * loop_value())
        assert f == RationalFunction(A + 1, loop_value())

    def test_integer_content_cancels(self):
        assert RationalFunction(L({1: 2}), L({0: 4})) == RationalFunction(A, 2)

    def test_sign_normalization(self):
        f = RationalFunction(ONE, -loop_value())
        g = RationalFunction(-ONE, loop_value())
        assert f == g

    def test_field_axioms_on_samples(self):
        x = RationalFunction(A + 1, loop_value())
        y = RationalFunction(A, L({0: 1, 3: -2}))
        z = RationalFunction(L({-2: 3}), A + 2)
        assert (x + y) * z == x * z + y * z
        assert (x * y) / y == x
        assert x - x == RationalFunction.zero()
        assert x * x.inverse() == RationalFunction.one()

    @given(nonzero_polys, nonzero_polys, nonzero_polys, nonzero_polys,
           nonzero_polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_product_cancels_across_the_factors(self, p, q, r, s, g, h):
        # each numerator shares a factor with the other's denominator; the
        # product still comes out canonical, with g and h cancelled
        x, y = RationalFunction(p * g, q * h), RationalFunction(r * h, s * g)
        xy = x * y
        assert xy == RationalFunction(p * r, q * s)
        assert laurent_gcd(xy.num, xy.den) == ONE
        assert xy.den.min_degree() == 0
        assert xy.den.coefficient(xy.den.max_degree()) > 0

    @given(small_polys, nonzero_polys, st.integers(-20, 20), st.sampled_from([1, -1]))
    @settings(max_examples=80, deadline=None)
    def test_unit_product_skips_the_gcd_and_agrees(self, p, q, k, sign):
        # x * (+-A^k) keeps x's denominator without a gcd; it must equal the
        # full constructor's reduction, on either side and for x = 0
        unit = L({k: sign})
        for x in (RationalFunction(p, q), RationalFunction.zero()):
            full = RationalFunction(x.num * unit, x.den)
            for product in (x * unit, unit * x, x * RationalFunction(unit),
                            RationalFunction(unit) * x):
                assert (product.num, product.den) == (full.num, full.den)

    def test_unit_product_makes_no_gcd(self, monkeypatch):
        x = RationalFunction(A + 1, loop_value())
        expected = RationalFunction(-(A + 1).shift(-3), loop_value())
        calls = []
        monkeypatch.setattr(laurent, "laurent_gcd",
                            lambda *a: calls.append(a) or laurent_gcd(*a))
        assert x * L({-3: -1}) == expected
        assert calls == []
        x * (A + 1)
        assert len(calls) == 1

    def test_demotion(self):
        f = RationalFunction(loop_value() * (A + 1), loop_value())
        assert f.den.is_unit()
        assert f.as_laurent() == A + 1

    def test_demotion_with_unit_denominator(self):
        f = RationalFunction(A + 1, L({3: -1}))
        assert f.den.is_unit()
        assert f.as_laurent() == -(A + 1).shift(-3)

    def test_demotion_rejected(self):
        f = RationalFunction(ONE, loop_value())
        assert not f.den.is_unit()
        with pytest.raises(ValueError):
            f.as_laurent()

    def test_jones_wenzl_two_coefficient(self):
        # second projector coefficient: -Delta_0/Delta_1 = (A^2 + A^-2)^{-1}
        f = -RationalFunction(quantum_dimension(0), quantum_dimension(1))
        assert f == RationalFunction(ONE, L({2: 1, -2: 1}))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(ONE, ZERO)


BAD_INPUT = {
    "float exponent": lambda: L({2.5: 1}),
    "float coefficient": lambda: L({0: 1.9}),
    "str exponent and coefficient": lambda: L({"3": "2"}),
    "int terms": lambda: L(5),
    "list of pairs": lambda: L([(0, 1)]),
    "float RationalFunction": lambda: RationalFunction(1.5),
    "float denominator": lambda: RationalFunction(A, 0.5),
    "str numerator": lambda: RationalFunction("A"),
}


class TestInputTypes:
    @pytest.mark.parametrize("make", BAD_INPUT.values(), ids=BAD_INPUT)
    def test_non_integer_input_is_refused(self, make):
        # int() would truncate 2.5 and 1.9 and parse "3"
        with pytest.raises(TypeError):
            make()


def quantum_integer(k: int) -> LaurentPolynomial:
    """[k] = (-1)^(k-1) Delta_(k-1), a Jones-Wenzl denominator factor."""
    return quantum_dimension(k - 1) * (-1) ** (k - 1)


# factors shared by q and the numerators: 1, [k] or Delta_k
shared_factors = st.sampled_from(
    [ONE] + [quantum_integer(k) for k in range(2, 6)] + [quantum_dimension(k) for k in range(1, 5)])
units = st.tuples(st.sampled_from([1, -1]), st.integers(-9, 9)).map(lambda t: L({t[1]: t[0]}))


@st.composite
def fractions(draw, max_numerators=5):
    """(q, numerators): q nonzero, one to max_numerators numerators at
    mixed strides and residues, possibly zero; each polynomial times a
    random sign and A-power, and all of them, often, times one factor."""
    factor = draw(shared_factors)
    q = draw(strided_polys().filter(bool)) * draw(units) * factor
    nums = draw(st.lists(st.tuples(strided_polys(), units), min_size=1,
                         max_size=max_numerators))
    return q, [num * unit * factor for num, unit in nums]


class TestReducer:
    @given(fractions())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_element_normalizer(self, case):
        q, nums = case
        assert _reduce(q, [num for num in nums if num]) == numerators_oracle(q, nums)

    @given(fractions(max_numerators=1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_rational_normalizer(self, case):
        q, [num] = case
        x = RationalFunction(num, q)
        assert (x.num, x.den) == rational_oracle(num, q)
        if num:
            assert _reduce(q, [num]) == (x.den, [x.num])

    @given(fractions())
    @settings(max_examples=200, deadline=None)
    def test_form_is_normal_and_keeps_the_value(self, case):
        q, nums = case
        nums = [num for num in nums if num]
        r, reduced = _reduce(q, nums)
        assert r.min_degree() == 0
        assert r.coefficient(r.max_degree()) > 0
        g = r
        for num in reduced:
            g = gcd_oracle(g, num)
        assert g == ONE
        assert all(a * q == b * r for a, b in zip(reduced, nums))

    def test_no_numerators_is_zero(self):
        assert _reduce(loop_value().shift(3), []) == (ONE, [])
        x = RationalFunction(ZERO, -loop_value())
        assert (x.num, x.den) == (ZERO, ONE)
