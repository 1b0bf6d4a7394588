"""Exact-arithmetic tests.

Oracles are independent of the implementation under test: the closed
geometric-sum form for Delta_n, and a Gaussian-binomial construction in
q = A^4 for the quantum binomials.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab.laurent import (
    A,
    ONE,
    ZERO,
    LaurentPolynomial,
    RationalFunction,
    crossing_expansion_coefficient,
    divide_exact,
    laurent_gcd,
    loop_value,
    quantum_binomial,
    quantum_dimension,
)

L = LaurentPolynomial


def delta_oracle(n):
    # (-1)^n (A^{2(n+1)} - A^{-2(n+1)}) / (A^2 - A^-2), expanded as the
    # geometric sum (-1)^n * sum_{j=0..n} A^{2n-4j}
    sign = -1 if n % 2 else 1
    return L({2 * n - 4 * j: sign for j in range(n + 1)})


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


small_polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-9, max_value=9), max_size=6
).map(L)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


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
        assert L.from_json(data) == p

    def test_zero_json(self):
        assert L.from_json(ZERO.to_json()).is_zero()

    @given(small_polys)
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_random(self, p):
        assert L.from_json(p.to_json()) == p


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


class TestQuantumScalars:
    def test_delta_small_values(self):
        assert quantum_dimension(0) == ONE
        assert quantum_dimension(1) == loop_value()
        assert quantum_dimension(2) == L({4: 1, 0: 1, -4: 1})

    @pytest.mark.parametrize("n", range(0, 13))
    def test_delta_matches_closed_form(self, n):
        assert quantum_dimension(n) == delta_oracle(n)

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

    def test_demotion(self):
        f = RationalFunction(loop_value() * (A + 1), loop_value())
        assert f.is_laurent()
        assert f.as_laurent() == A + 1

    def test_demotion_with_unit_denominator(self):
        f = RationalFunction(A + 1, L({3: -1}))
        assert f.is_laurent()
        assert f.as_laurent() == -(A + 1).shift(-3)

    def test_demotion_rejected(self):
        f = RationalFunction(ONE, loop_value())
        assert not f.is_laurent()
        with pytest.raises(ValueError):
            f.as_laurent()

    def test_jones_wenzl_two_coefficient(self):
        # second projector coefficient: -Delta_0/Delta_1 = (A^2 + A^-2)^{-1}
        f = -RationalFunction(quantum_dimension(0), quantum_dimension(1))
        assert f == RationalFunction(ONE, L({2: 1, -2: 1}))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(ONE, ZERO)
