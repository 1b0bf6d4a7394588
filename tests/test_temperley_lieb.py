"""Tests for the Temperley-Lieb layer: diagram composition, the generator
relations, and the Jones-Wenzl projector family."""
import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from skeinlab.laurent import (
    A,
    ONE,
    LaurentPolynomial,
    RationalFunction,
    loop_value,
    quantum_dimension,
)
from skeinlab.temperley_lieb import (
    PlanarMatching,
    TLElement,
    _close_last,
    _juxtapose,
    _stack_pair,
    cleared_projector,
    closure,
    cup_cap_matching,
    identity_matching,
    jones_wenzl,
    partial_trace,
    tl_multiply,
    tl_tensor,
    top_point,
)
from skeinlab import laurent, temperley_lieb

from cable_oracle import enumerate_matchings

DELTA = loop_value()


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def strands_oracle(n: int, nodes, joins, label: dict):
    """Union-find re-derivation of a glued diagram, independent of the
    strand tracer in temperley_lieb.  The classes of `nodes` under the
    pairs in `joins` are its strands: a class with two nodes in `label`
    becomes a chord between their labels, one with none a closed loop.
    Returns the TL_n matching and the loop count."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in joins:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    by_root = {}
    for node, pt in label.items():
        by_root.setdefault(find(node), []).append(pt)
    chords = []
    for members in by_root.values():
        assert len(members) == 2
        chords.append(tuple(members))
    interior_roots = {find(node) for node in parent} - set(by_root)
    return PlanarMatching(n, chords), len(interior_roots)


def stack_oracle(a: PlanarMatching, b: PlanarMatching):
    """The stacking product from strands_oracle.  Nodes are ('a', pt) and
    ('b', pt); edges are the chords of each factor plus the interface
    fusions."""
    n = a.n
    nodes = [(layer, pt) for layer in "ab" for pt in range(2 * n)]
    joins = [(("a", x), ("a", y)) for x, y in a.pairs]
    joins += [(("b", x), ("b", y)) for x, y in b.pairs]
    joins += [(("a", top_point(p, n)), ("b", p)) for p in range(n)]
    label = {("a", i): i for i in range(n)}
    label.update({("b", t): t for t in range(n, 2 * n)})
    return strands_oracle(n, nodes, joins, label)


def close_oracle(m: PlanarMatching):
    """Closing the rightmost strand of m, from strands_oracle: the
    rightmost bottom and top points are joined around the side, and the
    other points are renumbered in circle order."""
    n = m.n
    closed = (n - 1, top_point(n - 1, n))
    kept = [pt for pt in range(2 * n) if pt not in closed]
    label = {pt: i for i, pt in enumerate(kept)}
    return strands_oracle(n - 1, range(2 * n), [*m.pairs, closed], label)


def tl_multiply_oracle(x: TLElement, y: TLElement) -> TLElement:
    """Stack y atop x with every coefficient a reduced RationalFunction,
    pair by pair, the stacking taken from stack_oracle."""
    d = RationalFunction.from_laurent(DELTA)
    out = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            m, loops = stack_oracle(mx, my)
            c = cx * cy
            for _ in range(loops):
                c = c * d
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
    return TLElement(x.n, out)


def partial_trace_oracle(x: TLElement, count: int) -> TLElement:
    """Close the rightmost strands one at a time, term by term in Q(A)."""
    d = RationalFunction.from_laurent(DELTA)
    cur = x
    for _ in range(count):
        out = {}
        for m, c in cur.terms.items():
            mm, loops = close_oracle(m)
            if loops:
                c = c * d
            s = out.get(mm)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(mm, None)
            else:
                out[mm] = s
        cur = TLElement(cur.n - 1, out)
    return cur


def juxtapose_oracle(a: PlanarMatching, b: PlanarMatching) -> PlanarMatching:
    """a beside b, by boundary positions: a bottom or top point of a keeps
    its left-to-right position, one of b moves a.n positions right."""
    total = a.n + b.n

    def place(pt, k, offset):
        if pt < k:  # a bottom point sits at position pt
            return pt + offset
        return top_point(2 * k - 1 - pt + offset, total)

    return PlanarMatching(total, [(place(x, a.n, 0), place(y, a.n, 0)) for x, y in a.pairs]
                          + [(place(x, b.n, a.n), place(y, b.n, a.n)) for x, y in b.pairs])


def tl_tensor_oracle(x: TLElement, y: TLElement) -> TLElement:
    """x beside y with every coefficient a reduced RationalFunction, pair
    by pair, the juxtaposition taken from juxtapose_oracle."""
    out = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            m = juxtapose_oracle(mx, my)
            out[m] = cx * cy if m not in out else out[m] + cx * cy
    return TLElement(x.n + y.n, out)


def wenzl_oracle(n: int) -> TLElement:
    """Wenzl's two-box recursion, by the public element operations:
    f(n) = prev - (Delta_{n-2}/Delta_{n-1}) prev e_{n-1} prev with
    prev = f(n-1) x 1, f(0) empty and f(1) one strand."""
    f = TLElement.identity(min(n, 1))
    for k in range(2, n + 1):
        prev = tl_tensor(f, TLElement.identity(1))
        sandwich = prev * TLElement.generator(k, k - 1) * prev
        f = prev - sandwich.scale(RationalFunction(quantum_dimension(k - 2), quantum_dimension(k - 1)))
    return f


def absorption_check(m: int, n: int) -> bool:
    """(f(n) x id_m) . f(m+n) == f(m+n)."""
    big = jones_wenzl(m + n)
    left = tl_tensor(jones_wenzl(n), TLElement.identity(m))
    return left * big == big


def rf(p) -> RationalFunction:
    return RationalFunction.from_laurent(p) if isinstance(p, LaurentPolynomial) else RationalFunction(p)


matchings_by_n = {n: enumerate_matchings(n) for n in range(7)}

# Frozen values from the Q(A) recursion that reduced every coefficient
# after every pair of terms: f(4) as {pairs: (numerator, denominator)},
# and cleared_projector(5) as its denominator plus a SHA-256 of
# repr([(pairs, sorted numerator items)]) over its sorted rows.
# cleared_projector(6) is pinned the same way, from the two-form elements
# that kept reduced coefficients beside a cleared copy, and
# cleared_projector(7) from the products that validated every stacked
# matching and added each product term into a fresh copy of the sum, and
# cleared_projector(8) from Wenzl's two-box recursion with the cheaper
# products.
FROZEN_F4 = {
    ((0, 1), (2, 3), (4, 5), (6, 7)):
        ({4: 1, 8: 2, 12: 1}, {0: 1, 4: 1, 8: 2, 12: 1, 16: 1}),
    ((0, 1), (2, 3), (4, 7), (5, 6)):
        ({6: 1, 10: 1}, {0: 1, 4: 1, 8: 2, 12: 1, 16: 1}),
    ((0, 1), (2, 5), (3, 4), (6, 7)):
        ({2: 1, 6: 1, 10: 1}, {0: 1, 4: 1, 8: 1, 12: 1}),
    ((0, 1), (2, 7), (3, 4), (5, 6)):
        ({4: 1}, {0: 1, 8: 1}),
    ((0, 1), (2, 7), (3, 6), (4, 5)):
        ({6: 1}, {0: 1, 4: 1, 8: 1, 12: 1}),
    ((0, 3), (1, 2), (4, 5), (6, 7)):
        ({6: 1, 10: 1}, {0: 1, 4: 1, 8: 2, 12: 1, 16: 1}),
    ((0, 3), (1, 2), (4, 7), (5, 6)):
        ({8: 1}, {0: 1, 4: 1, 8: 2, 12: 1, 16: 1}),
    ((0, 5), (1, 2), (3, 4), (6, 7)):
        ({4: 1}, {0: 1, 8: 1}),
    ((0, 5), (1, 4), (2, 3), (6, 7)):
        ({6: 1}, {0: 1, 4: 1, 8: 1, 12: 1}),
    ((0, 7), (1, 2), (3, 4), (5, 6)):
        ({2: 1, 6: 1}, {0: 1, 8: 1}),
    ((0, 7), (1, 2), (3, 6), (4, 5)):
        ({4: 1}, {0: 1, 8: 1}),
    ((0, 7), (1, 4), (2, 3), (5, 6)):
        ({4: 1}, {0: 1, 8: 1}),
    ((0, 7), (1, 6), (2, 3), (4, 5)):
        ({2: 1, 6: 1, 10: 1}, {0: 1, 4: 1, 8: 1, 12: 1}),
    ((0, 7), (1, 6), (2, 5), (3, 4)):
        ({0: 1}, {0: 1}),
}
FROZEN_F5_DENOMINATOR = {0: 1, 4: 1, 8: 2, 12: 2, 16: 2, 20: 1, 24: 1}
FROZEN_F5_ROWS_SHA256 = "a418773cfc8dc134003708667ec0e288f3065669ed445920a3ae0d87d4e5edab"
FROZEN_F6_DENOMINATOR = {0: 1, 4: 2, 8: 4, 12: 6, 16: 8, 20: 9, 24: 9, 28: 8, 32: 6,
                         36: 4, 40: 2, 44: 1}
FROZEN_F6_ROWS_SHA256 = "5b33d13e3d97937bde040aeee16e35cda13ccaf3085a2cbc1a47eb82f0cff086"
FROZEN_F7_DENOMINATOR = {0: 1, 4: 2, 8: 4, 12: 6, 16: 9, 20: 11, 24: 13, 28: 13, 32: 13,
                         36: 11, 40: 9, 44: 6, 48: 4, 52: 2, 56: 1}
FROZEN_F7_ROWS_SHA256 = "379a418e1c5b0757998980dbe9cfa8a822913ab776dfcff6c9f3df30fca10e25"
FROZEN_F8_DENOMINATOR = {0: 1, 4: 2, 8: 4, 12: 7, 16: 11, 20: 15, 24: 20, 28: 24, 32: 27,
                         36: 29, 40: 29, 44: 27, 48: 24, 52: 20, 56: 15, 60: 11, 64: 7,
                         68: 4, 72: 2, 76: 1}
FROZEN_F8_ROWS_SHA256 = "01cbc9d614084cbdcf341c1ad82f7885ed34aca4a180e20e52adb9e956dbd90d"


def matching_strategy(n):
    return st.sampled_from(matchings_by_n[n])


def coefficient_strategy():
    """A small Laurent numerator over a product of up to two quantum
    integers Delta_k, k <= 4 (Delta_0 = 1 keeps some coefficients Laurent)."""
    numerator = st.dictionaries(st.integers(-6, 6), st.integers(-3, 3).filter(bool),
                                min_size=1, max_size=3)
    factors = st.lists(st.integers(0, 4), max_size=2)
    return st.builds(
        lambda num, ks: RationalFunction(
            LaurentPolynomial(num), math.prod((quantum_dimension(k) for k in ks), start=ONE)),
        numerator, factors)


def element_strategy(n, matchings=None, min_size=0):
    return st.dictionaries(st.sampled_from(matchings or matchings_by_n[n]), coefficient_strategy(),
                           min_size=min_size, max_size=5).map(lambda terms: TLElement(n, terms))


def product_pair_strategy(n):
    """Two random TL_n elements; or x without an identity term against
    c f(n) + y', where every x.(c f(n)) term cancels in the sum."""
    random_pair = st.tuples(element_strategy(n), element_strategy(n))
    if n < 2:
        return random_pair
    capped = [m for m in matchings_by_n[n] if m != identity_matching(n)]
    cancelling = st.tuples(
        element_strategy(n, capped, min_size=1),
        st.tuples(coefficient_strategy(), element_strategy(n)).map(
            lambda t: jones_wenzl(n).scale(t[0]) + t[1]))
    return st.one_of(random_pair, cancelling)


class TestPlanarMatching:
    def test_counts_are_catalan(self):
        for n in range(6):
            assert len(matchings_by_n[n]) == catalan(n)

    def test_crossing_chords_rejected(self):
        with pytest.raises(ValueError):
            PlanarMatching(2, [(0, 2), (1, 3)])

    def test_incomplete_matching_rejected(self):
        with pytest.raises(ValueError):
            PlanarMatching(2, [(0, 1)])

    def test_double_use_rejected(self):
        with pytest.raises(ValueError):
            PlanarMatching(2, [(0, 1), (1, 2), (2, 3)])

    def test_identity_parens(self):
        # n nested arches when read around the circle
        assert identity_matching(3).to_parens() == "((()))"

    def test_generator_parens(self):
        assert cup_cap_matching(2, 1).to_parens() == "()()"

    def test_generator_range(self):
        with pytest.raises(ValueError):
            cup_cap_matching(2, 2)
        with pytest.raises(ValueError):
            cup_cap_matching(3, 0)

    def test_enumeration_is_duplicate_free(self):
        for n in range(6):
            assert len(set(matchings_by_n[n])) == catalan(n)


class TestStacking:
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(matching_strategy(n), matching_strategy(n))))
    @settings(max_examples=200, deadline=None)
    def test_matches_union_find_oracle(self, pair):
        a, b = pair
        got = TLElement.basis(a) * TLElement.basis(b)
        expect_m, expect_loops = stack_oracle(a, b)
        assert list(got.terms) == [expect_m]
        assert got.terms[expect_m] == rf(DELTA**expect_loops)

    def test_identity_is_neutral(self):
        for n in range(1, 5):
            e = TLElement.identity(n)
            for m in matchings_by_n[n]:
                x = TLElement.basis(m)
                assert e * x == x
                assert x * e == x

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        matching_strategy(n), matching_strategy(n), matching_strategy(n))))
    @settings(max_examples=60, deadline=None)
    def test_associative(self, triple):
        x, y, z = (TLElement.basis(m) for m in triple)
        assert (x * y) * z == x * (y * z)

    def test_generator_square(self):
        # e_i . e_i closes one loop
        for n in (2, 3, 4):
            for i in range(1, n):
                e = TLElement.generator(n, i)
                assert e * e == DELTA * e

    def test_generator_slide(self):
        for n in (3, 4, 5):
            for i in range(1, n - 1):
                e1 = TLElement.generator(n, i)
                e2 = TLElement.generator(n, i + 1)
                assert e1 * e2 * e1 == e1
                assert e2 * e1 * e2 == e2

    def test_distant_generators_commute(self):
        e1 = TLElement.generator(4, 1)
        e3 = TLElement.generator(4, 3)
        assert e1 * e3 == e3 * e1

    def test_strand_count_mismatch(self):
        with pytest.raises(ValueError):
            tl_multiply(TLElement.identity(2), TLElement.identity(3))


def chords_of(partner):
    """The chords of a partner tuple, i < j in order of i."""
    return tuple((i, j) for i, j in enumerate(partner) if i < j)


def pairs_of(m):
    """The chords of m from its partner table, i < j in order of i."""
    return chords_of(m.partner)


class TestTrustedMatchings:
    """Stacking, closing and juxtaposing take and return partner tuples,
    built unchecked; each returned tuple must be the partner table that
    the validating constructor makes of the same chords, on n strands."""

    @staticmethod
    def assert_valid(partner, n):
        assert type(partner) is tuple and len(partner) == 2 * n
        assert partner == PlanarMatching(n, chords_of(partner)).partner

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(matching_strategy(n), matching_strategy(n))))
    @settings(max_examples=200, deadline=None)
    def test_stacked(self, pair):
        a, b = pair
        self.assert_valid(_stack_pair(a.partner, b.partner)[0], a.n)

    @given(st.integers(1, 6).flatmap(matching_strategy))
    @settings(max_examples=100, deadline=None)
    def test_closed(self, m):
        self.assert_valid(_close_last(m.partner)[0], m.n - 1)

    @given(st.integers(0, 6).flatmap(lambda total: st.integers(0, total).flatmap(
        lambda n: st.tuples(matching_strategy(n), matching_strategy(total - n)))))
    @settings(max_examples=100, deadline=None)
    def test_juxtaposed(self, pair):
        a, b = pair
        self.assert_valid(_juxtapose(a.partner, b.partner), a.n + b.n)

    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        element_strategy(n), element_strategy(n), st.integers(0, n),
        st.integers(0, 3).flatmap(element_strategy))))
    @settings(max_examples=100, deadline=None)
    def test_elements_hand_out_checked_matchings(self, case):
        # numerators are keyed by partner tuples; every matching that
        # terms hands out is a PlanarMatching on the element's strands
        x, y, count, z = case
        for element in (x * y, partial_trace(x, count), tl_tensor(x, z)):
            for m in element.terms:
                assert type(m) is PlanarMatching and m.n == element.n
                assert m == PlanarMatching(m.n, m.pairs)
                assert m.partner == PlanarMatching(m.n, m.pairs).partner

    @pytest.mark.parametrize("n", range(7))
    def test_cleared_projector_hands_out_checked_matchings(self, n):
        for _, m in cleared_projector(n)[1]:
            assert type(m) is PlanarMatching and m.n == n
            assert m == PlanarMatching(m.n, m.pairs)
            assert m.partner == PlanarMatching(m.n, m.pairs).partner


class TestMatchingIdentity:
    """A matching is keyed by its partner table; pairs is derived from it,
    and equality, hash, order and repr are those of the chord tuples."""

    @given(st.one_of(
        st.integers(0, 6).flatmap(lambda n: st.tuples(matching_strategy(n), matching_strategy(n))),
        st.tuples(st.integers(0, 6).flatmap(matching_strategy),
                  st.integers(0, 6).flatmap(matching_strategy))))
    @settings(max_examples=300, deadline=None)
    def test_equality_and_hash_follow_the_chords(self, pair):
        a, b = pair
        assert (a == b) == ((a.n, pairs_of(a)) == (b.n, pairs_of(b)))
        assert (a == b) == (a.partner == b.partner)
        if a == b:
            assert hash(a) == hash(b)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(matching_strategy(n), matching_strategy(n))))
    @settings(max_examples=200, deadline=None)
    def test_derived_pairs_equal_the_validating_constructors(self, pair):
        a, b = pair
        m = _stack_pair(a.partner, b.partner)[0]
        checked = PlanarMatching(a.n, reversed([(j, i) for i, j in chords_of(m)]))
        assert checked.partner == m
        assert checked.pairs == pairs_of(checked) == chords_of(m)
        assert hash(checked) == hash(m)

    @given(st.integers(0, 6).flatmap(lambda n: st.lists(matching_strategy(n), max_size=12)))
    @settings(max_examples=100, deadline=None)
    def test_order_and_repr_are_unchanged(self, ms):
        assert sorted(ms) == sorted(ms, key=pairs_of)
        for m in ms:
            assert repr(m) == f"PlanarMatching({m.n}, {m.to_parens()})"

    def test_repr_is_pinned(self):
        assert repr(cup_cap_matching(3, 2)) == "PlanarMatching(3, (()()))"
        assert cup_cap_matching(3, 2).pairs == ((0, 5), (1, 2), (3, 4))


class TestClearedArithmetic:
    """Products, traces and tensors work over one common denominator;
    the oracles reduce every coefficient after every pair of terms."""

    @given(st.integers(1, 4).flatmap(product_pair_strategy))
    @settings(max_examples=150, deadline=None)
    def test_product_matches_qa_oracle(self, pair):
        x, y = pair
        assert tl_multiply(x, y) == tl_multiply_oracle(x, y)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(element_strategy(n), st.integers(0, n))))
    @settings(max_examples=100, deadline=None)
    def test_trace_matches_qa_oracle(self, case):
        x, count = case
        assert partial_trace(x, count) == partial_trace_oracle(x, count)

    @given(st.tuples(st.integers(0, 3).flatmap(element_strategy),
                     st.integers(0, 3).flatmap(element_strategy)))
    @settings(max_examples=60, deadline=None)
    def test_tensor_matches_qa_oracle(self, pair):
        x, y = pair
        assert tl_tensor(x, y) == tl_tensor_oracle(x, y)

    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(element_strategy(n), element_strategy(n))))
    @settings(max_examples=100, deadline=None)
    def test_form_is_unique(self, pair):
        # equal elements have equal forms, however they were reached
        x, y = pair
        assert TLElement(x.n, dict(x.terms)) == x
        assert (x + y) - y == x

    def test_products_with_f_cancel_to_zero(self):
        for n in range(2, 5):
            f = jones_wenzl(n)
            x = TLElement(n, {m: RationalFunction(A**k, quantum_dimension(k % 5))
                              for k, m in enumerate(matchings_by_n[n]) if m != identity_matching(n)})
            assert tl_multiply(x, f.scale(RationalFunction(A, quantum_dimension(3)))).is_zero()
            assert tl_multiply_oracle(x, f).is_zero()

    def test_closure_matches_qa_oracle(self):
        x = TLElement(3, {m: RationalFunction(A**k + 1, quantum_dimension(k % 4 + 1))
                          for k, m in enumerate(matchings_by_n[3])})
        [(_, expect)] = partial_trace_oracle(x, 3).terms.items()
        assert closure(x) == expect

    @pytest.mark.parametrize("n", range(4))
    def test_closure_takes_no_gcd_beyond_the_trace(self, n, monkeypatch):
        # TL_0's one form is already a reduced fraction, so closure hands
        # it on as it is instead of reducing it again
        x = TLElement(n, {m: RationalFunction(A**k + 1, quantum_dimension(k % 4 + 1))
                          for k, m in enumerate(matchings_by_n[n])})
        calls = []
        monkeypatch.setattr(laurent, "laurent_gcd",
                            lambda *a, _real=laurent.laurent_gcd: calls.append(a) or _real(*a))
        trace = partial_trace(x, x.n)
        traced = len(calls)
        value = closure(x)
        assert traced and len(calls) == 2 * traced
        assert trace.terms == {PlanarMatching(0, []): value}


class TestTensor:
    def test_identities_concatenate(self):
        assert tl_tensor(TLElement.identity(2), TLElement.identity(3)) == TLElement.identity(5)

    def test_generator_placement(self):
        left = tl_tensor(TLElement.generator(2, 1), TLElement.identity(1))
        assert left == TLElement.generator(3, 1)
        right = tl_tensor(TLElement.identity(1), TLElement.generator(2, 1))
        assert right == TLElement.generator(3, 2)

    def test_tensor_respects_products(self):
        # (x . x') tensor (y . y') == (x tensor y) . (x' tensor y')
        x, xp = TLElement.generator(2, 1), TLElement.identity(2)
        y, yp = TLElement.identity(2), TLElement.generator(2, 1)
        lhs = tl_tensor(x * xp, y * yp)
        rhs = tl_tensor(x, y) * tl_tensor(xp, yp)
        assert lhs == rhs


class TestTrace:
    def test_close_last_matches_union_find_oracle(self):
        # every basis diagram with n <= 5, one strand closed
        for n in range(1, 6):
            for m in matchings_by_n[n]:
                expect_m, loops = close_oracle(m)
                expect = TLElement(n - 1, {expect_m: rf(DELTA**loops)})
                assert partial_trace(TLElement.basis(m), 1) == expect, m

    def test_close_identity_strand(self):
        assert partial_trace(TLElement.identity(2), 1) == DELTA * TLElement.identity(1)

    def test_close_generator(self):
        # closing the right strand of e_1 in TL_2 straightens into id_1
        assert partial_trace(TLElement.generator(2, 1), 1) == TLElement.identity(1)

    def test_closure_of_identity(self):
        for n in range(5):
            assert closure(TLElement.identity(n)) == rf(DELTA**n)

    def test_closure_of_cup_cap(self):
        # the cup and the cap join through the closure arcs: one circle
        m = PlanarMatching(2, [(0, 1), (2, 3)])
        assert closure(TLElement.basis(m)) == rf(DELTA)

    def test_count_out_of_range(self):
        with pytest.raises(ValueError):
            partial_trace(TLElement.identity(2), 3)


class TestJonesWenzl:
    def test_two_strand_form(self):
        inv = RationalFunction(LaurentPolynomial.one(), A**2 + (A**2).mirror())
        expect = TLElement.identity(2) + inv * TLElement.generator(2, 1)
        assert jones_wenzl(2) == expect

    def test_idempotent(self):
        for n in range(6):
            f = jones_wenzl(n)
            assert f * f == f

    def test_kills_generators(self):
        for n in range(2, 6):
            f = jones_wenzl(n)
            for i in range(1, n):
                e = TLElement.generator(n, i)
                assert (e * f).is_zero()
                assert (f * e).is_zero()

    def test_identity_coefficient_is_one(self):
        for n in range(1, 6):
            assert jones_wenzl(n).terms[identity_matching(n)] == RationalFunction.one()

    def test_closure_is_loop_polynomial(self):
        for n in range(6):
            assert closure(jones_wenzl(n)) == rf(quantum_dimension(n))

    def test_partial_trace_steps_down(self):
        for n in range(1, 5):
            ratio = RationalFunction(quantum_dimension(n), quantum_dimension(n - 1))
            assert partial_trace(jones_wenzl(n), 1) == ratio * jones_wenzl(n - 1)

    def test_absorption(self):
        assert absorption_check(1, 2)
        assert absorption_check(2, 2)
        assert absorption_check(3, 1)
        assert absorption_check(1, 3)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            jones_wenzl(-1)

    def test_terms_are_read_only(self):
        # cached projectors are shared by every caller
        f = jones_wenzl(3)
        before = dict(f.terms)
        m = identity_matching(3)
        with pytest.raises(TypeError):
            f.terms[m] = RationalFunction(2)
        with pytest.raises(TypeError):
            del f.terms[m]
        assert jones_wenzl(3) == TLElement(3, before)
        assert f.terms == before and len(f.terms) == len(before) == catalan(3)
        assert f.terms.get(m) == RationalFunction.one()
        assert dict(f.terms.items()) == before

    def test_frozen_f4(self):
        f = jones_wenzl(4)
        assert {m.pairs: (c.num.terms, c.den.terms) for m, c in f.terms.items()} == FROZEN_F4

    @pytest.mark.parametrize("n", range(7))
    def test_matches_wenzl_two_box_recursion(self, n):
        assert jones_wenzl(n) == wenzl_oracle(n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_one_level_stacks_n_minus_1_times_catalan_n_minus_1(self, n, monkeypatch):
        # the single-clasp expansion stacks one generator onto each of the
        # Catalan(n-1) terms of f(n-1)x1, n-1 times over; Wenzl's sandwich
        # stacks about Catalan(n-1)^2 pairs
        jones_wenzl.cache_clear()
        jones_wenzl(n - 1)
        calls = []
        monkeypatch.setattr(temperley_lieb, "_stack_pair",
                            lambda *a, _real=_stack_pair: calls.append(a) or _real(*a))
        f = jones_wenzl(n)
        assert len(calls) == (n - 1) * catalan(n - 1)
        assert len(f.terms) == catalan(n)


class TestClearedProjector:
    def test_reconstructs_projector(self):
        for n in range(1, 6):
            q, rows = cleared_projector(n)
            f = jones_wenzl(n)
            assert len(rows) == len(f.terms)
            for num_terms, m in rows:
                num = LaurentPolynomial(num_terms)
                assert RationalFunction(num, q) == f.terms[m]

    def test_frozen_f5(self):
        q, rows = cleared_projector(5)
        assert q.terms == FROZEN_F5_DENOMINATOR
        text = repr([(m.pairs, sorted(num.items())) for num, m in rows])
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_F5_ROWS_SHA256

    def test_frozen_f6(self):
        q, rows = cleared_projector(6)
        assert q.terms == FROZEN_F6_DENOMINATOR
        text = repr([(m.pairs, sorted(num.items())) for num, m in rows])
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_F6_ROWS_SHA256

    def test_frozen_f7(self):
        q, rows = cleared_projector(7)
        assert q.terms == FROZEN_F7_DENOMINATOR
        text = repr([(m.pairs, sorted(num.items())) for num, m in rows])
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_F7_ROWS_SHA256

    def test_frozen_f8(self):
        q, rows = cleared_projector(8)
        assert q.terms == FROZEN_F8_DENOMINATOR
        text = repr([(m.pairs, sorted(num.items())) for num, m in rows])
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_F8_ROWS_SHA256

    @pytest.mark.parametrize("n", range(2, 7))
    def test_each_term_keeps_one_residue_class_mod_4(self, n):
        # the sweep packs every coefficient of a box network at stride 4,
        # and fails closed otherwise; that starts here, with each cleared
        # coefficient of f(n) in one residue class mod 4
        _, rows = cleared_projector(n)
        for num_terms, m in rows:
            assert len({e % 4 for e in num_terms}) == 1, m.pairs

    def test_denominator_is_unit_free(self):
        # the common denominator actually divides out: Q . f(n) is integral
        q, rows = cleared_projector(4)
        assert q.min_degree() == 0
        for num_terms, _ in rows:
            assert all(isinstance(c, int) for c in num_terms.values())
