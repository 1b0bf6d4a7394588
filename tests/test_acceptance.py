"""Acceptance gate: one test per shipped guarantee, exact comparisons only.

Each test below is a single pass/fail line under ``pytest -v``.  Values are
compared with ``==`` over Z[A, A^-1] / Q(A); the stability windows allow one
global sign and nothing else.  Where a wall-clock budget is part of the
guarantee it is asserted at the end of the test, after the work.
"""

import time

from skeinlab import (
    LaurentPolynomial,
    ONE,
    RationalFunction,
    TLElement,
    ZERO,
    all_a_state,
    all_b_state,
    bracket,
    bracket_bruteforce,
    build_upsilon,
    closure,
    colored_jones,
    colored_state_sum,
    crossing_expansion_coefficient,
    evaluate_rational,
    fixture,
    fixture_names,
    is_adequate,
    is_alternating,
    jones_wenzl,
    lambda_expand,
    loop_value,
    mirror,
    parse_pd,
    quantum_dimension,
    tl_multiply,
    verify_corollary,
    verify_degree_lemmas,
    verify_theorem_1,
    verify_theorem_2,
)

KINK = "X 1 2 2 1"


def corpus():
    """All packaged fixture diagrams (eight alternating links, <= 6 crossings)."""
    return [(name, fixture(name).diagram) for name in fixture_names()]


def guarded_coefficient(n, k):
    """C_{n,k}, extended by zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return ZERO
    return crossing_expansion_coefficient(n, k)


def test_c01_bracket_matches_bruteforce_state_sum():
    """Sweep-contraction bracket == 2^k brute-force state sum, bit-exact."""
    start = time.perf_counter()
    diagrams = [d for _name, d in corpus()]
    diagrams.append(parse_pd(""))
    diagrams.append(parse_pd("O"))
    for d in diagrams:
        assert bracket(d) == bracket_bruteforce(d), d.name
    assert time.perf_counter() - start < 5.0


def test_c02_jones_wenzl_property_suite():
    """f(n) idempotent, killed by every e_i, closure = Delta_n, for n <= 6."""
    start = time.perf_counter()
    for n in range(7):
        f = jones_wenzl(n)
        assert tl_multiply(f, f) == f, n
        for i in range(1, n):
            assert tl_multiply(TLElement.generator(n, i), f).is_zero(), (n, i)
            assert tl_multiply(f, TLElement.generator(n, i)).is_zero(), (n, i)
        assert closure(f) == RationalFunction.from_laurent(quantum_dimension(n)), n
    assert time.perf_counter() - start < 30.0


def test_c03_crossing_coefficient_recursion_and_min_degree():
    """C_{n,k} = A^{2n-1} C_{n-1,k} + A^{-2n+1} C_{n-1,k-1};
    min degree 2k^2 - 4kn + n^2; whole grid 0 <= k <= n <= 12."""
    start = time.perf_counter()
    for n in range(13):
        for k in range(n + 1):
            c = crossing_expansion_coefficient(n, k)
            assert c.min_degree() == 2 * k * k - 4 * k * n + n * n, (n, k)
            if n == 0:
                continue
            rec = (LaurentPolynomial.monomial(1, 2 * n - 1)
                   * guarded_coefficient(n - 1, k)
                   + LaurentPolynomial.monomial(1, -(2 * n - 1))
                   * guarded_coefficient(n - 1, k - 1))
            assert c == rec, (n, k)
    assert time.perf_counter() - start < 1.0


def test_c04_colored_skein_relation_exact_on_single_crossing_closures():
    """On both closures of a single crossing, for n <= 3: the colored state
    sum equals the n-colored bracket, and every state value equals its full
    corner-pattern expansion."""
    start = time.perf_counter()
    kink = parse_pd(KINK)
    for d in (kink, mirror(kink)):
        for n in (1, 2, 3):
            assert colored_state_sum(d, n) == colored_jones(d, n), n
            for s in (all_b_state(d), all_a_state(d)):
                total = RationalFunction.zero()
                for coeff, lam in lambda_expand(d, n, s):
                    total = total + evaluate_rational(lam) * coeff
                assert total == evaluate_rational(build_upsilon(d, n, s)), (n, s)
    assert time.perf_counter() - start < 30.0


def test_c05_bstate_carries_lowest_4n_coefficients():
    """alpha(s-) * <Y(s-)> agrees with J~_n on the lowest 4n coefficients,
    every fixture, n in {1, 2, 3}."""
    start = time.perf_counter()
    failed = [(name, n)
              for name, d in corpus()
              for n in (1, 2, 3)
              if not verify_theorem_1(d, n)]
    assert not failed
    assert time.perf_counter() - start < 600.0


def test_c06_next_color_bstate_matches_previous_jtilde():
    """<Y^{(n+1)}(s-)> agrees with J~_n on the lowest 4n coefficients,
    every fixture, n in {1, 2, 3}."""
    start = time.perf_counter()
    failed = [(name, n)
              for name, d in corpus()
              for n in (1, 2, 3)
              if not verify_theorem_2(d, n)]
    assert not failed
    assert time.perf_counter() - start < 600.0


def test_c07_consecutive_colors_agree_tail_stability():
    """J~_{n+1} matches J~_n on the lowest 4n coefficients: trefoil and
    figure-eight through n = 3 (forcing the 4-cable), the rest through n = 2."""
    start = time.perf_counter()
    failed = []
    for name, d in corpus():
        top = 3 if name in ("trefoil", "figure_eight") else 2
        for n in range(1, top + 1):
            if not verify_corollary(d, n):
                failed.append((name, n))
    assert not failed
    assert time.perf_counter() - start < 900.0


def test_c08_normalization_anchors():
    """J~_n(unknot) = Delta_n for n <= 8; empty diagram -> 1;
    one circle -> -A^2 - A^-2."""
    for n in range(1, 9):
        assert colored_jones(parse_pd("O"), n) == quantum_dimension(n), n
    assert bracket(parse_pd("")) == ONE
    assert bracket(parse_pd("O")) == loop_value()
    assert str(loop_value()) == "-A^-2 - A^2"


def test_c09_corpus_adequate_alternating_and_nugatory_counterexample():
    """Every fixture is alternating and adequate; a diagram with a nugatory
    crossing is not adequate."""
    for name, d in corpus():
        assert is_alternating(d), name
        assert is_adequate(d), name
    assert not is_adequate(parse_pd(KINK))


def test_c10_degree_lemma_suite():
    """The degree-identity suite holds on every fixture for n in {2, 3},
    including minimum-degree attainment d(<Lambda>) = D(Lambda) at the
    adequate extreme term."""
    for name, d in corpus():
        for n in (2, 3):
            report = verify_degree_lemmas(d, n)
            names = {c.name for c in report.checks}
            assert "extreme-lambda-adequate" in names, (name, n)
            assert "adequate-degree-attained" in names, (name, n)
            assert report.ok, (name, n, report.failures)
