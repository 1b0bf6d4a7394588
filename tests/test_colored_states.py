"""Colored state machinery: the state enumeration, state skein elements,
corner-pattern expansion, and the degree bookkeeping."""
import hashlib
import itertools
import json
import pathlib
import random
import types

import pytest

from skeinlab import colored_states
from skeinlab.colored_states import (
    MAX_LAMBDA_TERMS,
    D_degree,
    DegreeLemmaReport,
    alpha,
    all_states,
    build_upsilon,
    colored_state_sum,
    corner_pattern,
    is_adequate_skein,
    lambda_diagram,
    lambda_expand,
    verify_degree_lemmas,
)
from skeinlab import diagram
from skeinlab.diagram import (
    LinkDiagram,
    MalformedPDError,
    all_a_state,
    all_b_state,
    apply_state,
    parse_pd,
)
from skeinlab.fixtures import fixture
from skeinlab.laurent import (
    LaurentPolynomial,
    RationalFunction,
    crossing_expansion_coefficient,
    loop_value,
    quantum_dimension,
)
from skeinlab.skein_eval import (
    CROSSING,
    DecoratedDiagram,
    ResourceLimitError,
    bracket,
    cabled_diagram,
    colored_jones,
    evaluate,
    evaluate_rational,
    from_link,
    projector_node,
)
from skeinlab.tails import stability_report

from cable_oracle import cable, planar_by_faces

TREFOIL = "X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 3"
HOPF = "X 4 1 3 2 / X 2 3 1 4"
FIG8 = "X 4 2 5 1 / X 8 6 1 5 / X 6 3 7 4 / X 2 7 3 8"
KINK = "X 1 2 2 1"
NONPLANAR = "X 1 3 4 3 / X 4 2 6 5 / X 1 2 5 6"

DELTA = loop_value()


# ---------------------------------------------------------------------------
# states and weights


def test_extreme_states():
    # a colored state is a diagram state: the sign order starts at the
    # all-B state and ends at the all-A state
    d = parse_pd(TREFOIL)
    states = all_states(d, 2)
    assert len(states) == 8
    assert states[0] == all_b_state(d)
    assert states[-1] == all_a_state(d)


@pytest.mark.parametrize("pd", [TREFOIL, HOPF, FIG8, "O"])
def test_all_states_are_in_sign_order(pd):
    d = parse_pd(pd)
    states = all_states(d, 2)
    assert states == sorted(states)
    assert len(set(states)) == 2 ** d.crossing_count


# 13 kinks in a row: 2^13 states, over the state cap
CHAIN = " / ".join(f"X {2 * i + 1} {2 * i + 2} {2 * i + 2} {(2 * i + 3) % 26 or 26}"
                   for i in range(13))


def test_all_states_checks_before_it_builds(monkeypatch):
    # the color first, then the cap; no state and no skein element is built
    def build(*args, **kwargs):
        raise AssertionError("built before the checks")
    monkeypatch.setattr(colored_states, "itertools", types.SimpleNamespace(product=build))
    monkeypatch.setattr(colored_states, "build_upsilon", build)
    d = parse_pd(CHAIN)
    for run in (all_states, colored_state_sum):
        with pytest.raises(ResourceLimitError, match="2\\^13 states exceed the cap of 4096"):
            run(d, 2)
        with pytest.raises(ValueError, match="color must be >= 1"):
            run(d, 0)


def test_alpha_monomials():
    """The three weights worked out by hand for a k-crossing diagram."""
    d = parse_pd(TREFOIL)
    k, n = 3, 2
    assert alpha(d, n, all_b_state(d)) == LaurentPolynomial.monomial(1, k - 2 * k * n)
    assert alpha(d, n, all_a_state(d)) == LaurentPolynomial.monomial(1, (2 * n - 1) * k)
    s1 = (1,) + all_b_state(d)[1:]
    assert alpha(d, n, s1) == LaurentPolynomial.monomial(
        1, -2 + k + 4 * n - 2 * k * n)


# ---------------------------------------------------------------------------
# corner patterns


def test_corner_pattern_single_strand():
    # at width 1 the two patterns are the classical smoothings
    assert set(corner_pattern(1, 0)) == {((1, 1), (2, 1)), ((3, 1), (0, 1))}
    assert set(corner_pattern(1, 1)) == {((0, 1), (1, 1)), ((2, 1), (3, 1))}


@pytest.mark.parametrize("m,k", [(m, k) for m in range(1, 5) for k in range(m + 1)])
def test_corner_pattern_covers_boundary(m, k):
    chords = corner_pattern(m, k)
    assert len(chords) == 2 * m
    ends = [e for ch in chords for e in ch]
    assert sorted(ends) == sorted((s, i) for s in range(4) for i in range(1, m + 1))


def test_corner_pattern_range():
    with pytest.raises(ValueError):
        corner_pattern(2, 3)
    with pytest.raises(ValueError):
        corner_pattern(2, -1)


# ---------------------------------------------------------------------------
# the skein element of a state


def test_upsilon_structure_trefoil():
    """Color 2 leaves one residual single crossing per original one."""
    d = parse_pd(TREFOIL)
    dd = build_upsilon(d, 2, all_b_state(d))
    assert sum(nd is CROSSING for nd in dd.nodes) == 3
    assert sum(nd.projector for nd in dd.nodes) == 6  # one box per arc
    assert dd.node_count == 3 + 6
    dd3 = build_upsilon(d, 3, all_b_state(d))
    assert sum(nd is CROSSING for nd in dd3.nodes) == 3 * 4
    assert sum(nd.projector for nd in dd3.nodes) == 6
    assert dd3.node_count == 3 * 4 + 6


def random_rows(k: int, seed: int) -> list:
    """The rows of an abstract 4-valent diagram: shuffle 4k slots into 2k
    arcs."""
    rng = random.Random(seed)
    slots = list(range(4 * k))
    rng.shuffle(slots)
    labels = {}
    for a, i in enumerate(range(0, 4 * k, 2)):
        labels[slots[i]] = labels[slots[i + 1]] = a + 1
    return [tuple(labels[4 * c + p] for p in range(4)) for c in range(k)]


@pytest.mark.parametrize("pd", [TREFOIL, HOPF, FIG8, KINK])
def test_upsilon_color_one_is_classical_state(pd):
    """At color 1 the skein element of s is the state diagram itself."""
    d = parse_pd(pd)
    for s in itertools.product((1, -1), repeat=d.crossing_count):
        expected = DELTA ** apply_state(d, s).circle_count
        assert evaluate(build_upsilon(d, 1, s)) == expected


def test_upsilon_color_one_random_diagrams():
    # a planar draw's Y(s) is its state diagram; LinkDiagram refuses one
    # that is not planar (8 of these 64 draws are planar)
    planar = 0
    for seed in range(64):
        rows = random_rows(4, seed)
        rng = random.Random(100 + seed)
        s = tuple(rng.choice((1, -1)) for _ in range(len(rows)))
        if planar_by_faces(rows):
            planar += 1
            d = LinkDiagram(rows)
            assert evaluate(build_upsilon(d, 1, s)) == DELTA ** apply_state(d, s).circle_count
        else:
            with pytest.raises(MalformedPDError, match="not planar"):
                LinkDiagram(rows)
    assert planar >= 6


def test_upsilon_free_loops():
    d = parse_pd(KINK + " / O")
    s = all_b_state(d)
    with_loop = evaluate_rational(build_upsilon(d, 2, s))
    bare = evaluate_rational(build_upsilon(parse_pd(KINK), 2, s))
    assert with_loop == bare * quantum_dimension(2)


def test_upsilon_rejects_wrong_state_length():
    d = parse_pd(HOPF)
    with pytest.raises(ValueError):
        build_upsilon(d, 2, (1,))


@pytest.mark.parametrize("build", [
    alpha, build_upsilon, lambda_expand,
    lambda d, n, s: lambda_diagram(d, n, s, (n - 1,) * d.crossing_count)])
def test_the_color_and_the_state_are_checked(build):
    # the color is an argument of its own, and a state is one sign per
    # crossing, each +1 or -1; the letters A and B are not states
    d = parse_pd(TREFOIL)
    with pytest.raises(ValueError, match="color must be >= 1"):
        build(d, 0, all_b_state(d))
    with pytest.raises(ValueError, match="crossing count"):
        build(d, 2, (1, -1))
    for bad in ((1, -1, 0), ("B", "B", "B")):
        with pytest.raises(ValueError, match="must be \\+1 or -1"):
            build(d, 2, bad)


@pytest.mark.parametrize("build", [
    alpha, build_upsilon, lambda_expand,
    lambda d, n, s: lambda_diagram(d, n, s, (1,) * d.crossing_count),
    lambda d, n, s: all_states(d, n), lambda d, n, s: colored_state_sum(d, n)])
@pytest.mark.parametrize("n", [2.0, True, False, "2"])
def test_a_color_must_be_an_int(monkeypatch, build, n):
    # 2.0 would give alpha a float exponent and True would pass as color
    # 1: a color that is not an int, a bool included, is refused first
    def work(*args, **kwargs):
        raise AssertionError("work began")
    monkeypatch.setattr(colored_states, "_network", work)
    monkeypatch.setattr(colored_states, "itertools", types.SimpleNamespace(product=work))
    d = parse_pd(TREFOIL)
    with pytest.raises(ValueError, match="color must be an integer"):
        build(d, n, all_b_state(d))


PINNED_DIGESTS = json.loads(
    (pathlib.Path(__file__).with_name("upsilon_digests.json")).read_text())
# color 5, pinned before the planner's search changes; only the values
# that take under about a second each are checked here (see "about")
for kind, digests in json.loads((pathlib.Path(__file__).with_name(
        "color5_digests.json")).read_text())["tier1"].items():
    PINNED_DIGESTS[kind].update(digests)


def upsilon_digest(value: RationalFunction) -> str:
    """SHA-256 of the canonical (numerator, denominator) term lists."""
    payload = repr((sorted(value.num.terms.items()), sorted(value.den.terms.items())))
    return hashlib.sha256(payload.encode()).hexdigest()


def pinned_case(case: str):
    name, n = case.rsplit(":", 1)
    return fixture(name).diagram, int(n)


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS["s_minus"]))
def test_upsilon_b_state_matches_pinned_digest(case):
    """Y(s-) of every corpus fixture at n = 2..4, bit for bit as pinned
    before the sweep pruned turnbacks, and at n = 5 but for 6_2."""
    d, n = pinned_case(case)
    value = evaluate_rational(build_upsilon(d, n, all_b_state(d)))
    assert upsilon_digest(value) == PINNED_DIGESTS["s_minus"][case]


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS["s_plus"]))
def test_upsilon_a_state_matches_pinned_digest(case):
    """Y(s+) of every corpus fixture at n = 2, 3, bit for bit as pinned
    before the Morse planner deferred projector boxes, and of the
    trefoil, Hopf link, figure-eight and 5_2 at n = 5."""
    d, n = pinned_case(case)
    value = evaluate_rational(build_upsilon(d, n, all_a_state(d)))
    assert upsilon_digest(value) == PINNED_DIGESTS["s_plus"][case]


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS["jtilde"]))
def test_colored_jones_matches_pinned_digest(case):
    """J~_n of every corpus fixture at n = 2, 3 and of the trefoil,
    figure-eight and Hopf link at n = 4, bit for bit as pinned before
    the Morse planner deferred projector boxes, and of the trefoil and
    Hopf link at n = 5."""
    d, n = pinned_case(case)
    payload = repr(sorted(colored_jones(d, n).terms.items()))
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_DIGESTS["jtilde"][case]


# ---------------------------------------------------------------------------
# the colored skein relation is exact


@pytest.mark.parametrize("pd,n", [
    (KINK, 1), (KINK, 2), (KINK, 3),
    (HOPF, 1), (HOPF, 2),
    (TREFOIL, 1), (TREFOIL, 2), (TREFOIL, 3),
    (FIG8, 1), (FIG8, 2),
])
def test_state_sum_matches_colored_jones(pd, n):
    d = parse_pd(pd)
    assert colored_state_sum(d, n) == colored_jones(d, n)


def test_state_sum_with_free_loop():
    d = parse_pd(KINK + " / O")
    assert colored_state_sum(d, 2) == colored_jones(d, 2)


def test_state_sum_color_one_is_bracket():
    for pd in (TREFOIL, HOPF, FIG8):
        d = parse_pd(pd)
        assert colored_state_sum(d, 1) == evaluate(from_link(d))


def test_state_sum_unknot():
    for n in range(1, 5):
        assert colored_state_sum(parse_pd("O"), n) == quantum_dimension(n)


def test_state_sum_guard():
    with pytest.raises(ResourceLimitError):
        colored_state_sum(parse_pd(CHAIN), 2)


# ---------------------------------------------------------------------------
# corner-pattern expansion of the residual crossings


def test_lambda_expand_count_and_coefficients():
    d = parse_pd(TREFOIL)
    terms = lambda_expand(d, 2, all_b_state(d))
    assert len(terms) == 8
    # lexicographic: the first index tuple is (0,0,0), the last (1,1,1)
    c10 = crossing_expansion_coefficient(1, 0)
    c11 = crossing_expansion_coefficient(1, 1)
    assert terms[0][0] == c10 ** 3
    assert terms[-1][0] == c11 ** 3


def test_lambda_expand_guard():
    # 41^3 terms pass the cap of 2^16, and the check comes before any term
    # or f(41) is built; 40^3 would not
    d = parse_pd(TREFOIL)
    assert 40 ** 3 <= MAX_LAMBDA_TERMS < 41 ** 3
    with pytest.raises(ResourceLimitError, match="68921 expansion terms exceed"):
        lambda_expand(d, 41, all_b_state(d))


def test_no_engine_path_counts_faces(monkeypatch):
    # planarity is a property of a LinkDiagram from its constructor on:
    # nothing that takes one counts its faces again
    d = fixture("figure_eight").diagram
    s = all_b_state(d)
    calls = []
    monkeypatch.setattr(diagram, "_planar", lambda to: calls.append(to))
    bracket(d)
    for n in (1, 2, 3):
        colored_jones(d, n)
    cabled_diagram(d, 2, [min(d.arcs, key=repr)])
    build_upsilon(d, 2, s)
    lambda_expand(d, 2, s)
    stability_report(d, 2)
    assert calls == []


def test_lambda_expand_builds_each_lambda_diagram():
    d = fixture("6_2").diagram
    s = all_b_state(d)
    indices = list(itertools.product(range(3), repeat=d.crossing_count))
    expected = [lambda_diagram(d, 3, s, ix) for ix in indices]
    terms = lambda_expand(d, 3, s)
    assert ([(lam.nodes, lam.to) for _, lam in terms]
            == [(lam.nodes, lam.to) for lam in expected])
    c = [crossing_expansion_coefficient(2, i) for i in range(3)]
    assert [coeff for coeff, _ in terms] == [
        c[i] * c[j] * c[k] * c[l] * c[m] * c[o] for i, j, k, l, m, o in indices]


def test_a_nonplanar_code_never_reaches_lambda_expand():
    # parse_pd refuses it, so there is no diagram to expand
    with pytest.raises(MalformedPDError, match="not planar"):
        parse_pd(NONPLANAR)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cabled_crossing_expansion_exact(n):
    """One residual (n-1)-cabled crossing closed off by a kink equals its
    corner-pattern expansion, term by term in the evaluation."""
    d = parse_pd(KINK)
    for s in all_states(d, n):
        total = RationalFunction.zero()
        for coeff, lam in lambda_expand(d, n, s):
            total = total + evaluate_rational(lam) * coeff
        assert total == evaluate_rational(build_upsilon(d, n, s))


@pytest.mark.parametrize("pd", [TREFOIL, HOPF, KINK + " / O"],
                         ids=["trefoil", "hopf", "kink-and-loop"])
@pytest.mark.parametrize("n", [2, 3])
def test_lambda_expansion_exact(pd, n):
    # at n = 3 the corner patterns have several chords a slot and shifted
    # stubs on both sides; the free loop adds a closed box after the grids
    d = parse_pd(pd)
    states = {all_b_state(d), all_a_state(d), (1,) + all_b_state(d)[1:]}
    for s in sorted(states):
        total = RationalFunction.zero()
        for coeff, lam in lambda_expand(d, n, s):
            total = total + evaluate_rational(lam) * coeff
        assert total == evaluate_rational(build_upsilon(d, n, s)), s


def test_lambda_color_one_single_term():
    d = parse_pd(TREFOIL)
    s = all_b_state(d)
    terms = lambda_expand(d, 1, s)
    assert len(terms) == 1
    coeff, lam = terms[0]
    assert coeff == LaurentPolynomial.one()
    assert evaluate(lam) == evaluate(build_upsilon(d, 1, s))


# ---------------------------------------------------------------------------
# degrees of crossingless skein elements


def test_D_degree_basics():
    assert D_degree(DecoratedDiagram([], [])) == 0
    # a single closed-off box is one circle per strand
    box = projector_node(1)
    dd = DecoratedDiagram([box], [1, 0])
    assert D_degree(dd) == -2
    with pytest.raises(ValueError):
        D_degree(from_link(parse_pd(TREFOIL)))
    with pytest.raises(ValueError):
        is_adequate_skein(from_link(parse_pd(TREFOIL)))
    # a twist that from_link fused is no box either, even with no
    # crossing node left beside it
    twist = from_link(parse_pd(TREFOIL)).nodes[0]
    assert not twist.projector and twist is not CROSSING
    alone = DecoratedDiagram([twist], [1, 0, 3, 2])
    for check in (D_degree, is_adequate_skein):
        with pytest.raises(ValueError, match="still has crossings"):
            check(alone)


def test_circle_through_box_twice_not_adequate():
    """Closing a 2-box onto itself bottom-to-bottom sends one circle
    through the projector twice; the diagram is inadequate and its value
    (zero, a killed turnback) escapes the degree bound entirely."""
    box = projector_node(2)
    dd = DecoratedDiagram([box], [1, 0, 3, 2])
    assert not is_adequate_skein(dd)
    assert D_degree(dd) == -2
    assert evaluate(dd) == LaurentPolynomial.zero()


def test_markov_closed_box_is_adequate():
    box = projector_node(3)
    dd = DecoratedDiagram([box], [5 - p for p in range(6)])
    assert is_adequate_skein(dd)
    assert D_degree(dd) == -6
    assert evaluate(dd) == quantum_dimension(3)
    # Delta_3 has min degree -6: the bound is attained
    assert quantum_dimension(3).min_degree() == -6


@pytest.mark.parametrize("pd,n", [(TREFOIL, 2), (TREFOIL, 3), (FIG8, 2), (HOPF, 2)])
def test_extreme_lambda_matches_cable_state(pd, n):
    """The fully B-resolved skein element has the circle count of the
    all-B state of the n-cable."""
    d = parse_pd(pd)
    lam = lambda_diagram(d, n, all_b_state(d), (n - 1,) * d.crossing_count)
    cabled = cable(d, n)
    assert D_degree(lam) == -2 * apply_state(cabled, all_b_state(cabled)).circle_count
    assert is_adequate_skein(lam)


@pytest.mark.parametrize("pd", [TREFOIL, FIG8])
def test_degree_bound_and_adequate_equality(pd):
    """d(value) >= D for every expansion term, equal on adequate ones."""
    d = parse_pd(pd)
    n = 2
    for s in (all_b_state(d), (1,) + all_b_state(d)[1:]):
        for _coeff, lam in lambda_expand(d, n, s):
            value = evaluate_rational(lam)
            if not value.is_zero():
                assert value.min_degree() >= D_degree(lam)
            if is_adequate_skein(lam):
                assert not value.is_zero()
                assert value.min_degree() == D_degree(lam)


# ---------------------------------------------------------------------------
# the degree ladder behind stability


@pytest.mark.parametrize("pd,n", [
    (TREFOIL, 1), (TREFOIL, 2), (TREFOIL, 3),
    (FIG8, 2), (FIG8, 3),
    (HOPF, 2),
])
def test_degree_lemmas_pass(pd, n):
    report = verify_degree_lemmas(parse_pd(pd, name="fixture"), n)
    assert report.ok, report.failures


def test_degree_lemma_report_shape():
    report = verify_degree_lemmas(parse_pd(TREFOIL, name="trefoil"), 2)
    assert isinstance(report, DegreeLemmaReport)
    assert (report.diagram, report.n, report.ok, report.failures) == ("trefoil", 2, True, ())
    names = [c.name for c in report.checks]
    assert "alpha-step" in names
    assert "extreme-term-survives" in names
    assert all(c.ok and c.lhs == c.rhs for c in report.checks)
