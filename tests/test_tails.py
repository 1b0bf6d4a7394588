"""Window comparisons, certified tail prefixes, and the stability suite."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab.diagram import mirror, parse_pd
from skeinlab.fixtures import fixture, fixture_names
from skeinlab.laurent import (
    LaurentPolynomial,
    ONE,
    RationalFunction,
    quantum_dimension,
)
from skeinlab import laurent, tails
from skeinlab.skein_eval import colored_jones
from skeinlab.tails import (
    CoefficientPrefix,
    StabilityReport,
    TailStabilityError,
    _certified_prefix,
    aligned_coefficients,
    doteq,
    head_prefix,
    stability_report,
    tail_and_head,
    tail_prefix,
    verify_corollary,
    verify_theorem_1,
    verify_theorem_2,
)

TREFOIL = "X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 3"
HOPF = "X 4 1 3 2 / X 2 3 1 4"
FIG8 = "X 4 2 5 1 / X 8 6 1 5 / X 6 3 7 4 / X 2 7 3 8"
# trefoil with the last crossing's over/under flipped: no longer alternating
NONALT = "X 1 4 2 5 / X 3 6 4 1 / X 2 6 3 5"


def lp(terms):
    return LaurentPolynomial(dict(terms))


# ---------------------------------------------------------------------------
# alignment and window equality


def test_aligned_basic():
    p = lp({-3: 2, 1: -1, 5: 7})
    assert aligned_coefficients(p, 9) == (2, 0, 0, 0, -1, 0, 0, 0, 7)
    assert aligned_coefficients(p, 3) == (2, 0, 0)
    assert aligned_coefficients(p, 12) == (2, 0, 0, 0, -1, 0, 0, 0, 7, 0, 0, 0)
    assert aligned_coefficients(p, 9, "highest") == (7, 0, 0, 0, -1, 0, 0, 0, 2)


def test_aligned_input_validation():
    with pytest.raises(ValueError):
        aligned_coefficients(lp({0: 1}), 0)
    with pytest.raises(ValueError):
        aligned_coefficients(lp({0: 1}), 4, "middle")
    with pytest.raises(ValueError):
        aligned_coefficients(LaurentPolynomial.zero(), 4)
    with pytest.raises(TypeError):
        aligned_coefficients("A + 1", 4)


def test_doteq_global_sign_and_shift():
    p = lp({-9: -1, -1: 1, 3: 1, 7: 1})
    q = -(p * LaurentPolynomial.monomial(1, 6))
    assert doteq(p, q, 17)
    assert doteq(p, q, 17, "highest")


def test_doteq_window_boundary():
    p = lp({0: 1, 4: 1})
    q = lp({0: 1, 4: 1, 8: 1})
    assert doteq(p, q, 8)
    assert not doteq(p, q, 9)


def test_doteq_trefoil_corollary_instance():
    d = parse_pd(TREFOIL)
    assert doteq(colored_jones(d, 2), colored_jones(d, 3), 8)


def test_doteq_is_reflexive_symmetric_and_span_monotone():
    d = parse_pd(FIG8)
    p, q = colored_jones(d, 1), colored_jones(d, 2)
    assert doteq(p, p, 40)
    assert doteq(p, q, 4) == doteq(q, p, 4)
    # once false at some span, false at every larger span
    spans = [s for s in range(1, 30) if doteq(p, q, s)]
    assert spans == list(range(1, len(spans) + 1))


def test_doteq_zero_rejected():
    with pytest.raises(ValueError):
        doteq(LaurentPolynomial.zero(), lp({0: 1}), 4)


@settings(max_examples=60, deadline=None)
@given(
    exps=st.dictionaries(st.integers(-12, 12), st.integers(-9, 9).filter(bool),
                         min_size=1, max_size=6),
    shift=st.integers(-8, 8),
    sign=st.sampled_from([1, -1]),
    span=st.integers(1, 30),
)
def test_doteq_unit_invariance(exps, shift, sign, span):
    p = lp(exps)
    q = p * LaurentPolynomial.monomial(sign, shift)
    assert doteq(p, q, span)
    assert doteq(p, q, span, "highest")


# ---------------------------------------------------------------------------
# series expansion of exact quotients


def test_series_of_geometric_quotient():
    den = lp({0: 1, 4: 1})
    value = RationalFunction(ONE, den)
    assert aligned_coefficients(value, 12) == (1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0)
    truncation = lp({0: 1, 4: -1, 8: 1})
    assert doteq(value, truncation, 12)
    assert not doteq(value, truncation, 13)


def test_series_requires_unit_extreme_coefficient():
    value = RationalFunction(ONE, lp({0: 2, 4: 1}))
    with pytest.raises(ValueError, match="unit extreme"):
        aligned_coefficients(value, 4)


def test_series_agrees_with_exact_division():
    num = lp({0: 1, 4: 2, 8: 1}) * lp({0: 3, 2: -1})
    value = RationalFunction(num, lp({0: 1, 4: 2, 8: 1}))
    assert value.den.is_unit()
    assert aligned_coefficients(value, 6) == aligned_coefficients(lp({0: 3, 2: -1}), 6)


# ---------------------------------------------------------------------------
# certified prefixes


def test_tail_prefix_unknot_closed_form():
    """J~ of the unknot is Delta_n: all-ones rows with period 4 once the
    global sign (-1)^n is normalized away."""
    unknot = parse_pd("O")
    p3 = tail_prefix(unknot, 3)
    assert p3.coefficients == (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert p3.certified == 8
    p4 = tail_prefix(unknot, 4)
    assert p4.coefficients == (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert p4.certified == 12
    assert p4.end == "lowest"


def test_tail_prefix_trefoil_certified_consistency():
    d = parse_pd(TREFOIL, name="trefoil")
    p2 = tail_prefix(d, 2)
    p3 = tail_prefix(d, 3)
    p4 = tail_prefix(d, 4)
    assert p2.certified == 4 and p3.certified == 8 and p4.certified == 12
    assert p3.coefficients[:4] == p2.coefficients[:4]
    assert p4.coefficients[:8] == p3.coefficients[:8]


def test_tail_prefix_preconditions():
    assert not __import__("skeinlab.diagram", fromlist=["is_alternating"]
                          ).is_alternating(parse_pd(NONALT))
    with pytest.raises(ValueError, match="alternating"):
        tail_prefix(parse_pd(NONALT), 2)
    with pytest.raises(ValueError):
        tail_prefix(parse_pd(TREFOIL), 1)


@pytest.mark.parametrize("certify", [
    lambda d: stability_report(d, 2), lambda d: stability_report(d, 1),
    lambda d: tail_and_head(d, 2), lambda d: tail_prefix(d, 2),
    lambda d: head_prefix(d, 2)],
    ids=["report", "report-one-color", "tail-and-head", "tail", "head"])
def test_every_certificate_refuses_a_nonalternating_diagram(monkeypatch, certify):
    # the theorems cover alternating diagrams only, so no certificate may
    # come back for NONALT, and the one check runs before any value
    monkeypatch.setattr(tails, "colored_jones", lambda *a, **k: pytest.fail("computed"))
    with pytest.raises(ValueError, match="not alternating"):
        certify(parse_pd(NONALT))


def test_certified_tail_failure_carries_the_pair():
    good = lp({0: 1, 4: 1})
    bad = lp({0: 1, 1: 5})
    with pytest.raises(TailStabilityError) as err:
        _certified_prefix("synthetic", [good, bad])
    assert err.value.n == 1
    assert err.value.current == good
    assert err.value.successor == bad
    assert err.value.end == "lowest"


def test_certified_prefix_failure_names_the_highest_end():
    # the lowest windows agree, the highest ones do not
    current = lp({0: 1, 4: 1})
    successor = lp({0: 1, 6: 5, 7: 1})
    assert _certified_prefix("synthetic", [current, successor]).certified == 4
    with pytest.raises(TailStabilityError, match="on the highest window") as err:
        _certified_prefix("synthetic", [current, successor], "highest")
    assert err.value.n == 1
    assert err.value.end == "highest"


def test_prefix_invariants():
    with pytest.raises(ValueError):
        CoefficientPrefix("x", "lowest", (1, 0), 4)
    with pytest.raises(ValueError):
        CoefficientPrefix("x", "lowest", (0, 1), 1)
    p = CoefficientPrefix("x", "lowest", (2, 0, 1, 0), 2)
    assert p.to_dict() == {"source": "x", "end": "lowest",
                           "coefficients": [2, 0, 1, 0], "certified": 2}


def test_head_prefix_mirrors():
    fig8 = parse_pd(FIG8, name="figure-eight")
    head = head_prefix(fig8, 2)
    tail = tail_prefix(fig8, 2)
    assert head.end == "highest"
    assert head.coefficients == tail.coefficients  # amphichiral fixture

    trefoil = parse_pd(TREFOIL, name="trefoil")
    assert head_prefix(trefoil, 2).coefficients != tail_prefix(trefoil, 2).coefficients

    unknot = parse_pd("O")
    assert head_prefix(unknot, 3).coefficients == tail_prefix(unknot, 3).coefficients


@pytest.mark.parametrize("name", fixture_names())
def test_head_from_mirrored_values_matches_mirror_diagram_route(name):
    # the head is certified from J~ of the diagram itself at the highest
    # end; the mirror diagram's own tail is the independent route to the
    # same vector
    d = fixture(name).diagram
    tail, head = tail_and_head(d, 3)
    via_mirror = tail_prefix(mirror(d), 3)
    assert head == CoefficientPrefix(f"{d.name} color 3", "highest",
                                     via_mirror.coefficients, via_mirror.certified)
    assert head_prefix(d, 3) == head
    assert tail == tail_prefix(d, 3)


# ---------------------------------------------------------------------------
# theorem-level checks


@pytest.mark.parametrize("pd", [TREFOIL, HOPF, FIG8])
@pytest.mark.parametrize("n", [1, 2])
def test_theorem_checks_on_fixtures(pd, n):
    d = parse_pd(pd)
    assert verify_theorem_1(d, n)
    assert verify_theorem_2(d, n)
    assert verify_corollary(d, n)


def test_corollary_on_unknot_deltas():
    unknot = parse_pd("O")
    for n in range(1, 5):
        assert verify_corollary(unknot, n)
        assert doteq(quantum_dimension(n + 1), quantum_dimension(n), 4 * n)


# ---------------------------------------------------------------------------
# reports


def test_stability_report_trefoil():
    d = parse_pd(TREFOIL, name="trefoil")
    report = stability_report(d, 2)
    assert isinstance(report, StabilityReport)
    assert report.ok
    assert [e.n for e in report.colors] == [1, 2]
    first, second = report.colors
    assert first.next_jtilde_agrees is True
    assert second.next_jtilde_agrees is None
    assert first.bstate_vs_jtilde == verify_theorem_1(d, 1)
    assert second.next_bstate_vs_jtilde == verify_theorem_2(d, 2)
    assert first.min_degree == colored_jones(d, 1).min_degree()
    assert report.tail.certified == 4

    data = json.loads(json.dumps(report.to_dict()))
    assert data["link"] == "trefoil"
    assert data["ok"] is True
    assert len(data["colors"]) == 2
    assert data["tail"]["certified"] == 4

    rows = report.csv_rows()
    assert len(rows) == 2
    assert all(len(row) == len(StabilityReport.CSV_HEADER) for row in rows)
    assert StabilityReport.CSV_HEADER[:3] == ("link", "n", "min_degree")
    assert rows[0][:2] == ["trefoil", 1]


@pytest.mark.parametrize("n_max", [2, 3])
def test_stability_report_does_each_job_once(monkeypatch, n_max):
    """J~_1..J~_{n_max} and B_1..B_{n_max+1} once each, in the order
    J~_1, B_1, then B_{n+1}, J~_{n+1} per color; two window comparisons
    per color and one per consecutive-color window."""
    calls = []
    for name, label in (("colored_jones", "J"), ("_bstate_value", "B"),
                        ("doteq", "doteq")):
        def counted(*args, _real=getattr(tails, name), _label=label, **kwargs):
            calls.append(_label if _label == "doteq" else (_label, args[1]))
            return _real(*args, **kwargs)
        monkeypatch.setattr(tails, name, counted)
    stability_report(parse_pd(TREFOIL, name="trefoil"), n_max)
    order = [("J", 1), ("B", 1)]
    for n in range(1, n_max + 1):
        order += [("B", n + 1)] + ([("J", n + 1)] if n < n_max else [])
    assert [c for c in calls if c != "doteq"] == order
    assert calls.count("doteq") == 3 * n_max - 1


def test_bstate_value_makes_one_gcd(monkeypatch):
    """alpha(s-) is a unit +-A^k, so alpha(s-) * <Y(s-)> keeps the one
    reduction of the sweep's total and runs no second gcd."""
    link = parse_pd(TREFOIL, name="trefoil")
    warm = tails._bstate_value(link, 2)  # fills f(2)'s and the coupons' caches
    calls = []
    monkeypatch.setattr(laurent, "laurent_gcd",
                        lambda *a, _real=laurent.laurent_gcd: calls.append(a) or _real(*a))
    assert tails._bstate_value(link, 2) == warm
    assert len(calls) == 1


def test_stability_report_single_color():
    report = stability_report(parse_pd(HOPF, name="hopf"), 1)
    assert len(report.colors) == 1
    assert report.colors[0].next_jtilde_agrees is None
    assert report.tail.certified == 0
    assert report.ok
