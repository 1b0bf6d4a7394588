"""Bundled fixture corpus: loading, revalidation, and identity oracles.

Each fixture is rebuilt here from scratch as a 4-plat (2-bridge) diagram
given by a positive continued fraction, and the loaded PD must reproduce
the rebuilt bracket exactly.  Determinants are triangulated three ways:
the loader's spanning-tree count, the continued-fraction numerator, and
(for the knots shared with other test modules) hand-validated PD codes.
"""
import itertools
import json
from fractions import Fraction

import pytest

from skeinlab import diagram, fixtures
from skeinlab.diagram import (
    LinkDiagram,
    all_a_state,
    all_b_state,
    apply_state,
    is_adequate,
    is_alternating,
    mirror,
    parse_pd,
)
from skeinlab.fixtures import (
    Fixture,
    FixtureValidationError,
    _load_entry,
    determinant,
    fixture,
    fixture_names,
    load_fixtures,
)
from skeinlab.laurent import LaurentPolynomial, divide_exact, loop_value
from skeinlab.skein_eval import bracket

# Hand-validated diagrams used across the other test modules.
TREFOIL = "X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 3"
HOPF = "X 4 1 3 2 / X 2 3 1 4"
FIG8 = "X 4 2 5 1 / X 8 6 1 5 / X 6 3 7 4 / X 2 7 3 8"

# Continued fractions behind the shipped corpus (see each entry's note).
RECIPES = {
    "trefoil": (3,),
    "figure_eight": (1, 1, 2),
    "5_1": (5,),
    "5_2": (1, 1, 3),
    "6_1": (1, 1, 4),
    "6_2": (2, 1, 3),
    "6_3": (1, 1, 1, 1, 2),
    "hopf": (2,),
}


# ---------------------------------------------------------------------------
# independent 4-plat construction

def plat_diagram(entries):
    """Alternating 4-plat closure for a positive continued fraction.

    Strand positions 0..3, caps joining (0,1) and (2,3) at both ends.
    Block i of entries twists the middle pair (positions 1,2) for even i
    and the left pair (0,1) for odd i, with alternating crossing sign —
    the standard reduced alternating two-bridge picture.
    """
    crossings = []
    counter = itertools.count(1)
    a, b = next(counter), next(counter)
    lab = [a, a, b, b]
    for block, count in enumerate(entries):
        left = 1 if block % 2 == 0 else 0
        sign = 1 if block % 2 == 0 else -1
        for _ in range(count):
            u, v = lab[left], lab[left + 1]
            w, x = next(counter), next(counter)
            # PD tuple ccw from the incoming under-strand; corners BL,BR,TR,TL
            crossings.append([u, v, w, x] if sign > 0 else [v, w, x, u])
            lab[left], lab[left + 1] = x, w

    def close(i, j):
        p, q = lab[i], lab[j]
        if p == q:
            return
        for c in crossings:
            for t in range(4):
                if c[t] == q:
                    c[t] = p
        for t in range(4):
            if lab[t] == q:
                lab[t] = p

    close(0, 1)
    close(2, 3)
    return LinkDiagram(crossings)


def cf_numerator(entries) -> int:
    value = Fraction(entries[-1])
    for a in reversed(entries[:-1]):
        value = a + 1 / value
    return value.numerator


# ---------------------------------------------------------------------------
# corpus shape

def test_corpus_size_and_names():
    assert fixture_names() == (
        "trefoil", "figure_eight", "5_1", "5_2", "6_1", "6_2", "6_3", "hopf")


def test_every_fixture_validates_as_reduced_alternating():
    for fx in load_fixtures():
        d = fx.diagram
        assert is_alternating(d) and is_adequate(d)
        a = apply_state(d, all_a_state(d)).circle_count
        b = apply_state(d, all_b_state(d)).circle_count
        assert a + b == d.crossing_count + 2


def test_crossing_and_component_counts():
    expected = {
        "trefoil": (3, 1), "figure_eight": (4, 1), "5_1": (5, 1),
        "5_2": (5, 1), "6_1": (6, 1), "6_2": (6, 1), "6_3": (6, 1),
        "hopf": (2, 2),
    }
    for fx in load_fixtures():
        assert (fx.diagram.crossing_count, fx.diagram.component_count) == expected[fx.name]


def test_bracket_span_is_4c_plus_4():
    # adequacy makes both extreme states survive, so the span is exactly
    # 2(k + |s_A| + |s_B|) - 4 = 4k + 4 on a reduced alternating diagram
    for fx in load_fixtures():
        poly = bracket(fx.diagram)
        assert poly.max_degree() - poly.min_degree() == 4 * fx.diagram.crossing_count + 4


def test_extreme_terms_follow_kauffmans_theorem():
    # on an adequate diagram the all-A state alone gives the top term,
    # (-1)^|s_A| A^(k + 2|s_A|), and the all-B state the bottom one,
    # (-1)^|s_B| A^(-k - 2|s_B|).  Unlike the span, this tells the +1
    # (A) smoothing from the -1 (B) one whenever |s_A| != |s_B|
    for fx in load_fixtures():
        for d in (fx.diagram, mirror(fx.diagram)):
            k = d.crossing_count
            a = apply_state(d, all_a_state(d)).circle_count
            b = apply_state(d, all_b_state(d)).circle_count
            poly = bracket(d)
            top, bottom = k + 2 * a, -k - 2 * b
            assert poly.max_degree() == top, (fx.name, d)
            assert poly.coefficient(top) == (-1) ** a, (fx.name, d)
            assert poly.min_degree() == bottom, (fx.name, d)
            assert poly.coefficient(bottom) == (-1) ** b, (fx.name, d)


def test_provenance_note_per_entry():
    for fx in load_fixtures():
        assert fx.note.strip()


# ---------------------------------------------------------------------------
# identity oracles

@pytest.mark.parametrize("name", sorted(RECIPES))
def test_plat_reconstruction_matches(name):
    rebuilt = plat_diagram(RECIPES[name])
    fx = fixture(name)
    assert rebuilt.crossing_count == fx.diagram.crossing_count
    assert bracket(rebuilt) == bracket(fx.diagram)


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_determinant_three_ways(name):
    fx = fixture(name)
    assert fx.determinant == determinant(fx.diagram)
    assert fx.determinant == cf_numerator(RECIPES[name])


def test_determinants_are_the_table_values():
    table = {"trefoil": 3, "figure_eight": 5, "5_1": 5, "5_2": 7,
             "6_1": 9, "6_2": 11, "6_3": 13, "hopf": 2}
    assert {fx.name: fx.determinant for fx in load_fixtures()} == table


def test_hand_validated_anchors():
    for name, pd in (("trefoil", TREFOIL), ("figure_eight", FIG8), ("hopf", HOPF)):
        assert bracket(fixture(name).diagram) == bracket(parse_pd(pd))


def test_5_1_reduces_to_classical_jones():
    # divide out the writhe factor (-A^3)^{-w}, w = +5, and one loop value;
    # exponents then sit on multiples of 4 and read off as a Jones polynomial
    poly = bracket(fixture("5_1").diagram) * LaurentPolynomial.monomial(-1, -15)
    reduced = divide_exact(poly, loop_value())
    jones = {-e // 4: c for e, c in reduced.terms.items()}
    assert jones == {7: -1, 6: 1, 5: -1, 4: 1, 2: 1}


def test_amphichiral_brackets_are_palindromic():
    for name in ("figure_eight", "6_3"):
        poly = bracket(fixture(name).diagram)
        assert poly == poly.mirror()


# ---------------------------------------------------------------------------
# determinant helper on its own

def test_determinant_unknot_forms():
    assert determinant(parse_pd("")) == 1
    assert determinant(parse_pd("O")) == 1
    assert determinant(parse_pd("X 1 2 2 1")) == 1  # kinked unknot


def test_determinant_split_link_vanishes():
    assert determinant(parse_pd("X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 3 / O")) == 0
    assert determinant(parse_pd("O / O")) == 0


# ---------------------------------------------------------------------------
# lookup and validation failure modes

def test_lookup_by_alias_and_case():
    assert fixture("3_1").name == "trefoil"
    assert fixture("4_1").name == "figure_eight"
    assert fixture("figure-eight").name == "figure_eight"
    assert fixture("FIGURE_EIGHT").name == "figure_eight"
    assert fixture("L2A1").name == "hopf"
    with pytest.raises(KeyError):
        fixture("9_42")


def test_fixture_objects_are_labeled():
    fx = fixture("6_2")
    assert isinstance(fx, Fixture)
    assert fx.diagram.name == "6_2"


def _entry(name="trefoil"):
    from importlib import resources
    payload = json.loads(
        resources.files("skeinlab").joinpath("data/fixtures.json").read_text())
    return next(e for e in payload["fixtures"] if e["name"] == name).copy()


def test_load_entry_smooths_each_state_once(monkeypatch):
    # one all-A and one all-B graph give adequacy and |s_A| + |s_B|, and
    # the determinant smooths all-A once more; one face count, in
    # LinkDiagram
    sizes = {fx.name: fx.diagram.crossing_count for fx in load_fixtures()}
    smoothed, faces = [], []
    smooth, planar = fixtures.apply_state, diagram._planar
    monkeypatch.setattr(fixtures, "apply_state",
                        lambda d, s: smoothed.append(s) or smooth(d, s))
    monkeypatch.setattr(diagram, "_planar", lambda to: faces.append(to) or planar(to))
    for name, k in sizes.items():
        smoothed.clear()
        faces.clear()
        _load_entry(_entry(name))
        assert sorted(smoothed) == [(-1,) * k, (1,) * k, (1,) * k], name
        assert len(faces) == 1, name


def test_load_entry_rejects_wrong_determinant():
    e = _entry()
    e["determinant"] = 4
    with pytest.raises(FixtureValidationError, match="determinant"):
        _load_entry(e)


def test_load_entry_rejects_wrong_counts():
    e = _entry()
    e["components"] = 2
    with pytest.raises(FixtureValidationError, match="component"):
        _load_entry(e)
    e = _entry()
    e["crossings"] = 5
    with pytest.raises(FixtureValidationError, match="crossings"):
        _load_entry(e)


def test_load_entry_rejects_non_planar():
    e = _entry()
    e["pd"] = [[1, 3, 4, 3], [4, 2, 6, 5], [1, 2, 5, 6]]
    e["components"] = 2
    with pytest.raises(FixtureValidationError, match="not planar"):
        _load_entry(e)


def test_load_entry_rejects_non_alternating():
    e = _entry()
    # flip one crossing's strands: rotate the tuple by one position
    a, b, c, d = e["pd"][0]
    e["pd"][0] = [b, c, d, a]
    with pytest.raises(FixtureValidationError, match="alternating"):
        _load_entry(e)


def test_load_entry_rejects_nugatory():
    e = _entry()
    e["pd"] = [[1, 2, 2, 1]]
    e["crossings"] = 1
    e["components"] = 1
    e["determinant"] = 1
    with pytest.raises(FixtureValidationError, match="adequate"):
        _load_entry(e)


def test_load_entry_rejects_bad_arcs():
    e = _entry()
    e["pd"][0][0] = 999
    with pytest.raises(FixtureValidationError, match="bad PD"):
        _load_entry(e)
