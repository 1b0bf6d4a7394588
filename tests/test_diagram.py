"""PD parsing, Kauffman states, adequacy, mirroring and cabling.

Frozen circle counts below were computed by hand by tracing slot joins:
for the table trefoil the all-A state has 2 circles and the all-B state 3.
"""
import itertools

import pytest

from skeinlab.diagram import (
    LinkDiagram,
    MalformedPDError,
    all_a_state,
    all_b_state,
    apply_state,
    is_a_adequate,
    is_adequate,
    is_alternating,
    is_b_adequate,
    is_planar,
    mirror,
    parse_pd,
)

from cable_oracle import cable

TREFOIL = "X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 3"
HOPF = "X 4 1 3 2 / X 2 3 1 4"
FIG8 = "X 4 2 5 1 / X 8 6 1 5 / X 6 3 7 4 / X 2 7 3 8"


def trefoil():
    return parse_pd(TREFOIL, name="3_1")


class TestParsing:
    def test_parse_round_shape(self):
        d = trefoil()
        assert d.crossing_count == 3
        assert d.arcs == frozenset(range(1, 7))
        assert d.free_loops == 0

    def test_parse_newline_and_comma_forms(self):
        d = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")
        assert d == trefoil()

    def test_parse_loops(self):
        d = parse_pd("O / O")
        assert d.crossing_count == 0
        assert d.free_loops == 2
        assert d.component_count == 2

    def test_empty_input_is_empty_diagram(self):
        d = parse_pd("")
        assert d.crossing_count == 0 and d.free_loops == 0

    def test_arc_must_appear_twice(self):
        with pytest.raises(MalformedPDError):
            parse_pd("X 1 2 3 4")

    def test_malformed_entries(self):
        with pytest.raises(MalformedPDError):
            parse_pd("X 1 2 3")
        with pytest.raises(MalformedPDError):
            parse_pd("Y 1 2 2 1")
        with pytest.raises(MalformedPDError):
            parse_pd("X a b b a")

    def test_crossing_tuple_rotation_by_two_is_same_diagram(self):
        assert parse_pd("X 2 1 1 2") == parse_pd("X 1 2 2 1")


class TestComponents:
    def test_trefoil_is_a_knot(self):
        assert trefoil().component_count == 1

    def test_hopf_link_has_two(self):
        assert parse_pd(HOPF).component_count == 2

    def test_figure_eight_is_a_knot(self):
        assert parse_pd(FIG8).component_count == 1


class TestStates:
    def test_trefoil_extreme_states(self):
        d = trefoil()
        assert apply_state(d, all_a_state(d)).circle_count == 2
        assert apply_state(d, all_b_state(d)).circle_count == 3

    def test_state_graph_edge_count(self):
        d = trefoil()
        g = apply_state(d, all_a_state(d))
        assert len(g.edges) == d.crossing_count

    def test_one_flip_changes_circles_by_one(self):
        for text in (TREFOIL, HOPF, FIG8):
            d = parse_pd(text)
            k = d.crossing_count
            for state in itertools.product((1, -1), repeat=k):
                c = apply_state(d, state).circle_count
                for i in range(k):
                    flipped = state[:i] + (-state[i],) + state[i + 1:]
                    assert abs(apply_state(d, flipped).circle_count - c) == 1

    def test_extreme_state_sum_on_reduced_alternating(self):
        # |s_A| + |s_B| = k + 2 on reduced alternating diagrams
        for text in (TREFOIL, HOPF, FIG8):
            d = parse_pd(text)
            total = (apply_state(d, all_a_state(d)).circle_count
                     + apply_state(d, all_b_state(d)).circle_count)
            assert total == d.crossing_count + 2

    def test_extreme_states_are_sign_tuples(self):
        d = trefoil()
        assert all_a_state(d) == (1, 1, 1)
        assert all_b_state(d) == (-1, -1, -1)

    def test_state_validation(self):
        # one sign per crossing, each +1 or -1; the letters A and B are
        # not states
        d = trefoil()
        with pytest.raises(ValueError, match="crossing count"):
            apply_state(d, (1, -1))
        for bad in ((1, -1, 0), (1, -1, 2), ("A", "B", "A")):
            with pytest.raises(ValueError, match="must be \\+1 or -1"):
                apply_state(d, bad)

    def test_free_loops_count_as_circles(self):
        d = parse_pd("O / X 1 2 2 1")
        assert apply_state(d, (1,)).circle_count == 3


class TestPredicates:
    def test_fixture_diagrams_alternate(self):
        for text in (TREFOIL, HOPF, FIG8):
            assert is_alternating(parse_pd(text))

    def test_flipping_one_crossing_kills_alternation(self):
        # rotate one tuple by a single position: same shadow, wrong over/under
        d = parse_pd("X 4 2 5 1 / X 3 6 4 1 / X 5 2 6 3")
        assert not is_alternating(d)

    def test_zero_crossing_diagrams_alternate(self):
        assert is_alternating(parse_pd("O"))
        assert is_alternating(parse_pd(""))

    def test_fixtures_adequate(self):
        for text in (TREFOIL, HOPF, FIG8):
            assert is_adequate(parse_pd(text))

    def test_nugatory_kink_fails_exactly_one_adequacy(self):
        curl = parse_pd("X 1 1 2 2")
        assert not is_a_adequate(curl)
        assert is_b_adequate(curl)
        other = parse_pd("X 1 2 2 1")
        assert is_a_adequate(other)
        assert not is_b_adequate(other)

    def test_planarity(self):
        # the faces of the PD rotation system number crossings + 2 per
        # connected piece exactly for a diagram drawn in the plane
        split = TREFOIL + " / X 11 14 12 15 / X 13 16 14 11 / X 15 12 16 13 / O"
        for text in (TREFOIL, HOPF, FIG8, "X 1 2 2 1", "X 1 1 2 2", split, "", "O"):
            d = parse_pd(text)
            assert is_planar(d) and is_planar(mirror(d)), text
            assert is_planar(cable(d, 2)), text
        assert not is_planar(parse_pd("X 1 3 4 3 / X 4 2 6 5 / X 1 2 5 6"))
        # two crossings joined by four arcs: planar only when the second
        # lists them in the reverse cyclic order of the first
        assert not is_planar(LinkDiagram([(1, 2, 3, 4), (1, 3, 2, 4)]))
        assert is_planar(LinkDiagram([(1, 2, 3, 4), (1, 4, 3, 2)]))

    def test_kink_states(self):
        curl = parse_pd("X 1 1 2 2")
        assert apply_state(curl, (1,)).circle_count == 1
        assert apply_state(curl, (-1,)).circle_count == 2


class TestMirror:
    def test_involution(self):
        for text in (TREFOIL, HOPF, FIG8):
            d = parse_pd(text)
            assert mirror(mirror(d)) == d

    def test_mirror_swaps_smoothing_roles(self):
        for text in (TREFOIL, HOPF, FIG8):
            d = parse_pd(text)
            md = mirror(d)
            assert (apply_state(md, all_a_state(md)).circle_count
                    == apply_state(d, all_b_state(d)).circle_count)
            assert (apply_state(md, all_b_state(md)).circle_count
                    == apply_state(d, all_a_state(d)).circle_count)

    def test_mirror_swaps_adequacy_sides(self):
        curl = parse_pd("X 1 1 2 2")
        assert is_a_adequate(mirror(curl)) and not is_b_adequate(mirror(curl))

    def test_mirror_preserves_alternation(self):
        for text in (TREFOIL, HOPF, FIG8):
            assert is_alternating(mirror(parse_pd(text)))


class TestCable:
    def test_crossing_and_loop_counts(self):
        d = trefoil()
        c2 = cable(d, 2)
        assert c2.crossing_count == 12
        assert cable(d, 3).crossing_count == 27
        assert cable(parse_pd("O"), 4).free_loops == 4

    def test_cable_component_count(self):
        assert cable(trefoil(), 2).component_count == 2
        assert cable(trefoil(), 3).component_count == 3
        assert cable(parse_pd(HOPF), 2).component_count == 4

    def test_one_cable_preserves_all_state_circles(self):
        d = trefoil()
        c1 = cable(d, 1)
        assert c1.crossing_count == 3
        for state in itertools.product((1, -1), repeat=3):
            assert apply_state(c1, state).circle_count == apply_state(d, state).circle_count

    def test_extreme_states_of_cable_are_parallel_copies(self):
        # smoothing every grid crossing the same way cables each circle
        for text in (TREFOIL, HOPF, FIG8):
            d = parse_pd(text)
            for m in (2, 3):
                cm = cable(d, m)
                for extreme in (all_a_state, all_b_state):
                    assert (apply_state(cm, extreme(cm)).circle_count
                            == m * apply_state(d, extreme(d)).circle_count)

    def test_cable_validates(self):
        with pytest.raises(ValueError):
            cable(trefoil(), 0)
