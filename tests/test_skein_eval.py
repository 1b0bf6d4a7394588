"""Engine tests: the sweeping evaluator against independent state sums,
plan invariance, cabling, and colored evaluation anchors."""
import collections
import copy
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab.colored_states import all_states, build_upsilon
from skeinlab.diagram import (
    A_JOINS,
    B_JOINS,
    LinkDiagram,
    MalformedPDError,
    all_a_state,
    all_b_state,
    mirror,
    parse_pd,
    union_find,
)
from skeinlab.fixtures import fixture, fixture_names
from skeinlab.laurent import (
    A,
    LaurentPolynomial,
    RationalFunction,
    loop_value,
    quantum_dimension,
)
from skeinlab import skein_eval
from skeinlab.skein_eval import (
    CROSSING,
    CouponNode,
    DecoratedDiagram,
    MorsePlan,
    ResourceLimitError,
    _fused,
    _graph,
    _halves,
    _matching_count,
    _owner,
    _pack,
    _place_boxes,
    _unpack,
    _walk,
    bracket,
    bracket_bruteforce,
    cable_network,
    cabled_diagram,
    colored_jones,
    evaluate,
    evaluate_rational,
    from_link,
    morse_decompose,
    projector_node,
)
from skeinlab.temperley_lieb import cleared_projector, identity_matching

from cable_oracle import (
    cable,
    cable_rows,
    counted_matchings,
    cut_widths,
    enumerate_matchings,
    peak_matchings,
    planar_by_faces,
    raw_code,
    signature_splices,
    slots,
    sweep_events,
)

TREFOIL = "X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 3"
HOPF = "X 4 1 3 2 / X 2 3 1 4"
FIG8 = "X 4 2 5 1 / X 8 6 1 5 / X 6 3 7 4 / X 2 7 3 8"
# a PD code that is not planar, as in test_cli, and its rows
NONPLANAR = "X 1 3 4 3 / X 4 2 6 5 / X 1 2 5 6"
NONPLANAR_ROWS = [(1, 3, 4, 3), (4, 2, 6, 5), (1, 2, 5, 6)]
# what LinkDiagram's planarity MalformedPDError says
NOT_PLANAR = "is not planar: it draws no diagram in the plane"

DELTA = loop_value()


def lp(terms):
    return LaurentPolynomial(dict(terms))


def random_rows(k, seed):
    """The rows of a random abstract 4-valent diagram, most often not
    planar: LinkDiagram refuses those, and the sweep of their raw slot
    table (raw_code) gives the state sum or fails closed (fails_closed)."""
    rng = random.Random(seed)
    slots = [(c, p) for c in range(k) for p in range(4)]
    rng.shuffle(slots)
    rows = [[None] * 4 for _ in range(k)]
    for arc, (s1, s2) in enumerate(zip(slots[::2], slots[1::2])):
        rows[s1[0]][s1[1]] = arc
        rows[s2[0]][s2[1]] = arc
    return rows


def raw_network(rows) -> DecoratedDiagram:
    """The 1-cable of the rows, planar or not: one CROSSING per row wired
    by their raw slot table, no bigon fused."""
    return DecoratedDiagram([CROSSING] * len(rows), raw_code(rows).to)


def fails_closed(compute, expect) -> bool:
    """Whether compute() equals `expect` or raises the ValueError of mixed
    residues: what the sweep promises on a network that is not planar."""
    try:
        return compute() == expect
    except ValueError as exc:
        return "residue class mod 4" in str(exc)


def braid_closure(word, strands):
    """PD of the closure of a braid word (+i for sigma_i, -i for its
    inverse) on strands running upward; each crossing lists its arcs
    counterclockwise from the incoming under-strand."""
    label = list(range(strands))
    fresh = strands
    rows = []
    for g in word:
        i = abs(g) - 1
        bl, br = label[i], label[i + 1]
        tl, tr = fresh, fresh + 1
        fresh += 2
        rows.append((bl, br, tr, tl) if g > 0 else (br, tr, tl, bl))
        label[i], label[i + 1] = tl, tr
    close = {end: start for start, end in enumerate(label)}
    return LinkDiagram([[close.get(x, x) for x in row] for row in rows])


def random_braid_closure(k, seed):
    """A closure of a random k-letter braid on 2-4 strands that uses
    every generator, so no strand is left as a crossing-free loop."""
    rng = random.Random(f"braid:{k}:{seed}")
    strands = rng.randint(2, min(4, k + 1))
    word = list(range(1, strands))
    word += [rng.randrange(1, strands) for _ in range(k - len(word))]
    rng.shuffle(word)
    return braid_closure([g if rng.random() < 0.5 else -g for g in word], strands)


def coupon_state_sum(dd: DecoratedDiagram) -> LaurentPolynomial:
    """Union-find state sum of a decorated diagram, independent of the
    sweeping engine: over each choice of one local term per coupon other
    than CROSSING, the product of the chosen coefficients times the state
    sum of the crossings with the chosen matchings fixed.  Coupon
    denominators are left out; projector_state_sum divides by them."""
    coupons = [i for i, nd in enumerate(dd.nodes) if nd is not CROSSING]
    total = LaurentPolynomial({})
    for choice in itertools.product(*(dd.nodes[i].local_terms() for i in coupons)):
        weight = LaurentPolynomial.one()
        chords = []
        for i, (pmap, coeff) in zip(coupons, choice):
            at = dd.first[i]
            chords += [(at + a, at + b) for a, b in enumerate(pmap) if a < b]
            weight = weight * LaurentPolynomial(coeff)
        total = total + weight * crossing_state_sum(dd, chords)
    return total


def crossing_state_sum(dd: DecoratedDiagram, fixed_chords) -> LaurentPolynomial:
    """The 2^k state sum over the crossings of dd, every other coupon
    replaced by the given chords between its ports (global port numbers)."""
    crossings = [i for i, nd in enumerate(dd.nodes) if nd is CROSSING]
    # the classes of the fixed part (wires and coupon chords); a state only
    # merges classes through the joins of its crossings
    root = union_find(range(len(dd.to)), list(enumerate(dd.to)) + fixed_chords)
    index = {}
    cls = {x: index.setdefault(r, len(index)) for x, r in root.items()}
    joins = {1: ((1, 2), (3, 0)), -1: ((0, 1), (2, 3))}
    local = [{s: [(cls[dd.first[ci] + a], cls[dd.first[ci] + b]) for a, b in js]
              for s, js in joins.items()} for ci in crossings]

    counts = collections.Counter()
    for state in itertools.product((1, -1), repeat=len(crossings)):
        parent = list(range(len(index)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merged = 0
        for table, s in zip(local, state):
            for a, b in table[s]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    merged += 1
        circles = len(index) - merged
        counts[circles, sum(state)] += 1
    total = {}
    for (circles, exponent), count in counts.items():
        for e, c in (DELTA ** circles).terms.items():
            total[e + exponent] = total.get(e + exponent, 0) + count * c
    return LaurentPolynomial({e: c for e, c in total.items() if c})


def projector_state_sum(dd: DecoratedDiagram) -> RationalFunction:
    """coupon_state_sum over the product of the coupon denominators: every
    coupon expanded into its cleared local terms.  Uses no part of the
    sweep."""
    denominator = LaurentPolynomial.one()
    for nd in dd.nodes:
        denominator = denominator * nd.denominator
    return RationalFunction(coupon_state_sum(dd), denominator)


class TestBracket:
    def test_trefoil_frozen(self):
        d = parse_pd(TREFOIL)
        assert bracket(d) == lp({7: 1, 3: 1, -1: 1, -9: -1})

    def test_empty_and_circles(self):
        assert bracket(LinkDiagram([])) == LaurentPolynomial.one()
        assert bracket(LinkDiagram([], free_loops=1)) == DELTA
        assert bracket(LinkDiagram([], free_loops=3)) == DELTA ** 3

    def test_engine_matches_bruteforce_on_fixtures(self):
        for pd in (TREFOIL, HOPF, FIG8):
            d = parse_pd(pd)
            assert bracket(d) == bracket_bruteforce(d)

    def test_engine_matches_bruteforce_on_random_diagrams(self):
        # a planar draw gives the state sum; LinkDiagram refuses one that is
        # not planar, and the sweep of its raw slot table gives the state
        # sum too or fails closed on mixed residues
        planar = 0
        for seed in range(45):
            rows = random_rows(2 + seed % 9, seed)
            raw = raw_network(rows)
            expect = coupon_state_sum(raw)
            if planar_by_faces(rows):
                planar += 1
                d = LinkDiagram(rows)
                assert bracket(d, max_width=99) == bracket_bruteforce(d) == expect, seed
                continue
            with pytest.raises(MalformedPDError, match=NOT_PLANAR):
                LinkDiagram(rows)
            assert fails_closed(lambda: evaluate(raw, max_width=99), expect), f"seed {seed}"
        assert 0 < planar < 45

    def test_engine_matches_bruteforce_on_braid_closures(self):
        for seed in range(30):
            k = 1 + seed % 10
            d = random_braid_closure(k, seed)
            assert bracket(d, max_width=99) == bracket_bruteforce(d), f"seed {seed}"

    def test_braid_closure_convention(self):
        # sigma_1^3 closes to a trefoil, sigma_1 sigma_2^-1 sigma_1 sigma_2^-1
        # to the amphichiral figure-eight
        trefoil = bracket(parse_pd(TREFOIL))
        assert bracket(braid_closure([1, 1, 1], 2)) in (trefoil, trefoil.mirror())
        fig8 = bracket(braid_closure([1, -2, 1, -2], 3))
        assert fig8 == bracket(parse_pd(FIG8))

    def test_bruteforce_counts_free_loops_once(self):
        assert bracket_bruteforce(LinkDiagram([])) == LaurentPolynomial.one()
        assert bracket_bruteforce(LinkDiagram([], free_loops=1)) == DELTA
        assert bracket_bruteforce(LinkDiagram([], free_loops=2)) == DELTA ** 2
        split = LinkDiagram(parse_pd(TREFOIL).crossings, free_loops=1)
        assert bracket_bruteforce(split) == bracket(split)

    def test_mirror_covariance(self):
        for pd in (TREFOIL, HOPF, FIG8):
            d = parse_pd(pd)
            assert bracket(mirror(d)) == bracket(d).mirror()

    def test_figure_eight_is_amphichiral(self):
        b = bracket(parse_pd(FIG8))
        assert b == b.mirror()

    def test_bruteforce_guard(self):
        d = random_braid_closure(21, 1)
        assert d.crossing_count == 21
        with pytest.raises(ResourceLimitError):
            bracket_bruteforce(d)


# a composite of a braid closure's twist has its ports at (bottom left,
# bottom right, top right, top left): two vertical strands, or a cup and
# a cap
STRAIGHT = ((0, 3), (1, 2))
TURNED = ((0, 1), (2, 3))


def coupon_terms(node: CouponNode) -> dict:
    """A coupon's local terms as {pairs: LaurentPolynomial}."""
    return {tuple((p, q) for p, q in enumerate(m) if p < q): LaurentPolynomial(c)
            for m, c in node.local_terms()}


def twist_closure_bracket(k: int, sign: int) -> LaurentPolynomial:
    """The state sum of the closure of sigma_1^(sign k), worked out by
    hand: smoothing j of its crossings to a cup-cap and the rest straight
    gives weight A^(sign (k - 2j)) and leaves j circles, or 2 when j = 0."""
    total = LaurentPolynomial({})
    for j in range(k + 1):
        total = total + lp({sign * (k - 2 * j): math.comb(k, j)}) * DELTA ** (j or 2)
    return total


@st.composite
def run_braids(draw, fewest: int, most: int):
    """A braid closure on 2-4 strands whose word, after one letter of each
    generator, is runs of one generator: each run of one sign, or of
    signs drawn letter by letter (so R2 pairs occur)."""
    strands = draw(st.integers(2, 4))
    k = draw(st.integers(max(fewest, strands - 1), most))
    word = list(range(1, strands))
    while len(word) < k:
        g = draw(st.integers(1, strands - 1))
        length = draw(st.integers(1, k - len(word)))
        if draw(st.booleans()):
            word += [g * draw(st.sampled_from([1, -1]))] * length
        else:
            word += [g * draw(st.sampled_from([1, -1])) for _ in range(length)]
    return braid_closure(word, strands)


class TestTwistFusion:
    """from_link fuses each bigon of two crossings, so a twist region is
    one 4-point coupon; its terms are checked against closed forms worked
    out by hand, not by the strand tracer that builds them."""

    @pytest.mark.parametrize("first, second, terms", [
        # sigma^2 = A^2 1 + (1 - A^-4) e, its mirror A^-2 1 + (1 - A^4) e
        (1, 1, {STRAIGHT: lp({2: 1}), TURNED: lp({0: 1, -4: -1})}),
        (-1, -1, {STRAIGHT: lp({-2: 1}), TURNED: lp({0: 1, 4: -1})}),
        # sigma sigma^-1 = 1 (Reidemeister II), either way round
        (1, -1, {STRAIGHT: lp({0: 1})}),
        (-1, 1, {STRAIGHT: lp({0: 1})}),
    ])
    def test_two_crossings_fuse_to_their_closed_form(self, first, second, terms):
        # the two sigma_2 letters fuse; the strands around them close up
        # through sigma_1 and sigma_3, which have no bigon
        dd = from_link(braid_closure([1, 3, 2 * first, 2 * second, 1, 3], 4))
        assert [nd is CROSSING for nd in dd.nodes] == [True, True, False, True, True]
        assert coupon_terms(dd.nodes[2]) == terms

    def test_a_twist_region_is_one_node(self):
        # k crossings in a row fuse into one node, which the last crossing
        # then closes off on all four sides
        for k in range(3, 21):
            dd = from_link(braid_closure([1] * k, 2))
            assert [nd is CROSSING for nd in dd.nodes] == [False, True], k

    def test_equal_composites_are_one_node(self):
        # the same bigon seen from either crossing gives the same tangle,
        # and equal tangles in different links share one node
        assert _fused(CROSSING, CROSSING, 2, 1) is _fused(CROSSING, CROSSING, 0, 3)
        assert (from_link(braid_closure([1, 3, 2, 2, 1, 3], 4)).nodes[2]
                is from_link(braid_closure([1, 3, 2, 2, -3, -1], 4)).nodes[2]
                is _fused(CROSSING, CROSSING, 2, 1))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_twist_closures_match_the_state_sum(self, sign):
        for k in range(1, 21):
            d = braid_closure([sign] * k, 2)
            expect = twist_closure_bracket(k, sign)
            if k <= 12:
                assert bracket_bruteforce(d) == expect, k
            assert bracket(d) == expect, k

    @settings(max_examples=40, deadline=None)
    @given(run_braids(1, 12))
    def test_run_braids_match_bruteforce(self, d):
        assert bracket(d, max_width=99) == bracket_bruteforce(d)

    @settings(max_examples=25, deadline=None)
    @given(run_braids(13, 40))
    def test_long_run_braids_match_the_plain_one_cable(self, d):
        assert bracket(d, max_width=99) == evaluate(cabled_diagram(d, 1), max_width=99)

    def test_corpus_one_cables_fuse_to_two_nodes(self):
        # every corpus entry but the Hopf link is a 2-bridge knot: one
        # tangle and one crossing; the Hopf link's two crossings close
        # each other off on all four sides and stay as they are
        for name in fixture_names():
            dd = from_link(fixture(name).diagram)
            kinds = [nd is CROSSING for nd in dd.nodes]
            assert kinds == ([True, True] if name == "hopf" else [False, True]), name
            assert morse_decompose(dd) == MorsePlan((0, 1), 4), name


def without_boxes(dd: DecoratedDiagram) -> DecoratedDiagram:
    """The same network with every projector flag cleared: the greedy
    walks it as it walked every network before it deferred boxes."""
    nodes = []
    for node in dd.nodes:
        if node.projector:
            node = copy.copy(node)
            node.projector = False
        nodes.append(node)
    return DecoratedDiagram(nodes, dd.to)


def run_order(monkeypatch, order):
    """Make the sweep run `order`: morse_decompose returns it with its peak
    from cut_widths, so the real _sweep still checks the width cap against
    it and divides once at the end."""
    def plan(dd, max_width=None):
        return MorsePlan(tuple(order), max(cut_widths(dd, order), default=0))
    monkeypatch.setattr(skein_eval, "morse_decompose", plan)


def default_box_arcs(d: LinkDiagram) -> list:
    """The first arc (by repr) of each component: the placement that
    colored_jones walks first, and keeps when no other predicts less."""
    return [min(comp, key=repr) for comp in d.components()]


def walks(dd: DecoratedDiagram) -> tuple:
    """The two greedy walks of dd, deferring its boxes and ignoring them,
    as (order, peak, prediction)."""
    cross, degree, sides = wiring_graph(dd)
    boxes = [node.projector for node in dd.nodes]
    return tuple(_walk(cross, degree, flags, sides)
                 for flags in (boxes, [False] * dd.node_count))


def wiring_graph(dd: DecoratedDiagram) -> tuple:
    """(cross, degree, sides) of dd as the planner reads them."""
    return _graph(_halves(dd.nodes), dd.first, dd.to)


# 14 crossings whose 1-cable fuses to 10 nodes, four of them twists of two
# crossings (test_fused_orders_are_pinned pins its plan)
TWISTED_WORD = ([1, 1, 2, -3, -3, 2, 1, 3, 3, -2, -1, -1, 2, 3], 4)


class TestPlans:
    # The plan checks run on both bracket networks: the plain 1-cable
    # (cabled_diagram(link, 1)), one crossing node per crossing, and
    # from_link's, whose fused twists leave fewer nodes to order.
    def test_trefoil_peak_width(self):
        d = parse_pd(TREFOIL)
        assert morse_decompose(cabled_diagram(d, 1)).peak_width == 4
        assert morse_decompose(from_link(d)).peak_width == 4

    def test_widths_close_out(self):
        # the greedy's peak is the widest cut of its order, and the last
        # cut, with every node swept, is empty
        links = [parse_pd(pd) for pd in (TREFOIL, HOPF, FIG8)] + [braid_closure(*TWISTED_WORD)]
        for d in links:
            for dd in (cabled_diagram(d, 1), from_link(d)):
                plan = morse_decompose(dd)
                widths = cut_widths(dd, plan.order)
                assert widths[-1] == 0
                assert plan.peak_width == max(widths)

    def test_value_is_plan_independent(self):
        rng = random.Random(7)
        for d in (parse_pd(FIG8), braid_closure(*TWISTED_WORD)):
            expect = evaluate(cabled_diagram(d, 1))
            for dd in (cabled_diagram(d, 1), from_link(d)):
                for _ in range(6):
                    order = list(range(dd.node_count))
                    rng.shuffle(order)
                    with pytest.MonkeyPatch.context() as mp:
                        run_order(mp, order)
                        assert evaluate(dd, max_width=99) == expect

    def test_cabled_trefoil_with_box_width(self):
        d = parse_pd(TREFOIL)
        dd = cabled_diagram(d, 2, box_arcs=[1])
        plan = morse_decompose(dd)
        assert plan.peak_width == 8

    def test_greedy_beats_identity_order(self):
        # the width greedy must do at least as well as the identity order
        for d in (parse_pd(FIG8), braid_closure(*TWISTED_WORD)):
            for dd in (cabled_diagram(d, 1), from_link(d)):
                greedy_peak = morse_decompose(dd).peak_width
                id_peak = max(cut_widths(dd, range(dd.node_count)))
                assert greedy_peak <= id_peak

    @pytest.mark.parametrize("case", [
        "trefoil", "figure-eight", "braid-closure", "figure-eight-2-cable",
        "trefoil-3-cable-generic-coupon"])
    def test_projector_free_orders_are_pinned(self, case):
        # greedy orders pinned before the greedy deferred projector boxes;
        # a generic coupon is not a box, so it is not deferred.  The
        # coupon cable's order is the one pinned then, relabelled:
        # cable_network puts the coupon at node 0, each crossing one later.
        # The 1-cables are the plain ones, one crossing node per crossing
        # (from_link's fused networks are test_fused_orders_are_pinned's)
        build, order = {
            "trefoil": (lambda: cabled_diagram(parse_pd(TREFOIL), 1), (0, 1, 2)),
            "figure-eight": (lambda: cabled_diagram(parse_pd(FIG8), 1), (0, 1, 2, 3)),
            "braid-closure": (
                lambda: cabled_diagram(braid_closure([1, -2, 3, 1, -2, 2, 3, -1], 4), 1),
                (0, 7, 3, 1, 2, 6, 4, 5)),
            "figure-eight-2-cable": (
                lambda: cabled_diagram(parse_pd(FIG8), 2),
                (0, 1, 6, 4, 8, 2, 3, 7, 5, 9, 10, 11, 12, 13, 14, 15)),
            "trefoil-3-cable-generic-coupon": (
                lambda: coupon_cable(parse_pd(TREFOIL), 3, [1], identity_coupon(3)),
                (1, 2, 3, 25, 22, 19, 4, 5, 6, 26, 23, 20, 0, 7, 8, 9, 10, 11,
                 12, 13, 14, 15, 18, 27, 17, 24, 16, 21)),
        }[case]
        assert morse_decompose(build()).order == order

    @pytest.mark.parametrize("word, strands, kinds, plan", [
        # the braid closure pinned above fuses down to two nodes
        ([1, -2, 3, 1, -2, 2, 3, -1], 4, "TC", MorsePlan((0, 1), 4)),
        # 14 crossings in 10 nodes, four of them twists of two crossings
        (*TWISTED_WORD, "TCTCCTCTCC", MorsePlan((0, 1, 2, 3, 4, 5, 9, 6, 7, 8), 8)),
    ])
    def test_fused_orders_are_pinned(self, word, strands, kinds, plan):
        # from_link's network: each fused tangle (T) where its first
        # crossing was, the crossings (C) left in their order
        dd = from_link(braid_closure(word, strands))
        assert "".join("C" if nd is CROSSING else "T" for nd in dd.nodes) == kinds
        assert morse_decompose(dd) == plan

    def test_plan_is_the_deferring_walk_unless_it_passes_the_cap(self):
        # on the 48 corpus Y(s+-) networks at n = 2..4 and every cap from 6
        # to 24: the box-deferring walk within the cap, even where the
        # plain walk predicts fewer matchings; over it, the narrower walk,
        # the deferring one on ties
        kept = collections.Counter()
        for name in fixture_names():
            d = fixture(name).diagram
            for n, state in itertools.product((2, 3, 4), (all_b_state, all_a_state)):
                dd = build_upsilon(d, n, state(d))
                deferring, plain = walks(dd)
                assert deferring[0] != plain[0], (name, n)
                for cap in range(6, 25):
                    if deferring[1] <= cap:
                        walk, case = deferring, ("fits", plain[2] < deferring[2])
                    elif plain[1] < deferring[1]:
                        walk, case = plain, ("narrower", plain[1] <= cap)
                    else:
                        walk, case = deferring, ("tie", False)
                    plan = morse_decompose(dd, max_width=cap)
                    assert plan == MorsePlan(*walk[:2]), (name, n, cap)
                    kept[case] += 1
        # every case of the rule occurs
        assert len(kept) == 5 and sum(kept.values()) == 48 * 19

    def test_upsilon_plans_are_pinned(self):
        # (link, n, counted and predicted matchings of the Y(s-) plan's
        # walk, then of the other walk): the deferring walk, which wins
        # now, peaks wider than the plain one, which was the plan while
        # the narrower walk won; 6_2 at n = 5 still gets the plain walk,
        # its deferring one peaking at 26 over the cap of 24
        for name, n, kept, left in (("hopf", 4, (232, 240), (888, 895)),
                                    ("6_2", 3, (759, 797), (851, 853))):
            d = fixture(name).diagram
            dd = build_upsilon(d, n, all_b_state(d))
            deferring, plain = walks(dd)
            assert deferring[1] > plain[1]
            assert morse_decompose(dd).order == deferring[0]
            assert (counted_matchings(dd), predicted_matchings(dd)) == kept
            assert (counted_matchings(dd, plain[0]), plain[2]) == left
        d = fixture("6_2").diagram
        dd = build_upsilon(d, 5, all_b_state(d))
        deferring, plain = walks(dd)
        assert (deferring[1], plain[1]) == (26, 20)
        assert morse_decompose(dd) == MorsePlan(*plain[:2])

    def test_a_tie_goes_to_the_deferring_walk(self):
        # the figure-eight's Y at n = 2 for the state (+, +, +, -): both
        # walks peak at 6 and predict 32 matchings, in different orders;
        # under a cap of 5 both pass it, and the deferring one is named
        d = fixture("figure_eight").diagram
        dd = build_upsilon(d, 2, (1, 1, 1, -1))
        deferring, plain = walks(dd)
        assert deferring[0] != plain[0]
        assert deferring[1:] == plain[1:] == (6, 32)
        assert morse_decompose(dd).order == deferring[0]
        assert morse_decompose(dd, max_width=5).order == deferring[0]

    @pytest.mark.parametrize("n,cap,kept", [(2, 4, "plain"), (2, 5, "plain"),
                                            (2, 3, "plain"), (3, 8, "plain"),
                                            (3, 9, "plain"), (3, 10, "deferring")])
    def test_the_cap_decides_between_the_walks(self, n, cap, kept):
        # the Hopf Y(s-) peaks at 6 (n = 2) or 10 (n = 3) deferring its
        # boxes and at 4 or 8 ignoring them; the deferring walk is the plan
        # once it fits, and a cap below both walks names the narrower
        d = fixture("hopf").diagram
        dd = build_upsilon(d, n, all_b_state(d))
        deferring, plain = walks(dd)
        assert (deferring[1], plain[1]) == (4 * n - 2, 4 * n - 4)
        walk = {"deferring": deferring, "plain": plain}[kept]
        assert morse_decompose(dd, max_width=cap) == MorsePlan(*walk[:2])
        if walk[1] > cap:
            with pytest.raises(ResourceLimitError,
                               match=f"needs width {walk[1]}, budget is {cap} "):
                evaluate_rational(dd, max_width=cap)
        else:
            assert evaluate_rational(dd, max_width=cap) == evaluate_rational(dd)

    def test_deferred_box_lowers_the_live_matching_peak(self):
        # the trefoil's 3-cable with its f(3) box: 132 live matchings at
        # the peak when the box is swept as a plain coupon's order would,
        # 48 when it goes last among equal widths
        d = parse_pd(TREFOIL)
        dd = cabled_diagram(d, 3, default_box_arcs(d))
        plain = morse_decompose(without_boxes(dd)).order
        assert morse_decompose(dd).order != plain
        assert peak_matchings(dd, plain) == 132
        assert peak_matchings(dd) == 48

    def test_width_budget(self):
        dd = from_link(parse_pd(TREFOIL))
        with pytest.raises(ResourceLimitError):
            evaluate(dd, max_width=2)

    def test_width_cap_is_checked_against_the_running_plan(self, monkeypatch):
        # the sweep caps the plan it runs at that plan's own peak, not at
        # the greedy's
        dd = cabled_diagram(parse_pd(TREFOIL), 2)
        expect = evaluate(dd)
        greedy_peak = morse_decompose(dd).peak_width
        order = list(range(dd.node_count))
        random.Random(3).shuffle(order)
        peak = max(cut_widths(dd, order))
        assert peak > greedy_peak
        run_order(monkeypatch, order)
        with pytest.raises(ResourceLimitError, match=f"needs width {peak},"):
            evaluate(dd, max_width=peak - 1)
        assert evaluate(dd, max_width=peak) == expect

    def test_the_cap_is_checked_before_any_box_is_built(self, monkeypatch):
        # the planner reads only port counts, projector flags and wiring,
        # so an over-cap colour exits before Wenzl's recursion builds f(8)
        def no_projectors(n):
            raise AssertionError(f"f({n}) was built")
        monkeypatch.setattr(skein_eval, "cleared_projector", no_projectors)
        monkeypatch.delenv("SKEINLAB_MAX_WIDTH", raising=False)
        d = parse_pd(TREFOIL)
        with pytest.raises(ResourceLimitError, match="needs width 32, budget is 24 "):
            colored_jones(d, 8)
        with pytest.raises(ResourceLimitError, match="budget is 24 "):
            evaluate_rational(build_upsilon(d, 8, all_b_state(d)))

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("SKEINLAB_MAX_WIDTH", "2")
        with pytest.raises(ResourceLimitError):
            bracket(parse_pd(TREFOIL))
        monkeypatch.setenv("SKEINLAB_MAX_WIDTH", "junk")
        with pytest.raises(ValueError):
            bracket(parse_pd(TREFOIL))


def placements(d: LinkDiagram):
    """Every choice of one box arc per component."""
    return itertools.product(*[sorted(c, key=repr) for c in d.components()])


def placed(d: LinkDiagram, n: int, cap=None) -> DecoratedDiagram:
    """The n-cable that colored_jones sweeps: a box on each component, on
    the arc that _place_boxes keeps within the width cap."""
    return cabled_diagram(d, n, _place_boxes(d, n, cap))


def predicted_matchings(dd: DecoratedDiagram) -> int:
    """The planner's prediction of the matchings along the plan the sweep
    runs on dd: _walk's prediction with the box sides read off the wiring."""
    order = morse_decompose(dd).order
    # a walk's prediction depends on its order alone, not on its box flags
    return next(walk[2] for walk in walks(dd) if walk[0] == order)


KNOTS = [name for name in fixture_names()
         if len(fixture(name).diagram.components()) == 1]

# one-component braid closures whose J~_2 cable peaks at one width with
# the box on a single arc and wider with it on any other: (word, strands,
# that arc, its peak, every other arc's peak)
NARROW_ARC_BRAIDS = [([-2, -2, -1, -3, -2], 4, 4, 8, 10),
                     ([2, -2, -2, -2, -1, 2], 3, 0, 8, 12)]


def boxes_moved(dd: DecoratedDiagram, front: bool) -> tuple:
    """dd with its projector boxes moved as one block, in their order, to
    the front or the back of its nodes, and each node's new index."""
    boxes = [u for u, node in enumerate(dd.nodes) if node.projector]
    rest = [u for u, node in enumerate(dd.nodes) if not node.projector]
    order = boxes + rest if front else rest + boxes
    new = {u: i for i, u in enumerate(order)}
    # the new global port of each old node's port 0
    start = dict(zip(order, itertools.accumulate(
        (dd.nodes[u].port_count for u in order), initial=0)))
    owner = _owner(dd.first)
    moved = DecoratedDiagram([dd.nodes[u] for u in order],
                             [start[owner[q]] + q - dd.first[owner[q]]
                              for u in order for q in dd.to[dd.first[u]:dd.first[u + 1]]])
    return moved, new


@st.composite
def boxed_cables(draw):
    """An m-cable of a braid closure with f(m) boxes on some of its arcs,
    several to a component at times."""
    m = draw(st.sampled_from([2, 3]))
    strands = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3 if m == 2 else 2))
    word = draw(st.lists(st.integers(1, strands - 1), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    d = braid_closure([g * e for g, e in zip(word, signs)], strands)
    boxed = draw(st.lists(st.sampled_from(sorted(d.arcs, key=repr)), min_size=1, unique=True))
    return coupon_cable(d, m, boxed, projector_node(m))


class TestBoxBlock:
    """cable_network puts a network's boxes first.  Moving the projector
    boxes as one block, in their order, only relabels the box-deferring
    walk: in _walk a box's rank is odd and a crossing's even, so node index
    never decides between a box and a crossing.  The plain walk, which
    ignores the boxes, is not invariant: its index tie-breaks can fall
    between a box and a crossing, so a block move can change it."""

    @staticmethod
    def moved_walks(dd: DecoratedDiagram) -> list:
        """(walk of dd, walk after the move) for the deferring and the
        plain walk and each move, the moved order read in dd's indices."""
        out = []
        for front in (True, False):
            moved, new = boxes_moved(dd, front)
            back = {i: u for u, i in new.items()}
            for before, (order, peak, cost) in zip(walks(dd), walks(moved)):
                out.append((before, (tuple(back[i] for i in order), peak, cost)))
        return out

    @pytest.mark.parametrize("name", fixture_names())
    def test_corpus_networks_keep_their_deferring_walk(self, name):
        d = fixture(name).diagram
        for n in (2, 3, 4):
            for dd in (build_upsilon(d, n, all_b_state(d)),
                       build_upsilon(d, n, all_a_state(d)), placed(d, n)):
                deferring = self.moved_walks(dd)[::2]
                assert all(before == after for before, after in deferring), (n, name)

    @settings(max_examples=40, deadline=None)
    @given(boxed_cables())
    def test_boxed_cables_keep_their_deferring_walk(self, dd):
        for before, after in self.moved_walks(dd)[::2]:
            assert before == after

    def test_a_block_move_can_change_the_plain_walk(self):
        # why Y(s) keeps its boxes where they are: a plain walk, the
        # fallback past the width cap, moves on some corpus networks
        changed = 0
        for name in fixture_names():
            d = fixture(name).diagram
            for n in (2, 3, 4):
                moved = self.moved_walks(build_upsilon(d, n, all_b_state(d)))[1::2]
                changed += sum(before != after for before, after in moved)
        assert changed


class TestBoxPlacement:
    """colored_jones puts each component's box on the arc whose plan has
    the fewest predicted matchings, within the width cap."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_value_does_not_depend_on_the_box_arc(self, name):
        d = fixture(name).diagram
        for n in (2, 3) if name in ("trefoil", "figure_eight", "5_2") else (2,):
            expect = colored_jones(d, n)
            for arcs in placements(d):
                assert evaluate(cabled_diagram(d, n, arcs)) == expect, (n, arcs)

    def test_figure_eight_at_color_four_is_pinned(self):
        # of the 8 arcs the default carries the most matchings, and the
        # chosen one (arc 3) the fewest
        d = fixture("figure_eight").diagram
        default = cabled_diagram(d, 4, default_box_arcs(d))
        chosen = placed(d, 4)
        assert counted_matchings(default) == 54056
        assert counted_matchings(chosen) == 12164
        assert predicted_matchings(default) == 55763
        assert predicted_matchings(chosen) == 12990
        assert chosen.to == cabled_diagram(d, 4, [3]).to

    @pytest.mark.parametrize("name", KNOTS)
    def test_chosen_arc_counts_no_more_than_the_default(self, name):
        # a knot's one box goes on the arc of least prediction
        d = fixture(name).diagram
        chosen = placed(d, 3)
        default = cabled_diagram(d, 3, default_box_arcs(d))
        least = min(predicted_matchings(cabled_diagram(d, 3, arcs))
                    for arcs in placements(d))
        assert predicted_matchings(chosen) == least
        assert counted_matchings(chosen) <= counted_matchings(default)
        if predicted_matchings(default) == least:
            assert chosen.to == default.to

    @pytest.mark.parametrize("d,n", [(fixture("hopf").diagram, 2),
                                     (fixture("hopf").diagram, 3),
                                     (braid_closure([2, -1, -1, -1, 1], 3), 2)])
    def test_link_components_are_placed_one_at_a_time(self, d, n):
        # the first component's best arc with the second box on its first
        # arc, then the second's best with the first fixed there; on the
        # braid closure both boxes move
        first, second = [sorted(c, key=repr) for c in d.components()]

        def cost(arcs):
            return predicted_matchings(cabled_diagram(d, n, arcs))

        a = min(first, key=lambda x: cost([x, second[0]]))
        b = min(second, key=lambda y: cost([a, y]))
        assert placed(d, n).to == cabled_diagram(d, n, [a, b]).to

    def test_ties_go_to_the_earlier_arc(self):
        # the trefoil's J~_2 predicts 59 matchings on arcs 4 and 5, the least
        d = fixture("trefoil").diagram
        predicted = {a: predicted_matchings(cabled_diagram(d, 2, [a])) for a in d.arcs}
        assert sorted(a for a in d.arcs if predicted[a] == 59) == [4, 5]
        assert min(predicted.values()) == 59
        assert placed(d, 2).to == cabled_diagram(d, 2, [4]).to

    def test_plain_walks_are_the_fallback(self, monkeypatch):
        # were every box-deferring walk too wide, the plain walk of the
        # placed cable would be swept: morse_decompose falls back to it
        def deferring_walks_too_wide(cross, degree, boxes, *args):
            walked = _walk(cross, degree, boxes, *args)
            if any(boxes):
                walked = (walked[0], walked[1] + 100, walked[2])
            return walked

        monkeypatch.setattr("skeinlab.skein_eval._walk", deferring_walks_too_wide)
        d = fixture("figure_eight").diagram
        dd = placed(d, 3)
        plan = morse_decompose(dd)
        assert plan.peak_width == 12
        assert plan.order == morse_decompose(without_boxes(dd)).order
        assert evaluate(dd) == colored_jones(d, 3)

    def test_matching_count_matches_enumeration(self):
        for width in range(0, 11, 2):
            for blocks in [(), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (3, 3),
                           (2, 2, 2)]:
                if sum(blocks) > width:
                    continue
                label = [b for b, size in enumerate(blocks) for _ in range(size)]
                label += [-1 - i for i in range(width - len(label))]
                expect = sum(all(label[a] != label[b] for a, b in pm.pairs)
                             for pm in enumerate_matchings(width // 2))
                assert _matching_count(width, blocks) == expect, (width, blocks)

    @pytest.mark.parametrize("word,strands,arc,narrow,wide", NARROW_ARC_BRAIDS)
    def test_no_candidate_wider_than_the_cap_is_chosen(self, word, strands, arc,
                                                       narrow, wide):
        d = braid_closure(word, strands)
        assert {a: morse_decompose(cabled_diagram(d, 2, [a])).peak_width
                for a in d.arcs} == {a: narrow if a == arc else wide for a in d.arcs}
        expect = colored_jones(d, 2)
        for cap in range(narrow, wide + 2):
            dd = placed(d, 2, cap)
            assert morse_decompose(dd, max_width=cap).peak_width <= cap
            if cap < wide:
                assert dd.to == cabled_diagram(d, 2, [arc]).to
            assert colored_jones(d, 2, max_width=cap) == expect

    @pytest.mark.parametrize("word,strands,arc,narrow,wide", NARROW_ARC_BRAIDS)
    def test_a_cap_below_every_candidate_names_the_narrowest(self, word, strands,
                                                             arc, narrow, wide):
        d = braid_closure(word, strands)
        with pytest.raises(ResourceLimitError,
                           match=f"needs width {narrow}, budget is {narrow - 1} "):
            colored_jones(d, 2, max_width=narrow - 1)

    def test_a_network_carries_no_plan(self):
        # a network is nodes plus its port table (no plan, see
        # TestWiring), so the sweep runs only plans that morse_decompose
        # makes, and the width cap holds on a placed cable too: the
        # figure-eight's 3-cable needs width 12
        d = fixture("figure_eight").diagram
        dd = placed(d, 3, 11)
        for sweep in (lambda: evaluate(dd, max_width=11),
                      lambda: colored_jones(d, 3, max_width=11)):
            with pytest.raises(ResourceLimitError, match="needs width 12, budget is 11 "):
                sweep()


class TestWiring:
    @pytest.mark.parametrize("extra, to, error, match", [
        ((), [1, 0, 3], ValueError, "3 wire ends for 4 ports"),
        ((), [1, 0, 3, 2, 5, 4], ValueError, "6 wire ends for 4 ports"),
        # a negative entry would read the table from its end
        ((), [1, 0, -1, 2], ValueError, "outside 0..3"),
        ((), [1, 0, 3, 4], ValueError, "outside 0..3"),
        ((), [1, 0, 2, 3], ValueError, "port 2 wired to itself"),
        ((), [1, 2, 3, 0], ValueError, "not an involution"),
        # a network carries no plan: the sweep runs only morse_decompose's
        ((MorsePlan((0,), 0),), [1, 0, 3, 2], TypeError, None),
    ], ids=["short", "long", "negative", "past-the-end", "fixed-point",
            "not-an-involution", "a-plan"])
    def test_the_port_table_fails_closed(self, extra, to, error, match):
        with pytest.raises(error, match=match):
            DecoratedDiagram([CROSSING], to, *extra)
        DecoratedDiagram([CROSSING], [1, 0, 3, 2])

    def test_coupon_must_cover_points(self):
        with pytest.raises(ValueError):
            CouponNode(4, [(((0, 1),), {0: 1})])

    @pytest.mark.parametrize("points, pairs", [
        (4, ((0, 5), (1, 2))),   # a point the coupon does not have
        (4, ((0, 2), (1, 3))),   # crossing chords: not a TL_2 diagram
        (5, ((0, 1), (2, 3))),   # an odd number of points
    ])
    def test_coupon_must_be_a_tl_diagram(self, points, pairs):
        with pytest.raises(ValueError):
            CouponNode(points, [(pairs, {0: 1})])


class TestOneNodeType:
    @pytest.mark.parametrize("name", fixture_names())
    @pytest.mark.parametrize("n", [1, 2])
    def test_fresh_crossing_coupons_give_the_same_value(self, name, n):
        # a crossing is nothing but its local terms: fresh, equal 4-point
        # coupons in place of the shared CROSSING keep the plan and value
        d = fixture(name).diagram
        dd = placed(d, n) if n > 1 else cabled_diagram(d, 1)
        assert all(nd is CROSSING or nd.projector for nd in dd.nodes)
        fresh = [CouponNode(4, ((A_JOINS, {1: 1}), (B_JOINS, {-1: 1})))
                 if nd is CROSSING else nd for nd in dd.nodes]
        fresh = DecoratedDiagram(fresh, dd.to)
        assert morse_decompose(fresh) == morse_decompose(dd)
        assert evaluate(fresh) == evaluate(dd)


class TestPlanarity:
    """Turnback pruning is exact only on planar networks, and a LinkDiagram
    is planar by construction: its constructor, and so parse_pd, refuses
    a PD code that is not planar, so no builder ever sees one."""

    def test_a_nonplanar_code_is_refused_with_its_name(self):
        rows = random_rows(6, 2)
        assert not planar_by_faces(rows) and not planar_by_faces(NONPLANAR_ROWS)
        with pytest.raises(MalformedPDError, match="the PD code " + NOT_PLANAR):
            LinkDiagram(rows, free_loops=1)
        with pytest.raises(MalformedPDError, match="glued " + NOT_PLANAR):
            LinkDiagram(NONPLANAR_ROWS, name="glued")
        with pytest.raises(MalformedPDError, match="input " + NOT_PLANAR):
            parse_pd(NONPLANAR + " / O", name="input")

    def test_every_nonplanar_draw_is_refused(self):
        draws = [NONPLANAR_ROWS] + [rows for rows in (random_rows(1 + seed % 6, seed)
                                                      for seed in range(40))
                                    if not planar_by_faces(rows)]
        assert len(draws) > 30
        for rows in draws:
            mirrored = [(b, c, d, a) for a, b, c, d in rows]
            text = " / ".join("X " + " ".join(map(str, row)) for row in rows)
            for build in (lambda: LinkDiagram(rows), lambda: LinkDiagram(mirrored),
                          lambda: parse_pd(text)):
                with pytest.raises(MalformedPDError, match=NOT_PLANAR):
                    build()
                    pytest.fail(f"accepted {rows}")

    def test_networks_without_pruning_raise_or_agree_on_a_nonplanar_diagram(self):
        # no box: nothing would be pruned, and still LinkDiagram refuses
        # the code.  Its raw slot table, swept, mixes residues mod 4 and
        # fails closed; its 2-cable's do not, and both cable builders give
        # the same value (generic coupons on such diagrams are
        # TestCouponOracle's)
        rows = random_rows(6, 2)
        with pytest.raises(MalformedPDError, match=NOT_PLANAR):
            LinkDiagram(rows)
        raw = raw_network(rows)
        with pytest.raises(ValueError, match="residue class mod 4"):
            evaluate(raw)
        code = raw_code(rows)
        assert (evaluate(DecoratedDiagram(*cable_network(code, 2, [])), max_width=99)
                == evaluate(raw_network(cable_rows(code, 2)), max_width=99))


class TestCabledEvaluation:
    def test_plain_cable_matches_link_cable(self):
        # the port-level cable builder against the label-level one
        for pd in (TREFOIL, HOPF):
            d = parse_pd(pd)
            for m in (1, 2, 3):
                direct = evaluate(cabled_diagram(d, m), max_width=30)
                via_link = bracket(cable(d, m), max_width=30)
                assert direct == via_link, (pd, m)

    def test_one_cable_with_trivial_box_is_bracket(self):
        d = parse_pd(TREFOIL)
        dd = cabled_diagram(d, 1, box_arcs=[1])
        assert evaluate(dd) == bracket(d)

    def test_double_box_rejected(self):
        d = parse_pd(TREFOIL)
        with pytest.raises(ValueError):
            cabled_diagram(d, 2, box_arcs=[1, 1])


class TestCouponOracle:
    def test_random_plain_coupon_cables_match_state_sum(self):
        # 2-cables of random diagrams with plain-matching coupons on random
        # arcs, against the union-find state sum; a diagram that is not
        # planar may raise instead (fails_closed)
        # (a raw_code stands in for a code no LinkDiagram holds)
        rng = random.Random(11)
        for trial in range(12):
            if trial % 2:
                d = random_braid_closure(1 + trial % 3, trial)
            else:
                rows = random_rows(1 + trial % 3, trial)
                d = LinkDiagram(rows) if planar_by_faces(rows) else raw_code(rows)
            arcs = sorted({arc for row in d.crossings for arc in row}, key=repr)
            boxed = rng.sample(arcs, rng.randint(1, len(arcs)))
            coupon = rng.choice([identity_coupon(2), cup_coupon()])
            dd = coupon_cable(d, 2, boxed, coupon)
            if isinstance(d, LinkDiagram):
                assert evaluate(dd, max_width=99) == coupon_state_sum(dd), trial
            else:
                assert fails_closed(lambda: evaluate(dd, max_width=99),
                                    coupon_state_sum(dd)), trial


class TestProjectorOracle:
    """Projector networks, pruned by the sweep, against projector_state_sum."""

    @pytest.mark.parametrize("pd", [HOPF, TREFOIL, FIG8])
    def test_every_colored_state_at_color_two(self, pd):
        d = parse_pd(pd)
        for s in all_states(d, 2):
            dd = build_upsilon(d, 2, s)
            assert evaluate_rational(dd) == projector_state_sum(dd), s

    @pytest.mark.parametrize("pd", [HOPF, "X 1 2 2 1"])
    def test_two_cable_with_a_box_on_every_arc(self, pd):
        # several unswept boxes on one component: a strand can run from
        # one box round to another, or back to the box it left
        d = parse_pd(pd)
        dd = cabled_diagram(d, 2, sorted(d.arcs, key=repr))
        assert evaluate_rational(dd) == projector_state_sum(dd)

    def test_projector_node_is_flagged_and_shared(self):
        assert projector_node(3).projector and projector_node(3) is projector_node(3)
        assert not cup_coupon().projector and not CROSSING.projector


# the TL_m diagrams other than the identity: each turns back on both sides
TURNBACK_MATCHINGS = {
    m: [pm.pairs for pm in enumerate_matchings(m) if pm != identity_matching(m)]
    for m in (2, 3)
}


@st.composite
def turnback_coupon_cables(draw):
    m = draw(st.sampled_from([2, 3]))
    strands = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3 if m == 2 else 1))
    word = draw(st.lists(st.integers(1, strands - 1), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    d = braid_closure([g * e for g, e in zip(word, signs)], strands)
    arcs = sorted(d.arcs, key=repr)
    boxed = draw(st.lists(st.sampled_from(arcs), min_size=1, unique=True))
    # at m = 2 the one such matching is cup_coupon's e_1
    coupon = matching_coupon(2 * m, draw(st.sampled_from(TURNBACK_MATCHINGS[m])))
    return coupon_cable(d, m, boxed, coupon)


class TestGenericCouponsAreNotPruned:
    @settings(max_examples=40, deadline=None)
    @given(turnback_coupon_cables())
    def test_turnback_coupon_cables_match_state_sum(self, dd):
        # a generic coupon with a turnback is not a projector: a term that
        # caps it is worth a loop, not 0, so the sweep must keep it
        assert evaluate(dd, max_width=99) == coupon_state_sum(dd)


@st.composite
def wide_integers(draw):
    """A nonzero integer up to 2^200 in size."""
    bits = draw(st.integers(0, 200))
    return draw(st.integers(-(1 << bits), 1 << bits).filter(bool))


@st.composite
def wide_coefficients(draw):
    """A Laurent coefficient with entries up to 2^200 in size, its
    exponents in one residue class mod 4."""
    r = draw(st.integers(0, 3))
    exponents = st.integers(-2, 2).map(lambda j: r + 4 * j)
    return draw(st.dictionaries(exponents, wide_integers(), min_size=1, max_size=3))


@st.composite
def weighted_coupon_cables(draw):
    """A cable of a braid closure with a generic coupon on some of its
    arcs whose coefficients run up to 2^200 in size but never mix
    residues mod 4: one matching with a one-residue coefficient, or the
    terms of f(m) (cleared) each scaled by a wide integer."""
    m = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(1, 5 if m == 1 else 2))
    strands = draw(st.integers(2, 3))
    word = draw(st.lists(st.integers(1, strands - 1), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    d = braid_closure([g * e for g, e in zip(word, signs)], strands)
    arcs = sorted(d.arcs, key=repr)
    boxed = draw(st.lists(st.sampled_from(arcs), min_size=1, max_size=2, unique=True))
    if draw(st.booleans()):
        pm = draw(st.sampled_from(enumerate_matchings(m)))
        terms = [(pm.pairs, draw(wide_coefficients()))]
    else:
        terms = []
        for coeff, pm in cleared_projector(m)[1]:
            x = draw(wide_integers())
            terms.append((pm.pairs, {e: c * x for e, c in coeff.items()}))
    return coupon_cable(d, m, boxed, CouponNode(2 * m, terms))


class TestPackedCoefficients:
    """The sweep packs each coefficient into one int (skein_eval._pack)."""

    @settings(max_examples=60, deadline=None)
    @given(weighted_coupon_cables())
    def test_wide_coefficient_coupons_match_state_sum(self, dd):
        assert evaluate(dd, max_width=99) == coupon_state_sum(dd)

    @pytest.mark.parametrize("width", [32, 64, 96])
    def test_pack_round_trip_at_the_digit_bound(self, width):
        top = (1 << width - 2) - 1
        for coeff in ({-12: top, 0: -top, 16: -top},
                      {4: -top, 8: top, 20: -1},
                      {7: top}, {-5: -top}):
            lo, v = _pack(coeff, width)
            assert lo == min(coeff)
            assert _unpack(lo, v, width) == coeff
            for wider in (width + 32, 256):  # a widening moves every digit
                assert _unpack(lo, skein_eval._repack(v, width, wider), wider) == coeff

    def test_pack_rejects_mixed_residues(self):
        with pytest.raises(ValueError, match="residue class mod 4"):
            _pack({0: 1, 1: -3}, 32)

    def test_a_mixed_residue_coupon_fails_closed(self):
        # the coupon's own coefficient mixes residues: the pack check raises
        d = parse_pd(TREFOIL)
        coupon = CouponNode(4, [(pm.pairs, {0: 1, 1: -3}) for pm in enumerate_matchings(2)])
        with pytest.raises(ValueError, match="residue class mod 4"):
            evaluate(coupon_cable(d, 2, [1], coupon))

    def test_a_nonplanar_bracket_fails_closed(self):
        # parse_pd refuses the code up front; swept as its raw slot table,
        # every crossing factor keeps one residue, so there the merge check
        # raises, when two terms of different residues meet
        with pytest.raises(MalformedPDError, match=NOT_PLANAR):
            parse_pd(NONPLANAR)
        raw = raw_network(NONPLANAR_ROWS)
        with pytest.raises(ValueError, match="residue class mod 4"):
            evaluate(raw)

    def test_a_wide_coefficient_widens_the_digits(self, monkeypatch):
        # every repack goes from one width to a wider one, each step a
        # multiple of 32, and the final unpack reads the last of them
        repacks, unpacks = [], []
        repack, unpack = skein_eval._repack, skein_eval._unpack
        monkeypatch.setattr(skein_eval, "_repack", lambda v, old, new: (
            repacks.append((old, new)) or repack(v, old, new)))
        monkeypatch.setattr(skein_eval, "_unpack",
                            lambda lo, v, w: unpacks.append(w) or unpack(lo, v, w))
        d = parse_pd(FIG8)
        coupon = CouponNode(2, [(((0, 1),), {4: 3 << 200, 0: -1})])
        dd = coupon_cable(d, 1, [sorted(d.arcs, key=repr)[0]], coupon)
        assert evaluate(dd) == coupon_state_sum(dd)
        steps = sorted(set(repacks))
        assert steps[0][0] == 32
        assert all(old < new and new % 32 == 0 for old, new in steps)
        assert all(a[1] == b[0] for a, b in zip(steps, steps[1:]))
        assert unpacks == [steps[-1][1]] and unpacks[0] > 200

    def test_repack_keeps_zero_low_digits(self):
        # lo stays where it was: a digit that cancelled is moved as a zero
        lo, v = _pack({0: 5, 8: -3}, 32)
        v -= 5  # the A^0 digit cancels; the coefficient is -3 A^8 at lo 0
        assert skein_eval._repack(v, 32, 64) == -3 << 2 * 64
        assert _unpack(lo, skein_eval._repack(v, 32, 64), 64) == {8: -3}

    @pytest.mark.parametrize("name", fixture_names())
    def test_corpus_networks_keep_one_residue_class(self, name):
        # every corpus J~_n cable and B-state network has each coefficient
        # in one residue class mod 4; a mixed residue would raise here
        d = fixture(name).diagram
        for n in (1, 2, 3):
            assert not colored_jones(d, n).is_zero()
            for s in (all_a_state(d), all_b_state(d)):
                evaluate_rational(build_upsilon(d, n, s))


def assert_splices_match_oracle(dd: DecoratedDiagram, width: int = 32):
    """Every event of the sweep of dd splices each signature its bag holds
    into the rows of the per-signature oracle, in order: each row's code
    the fields of the same partners, each row's packed factor its local
    coefficient times delta^loops packed at `width`, its stored weight that
    coefficient's L1 norm << loops, and the kept weight the sum of the
    rows' weights.  keep clears exactly the closing slots and the slots
    their strands end at, and leaves no field past the new frontier."""
    for node, step, frontier, keys, _ in sweep_events(dd):
        terms = node.local_terms()
        size = len(frontier)
        bits = step.bits
        for signature in {key & step.closing for key in keys}:
            rows, kept, keep = step.splices(signature, width)
            closing = list(step._closing_port)
            partners_of = slots(signature, bits, max(closing, default=-1) + 1)
            expected = signature_splices(node, step, [partners_of[s] for s in closing])
            decoded = [{s: p for s, p in enumerate(slots(code, bits, size)) if p >= 0}
                       for code, *_ in rows]
            assert decoded == [partners for partners, *_ in expected]
            assert [row[1:] for row in rows] == [
                (*_pack((LaurentPolynomial(terms[li][1]) * DELTA ** loops).terms, width),
                 sum(map(abs, terms[li][1].values())) << loops)
                for _, li, loops in expected]
            assert kept == sum(weight for *_, weight in rows)
            cleared = set(closing) | {partners_of[s] for s in closing}
            assert keep == sum(((1 << bits) - 1) << bits * s
                               for s in range(size) if s not in cleared)


def partial_matchings(points: int) -> set:
    """Every outside-wire pattern of a node with that many ports: back[p]
    the port its wire re-enters at, or None, an involution with no fixed
    point."""
    return {back for back in itertools.product([None, *range(points)], repeat=points)
            if all(q is None or (q != p and back[q] == p) for p, q in enumerate(back))}


class TestGluedTables:
    """A node glues its local matchings once per outside-wire pattern and
    digit width (CouponNode.glued); a splice maps the rows of that table
    to slots."""

    @pytest.mark.parametrize("name", fixture_names())
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cable_splices_match_the_signature_oracle(self, name, n):
        assert_splices_match_oracle(placed(fixture(name).diagram, n))

    @pytest.mark.parametrize("name", fixture_names())
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("state", [all_a_state, all_b_state])
    def test_upsilon_splices_match_the_signature_oracle(self, name, n, state):
        d = fixture(name).diagram
        assert_splices_match_oracle(build_upsilon(d, n, state(d)))

    @settings(max_examples=40, deadline=None)
    @given(weighted_coupon_cables())
    def test_coupon_splices_match_the_signature_oracle(self, dd):
        assert_splices_match_oracle(dd)

    def test_the_crossing_table_is_bounded_by_its_wire_patterns(self):
        # the table is keyed by outside-wire pattern, never by signature:
        # however many networks sweep CROSSING, it holds at most the 10
        # partial matchings of its 4 ports
        for k in range(4, 40, 3):
            for seed in range(3):
                bracket(random_braid_closure(k, seed))
        for name in fixture_names():
            d = fixture(name).diagram
            for n in (1, 2, 3):
                colored_jones(d, n)
                evaluate_rational(build_upsilon(d, n, all_b_state(d)))
        assert len(partial_matchings(4)) == 10
        patterns = collections.defaultdict(set)
        for back, width in CROSSING._glued:
            patterns[width].add(back)
        assert 32 in patterns
        for backs in patterns.values():
            assert backs <= partial_matchings(4)
            assert len(backs) <= 10


def assert_keys_keep_the_slot_form(dd: DecoratedDiagram) -> tuple:
    """After every event of the sweep of dd, the frontier is no longer
    than the plan's peak width and ends in a live slot, and every key of
    the bag, read as slots (cable_oracle.slots), sets no field past the
    frontier, holds -1 exactly at the frontier's holes and is an
    involution without fixed points on the live slots.  Returns (key
    entries, holes among them) over all events."""
    peak = morse_decompose(dd).peak_width
    entries = holes = 0
    for _, step, frontier, _, keys in sweep_events(dd):
        size = len(frontier)
        assert size <= peak
        assert not frontier or frontier[-1] is not None
        hole = {s for s, port in enumerate(frontier) if port is None}
        live = set(range(size)) - hole
        for number in keys:
            assert number >> step.bits * size == 0
            key = slots(number, step.bits, size)
            assert {s for s, partner in enumerate(key) if partner == -1} == hole
            assert all(key[s] in live and key[s] != s and key[key[s]] == s for s in live)
        entries += size * len(keys)
        holes += len(hole) * len(keys)
    return entries, holes


class TestStableSlots:
    """A slot keeps its number while it is open; a closed one is a hole
    that the next fresh port fills (skein_eval._EventStep)."""

    @pytest.mark.parametrize("name", fixture_names())
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cable_keys_keep_the_slot_form(self, name, n):
        assert_keys_keep_the_slot_form(placed(fixture(name).diagram, n))

    @pytest.mark.parametrize("name", fixture_names())
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("state", [all_a_state, all_b_state])
    def test_upsilon_keys_keep_the_slot_form(self, name, n, state):
        d = fixture(name).diagram
        assert_keys_keep_the_slot_form(build_upsilon(d, n, state(d)))

    def test_braid_closure_keys_keep_the_slot_form(self):
        entries = holes = tangles = 0
        for k in range(2, 40):
            for seed in range(6):
                dd = from_link(random_braid_closure(k, seed))
                counts = assert_keys_keep_the_slot_form(dd)
                entries += counts[0]
                holes += counts[1]
                tangles += sum(nd is not CROSSING for nd in dd.nodes)
        # holes and fused tangles do occur, so the hole checks are not
        # vacuous and the keys are checked across fused nodes too
        assert 0 < holes < entries
        assert tangles > 0


def prefix_order(dd: DecoratedDiagram, k: int) -> list:
    """Nodes 0..k-1, then every other node in the greedy's order."""
    return list(range(k)) + [u for u in morse_decompose(dd).order if u >= k]


def spread_order(dd: DecoratedDiagram, k: int) -> list:
    """The first k nodes, in index order, that share no wire with an
    earlier one, then every other node in the greedy's order: each of the
    k adds its whole degree to the width."""
    first = []
    owner = _owner(dd.first)
    for u in range(dd.node_count):
        near = {owner[q] for q in dd.to[dd.first[u]:dd.first[u + 1]]}
        if len(first) < k and not near & set(first):
            first.append(u)
    return first + [u for u in morse_decompose(dd).order if u not in first]


class TestKeyFields:
    """A key holds partner + 1 at each slot in peak_width.bit_length()
    bits, so a field's top value is the peak itself.  Cut widths are even,
    so 4-bit fields top out at 14; 16 is the first peak that needs 5 bits,
    its top value only the high bit, and 32 needs 6.  None of them may
    change the value."""

    # 42 crossings on 8 strands: the greedy's peak is 12
    WORD = ([1, -2, 3, -4, 5, -6, 7] * 6, 8)

    @pytest.mark.parametrize("peak, bits, make, k", [
        (14, 4, prefix_order, 6), (16, 5, prefix_order, 7), (32, 6, spread_order, 8)])
    def test_a_forced_peak_keeps_the_value(self, peak, bits, make, k):
        dd = cabled_diagram(braid_closure(*self.WORD), 1)
        expect = evaluate(dd)
        assert morse_decompose(dd).peak_width == 12
        order = make(dd, k)
        assert sorted(order) == list(range(dd.node_count))
        assert max(cut_widths(dd, order)) == peak
        assert peak.bit_length() == bits
        with pytest.MonkeyPatch.context() as mp:
            run_order(mp, order)
            assert evaluate(dd, max_width=99) == expect


@st.composite
def ordered_cables(draw):
    """A cable of a random braid closure, Jones-Wenzl boxes on none, some
    or all of its arcs, and a random attachment order of its nodes."""
    m = draw(st.sampled_from([1, 2, 3]))
    strands = draw(st.integers(2, 3))
    k = draw(st.integers(1, {1: 6, 2: 3, 3: 1}[m]))
    word = draw(st.lists(st.integers(1, strands - 1), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    d = braid_closure([g * e for g, e in zip(word, signs)], strands)
    boxed = draw(st.lists(st.sampled_from(sorted(d.arcs, key=repr)), unique=True))
    dd = cabled_diagram(d, m, boxed)
    return dd, draw(st.permutations(range(dd.node_count)))


class TestGivenOrders:
    @settings(max_examples=40, deadline=None)
    @given(ordered_cables())
    def test_peak_is_the_widest_cut_and_the_value_is_order_free(self, case):
        # the greedy's peak is its widest cut, and the sweep of any other
        # order gives the same value
        dd, order = case
        plan = morse_decompose(dd)
        assert sorted(plan.order) == list(range(dd.node_count))
        assert plan.peak_width == max(cut_widths(dd, plan.order))
        expect = evaluate_rational(dd, max_width=99)
        with pytest.MonkeyPatch.context() as mp:
            run_order(mp, order)
            assert evaluate_rational(dd, max_width=99) == expect


def coupon_cable(d, m: int, box_arcs, coupon: CouponNode) -> DecoratedDiagram:
    """The m-cable of d (a LinkDiagram or a raw_code) with `coupon`
    spliced in at each arc of box_arcs, wired as cabled_diagram wires its
    f(m) boxes; a generic coupon is never pruned."""
    return DecoratedDiagram(*cable_network(d, m, [(arc, coupon) for arc in box_arcs]))


def matching_coupon(points: int, pairs, label: str = "") -> CouponNode:
    """A single fixed matching with coefficient 1."""
    return CouponNode(points, [(tuple(pairs), {0: 1})], label=label)


def identity_coupon(m):
    return matching_coupon(2 * m, [(i, 2 * m - 1 - i) for i in range(m)], label="id")


def cup_coupon(m=2):
    # e_1 in TL_2: cup across the bottom, cap across the top
    return matching_coupon(4, [(0, 1), (2, 3)], label="e1")


class TestColoredJones:
    def test_color_zero_and_one(self):
        d = parse_pd(TREFOIL)
        assert colored_jones(d, 0) == LaurentPolynomial.one()
        assert colored_jones(d, 1) == bracket(d)

    @pytest.mark.parametrize("n", [2.0, True, False, "2", None])
    def test_color_must_be_an_int(self, monkeypatch, n):
        # 2.0 would reach the grid builder and True would pass as color 1:
        # refused before any work
        def work(*args, **kwargs):
            raise AssertionError("work began")
        for name in ("resolve_max_width", "bracket", "_place_boxes"):
            monkeypatch.setattr(skein_eval, name, work)
        with pytest.raises(ValueError, match="color must be an integer"):
            colored_jones(parse_pd(TREFOIL), n)

    def test_unknot_values(self):
        loop = LinkDiagram([], free_loops=1)
        for n in range(6):
            assert colored_jones(loop, n) == quantum_dimension(n)

    def test_two_unknots(self):
        loops = LinkDiagram([], free_loops=2)
        assert colored_jones(loops, 3) == quantum_dimension(3) ** 2

    def test_kink_framing_factors(self):
        # a single positive curl multiplies the n-colored unknot by
        # (-1)^n A^(n^2+2n); its mirror by the inverse
        plus = parse_pd("X 1 2 2 1")
        minus = parse_pd("X 1 1 2 2")
        assert bracket(plus) == -(A ** 3) * DELTA
        for n in (1, 2, 3):
            phase = (A ** (n * n + 2 * n))
            sign = 1 if n % 2 == 0 else -1
            expect = quantum_dimension(n) * phase
            expect = expect if sign == 1 else -expect
            got_plus = colored_jones(plus, n)
            got_minus = colored_jones(minus, n)
            assert got_plus == expect, n
            assert got_minus == got_plus.mirror(), n

    def test_identity_coupon_gives_plain_cable(self):
        d = parse_pd(HOPF)
        dd = coupon_cable(d, 2, [min(d.arcs, key=repr)], identity_coupon(2))
        assert evaluate(dd) == bracket(cable(d, 2), max_width=30)

    def test_splice_expansion_of_two_colored_knot(self):
        # f(2) = id + e_1/(A^2 + A^-2), so the 2-colored value satisfies
        # (A^2+A^-2) J_2 = (A^2+A^-2) <id-coupon cable> + <e1-coupon cable>,
        # with both coupon diagrams evaluated by plain union-find sums.
        d = parse_pd(TREFOIL)
        [box] = [min(c, key=repr) for c in d.components()]
        via_id = coupon_state_sum(coupon_cable(d, 2, [box], identity_coupon(2)))
        via_e1 = coupon_state_sum(coupon_cable(d, 2, [box], cup_coupon()))
        scale = A ** 2 + (A ** 2).mirror()
        assert scale * colored_jones(d, 2) == scale * via_id + via_e1

    def test_splice_expansion_hopf_both_boxes(self):
        # same identity with two components: expand each box separately
        d = parse_pd(HOPF)
        a1, a2 = sorted((min(c, key=repr) for c in d.components()), key=repr)
        scale = A ** 2 + (A ** 2).mirror()

        def two_coupon_sum(c1, c2):
            return coupon_state_sum(_two_coupon_diagram(d, a1, a2, c1, c2))

        total = scale * scale * two_coupon_sum(identity_coupon(2), identity_coupon(2))
        total = total + scale * two_coupon_sum(identity_coupon(2), cup_coupon())
        total = total + scale * two_coupon_sum(cup_coupon(), identity_coupon(2))
        total = total + two_coupon_sum(cup_coupon(), cup_coupon())
        assert scale * scale * colored_jones(d, 2) == total

    def test_frozen_color_four(self):
        # J~_4 as computed before the slot-indexed sweep
        trefoil = {-72: 1, -64: -1, -60: -1, -56: -1, -44: 1, -40: 1, -36: 1,
                   -32: 1, -28: 1, -12: -1, -8: -1, -4: -1, 0: -1, 4: -1,
                   8: -1, 12: -1, 32: 1, 36: 1, 40: 1, 44: 1, 48: 1, 52: 1,
                   56: 1, 60: 1, 64: 1}
        fig8 = {-88: 1, -80: -1, -76: -1, -72: -1, -68: 1, -64: 1, -60: 1,
                -52: -1, -48: 1, -44: 1, -36: -1, -32: -1, -8: 1, -4: 1, 0: 1,
                4: 1, 8: 1, 32: -1, 36: -1, 44: 1, 48: 1, 52: -1, 60: 1, 64: 1,
                68: 1, 72: -1, 76: -1, 80: -1, 88: 1}
        assert colored_jones(parse_pd(TREFOIL), 4) == lp(trefoil)
        assert colored_jones(parse_pd(FIG8), 4) == lp(fig8)

    def test_figure_eight_colored_amphichirality(self):
        d = parse_pd(FIG8)
        j2 = colored_jones(d, 2)
        assert j2 == j2.mirror()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", KNOTS)
    def test_knot_matches_its_chebyshev_cable_sum(self, name, n):
        # a projector-free oracle: f(n) closes in the annulus to S_n(z),
        # with z^j the j-cable, so J~_n(K) = sum_j s_nj <K^(j)>; no box,
        # placement or pruning.  A link needs its own cable width on each
        # component, a sum this one-width form leaves out
        d = fixture(name).diagram
        expect = sum((c * (bracket(cable(d, j)) if j else LaurentPolynomial.one())
                      for j, c in chebyshev(n).items()), LaurentPolynomial.zero())
        assert colored_jones(d, n) == expect


def chebyshev(n: int) -> dict:
    """{j: coefficient of z^j} of S_n, where S_0 = 1, S_1 = z and
    S_n = z S_(n-1) - S_(n-2)."""
    low, high = {}, {0: 1}
    for _ in range(n):
        step = {j + 1: c for j, c in high.items()}
        for j, c in low.items():
            step[j] = step.get(j, 0) - c
        low, high = high, {j: c for j, c in step.items() if c}
    return high


def relabelled(d: LinkDiagram, seed: int) -> LinkDiagram:
    """d with its PD rows shuffled and its arcs given new labels: the same
    diagram, read by the planner in another order."""
    rng = random.Random(seed)
    arcs = sorted(d.arcs, key=repr)
    label = dict(zip(arcs, rng.sample(range(len(arcs)), len(arcs))))
    rows = [[label[arc] for arc in row] for row in d.crossings]
    rng.shuffle(rows)
    return LinkDiagram(rows, d.free_loops, d.name)


class TestRelabelling:
    """Shuffling the PD rows and relabelling the arcs moves the planner's
    tie-breaks, and so most box arcs and orders, but no value."""

    @pytest.mark.parametrize("d", [fixture(name).diagram for name in fixture_names()]
                             + [random_braid_closure(4 + seed % 5, seed)
                                for seed in range(8)])
    def test_bracket_and_colored_jones_are_unchanged(self, d):
        other = relabelled(d, 1)
        assert bracket(other) == bracket(d)
        for n in (2, 3):
            assert colored_jones(other, n) == colored_jones(d, n), n


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """d1 and d2 side by side, the arcs of d_i relabelled (i, arc)."""
    rows = [[(i, arc) for arc in row]
            for i, d in enumerate((d1, d2)) for row in d.crossings]
    return LinkDiagram(rows, d1.free_loops + d2.free_loops)


def connected_sum(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """d1 # d2: an arc of each is cut in two, and each half of d1's arc is
    joined to one half of d2's.  Either pairing of the halves is planar."""
    union = disjoint_union(d1, d2)
    a, b = (0, min(d1.arcs, key=repr)), (1, min(d2.arcs, key=repr))
    labels = [arc for row in union.crossings for arc in row]
    sa, sb = union.to[labels.index(a)], labels.index(b)  # a's second slot, b's first
    rows = [list(row) for row in union.crossings]
    rows[sa >> 2][sa & 3], rows[sb >> 2][sb & 3] = b, a
    return LinkDiagram(rows)


SUMMANDS = ["trefoil", "figure_eight", "5_2"]


@st.composite
def braid_words(draw):
    """(word, strands): a braid word of at most 6 letters on 2-3 strands
    that uses every generator, so that braid_closure, which drops a strand
    no crossing touches, leaves no circle out."""
    strands = draw(st.integers(2, 3))
    extra = draw(st.lists(st.integers(1, strands - 1), max_size=7 - strands))
    word = draw(st.permutations([*range(1, strands), *extra]))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(word),
                          max_size=len(word)))
    return [g * e for g, e in zip(word, signs)], strands


class TestMetamorphic:
    """colored_jones is multiplicative on split diagrams, and on knots
    multiplicative up to one Delta_n on connected sums; on braid closures
    a Markov stabilization multiplies it by the framing factor of a curl,
    and mirroring mirrors it."""

    @settings(max_examples=40, deadline=None)
    @given(braid_words(), st.sampled_from([1, -1]))
    def test_markov_stabilization(self, case, sign):
        # closing w sigma_s^(+-1) on s + 1 strands adds one curl to the
        # closure of w: J~_n gains (-1)^n A^(+-(n^2 + 2n))
        word, strands = case
        d = braid_closure(word, strands)
        stabilized = braid_closure(word + [sign * strands], strands + 1)
        for n in (1, 2, 3) if len(word) <= 3 else (1, 2):
            phase = LaurentPolynomial.monomial((-1) ** n, sign * (n * n + 2 * n))
            assert colored_jones(stabilized, n) == colored_jones(d, n) * phase, n

    @settings(max_examples=40, deadline=None)
    @given(braid_words())
    def test_mirror(self, case):
        d = braid_closure(*case)
        assert bracket(mirror(d)) == bracket(d).mirror()
        assert colored_jones(mirror(d), 2) == colored_jones(d, 2).mirror()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("names", [*itertools.combinations(SUMMANDS, 2),
                                       ("trefoil", "hopf")], ids="+".join)
    def test_disjoint_union(self, names, n):
        d1, d2 = (fixture(name).diagram for name in names)
        union = disjoint_union(d1, d2)
        assert colored_jones(union, n) == colored_jones(d1, n) * colored_jones(d2, n)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("names", itertools.combinations_with_replacement(SUMMANDS, 2),
                             ids="#".join)
    def test_connected_sum(self, names, n):
        d1, d2 = (fixture(name).diagram for name in names)
        total = connected_sum(d1, d2)
        assert len(total.components()) == 1
        assert (colored_jones(total, n) * quantum_dimension(n)
                == colored_jones(d1, n) * colored_jones(d2, n))


class TestSlotTableNetwork:
    """from_link sweeps the PD code's own slot table: cable_network's
    1-cable without boxes, its oracle, is that table, and colored_jones
    at n = 1 is the bracket."""

    @staticmethod
    def check(d):
        assert cable_network(d, 1, []) == ([CROSSING] * d.crossing_count, list(d.to))
        assert colored_jones(d, 1) == bracket(d)

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures_and_mirrors(self, name):
        d = fixture(name).diagram
        self.check(d)
        self.check(mirror(d))

    @settings(max_examples=40, deadline=None)
    @given(braid_words())
    def test_braid_closures(self, case):
        self.check(braid_closure(*case))

    def test_free_loops(self):
        d = parse_pd(TREFOIL + " / O / O")
        self.check(d)
        assert colored_jones(d, 1) == bracket(parse_pd(TREFOIL)) * DELTA ** 2
        assert colored_jones(parse_pd("O"), 1) == DELTA


def _two_coupon_diagram(link, arc1, arc2, c1, c2):
    """coupon_cable with coupon c1 at arc1 and c2 at arc2."""
    return DecoratedDiagram(*cable_network(link, 2, [(arc1, c1), (arc2, c2)]))


class TestRationalValues:
    """Partially closed projector networks live in Q(A), not Z[A, A^-1]."""

    def _chained_boxes(self):
        # box0 strand 0 closed on itself; strand 1 runs through box1,
        # whose other strand is also closed.  Worked out by hand: each
        # closed strand contributes Delta_2/Delta_1, the surviving circle
        # a Delta_1, so the value is Delta_2^2 / delta.
        box = projector_node(2)
        # ports 0-3 on box0, 4-7 on box1
        return DecoratedDiagram([box, box], [3, 4, 7, 0, 1, 6, 5, 2])

    def test_partial_closure_is_a_strict_quotient(self):
        from skeinlab.laurent import RationalFunction
        from skeinlab.skein_eval import evaluate_rational

        dd = self._chained_boxes()
        value = evaluate_rational(dd)
        q2 = quantum_dimension(2)
        assert value == RationalFunction(q2 * q2, DELTA)
        assert not value.den.is_unit()

    def test_laurent_evaluate_rejects_strict_quotients(self):
        with pytest.raises(ValueError, match="not divisible"):
            evaluate(self._chained_boxes())

    def test_rational_matches_laurent_on_links(self):
        from skeinlab.skein_eval import evaluate_rational

        dd = from_link(parse_pd(TREFOIL))
        assert evaluate_rational(dd).as_laurent() == evaluate(dd)
