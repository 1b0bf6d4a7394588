"""Exact bracket evaluation of decorated diagrams.

A decorated diagram is a closed tangle network: crossing nodes (bare
Kauffman crossings) and coupon nodes (boxes carrying a fixed linear
combination of planar matchings, e.g. a Jones-Wenzl projector), wired
together by a fixed-point-free involution on the ports.  Evaluation
resolves every node into its matchings and glues, producing the bracket
value in Z[A, A^-1] after one exact division by the accumulated coupon
denominator.

The sweep visits nodes one at a time.  Its running state is the
frontier, the ordered list of dangling ports, and a bag of terms: a
perfect matching on the frontier, keyed as a tuple of ints whose entry
at each slot is the slot of its partner, with an integer Laurent
coefficient.  Attaching a node sorts its ports once into internal,
closing (already on the frontier) and fresh (opening a new slot) ones,
and renumbers the slots that stay open.  How a term splices depends only
on the partners of the closing slots, so the event groups its terms by
that signature and traces the splice once per signature and local
matching with temperley_lieb.glue, the strand tracer that TL stacking
and partial trace use too -- the new pairs, and the closed loops worth
powers of delta = -A^2 - A^-2 -- dropping it after the group.  Each term
then costs one relabel of its kept slots plus a few patched entries, and
its coefficient times the local coefficient and the loop factor is added
straight into the destination term.

Turnback pruning.  A Jones-Wenzl box kills every turnback: f(n) e_i = 0.
Suppose a term joins ports i < j on one side of a box not yet swept.  In
a planar network the ports i+1..j-1 then close off in a disk, and every
crossingless matching of that disk turns back into the box, so the term
is worth exactly 0.  The sweep never builds such a term: each event tags
the new frontier slots that are same-side ports of one unswept box, and
drops every splice whose new strand joins two equal tags.  Only coupons
built with projector=True (projector_node) are pruned; a generic coupon
never is.  The argument needs a planar network, which colored_jones,
build_upsilon and cabled_diagram build from any planar PD code.

Peak width (dangling wire-ends) controls the cost.  A MorsePlan is an
attachment order, from a width greedy unless the caller gives one, and
the peak width of that order, which the width cap is checked against.
Among nodes that leave equal width the greedy sweeps projector boxes
last, since an unswept box prunes every row that caps it; that only
moves the order, so every value stays exact.  When deferring boxes would
peak wider than ignoring them, the plan is the order that ignores them.
"""
from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass

from .diagram import A_JOINS, B_JOINS, LinkDiagram, apply_state
from .laurent import (
    LaurentPolynomial,
    ONE,
    RationalFunction,
    divide_exact,
    loop_value,
    quantum_dimension,
    term_add,
    term_mul,
    term_shift,
)
from .temperley_lieb import PlanarMatching, cleared_projector, glue, top_point

DEFAULT_MAX_WIDTH = 24
_ENV_MAX_WIDTH = "SKEINLAB_MAX_WIDTH"

_DELTA = loop_value()


class ResourceLimitError(RuntimeError):
    """The evaluation would exceed the configured width budget."""


def resolve_max_width(max_width: int | None = None) -> int:
    if max_width is None:
        env = os.environ.get(_ENV_MAX_WIDTH)
        if not env:
            return DEFAULT_MAX_WIDTH
        try:
            max_width = int(env)
        except ValueError:
            raise ValueError(f"{_ENV_MAX_WIDTH} must be an integer, got {env!r}")
    if max_width < 0:
        raise ValueError(f"the width cap must be >= 0, got {max_width}")
    return max_width


class CrossingNode:
    """A bare crossing; ports 0..3 in the PD slot convention."""

    __slots__ = ()
    port_count = 4
    denominator = ONE
    projector = False

    # the A- and B-smoothings as partner tables, with monomial coefficients
    _TERMS = ((PlanarMatching(2, A_JOINS).partner, {1: 1}),
              (PlanarMatching(2, B_JOINS).partner, {-1: 1}))

    def local_terms(self):
        return self._TERMS

    def __repr__(self):
        return "CrossingNode()"


class CouponNode:
    """A box carrying an explicit element of TL_n, given as matchings of
    its 2n boundary points with integer Laurent coefficients over a
    common denominator.

    Ports use the circle convention of PlanarMatching: 0..n-1 across the
    bottom, then n..2n-1 across the top right to left.  Each term is held
    as the partner table of its PlanarMatching.

    `projector` declares that the element kills every turnback (e_i f = 0
    = f e_i), as a Jones-Wenzl box does; the sweep then drops each term
    that caps the box before reaching it.  Only projector_node sets it.
    """

    __slots__ = ("port_count", "denominator", "_terms", "label", "projector")

    def __init__(self, points: int, terms, denominator: LaurentPolynomial = ONE,
                 label: str = "", projector: bool = False):
        if points % 2:
            raise ValueError(f"a coupon has an even number of points, got {points}")
        self.port_count = points
        self.denominator = denominator
        self.label = label
        self.projector = projector
        self._terms = tuple(
            (PlanarMatching(points // 2, pairs).partner,
             dict(coeff.terms if isinstance(coeff, LaurentPolynomial) else coeff))
            for pairs, coeff in terms)

    def local_terms(self):
        return self._terms

    def __repr__(self):
        tag = self.label or f"{len(self._terms)} term(s)"
        return f"CouponNode({self.port_count} points, {tag})"


_PROJECTOR_CACHE: dict[int, CouponNode] = {}


def projector_node(n: int) -> CouponNode:
    """The Jones-Wenzl box f(n) as a coupon with cleared denominators."""
    node = _PROJECTOR_CACHE.get(n)
    if node is None:
        q, rows = cleared_projector(n)
        terms = [(m.pairs, coeff) for coeff, m in rows]
        node = CouponNode(2 * n, terms, q, label=f"f({n})", projector=True)
        _PROJECTOR_CACHE[n] = node
    return node


Port = tuple  # (node_index, port_index)


class DecoratedDiagram:
    """Nodes plus a closed wiring: every port is paired with exactly one
    other port (never itself)."""

    __slots__ = ("nodes", "pairing")

    def __init__(self, nodes, pairing: dict):
        self.nodes = tuple(nodes)
        full: dict[Port, Port] = {}
        for a, b in pairing.items():
            full[a] = b
            full[b] = a
        expected = {(ni, pi) for ni, node in enumerate(self.nodes)
                    for pi in range(node.port_count)}
        if set(full) != expected:
            missing = expected - set(full)
            extra = set(full) - expected
            raise ValueError(f"wiring mismatch: missing {sorted(missing)[:4]}, "
                             f"unknown {sorted(extra)[:4]}")
        for a, b in full.items():
            if a == b:
                raise ValueError(f"port {a} wired to itself")
            if full[b] != a:
                raise ValueError("wiring is not an involution")
        self.pairing = full

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def from_link(link: LinkDiagram) -> DecoratedDiagram:
    """The 1-cable: one crossing node per PD crossing, no free loops."""
    return cabled_diagram(link, 1)


# ---------------------------------------------------------------------------
# ordering


@dataclass(frozen=True)
class MorsePlan:
    """An attachment order and the peak width (dangling wire-ends) it
    reaches."""
    order: tuple
    peak_width: int


def morse_decompose(dd: DecoratedDiagram, order=None) -> MorsePlan:
    """Walk `order`, which must visit every node once, or else the width
    greedy's: each step takes the node leaving the fewest dangling ends,
    then a non-projector node before a projector box (an unswept box
    prunes every row that caps it; the order never changes a value), then
    the one with most wires into the swept region, then the lowest.  If
    that walk peaks wider than the walk that ignores boxes, the plan is
    the latter's order, so deferring boxes never widens a plan."""
    n = dd.node_count
    if order is not None:
        order = tuple(order)
        if sorted(order) != list(range(n)):
            raise ValueError("plan must visit every node exactly once")
    cross = [dict() for _ in range(n)]
    degree = [0] * n
    for ni, node in enumerate(dd.nodes):
        for pi in range(node.port_count):
            qn, _ = dd.pairing[(ni, pi)]
            if qn != ni:
                cross[ni][qn] = cross[ni].get(qn, 0) + 1
                degree[ni] += 1
    boxes = [node.projector for node in dd.nodes]
    plan = _walk(cross, degree, order, boxes)
    if order is None and any(boxes):
        plain = _walk(cross, degree, None, [False] * n)
        if plain.peak_width < plan.peak_width:
            return plain
    return plan


def _walk(cross: list, degree: list, order, boxes: list) -> MorsePlan:
    n = len(degree)
    done = [False] * n
    into = [0] * n  # wires from the processed region into each pending node
    # twice the width change of taking u, plus 1 if u is a box to defer:
    # the width after a step differs between candidates only by this
    rank = [2 * d + b for d, b in zip(degree, boxes)]
    chosen = []
    width = peak = 0
    for step in range(n):
        if order is not None:
            v = order[step]
        else:
            bestkey = None
            for u in range(n):
                if done[u]:
                    continue
                key = (rank[u], -into[u], u)
                if bestkey is None or key < bestkey:
                    bestkey = key
                    v = u
        done[v] = True
        width += degree[v] - 2 * into[v]
        peak = max(peak, width)
        chosen.append(v)
        for u, c in cross[v].items():
            if not done[u]:
                into[u] += c
                rank[u] -= 4 * c
    return MorsePlan(tuple(chosen), peak)


# ---------------------------------------------------------------------------
# the sweep


@functools.cache
def _delta_power(k: int) -> dict:
    """delta^k as a term dict; shared, so callers must not mutate it."""
    return (_DELTA ** k).terms


def evaluate(dd: DecoratedDiagram, order=None,
             max_width: int | None = None,
             max_terms: int | None = None) -> LaurentPolynomial:
    """Bracket value of a closed decorated diagram in Z[A, A^-1].

    Links and fully cabled diagrams always land in the Laurent ring; a
    partially smoothed projector network need not (closing a strand over
    part of a box leaves quantum integers in the denominator), and then
    this raises — evaluate_rational is the total version.  `order` is an
    attachment order for morse_decompose; by default the greedy picks one.
    """
    value, denominator = _sweep(dd, order, max_width, max_terms)
    if value.is_zero() or denominator == ONE:
        return value
    return divide_exact(value, denominator)


def evaluate_rational(dd: DecoratedDiagram, order=None,
                      max_width: int | None = None,
                      max_terms: int | None = None) -> RationalFunction:
    """Exact value of a closed decorated diagram in Q(A), reduced."""
    value, denominator = _sweep(dd, order, max_width, max_terms)
    return RationalFunction(value, denominator)


def _sweep(dd: DecoratedDiagram, order=None,
           max_width: int | None = None,
           max_terms: int | None = None):
    """Run the attachment sweep; return (integer Laurent total, accumulated
    coupon denominator) before the final division."""
    plan = morse_decompose(dd, order)
    cap = resolve_max_width(max_width)
    if plan.peak_width > cap:
        raise ResourceLimitError(
            f"plan needs width {plan.peak_width}, budget is {cap} "
            f"(raise with --max-width or {_ENV_MAX_WIDTH})")

    # half the point count of each projector box, 0 for every other node;
    # None when there is no box to prune against
    box_half = [node.port_count // 2 if node.projector else 0 for node in dd.nodes]
    if not any(box_half):
        box_half = None
    processed = [False] * dd.node_count
    denominator = ONE
    frontier: list = []  # the dangling ports; a port's index is its slot
    # term bag: partner-slot tuple -> integer Laurent coefficient dict
    terms: dict[tuple, dict] = {(): {0: 1}}

    for ni in plan.order:
        node = dd.nodes[ni]
        denominator = denominator * node.denominator
        step = _EventStep(dd, ni, frontier, processed, box_half)
        closing_of = _slot_getter(step.closing)
        kept_of = _slot_getter(step.kept)
        relabel = step.relabel.__getitem__
        pad = step.pad
        # terms grouped by the partners of the closing slots, so that each
        # signature's splice is worked out once and dropped after its group
        groups: dict = {}
        for item in terms.items():
            signature = closing_of(item[0])
            group = groups.get(signature)
            if group is None:
                groups[signature] = [item]
            else:
                group.append(item)
        del terms  # the groups hold every term now; free the old table early

        new_terms: dict[tuple, dict] = {}
        for signature, group in groups.items():
            rows = step.splices(signature)
            if not rows:
                continue
            for key, coeff in group:
                base = [*map(relabel, kept_of(key)), *pad]
                # every row rewrites the same end slots, so base is reused
                for partners, factor in rows:
                    for slot, partner in partners.items():
                        base[slot] = partner
                    new_key = tuple(base)
                    dest = new_terms.get(new_key)
                    if dest is None:
                        new_terms[new_key] = dest = {}
                    get = dest.get
                    for e, c in factor:
                        for x, v in coeff.items():
                            x += e
                            dest[x] = get(x, 0) + c * v
        del groups  # release the old coefficients before compacting

        terms = {}
        for key, coeff in new_terms.items():
            if 0 in coeff.values():
                coeff = {x: v for x, v in coeff.items() if v}
                if not coeff:
                    continue
            terms[key] = coeff
        frontier = step.frontier
        processed[ni] = True
        if max_terms is not None and len(terms) > max_terms:
            raise ResourceLimitError(
                f"{len(terms)} live matchings exceeds the cap of {max_terms}")
        if not terms:
            break

    total: dict = {}
    for key, coeff in terms.items():
        if key:
            raise AssertionError("sweep finished with dangling wires")
        total = coeff
    return LaurentPolynomial(total), denominator


def _slot_getter(slots: list):
    """key -> tuple of key[s] for s in slots."""
    if len(slots) > 1:
        return operator.itemgetter(*slots)
    if slots:
        [s] = slots
        return lambda key: (key[s],)
    return lambda key: ()


class _EventStep:
    """The tables of one node's attachment, shared by every term.

    The node's ports fall into three classes: internal (wired to another
    port of the node), closing (wired into the swept region, so on the
    frontier at a closing slot) and fresh (wired to a node not yet swept,
    so opening a new slot).  The slots that stay open keep their order and
    are renumbered 0..len(kept)-1; fresh ports follow in port order.
    """

    __slots__ = ("local_terms", "closing", "kept", "relabel", "pad",
                 "frontier", "_back", "_end", "_closing_port", "_factors",
                 "_tags")

    def __init__(self, dd: DecoratedDiagram, ni: int, frontier: list,
                 processed: list, box_half: list | None):
        node = dd.nodes[ni]
        nports = node.port_count
        slot_of = {port: s for s, port in enumerate(frontier)}
        # the outside wire of port p re-enters the node at _back[p], or
        # else ends at the new slot _end[p] (closing ports: per signature)
        self._back: list = [None] * nports
        self._end: list = [None] * nports
        self._closing_port: dict = {}
        self.closing = []
        fresh = []
        for pi in range(nports):
            qn, qp = dd.pairing[(ni, pi)]
            if qn == ni:
                self._back[pi] = qp
            elif processed[qn]:
                s = slot_of[(ni, pi)]
                self.closing.append(s)
                self._closing_port[s] = pi
            else:
                fresh.append((pi, (qn, qp)))
        self.kept = [s for s in range(len(frontier))
                     if s not in self._closing_port]
        # closing slots map to -1; the splice rewrites every entry that
        # held one, and the fresh slots (pad)
        self.relabel = [-1] * len(frontier)
        for new, s in enumerate(self.kept):
            self.relabel[s] = new
        self.frontier = [frontier[s] for s in self.kept]
        for pi, port in fresh:
            self._end[pi] = len(self.frontier)
            self.frontier.append(port)
        self.pad = (-1,) * len(fresh)
        self.local_terms = node.local_terms()
        self._factors: dict = {}
        # every new slot is a port of a node not yet swept; its tag is
        # 2 * box + side for a port of a projector box, else a negative
        # number no other slot has.  None when no two slots share a tag,
        # so that no row can cap a box
        self._tags = None
        if box_half is not None:
            tags = [2 * qn + (qp >= box_half[qn]) if box_half[qn] else -1 - s
                    for s, (qn, qp) in enumerate(self.frontier)]
            if len(set(tags)) < len(tags):
                self._tags = tags

    def splices(self, signature: tuple) -> list:
        """One row (partners, factor) per local matching of the node, for a
        term whose closing slots have the given partners: partners maps
        each new slot where a spliced strand ends to the slot of its other
        end, and factor holds the (exponent, coefficient) items of local
        coefficient * delta^loops.

        A row whose new strand joins two slots with equal tags caps an
        unswept projector, is worth exactly 0 (see the module docstring)
        and is left out.  Strands between kept slots were checked when
        they were made, so only the new ones need the check."""
        back = list(self._back)
        end = list(self._end)
        for s, partner in zip(self.closing, signature):
            pi = self._closing_port[s]
            if partner in self._closing_port:
                back[pi] = self._closing_port[partner]
            else:
                end[pi] = self.relabel[partner]
        tags = self._tags
        rows = []
        for li, (local_map, local_coeff) in enumerate(self.local_terms):
            partners, loops = glue(local_map, back, end)
            if tags is not None and any(tags[a] == tags[b]
                                        for a, b in partners.items()):
                continue
            factor = self._factors.get((li, loops))
            if factor is None:
                factor = self._factors[(li, loops)] = (
                    term_mul(local_coeff, _delta_power(loops)).items()
                    if loops else local_coeff.items())
            rows.append((partners, factor))
        return rows


# ---------------------------------------------------------------------------
# brackets and cables


def bracket(link: LinkDiagram, max_width: int | None = None) -> LaurentPolynomial:
    """Kauffman bracket, normalized so the empty diagram gives 1 and a
    crossing-free circle gives delta."""
    value = evaluate(from_link(link), max_width=max_width)
    return value * _DELTA ** link.free_loops if link.free_loops else value


BRUTE_FORCE_LIMIT = 20


def bracket_bruteforce(link: LinkDiagram) -> LaurentPolynomial:
    """Plain 2^k state sum; the independent oracle for the sweep."""
    k = link.crossing_count
    if k > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"{k} crossings is past the brute-force limit")
    total: dict = {}
    for state in itertools.product("AB", repeat=k):
        graph = apply_state(link, state)
        exponent = sum(1 if s == "A" else -1 for s in state)
        circles = graph.circle_count  # free loops are already counted
        contribution = term_shift(_delta_power(circles), exponent)
        total = term_add(total, contribution)
    return LaurentPolynomial(total)


@functools.cache
def _grid_template(m: int):
    """The m x m grid at base 0, node (u, o) at u*m + o counting from 0:
    its internal wires as (node, port, node, port) rows, its stub table."""
    wires = [(u * m + o, 2, u * m + o + 1, 0) for u in range(m) for o in range(m - 1)]
    wires += [(u * m + o, 1, u * m + o + m, 3) for o in range(m) for u in range(m - 1)]
    last = m * m - 1
    stubs = [(i * m, 0) for i in range(m)] + [(last - m + 1 + i, 1) for i in range(m)]
    stubs += [(last - i * m, 2) for i in range(m)] + [(m - 1 - i, 3) for i in range(m)]
    return tuple(wires), tuple(stubs)


def _crossing_grid(pairing: dict, base: int, m: int) -> list:
    """Wire the m x m grid of crossing nodes base..base+m*m-1 into
    `pairing`, node (u, o) at base + (u-1)*m + (o-1): under-strand u runs
    bottom (slot 0) to top (slot 2), over-strand o left (slot 3) to right
    (slot 1).  Returns the flat stub table: entry slot*m + idx-1 is the
    grid port of the boundary stub with counterclockwise index idx (1..m)
    at that slot."""
    wires, stubs = _grid_template(m)
    for a, pa, b, pb in wires:
        pairing[(base + a, pa)] = (base + b, pb)
    return [(base + node, slot) for node, slot in stubs]


def cable_ports(link: LinkDiagram, m: int):
    """Port-level wiring of the blackboard m-cable.

    Returns (crossing_node_count, internal_pairing, band_ends) where
    band_ends[(arc, i)] = (first-end port, second-end port): the two grid
    ports tied by band i of `arc`, the first at the arc's first PD slot
    (stub index i), the second at the other end (stub index m+1-i).
    """
    if m < 1:
        raise ValueError("cable width must be >= 1")
    k = link.crossing_count
    pairing: dict[Port, Port] = {}
    stubs = [_crossing_grid(pairing, block * m * m, m) for block in range(k)]
    band_ends = {}
    for arc in link.arcs:
        (c1, p1), (c2, p2) = link.arc_slots(arc)
        first, second = stubs[c1], stubs[c2]
        for i in range(m):
            band_ends[(arc, i + 1)] = (first[p1 * m + i], second[p2 * m + m - 1 - i])
    return k * m * m, pairing, band_ends


def cabled_diagram(link: LinkDiagram, m: int, box_arcs=(),
                   coupon: CouponNode | None = None) -> DecoratedDiagram:
    """The blackboard m-cable of `link` with a coupon (default: the
    Jones-Wenzl box f(m)) spliced across the cable at each arc in
    `box_arcs`.  Free loops of `link` are *not* carried over; the caller
    decides what a closed cabled loop is worth."""
    box_arcs = list(box_arcs)
    n_grid, pairing, band_ends = cable_ports(link, m)
    nodes: list = [CrossingNode() for _ in range(n_grid)]
    boxed = {}
    for bi, arc in enumerate(box_arcs):
        if arc in boxed:
            raise ValueError(f"arc {arc!r} boxed twice")
        node = coupon if coupon is not None else projector_node(m)
        if node.port_count != 2 * m:
            raise ValueError("coupon size must match the cable width")
        boxed[arc] = len(nodes)
        nodes.append(node)
    for (arc, i), (end1, end2) in band_ends.items():
        bn = boxed.get(arc)
        if bn is None:
            pairing[end1] = end2
        else:
            # band i enters the box bottom at position i-1 and leaves the
            # top at the same position, continuing to the reversed stub
            pairing[end1] = (bn, i - 1)
            pairing[(bn, top_point(i - 1, m))] = end2
    return DecoratedDiagram(nodes, pairing)


def _component_box_arcs(link: LinkDiagram):
    return [min(comp, key=repr) for comp in link.components()]


def colored_jones(link: LinkDiagram, n: int,
                  max_width: int | None = None) -> LaurentPolynomial:
    """Unreduced n-colored Jones polynomial in the Kauffman variable,
    blackboard framing: the n-cable with one Jones-Wenzl box per
    component.  The 0-crossing unknot gives the loop polynomial of f(n)."""
    if n < 0:
        raise ValueError("color must be >= 0")
    resolve_max_width(max_width)  # reject a bad cap even when no sweep runs
    if n == 0:
        return LaurentPolynomial.one()
    box_arcs = _component_box_arcs(link) if n >= 2 else []
    value = evaluate(cabled_diagram(link, n, box_arcs), max_width=max_width)
    return value * quantum_dimension(n) ** link.free_loops if link.free_loops else value
