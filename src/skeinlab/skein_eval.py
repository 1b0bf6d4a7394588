"""Exact bracket evaluation of decorated diagrams.

A decorated diagram is a closed tangle network of coupon nodes, boxes
each carrying a fixed linear combination of planar matchings over one
denominator, wired together by a fixed-point-free involution on the
ports.  A crossing is the 4-point coupon CROSSING, the TL_2 element
A (A-smoothing) + A^-1 (B-smoothing) of the Kauffman skein relation; a
Jones-Wenzl box f(n) is projector_node(n).  Evaluation resolves every
node into its matchings and glues, producing the bracket value in
Z[A, A^-1] after one exact division by the accumulated denominator.

The sweep visits nodes one at a time.  Its running state is the
frontier, the dangling port at each slot, and a bag of terms: a perfect
matching on the frontier, keyed as a tuple whose entry at each slot is
the slot of its partner, with an integer Laurent coefficient.  Slots are
stable (_EventStep): a closing slot becomes a hole, -1 in every key, the
next fresh port takes the lowest hole, and trailing holes are trimmed,
so no open slot is renumbered and no key outgrows the plan's peak width.
An event groups its terms by the partners of the node's closing slots.
Such a signature only fixes which ports the outside wires join, and each
node keeps its local matchings glued to every such pattern, once per
digit width, by temperley_lieb.glue, the strand tracer that TL stacking
and partial trace use too (CouponNode.glued).  A signature maps those
rows' strand ends to slots; a term's new key is its old one cut or
padded, vacated slots set to -1, each row's strand ends written in.

Packed coefficients.  A coefficient is a pair (lo, v): the int v =
sum c_i 2^(W i) of balanced digits |c_i| < 2^(W-1) stands for sum c_i
A^(lo + 4i).  On a planar network of crossings and Jones-Wenzl boxes
every coefficient keeps its exponents in one residue class mod 4.  A
factor or a collision that mixes residues (a PD code that is not planar,
or a coupon whose terms mix them) raises ValueError: the sweep fails
closed and never returns a value it cannot pack.  A row's factor, local
coefficient times delta^loops, is packed once per node, outside-wire
pattern and W, so a row costs one multiply (an A^+-1 row none) and
adding into a destination one shift and one add.  Digits cannot
overflow: each event multiplies a bound on the bag's total L1 norm, which
bounds every digit of every partial sum, by a bound on the L1 norm its
rows can give one term, and repacks the bag, and its rows, at a wider W
first if the bound reaches 2^(W-2).

Turnback pruning.  A Jones-Wenzl box kills every turnback: f(n) e_i = 0.
Suppose a term joins ports i < j on one side of a box not yet swept.  In
a planar network the ports i+1..j-1 then close off in a disk, and every
crossingless matching of that disk turns back into the box, so the term
is worth exactly 0.  The sweep never builds such a term: each event tags
each new slot at a box port with its side tag, 2 * box + (1 on the top)
(_side), and drops every splice whose new strand joins two equal tags.
Only coupons built with projector=True (projector_node) are pruned; a
generic coupon never is.  The argument needs a planar network, so
cabled_diagram, build_upsilon and lambda_diagram raise ValueError on a
PD code that is not planar whenever they place f(n) boxes with n >= 2.

One builder, cable_network, wires every network as an n-cable: n x n
grids (J~), (n-1) x (n-1) grids and chords (Y(s)), or chords (Lambda).

Live matchings set the cost, and the peak width (dangling wire-ends)
bounds them.  A MorsePlan is the attachment order of a width greedy and
the peak width of that order, which the width cap is checked against
before any box's terms are built (projector_node builds f(n) on first
use).  The greedy sweeps projector boxes last among nodes that leave
equal width, since an unswept box prunes every row that caps it; that
only moves the order, so every value stays exact.  Only when that walk
passes the cap does morse_decompose walk the plain greedy, which ignores
the boxes, and keep the narrower.  One reader (_graph) turns the wiring
a network sweeps into the walk's inputs.

Where the box goes is the one choice a prediction makes.  colored_jones
walks one network per arc that could carry each component's box
(_place_boxes) and sweeps the one whose walk predicts the fewest live
matchings: at each event, the crossingless matchings of the frontier
that join no two slots with one side tag, counted as if each box side
held consecutive frontier slots (_matching_count).  The value does not
depend on that arc, but the cost does (the figure-eight's J~_4 cable
holds 54,056 matchings in all with the box on the first arc and 12,164
on the chosen one).
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import os
from dataclasses import dataclass

from .diagram import A_JOINS, B_JOINS, LinkDiagram, apply_state, is_planar
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


def resolve_max_width(max_width: int | None) -> int:
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


class CouponNode:
    """A box carrying an explicit element of TL_n, given as matchings of
    its 2n boundary points with integer Laurent coefficients over a
    common denominator: the one node type of a network.

    Ports use the circle convention of PlanarMatching: 0..n-1 across the
    bottom, then n..2n-1 across the top right to left; on CROSSING they
    are the PD slots 0..3.  Each term is held as the partner table of its
    PlanarMatching.

    `projector` declares that the element kills every turnback (e_i f = 0
    = f e_i), as a Jones-Wenzl box does; the sweep then drops each term
    that caps the box before reaching it.  Only projector_node sets it.

    The denominator is 1, unless `terms` is a function returning (terms,
    denominator), called on the first read of either: the planner reads
    only the port count and the flag, so projector_node's f(n) is built
    only once a plan has passed the width cap.
    """

    __slots__ = ("port_count", "_form", "label", "projector", "_glued")

    def __init__(self, points: int, terms, label: str = "", projector: bool = False):
        if points % 2:
            raise ValueError(f"a coupon has an even number of points, got {points}")
        self.port_count = points
        self.label = label
        self.projector = projector
        self._glued: dict = {}
        self._form = terms
        if not callable(terms):
            self._form = lambda: (terms, ONE)
            self.local_terms()  # check the given terms now

    def local_terms(self):
        """(partner table, coefficient term dict) per term; built here on
        the first read when the coupon was given a function."""
        if callable(self._form):
            terms, denominator = self._form()
            self._form = denominator, tuple(
                (PlanarMatching(self.port_count // 2, pairs).partner,
                 dict(coeff.terms if isinstance(coeff, LaurentPolynomial) else coeff))
                for pairs, coeff in terms)
        return self._form[1]

    @property
    def denominator(self) -> LaurentPolynomial:
        self.local_terms()
        return self._form[0]

    def glued(self, back: tuple, width: int) -> tuple:
        """Every local matching glued once to the outside wires `back`
        (back[p] is the port where p's wire re-enters the node, None where
        it leaves): (rows, their total weight), one row (strand-end port
        pairs, lo, v, weight) per local matching, (lo, v) its coefficient
        times delta^loops packed at `width` and weight the coefficient's
        L1 norm << loops.  Worked out once per node, pattern and width."""
        table = self._glued.get((back, width))
        if table is None:
            rows = []
            for local_map, coeff in self.local_terms():
                partners, loops = glue(local_map, back, range(self.port_count))
                rows.append((tuple((a, b) for a, b in partners.items() if a < b),
                             *_pack(term_mul(coeff, _delta_power(loops)), width),
                             sum(map(abs, coeff.values())) << loops))
            table = self._glued[back, width] = tuple(rows), sum(row[3] for row in rows)
        return table

    def __repr__(self):
        tag = self.label or f"{len(self.local_terms())} term(s)"
        return f"CouponNode({self.port_count} points, {tag})"


# a bare crossing: the A- and B-smoothings of its PD slots
CROSSING = CouponNode(4, ((A_JOINS, {1: 1}), (B_JOINS, {-1: 1})), label="crossing")


@functools.cache
def projector_node(n: int) -> CouponNode:
    """The Jones-Wenzl box f(n) as a coupon with cleared denominators,
    which Wenzl's recursion fills in on their first read."""
    def form():
        q, rows = cleared_projector(n)
        return [(m.pairs, coeff) for coeff, m in rows], q
    return CouponNode(2 * n, form, label=f"f({n})", projector=True)


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


def morse_decompose(dd: DecoratedDiagram, max_width=None) -> MorsePlan:
    """Walk the width greedy that defers the network's projector boxes, on
    the network as _graph reads it: every plan the sweep runs comes from
    here.  Only when that walk passes the width cap `max_width` is the
    plain greedy, which ignores the boxes, walked too, and the narrower of
    the two kept (the deferring one on ties), for the sweep's cap check to
    name."""
    half = _halves(dd.nodes)
    cross, degree, _ = _graph(half, ((p, q) for p, q in dd.pairing.items() if p < q))
    plan = MorsePlan(*_walk(cross, degree, [h > 0 for h in half])[:2])
    if plan.peak_width > resolve_max_width(max_width):
        plain = MorsePlan(*_walk(cross, degree, [False] * dd.node_count)[:2])
        if plain.peak_width < plan.peak_width:
            return plain
    return plan


def _halves(nodes) -> list:
    """Half the point count of each projector box, 0 for every other node."""
    return [node.port_count // 2 if node.projector else 0 for node in nodes]


def _side(half: list, port: Port) -> int:
    """The side tag of a port of a projector box: twice the box, +1 on top."""
    return 2 * port[0] + (port[1] >= half[port[0]])


def _graph(half: list, wires) -> tuple:
    """The one reader of wiring for planning: (cross, degree, sides) of the
    nodes with box halves `half` (_halves) joined by `wires`, (port, port)
    pairs each given once.  cross[u][v] counts the wires between distinct
    nodes u and v, degree[u] the wires from u to other nodes, and sides[u]
    lists the side tags (_side) of u's wires into boxes; sides is None when
    there is no box."""
    cross = [{} for _ in half]
    degree = [0] * len(half)
    sides = [[] for _ in half] if any(half) else None
    for p, q in wires:
        a, b = p[0], q[0]
        if a != b:
            cross[a][b] = cross[a].get(b, 0) + 1
            cross[b][a] = cross[b].get(a, 0) + 1
            degree[a] += 1
            degree[b] += 1
        if sides is not None:
            if half[b]:
                sides[a].append(_side(half, q))
            if half[a]:
                sides[b].append(_side(half, p))
    return cross, degree, sides


def _walk(cross: list, degree: list, boxes: list, sides=None) -> tuple:
    """Walk the width greedy and return its (order, peak width, predicted
    live matchings).  Each step takes the node leaving the fewest dangling
    ends, then one not flagged in `boxes` before one that is, then the one
    with most wires into the swept region, then the lowest.

    cross, degree and sides are as _graph reads them.  The prediction
    needs sides, and only the box placement passes them: each event adds
    the turnback-free matchings of its frontier, _matching_count of its
    width and of the wires from the swept region into each side (tag) of
    the unswept boxes.  Without sides the prediction is 0."""
    n = len(degree)
    done = [False] * n
    into = [0] * n  # wires from the processed region into each pending node
    # the greedy's key (rank, -into, u) packed into one int, where rank is
    # twice the width change of taking u, plus 1 if u is a box to defer:
    # the width after a step differs between candidates only by that
    radix = max(degree, default=0) + 1
    key = [((2 * d + b) * radix + radix - 1) * n + u
           for u, (d, b) in enumerate(zip(degree, boxes))]
    # a wire into the swept region lowers rank by 4 and -into by 1
    drop = (4 * radix + 1) * n
    # every key each node has had: keys only fall, so a popped key is
    # current exactly when it equals key[k % n], and a node's current key
    # leaves the heap when the node is taken
    heap = list(key)
    heapq.heapify(heap)
    pop, push, count = heapq.heappop, heapq.heappush, _matching_count
    reached: dict = {}  # side tag of an unswept box -> wires from the swept region
    blocks = ()
    chosen = []
    width = peak = cost = 0
    for _ in range(n):
        k = pop(heap)
        while key[k % n] != k:
            k = pop(heap)
        v = k % n
        done[v] = True
        width += degree[v] - 2 * into[v]
        if width > peak:
            peak = width
        chosen.append(v)
        for u, c in cross[v].items():
            if not done[u]:
                into[u] += c
                key[u] -= c * drop
                push(heap, key[u])
        if sides is not None:
            tags = sides[v]
            if reached.pop(2 * v, 0) + reached.pop(2 * v + 1, 0) or tags:
                for t in tags:
                    if not done[t >> 1]:
                        reached[t] = reached.get(t, 0) + 1
                blocks = tuple(sorted(e for e in reached.values() if e > 1))
            cost += count(width, blocks)
    return tuple(chosen), peak, cost


@functools.cache
def _matching_count(width: int, blocks: tuple) -> int:
    """Crossingless perfect matchings of `width` points on a circle that
    join no two points of one block, where the blocks take blocks[0],
    blocks[1], ... consecutive points and the rest are free: the walk's
    prediction of the live matchings of a frontier whose unswept boxes
    have that many wires into each side."""
    label = [b for b, size in enumerate(blocks) for _ in range(size)]
    label += range(-1, len(label) - width - 1, -1)
    # count[i][j]: matchings of points i..j-1, for even j - i
    count = [[1] * (width + 1) for _ in range(width + 1)]
    for length in range(2, width + 1, 2):
        for i in range(width - length + 1):
            j = i + length
            inner = count[i + 1]
            total = 0
            for k in range(i + 1, j, 2):
                if label[k] != label[i]:
                    total += inner[k] * count[k + 1][j]
            count[i][j] = total
    return count[0][width]


# ---------------------------------------------------------------------------
# the sweep


@functools.cache
def _delta_power(k: int) -> dict:
    """delta^k as a term dict; shared, so callers must not mutate it."""
    return (_DELTA ** k).terms


def evaluate(dd: DecoratedDiagram, max_width: int | None = None) -> LaurentPolynomial:
    """Bracket value of a closed decorated diagram in Z[A, A^-1], swept
    along the plan morse_decompose makes.

    Links and fully cabled diagrams always land in the Laurent ring; a
    partially smoothed projector network need not (closing a strand over
    part of a box leaves quantum integers in the denominator), and then
    this raises — evaluate_rational is the total version.  A network
    whose coefficients leave one residue class mod 4 (one that is not
    planar, or a coupon whose terms mix residues) raises ValueError.
    """
    value, denominator = _sweep(dd, max_width)
    if value.is_zero() or denominator == ONE:
        return value
    return divide_exact(value, denominator)


def evaluate_rational(dd: DecoratedDiagram,
                      max_width: int | None = None) -> RationalFunction:
    """Exact value of a closed decorated diagram in Q(A), reduced."""
    value, denominator = _sweep(dd, max_width)
    return RationalFunction(value, denominator)


def _sweep(dd: DecoratedDiagram, max_width: int | None):
    """Run the attachment sweep; return (integer Laurent total, accumulated
    coupon denominator) before the final division."""
    cap = resolve_max_width(max_width)
    plan = morse_decompose(dd, cap)
    if plan.peak_width > cap:
        raise ResourceLimitError(
            f"plan needs width {plan.peak_width}, budget is {cap} "
            f"(raise with --max-width or {_ENV_MAX_WIDTH})")
    denominator = math.prod((q for ni in plan.order
                             if (q := dd.nodes[ni].denominator) != ONE), start=ONE)
    return LaurentPolynomial(_contract(dd, plan.order)), denominator


_MIXED_RESIDUES = ("a coefficient left one residue class mod 4: the network is "
                   "not planar, or a coupon's terms mix residues")


def _pack(coeff: dict, width: int) -> tuple:
    """(lo, v) with v = sum of c * 2^(width * i) over the terms c A^(lo +
    4i) of `coeff`: its balanced digits, each below 2^(width-1)."""
    lo = min(coeff)
    if any((e - lo) % 4 for e in coeff):
        raise ValueError(_MIXED_RESIDUES)
    return lo, sum(c << (e - lo) // 4 * width for e, c in coeff.items())


def _unpack(lo: int, v: int, width: int) -> dict:
    """The term dict of the packed coefficient (lo, v); _pack's inverse."""
    out, half = {}, 1 << width - 1
    while v:
        c = (v + half) % (2 * half) - half
        if c:
            out[lo] = c
        v, lo = (v - c) >> width, lo + 4
    return out


def _contract(dd: DecoratedDiagram, order) -> dict:
    """Sweep `order` with every coefficient packed (see _pack); return
    the total's term dict, or raise ValueError on mixed residues."""
    # None when there is no box to prune against
    half = _halves(dd.nodes)
    if not any(half):
        half = None
    processed = [False] * dd.node_count
    frontier, slot_of = [], {}  # see _EventStep
    # term bag: partner-slot tuple (-1 at a hole) -> packed coefficient
    # [lo, v]; bound is at least the bag's total L1 norm, so it bounds every digit
    terms: dict[tuple, list] = {(): [0, 1]}
    width, bound = 32, 1

    for ni in order:
        step = _EventStep(dd, ni, frontier, slot_of, processed, half)
        splices = step.splices
        closing_of = _slot_getter(step.closing)
        # terms grouped by the partners of the closing slots, so that each
        # signature's splice is worked out once
        groups: dict = {}
        for item in terms.items():
            signature = closing_of(item[0])
            group = groups.get(signature)
            if group is None:
                groups[signature] = [item]
            else:
                group.append(item)
        del terms  # the groups hold every term now; free the old table early

        # rows of every signature first: the most L1 norm they give one
        # term (grow; a row's is at most its weight, its local coefficient's
        # times 2^loops, the norm of delta^loops) sets the bound and the width
        work, grow = [], 0
        for signature, group in groups.items():
            rows, weight = splices(signature, width)
            if rows:
                work.append((signature, rows, group))
                grow = max(grow, weight)
        del groups
        bound *= grow
        if bound.bit_length() > width - 2:
            # the least multiple of 32 bits that leaves the bound 2 to spare
            old, width = width, (bound.bit_length() + 33) // 32 * 32
            for i, (signature, _, group) in enumerate(work):
                work[i] = signature, splices(signature, width)[0], group
                for _, coeff in group:
                    coeff[:] = _pack(_unpack(*coeff, old), width)

        new_terms: dict[tuple, list] = {}
        size, pad, vacated = len(step.frontier), step.pad, step.vacated
        work.reverse()
        while work:  # each group's rows and old terms go once it is spliced
            _, rows, group = work.pop()
            for key, (lo, v) in group:
                # kept slots never move: cut or pad the key, mark the holes
                base = [*key[:size], *pad]
                for s in vacated:
                    base[s] = -1
                # every row rewrites the same end slots, so base is reused
                for partners, flo, fv, _ in rows:
                    for a, b in partners:
                        base[a] = b
                        base[b] = a
                    new_key = tuple(base)
                    x = lo + flo
                    y = v if fv == 1 else v * fv
                    dest = new_terms.get(new_key)
                    if dest is None:
                        new_terms[new_key] = [x, y]
                        continue
                    d = x - dest[0]
                    if d % 4:
                        raise ValueError(_MIXED_RESIDUES)
                    if d >= 0:
                        dest[1] += y << d // 4 * width
                    else:
                        dest[:] = x, (dest[1] << -d // 4 * width) + y

        terms = {key: coeff for key, coeff in new_terms.items() if coeff[1]}
        frontier = step.frontier
        processed[ni] = True
        if not terms:
            break

    total: dict = {}
    for key, coeff in terms.items():
        if key:
            raise AssertionError("sweep finished with dangling wires")
        total = _unpack(*coeff, width)
    return total


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
    frontier at a closing slot) and fresh (wired to a node not yet swept).
    A closing slot becomes a hole, each fresh port in port order takes the
    lowest hole or else a new slot at the end, and trailing holes are
    trimmed: a term's new key is its old one cut or padded (pad) to the
    new frontier's length, with the vacated slots (closing slots left
    holes) set to -1.  `frontier` holds the port at each slot, None at a
    hole; `slot_of`, each such port's slot, is kept across events, and the
    step moves the closing ports out of it and the fresh ports in.
    """

    __slots__ = ("closing", "vacated", "pad", "frontier",
                 "_glued", "_back", "_end", "_closing_port", "_tags")

    def __init__(self, dd: DecoratedDiagram, ni: int, frontier: list,
                 slot_of: dict, processed: list, half: list | None):
        node = dd.nodes[ni]
        nports = node.port_count
        # the outside wire of port p re-enters the node at _back[p], or
        # else ends at slot _end[p] (closing ports: per signature)
        self._back: list = [None] * nports
        self._end: list = [None] * nports
        self._closing_port: dict = {}
        self.closing = []
        self.frontier = new = list(frontier)
        fresh = []
        for pi in range(nports):
            port = dd.pairing[(ni, pi)]
            if port[0] == ni:
                self._back[pi] = port[1]
            elif processed[port[0]]:
                s = slot_of.pop((ni, pi))
                self.closing.append(s)
                self._closing_port[s] = pi
                new[s] = None
            else:
                fresh.append((pi, port))
        new += [None] * len(fresh)
        for (pi, port), s in zip(fresh, [s for s, q in enumerate(new) if q is None]):
            new[s] = port
            slot_of[port] = self._end[pi] = s
        while new and new[-1] is None:
            new.pop()
        self.vacated = [s for s in self.closing if s < len(new) and new[s] is None]
        self.pad = (-1,) * (len(new) - len(frontier))
        self._glued = node.glued
        # every live slot holds a port of a node not yet swept; its tag is
        # the side tag (_side) of a port of a projector box, else a negative
        # number no other slot has.  None when no two slots share a tag,
        # so that no row can cap a box
        self._tags = None
        if half is not None:
            tags = [_side(half, port) if port and half[port[0]] else -1 - s
                    for s, port in enumerate(new)]
            if len(set(tags)) < len(tags):
                self._tags = tags

    def splices(self, signature: tuple, width: int) -> tuple:
        """(rows, their total weight) for a term whose closing slots have
        the given partners: the rows (partners, lo, v, weight) of
        CouponNode.glued at `width`, partners pairing the slots where each
        spliced strand ends, each pair once.

        A row whose new strand joins two slots with equal tags caps an
        unswept projector, is worth exactly 0 (see the module docstring)
        and is left out.  Strands between kept slots were checked when
        they were made, so only the new ones need the check."""
        back = list(self._back)
        end = list(self._end)
        closing_port = self._closing_port
        for s, partner in zip(self.closing, signature):
            pi = closing_port[s]
            if partner in closing_port:
                back[pi] = closing_port[partner]
            else:
                end[pi] = partner
        table, weight = self._glued(tuple(back), width)
        rows = [([(end[p], end[q]) for p, q in pairs], lo, v, w)
                for pairs, lo, v, w in table]
        tags = self._tags
        if tags is not None:
            kept = [row for row in rows if all(tags[a] != tags[b] for a, b in row[0])]
            if len(kept) < len(rows):
                return kept, sum(row[3] for row in kept)
        return rows, weight


# ---------------------------------------------------------------------------
# brackets and cables


def bracket(link: LinkDiagram, max_width: int | None = None) -> LaurentPolynomial:
    """Kauffman bracket, normalized so the empty diagram gives 1 and a
    crossing-free circle gives delta.  A `link` that is not planar may
    raise ValueError (see evaluate); a planar one always evaluates."""
    value = evaluate(from_link(link), max_width=max_width)
    return value * _DELTA ** link.free_loops if link.free_loops else value


BRUTE_FORCE_LIMIT = 20


def bracket_bruteforce(link: LinkDiagram) -> LaurentPolynomial:
    """Plain 2^k state sum; the independent oracle for the sweep."""
    k = link.crossing_count
    if k > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"{k} crossings is past the brute-force limit")
    total: dict = {}
    for state in itertools.product((1, -1), repeat=k):
        circles = apply_state(link, state).circle_count  # counts free loops too
        contribution = term_shift(_delta_power(circles), sum(state))
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


def cable_network(link: LinkDiagram, n: int, boxes, local=None) -> tuple:
    """The n-cable of `link` as (nodes, wiring), each wire once: the one
    builder of every network.  Band i of an arc runs from stub i (stubs
    count counterclockwise 1..n in a slot) at its first PD slot to stub
    n+1-i at the other.  Per (arc, node) in `boxes` band i enters the
    node's bottom at i-1 and leaves its top there; other bands tie their
    ends.  local[ci] = (m, shift, chords) lays out crossing ci: an m x m
    CROSSING grid (under-strand u from slot 0 to 2, over-strand o from 3
    to 1) whose boundary index idx at a slot is on stub idx + shift[slot],
    and chords ((slot, stub), (slot, stub)) between stubs of boxed bands;
    None gives n x n grids.  Nodes: the boxes, then the grids in order."""
    if n < 1:
        raise ValueError("cable width must be >= 1")
    count, wiring, stubs = _grids(link, n, len(boxes), local)
    wiring.update(_bands(link, n, [arc for arc, _ in boxes], stubs, local))
    return [node for _, node in boxes] + [CROSSING] * count, wiring


def _grids(link: LinkDiagram, n: int, base: int, local) -> tuple:
    """cable_network's grids, numbered from node `base`: (node count, their
    own wires, stub tables), stubs[ci][slot*n + j-1] the grid port on stub
    j at that slot of crossing ci, or None where a chord ends."""
    wiring: dict[Port, Port] = {}
    stubs = []
    start = base
    for ci in range(link.crossing_count):
        m, shift, _ = local[ci] if local else (n, None, ())
        wires, ends = _grid_template(m)
        for a, pa, b, pb in wires:
            wiring[(base + a, pa)] = (base + b, pb)
        table = [(base + node, slot) for node, slot in ends]
        if m < n:
            grid, table = table, [None] * (4 * n)
            for slot, lead in enumerate(shift):
                table[slot * n + lead:slot * n + lead + m] = grid[slot * m:slot * m + m]
        stubs.append(table)
        base += m * m
    return base - start, wiring, stubs


def _bands(link: LinkDiagram, n: int, arcs, stubs: list, local) -> dict:
    """cable_network's bands onto the stub tables of _grids, box b on each
    band of arcs[b], and its chords."""
    boxed: dict = {}
    for b, arc in enumerate(arcs):
        if boxed.setdefault(arc, b) != b:
            raise ValueError(f"arc {arc!r} boxed twice")
    wiring: dict[Port, Port] = {}
    facing = {}  # 4n*crossing + n*slot + j-1 -> the box port facing a chord's end
    for arc in link.arcs:
        (c1, p1), (c2, p2) = link.arc_slots(arc)
        first, second = stubs[c1], stubs[c2]
        b = boxed.get(arc)
        for i in range(n):
            end1, end2 = first[p1 * n + i], second[p2 * n + n - 1 - i]
            if b is None:
                wiring[end1] = end2
                continue
            bottom, top = (b, i), (b, top_point(i, n))
            if end1:
                wiring[end1] = bottom
            else:
                facing[4 * n * c1 + p1 * n + i] = bottom
            if end2:
                wiring[top] = end2
            else:
                facing[4 * n * c2 + p2 * n + n - 1 - i] = top
    for ci, (_, _, chords) in enumerate(local or ()):
        at = 4 * n * ci - 1
        for (s1, j1), (s2, j2) in chords:
            wiring[facing[at + s1 * n + j1]] = facing[at + s2 * n + j2]
    return wiring


def cabled_diagram(link: LinkDiagram, m: int, box_arcs=()) -> DecoratedDiagram:
    """The blackboard m-cable of `link` with the Jones-Wenzl box f(m)
    spliced across the cable at each arc in `box_arcs`, the boxes first
    (cable_network).  Free loops of `link` are *not* carried over; the
    caller decides what a closed cabled loop is worth.  Boxes with m >= 2
    need a planar `link` (see _require_planar).  The network is nodes
    plus wiring; morse_decompose plans it when it is swept."""
    if box_arcs:
        _require_planar(link, m)
    return DecoratedDiagram(*cable_network(
        link, m, [(arc, projector_node(m)) for arc in box_arcs]))


def _require_planar(link: LinkDiagram, n: int):
    """Turnback pruning of f(n) boxes is exact only on a planar network, so
    a builder placing them rejects a PD code that is not planar; at n = 1 a
    box has one port per side and nothing can be pruned."""
    if n > 1 and not is_planar(link):
        raise ValueError(f"{link.name or 'the diagram'} is not planar; f({n}) "
                         "boxes are evaluated only on planar diagrams")


def _place_boxes(link: LinkDiagram, m: int, max_width) -> list:
    """The box arcs, one per component, of the m-cable of `link` with an
    f(m) box on each component, chosen by the prediction of the walk
    morse_decompose would keep; cabled_diagram checks that `link` is planar.

    A box slides along its band through the crossings of the cable, so
    the value does not depend on the arc that carries it, but the sweep's
    cost does.  Each placement is read by _graph off the very wiring
    (cable_network's, grids built once) that its sweep runs on and walked
    by the box-deferring greedy, and ranked by its predicted live
    matchings if its peak width is within the cap `max_width`, else after
    every placement that is, by that width.  Every box starts on the first
    arc (by repr) of its component; then the components are taken one at
    a time, each box moved to the least-ranked of its arcs (the earlier on
    ties) with the other boxes where they are, so the walks number the
    arcs, not their product."""
    comps = [sorted(comp, key=repr) for comp in link.components()]
    n_grid, grid, stubs = _grids(link, m, len(comps), None)
    half = [m] * len(comps) + [0] * n_grid
    boxes = [h > 0 for h in half]
    cap = resolve_max_width(max_width)

    def rank(arcs) -> tuple:
        bands = _bands(link, m, arcs, stubs, None)
        cross, degree, sides = _graph(half, itertools.chain(grid.items(), bands.items()))
        _, peak, cost = _walk(cross, degree, boxes, sides)
        return (0, cost) if peak <= cap else (1, peak)

    arcs = [comp[0] for comp in comps]
    for c, comp in enumerate(comps):
        arcs[c] = min(comp, key=lambda arc: rank(arcs[:c] + [arc] + arcs[c + 1:]))
    return arcs


def colored_jones(link: LinkDiagram, n: int,
                  max_width: int | None = None) -> LaurentPolynomial:
    """Unreduced n-colored Jones polynomial in the Kauffman variable,
    blackboard framing: the n-cable with one Jones-Wenzl box per
    component, each on the arc that _place_boxes predicts cheapest to
    sweep.  The 0-crossing unknot gives the loop polynomial of f(n)."""
    if n < 0:
        raise ValueError("color must be >= 0")
    resolve_max_width(max_width)  # reject a bad cap even when no sweep runs
    if n == 0:
        return LaurentPolynomial.one()
    arcs = _place_boxes(link, n, max_width) if n >= 2 else ()
    value = evaluate(cabled_diagram(link, n, arcs), max_width=max_width)
    return value * quantum_dimension(n) ** link.free_loops if link.free_loops else value
