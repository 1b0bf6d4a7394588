"""Exact bracket evaluation of decorated diagrams.

A decorated diagram is a closed tangle network of coupon nodes, boxes
each carrying a fixed linear combination of planar matchings over one
denominator, wired together by one flat port table: port i of node u is
the int first[u] + i, and to[p] is the port that p is wired to, a
fixed-point-free involution (DecoratedDiagram).  The builder, the bigon
fusion, the planner and the sweep all read and write that one table.  A
crossing is the 4-point coupon CROSSING, the TL_2 element A
(A-smoothing) + A^-1 (B-smoothing) of the Kauffman skein relation; a
Jones-Wenzl box f(n) is projector_node(n).  Evaluation resolves every
node into its matchings and glues, producing the bracket value in
Z[A, A^-1] after one exact division by the accumulated denominator.

The sweep visits nodes one at a time.  Its running state is the
frontier, the dangling port at each slot, and a bag of terms: a perfect
matching on the frontier with an integer Laurent coefficient, keyed by
one int in which slot s holds its partner + 1 in bits [b s, b s + b), 0
at a hole, with b the bit length of the plan's peak width.  Slots are
stable (_EventStep): a closing slot becomes a hole, the next fresh port
takes the lowest hole, and trailing holes are trimmed, so no open slot
is renumbered and no key outgrows the plan's peak width.  An event
groups its terms by signature, key & the closing slots' mask: the
partners of the node's closing slots.  Such a signature only fixes
which ports the outside wires join, and each node keeps its local
matchings glued to every such pattern, once per digit width, by
temperley_lieb.glue, the strand tracer that TL stacking and partial
trace use too (CouponNode.glued).  A signature maps those rows' strand
ends to slot fields, a code per row, and one keep mask clears the
closing slots and the slots their strands end at: a term's new key is
(key & keep) | code.  A merge that cancels to 0 is deleted in place.

Packed coefficients.  A coefficient is a pair (lo, v): the int v =
sum c_i 2^(W i) of balanced digits |c_i| < 2^(W-1) stands for sum c_i
A^(lo + 4i).  On a planar network of crossings and Jones-Wenzl boxes
every coefficient keeps its exponents in one residue class mod 4.  A
factor or a collision that mixes residues (a network that is not planar,
or a coupon whose terms mix them) raises ValueError: the sweep fails
closed and never returns a value it cannot pack.  A row's factor, local
coefficient times delta^loops, is packed once per node, outside-wire
pattern and W, so a row costs one multiply (an A^+-1 row none) and
adding into a destination one shift and one add.  Digits cannot
overflow: each event multiplies a bound on the bag's total L1 norm, which
bounds every digit of every partial sum, by a bound on the L1 norm its
rows can give one term, and repacks the bag (digit by digit, each lo
kept: _repack) and its rows at a wider W first if the bound reaches
2^(W-2).

Turnback pruning.  A Jones-Wenzl box kills every turnback: f(n) e_i = 0.
Suppose a term joins ports i < j on one side of a box not yet swept.  In
a planar network the ports i+1..j-1 then close off in a disk, and every
crossingless matching of that disk turns back into the box, so the term
is worth exactly 0.  The sweep never builds such a term: each event tags
each new slot at a box port with its side tag, 2 * box + (1 on the top)
(_side), and drops every splice whose new strand joins two equal tags.
Only coupons built with projector=True (projector_node) are pruned; a
generic coupon never is.  The argument needs a planar network, and a
LinkDiagram is planar by construction, so every network built from one
is planar.

One builder, cable_network, writes the port table of every boxed
network as an n-cable: n x n grids (J~), (n-1) x (n-1) grids and chords
(Y(s)), or chords (Lambda).

The bracket's network (from_link) is the PD code's own slot table
(LinkDiagram.to, the 1-cable's port table: crossing c's port p is slot
4c + p) with its bigons fused (_fuse_bigons, in place on the table): two
4-point nodes joined by two wires that sit next to each other at both
ends become one coupon, the TL_2 element of the tangle they make.  By
Kauffman's relation a twist region of any length is alpha 1 + beta e,
so it ends as one node of at most two terms, and the sweep has fewer
events for the same terms.  A composite is the TL_2 product of the two
(_fused: one temperley_lieb._product on their turned ports), interned
by value (_composite, the last _TANGLE_CACHE of them), so
equal tangles share one node and its glued tables.  A bigon bounds a
face, so a composite is a disk and its matchings never cross.  J~, Y(s)
and Lambda networks are never fused.

Live matchings set the cost, and the peak width (dangling wire-ends)
bounds them.  A MorsePlan is the attachment order of a width greedy and
the peak width of that order, which the width cap is checked against
before any box's terms are built (projector_node builds f(n) on first
use).  The greedy sweeps projector boxes last among nodes that leave
equal width, since an unswept box prunes every row that caps it; that
only moves the order, so every value stays exact.  Only when that walk
passes the cap does morse_decompose walk the plain greedy, which ignores
the boxes, and keep the narrower.  One reader (_graph) turns the port
table a network sweeps into the walk's inputs.

Where the box goes is the one choice a prediction makes.  colored_jones
walks one network per arc that could carry each component's box
(_place_boxes) and sweeps the one whose box-deferring walk predicts the
fewest live matchings: at each event, the crossingless matchings of the
frontier that join no two slots with one side tag, counted as if each
box side held consecutive frontier slots (_matching_count).  A walk over
the cap ranks after those within it, by its peak width, though
morse_decompose may then keep the plain walk.  The value does not
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

from .diagram import A_JOINS, B_JOINS, LinkDiagram, Record, apply_state
from .laurent import (
    LaurentPolynomial,
    ONE,
    RationalFunction,
    _delta_power,
    divide_exact,
    quantum_dimension,
    term_add,
    term_mul,
    term_shift,
)
from .temperley_lieb import PlanarMatching, _chords, _product, cleared_projector, glue, top_point

DEFAULT_MAX_WIDTH = 24


class ResourceLimitError(RuntimeError):
    """The evaluation would exceed the configured width budget."""


def _check_width(max_width: int):
    if max_width < 0:
        raise ValueError(f"the width cap must be >= 0, got {max_width}")


def _check_color(n: int, least: int = 1):
    if type(n) is not int:  # bool is an int subclass; refuse it too
        raise ValueError(f"color must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"color must be >= {least}")


class CouponNode:
    """A box carrying an explicit element of TL_n, given as matchings of
    its 2n boundary points with integer Laurent coefficients over a
    common denominator: the one node type of a network.

    Ports use the circle convention of PlanarMatching: 0..n-1 across the
    bottom, then n..2n-1 across the top right to left; on CROSSING they
    are the PD slots 0..3.  Each term is held as the partner table of its
    PlanarMatching and its coefficient's LaurentPolynomial term dict:
    every matching is checked, a coefficient that is not an int term dict
    raises TypeError, and a term whose coefficient is 0 is dropped.

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
            rows = [(PlanarMatching(self.port_count // 2, pairs).partner,
                     LaurentPolynomial(coeff).terms) for pairs, coeff in terms]
            self._form = denominator, tuple(row for row in rows if row[1])
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
    which the single-clasp expansion fills in on their first read."""
    def form():
        q, rows = cleared_projector(n)
        return [(m.pairs, coeff) for coeff, m in rows], q
    return CouponNode(2 * n, form, label=f"f({n})", projector=True)


class DecoratedDiagram:
    """Nodes plus one flat port table `to`, their closed wiring: port i
    of node u is the global port first[u] + i, where first holds the
    prefix sums of the nodes' port counts (first[-1] the port count), and
    it is wired to port to[first[u] + i].  `to` is its own inverse and
    wires no port to itself; a table of the wrong length, an entry outside
    0..first[-1]-1, a port wired to itself or a table that is not an
    involution raises ValueError."""

    __slots__ = ("nodes", "to", "first")

    def __init__(self, nodes, to):
        self.nodes = tuple(nodes)
        self.first = (0, *itertools.accumulate(node.port_count for node in self.nodes))
        self.to = to = tuple(to)
        ports = range(len(to))
        if len(to) != self.first[-1]:
            raise ValueError(f"wiring mismatch: {len(to)} wire ends for "
                             f"{self.first[-1]} ports")
        if to and not 0 <= min(to) <= max(to) < len(to):
            raise ValueError(f"wiring mismatch: a port is wired outside 0..{len(to) - 1}")
        if any(map(operator.eq, to, ports)):
            raise ValueError(f"port {next(p for p in ports if to[p] == p)} wired to itself")
        if any(map(operator.ne, map(to.__getitem__, to), ports)):
            raise ValueError("wiring is not an involution")

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def from_link(link: LinkDiagram) -> DecoratedDiagram:
    """The bracket's network: one crossing node per PD crossing wired by
    the slot table link.to, which is the 1-cable's port table, and no free
    loops, with every bigon fused (_fuse_bigons), so that a twist region
    of any length is one 4-point coupon."""
    return DecoratedDiagram(*_fuse_bigons([CROSSING] * link.crossing_count, list(link.to)))


def _fuse_bigons(nodes: list, to: list) -> tuple:
    """(nodes, to) of a network of 4-point coupons with every bigon fused:
    two nodes u != v whose ports a, a+1 are wired to v's ports b, b-1 (mod
    4), and whose other four ports lead to neither, become one coupon
    (_fused) on u's ports a+2, a+3 and v's b+1, b+2 in that cyclic order.
    The composite takes u's place and is fused again, so a twist region
    becomes one node.  Fusing rewires `to` and clears v in `nodes`, both
    in place; the survivors keep their order and are renumbered once."""
    for u in range(len(nodes)):
        a = 0 if nodes[u] is not None else 4
        while a < 4:
            # port a meets port b of node v: a bigon if port a+1 meets b-1
            p, q = to[4 * u + a], to[4 * u + (a + 1) % 4]
            v = p >> 2
            if q >> 2 == v != u and (p - q) & 3 == 1:
                w = 4 * v
                outs = (to[4 * u + (a + 2) % 4], to[4 * u + (a + 3) % 4],
                        to[w + (p + 1) % 4], to[w + (p + 2) % 4])
                ends = {outs[0] >> 2, outs[1] >> 2, outs[2] >> 2, outs[3] >> 2}
                if u not in ends and v not in ends:
                    nodes[u], nodes[v] = _fused(nodes[u], nodes[v], a, p & 3), None
                    for i, o in enumerate(outs, 4 * u):
                        to[i], to[o] = o, i
                    a = 0  # the composite may close another bigon
                    continue
            a += 1
    base, live = [0] * len(nodes), []
    for u, node in enumerate(nodes):
        if node is not None:
            base[u] = 4 * len(live)
            live.append(node)
    return live, [base[q >> 2] | q & 3 for p, q in enumerate(to) if nodes[p >> 2] is not None]


# Composites kept by _fused and _composite, each: a pass over one seed's
# 252 bench braids makes 151 composites from 308 (u, v, a, b) keys, so
# both caches keep several passes' tangles but stay bounded in a process
# that brackets link after link.
_TANGLE_CACHE = 1024


@functools.lru_cache(maxsize=_TANGLE_CACHE)
def _fused(u: CouponNode, v: CouponNode, a: int, b: int) -> CouponNode:
    """The 4-point coupon of u and v joined by the bigon u a ~ v b, u a+1
    ~ v b-1, its ports u a+2, u a+3, v b+1, v b+2: the TL_2 product of u
    below v, u's ports turned by a+2 so that a+1 and a are its top points
    and v's by b-1 so that b-1 and b are its bottom points.  Equal
    composites are one node (_composite)."""
    def turned(node, shift):
        return {tuple((m[(shift + i) % 4] - shift) % 4 for i in range(4)): coeff
                for m, coeff in node.local_terms()}
    terms = _product(turned(u, a + 2), turned(v, b - 1))
    return _composite(tuple(sorted((_chords(m), tuple(sorted(c.items())))
                                   for m, c in terms.items())))


@functools.lru_cache(maxsize=_TANGLE_CACHE)
def _composite(terms: tuple) -> CouponNode:
    """The one 4-point coupon with these (pairs, sorted coefficient items)
    terms."""
    return CouponNode(4, [(pairs, dict(c)) for pairs, c in terms], label="tangle")


# ---------------------------------------------------------------------------
# ordering


class MorsePlan(Record):
    """An attachment order and the peak width (dangling wire-ends) it
    reaches."""
    order: tuple
    peak_width: int


def morse_decompose(dd: DecoratedDiagram,
                    max_width: int = DEFAULT_MAX_WIDTH) -> MorsePlan:
    """Walk the width greedy that defers the network's projector boxes, on
    the network as _graph reads it: every plan the sweep runs comes from
    here.  Only when that walk passes the width cap `max_width` is the
    plain greedy, which ignores the boxes, walked too, and the narrower of
    the two kept (the deferring one on ties), for the sweep's cap check to
    name."""
    _check_width(max_width)
    half = _halves(dd.nodes)
    cross, degree, _ = _graph(half, dd.first, dd.to)
    plan = MorsePlan(*_walk(cross, degree, [h > 0 for h in half])[:2])
    if plan.peak_width > max_width:
        plain = MorsePlan(*_walk(cross, degree, [False] * dd.node_count)[:2])
        if plain.peak_width < plan.peak_width:
            return plain
    return plan


def _halves(nodes) -> list:
    """Half the point count of each projector box, 0 for every other node."""
    return [node.port_count // 2 if node.projector else 0 for node in nodes]


def _side(half: list, first) -> list:
    """One side tag per flat port: at a port of a projector box twice the
    box, +1 on top, and -1 at every other port; `first` as in
    DecoratedDiagram."""
    return [2 * u + (i >= h) if h else -1
            for u, h in enumerate(half) for i in range(first[u + 1] - first[u])]


def _graph(half: list, first, to) -> tuple:
    """The one reader of wiring for planning: (cross, degree, sides) of the
    nodes with box halves `half` (_halves) wired by the port table `to`,
    `first` as in DecoratedDiagram.
    cross[u] lists the node at the far end of each of u's wires (u itself
    for a wire inside u), degree[u] counts the wires from u to other
    nodes, and sides[u] lists the side tags (_side) of u's wires into
    boxes; sides is None when there is no box."""
    far = list(map(_owner(first).__getitem__, to))
    cross = [far[first[u]:first[u + 1]] for u in range(len(half))]
    degree = [len(row) - row.count(u) for u, row in enumerate(cross)]
    sides = None
    if any(half):
        sides = [[] for _ in half]
        for u, h in enumerate(half):
            for i in range(2 * h):  # port i of box u, its tag as _side gives it
                sides[far[first[u] + i]].append(2 * u + (i >= h))
    return cross, degree, sides


def _owner(first) -> list:
    """The node of each port, `first` as in DecoratedDiagram."""
    return [u for u in range(len(first) - 1) for _ in range(first[u], first[u + 1])]


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
        for u in cross[v]:
            if not done[u]:
                into[u] += 1
                key[u] -= drop
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


def evaluate(dd: DecoratedDiagram, max_width: int = DEFAULT_MAX_WIDTH) -> LaurentPolynomial:
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
                      max_width: int = DEFAULT_MAX_WIDTH) -> RationalFunction:
    """Exact value of a closed decorated diagram in Q(A), reduced."""
    value, denominator = _sweep(dd, max_width)
    return RationalFunction(value, denominator)


def _sweep(dd: DecoratedDiagram, max_width: int = DEFAULT_MAX_WIDTH):
    """Run the attachment sweep; return (integer Laurent total, accumulated
    coupon denominator) before the final division."""
    plan = morse_decompose(dd, max_width)
    if plan.peak_width > max_width:
        raise ResourceLimitError(f"plan needs width {plan.peak_width}, budget is "
                                 f"{max_width} (raise with --max-width)")
    denominator = math.prod((q for ni in plan.order
                             if (q := dd.nodes[ni].denominator) != ONE), start=ONE)
    return LaurentPolynomial(_contract(dd, plan)), denominator


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


def _repack(v: int, old: int, new: int) -> int:
    """The packed v of width `old` at width `new`, digit by digit; lo
    stays as it is.  A digit read as old bits at or past half is negative
    and carries one into the rest."""
    out, shift, half, mask = 0, 0, 1 << old - 1, (1 << old) - 1
    while v:
        c = v & mask
        v >>= old
        if c >= half:
            c -= mask + 1
            v += 1
        out += c << shift
        shift += new
    return out


def _contract(dd: DecoratedDiagram, plan: MorsePlan) -> dict:
    """Sweep the order of `plan` with every coefficient packed (see _pack)
    and every key one int of fields as wide as the bit length of its peak
    width, which no slot and no partner + 1 exceeds (see _EventStep);
    return the total's term dict, or raise ValueError on mixed residues."""
    # None when there is no box to prune against
    half = _halves(dd.nodes)
    side = _side(half, dd.first) if any(half) else None
    bits = plan.peak_width.bit_length()
    frontier, holes, slot_of = [], [], [None] * len(dd.to)  # see _EventStep
    # term bag: key -> packed coefficient [lo, v]; bound is at least the
    # bag's total L1 norm, so it bounds every digit
    terms: dict[int, list] = {0: [0, 1]}
    width, bound = 32, 1

    for ni in plan.order:
        step = _EventStep(dd, ni, frontier, holes, slot_of, side, bits)
        splices, closing = step.splices, step.closing
        # terms grouped by the partners of the closing slots, so that each
        # signature's splice is worked out once
        groups: dict = {}
        for item in terms.items():
            signature = item[0] & closing
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
            rows, weight, keep = splices(signature, width)
            if rows:
                work.append((signature, rows, keep, group))
                grow = max(grow, weight)
        del groups
        bound *= grow
        if bound.bit_length() > width - 2:
            # the least multiple of 32 bits that leaves the bound 2 to spare
            old, width = width, (bound.bit_length() + 33) // 32 * 32
            for i, (signature, _, keep, group) in enumerate(work):
                work[i] = signature, splices(signature, width)[0], keep, group
                for _, coeff in group:
                    coeff[1] = _repack(coeff[1], old, width)

        terms, zeros = {}, set()
        work.reverse()
        while work:  # each group's rows and old terms go once it is spliced
            _, rows, keep, group = work.pop()
            for key, (lo, v) in group:
                # kept slots never move: clear the closing slots and the
                # strand ends, then every row writes its own strand ends in
                key &= keep
                for code, flo, fv, _ in rows:
                    new_key = key | code
                    x = lo + flo
                    y = v if fv == 1 else v * fv
                    dest = terms.get(new_key)
                    if dest is None:
                        terms[new_key] = [x, y]
                        continue
                    d = x - dest[0]
                    if d % 4:
                        raise ValueError(_MIXED_RESIDUES)
                    if d >= 0:
                        dest[1] += y << d // 4 * width
                    else:
                        dest[:] = x, (dest[1] << -d // 4 * width) + y
                    if not dest[1]:
                        zeros.add(new_key)
        for key in zeros:  # cancelled, unless a later merge revived it
            if not terms[key][1]:
                del terms[key]
        if not terms:
            break

    total: dict = {}
    for key, coeff in terms.items():
        if key:
            raise AssertionError("sweep finished with dangling wires")
        total = _unpack(*coeff, width)
    return total


class _EventStep:
    """The tables of one node's attachment, shared by every term.

    A key is one int: slot s holds its partner + 1 in bits [bits * s,
    bits * s + bits), 0 at a hole, with bits the plan's peak width's bit
    length, so no field overflows.  The node's ports fall into three
    classes: internal (wired to another port of the node), closing (wired
    into the swept region, so on the frontier at a closing slot) and fresh
    (wired to a node not yet swept).  `closing` masks the closing slots'
    fields, so key & closing is a term's signature.  A closing slot
    becomes a hole, each fresh port in port order takes the lowest hole
    (the min-heap `holes`) or else a new slot at the end, and trailing
    holes are trimmed.  The step updates the sweep's `frontier` (the port
    at each slot, None at a hole: port 0 is box 0's bottom in a cable, so
    never test a slot by truth), `holes` and `slot_of` (by port, the slot
    of each port on the frontier, else None) in place; no slot is
    renumbered.
    """

    __slots__ = ("closing", "bits",
                 "_glued", "_back", "_end", "_closing_port", "_tags", "_keep")

    def __init__(self, dd: DecoratedDiagram, ni: int, frontier: list, holes: list,
                 slot_of: list, side: list | None, bits: int):
        node = dd.nodes[ni]
        nports = node.port_count
        at = dd.first[ni]  # the global number of the node's port 0
        # the outside wire of port p re-enters the node at _back[p], or
        # else ends at slot _end[p] (closing ports: per signature)
        self._back: list = [None] * nports
        self._end: list = [None] * nports
        self._closing_port: dict = {}
        self.bits = bits
        field = (1 << bits) - 1
        closing = 0
        fresh = []
        for pi, port in enumerate(dd.to[at:at + nports]):
            if at <= port < at + nports:
                self._back[pi] = port - at
            elif (s := slot_of[at + pi]) is not None:
                # a port has a slot exactly when its wire's far node is swept
                slot_of[at + pi] = None
                self._closing_port[s] = pi
                closing |= field << bits * s
                frontier[s] = None
                heapq.heappush(holes, s)
            else:
                fresh.append((pi, port))
        for pi, port in fresh:
            if holes and holes[0] < len(frontier):
                s = heapq.heappop(holes)
                frontier[s] = port
            else:  # any holes left lie past the trimmed end
                holes.clear()
                s = len(frontier)
                frontier.append(port)
            slot_of[port] = self._end[pi] = s
        while frontier and frontier[-1] is None:
            frontier.pop()
        self.closing = closing
        self._keep = ((1 << bits * len(frontier)) - 1) & ~closing
        self._glued = node.glued
        # every live slot holds a port of a node not yet swept; its tag is
        # its side tag (_side) at a port of a projector box, else a negative
        # number no other slot has.  None when no two slots share a tag,
        # so that no row can cap a box
        self._tags = None
        if side is not None:
            tags = [side[port] if port is not None and side[port] >= 0 else -1 - s
                    for s, port in enumerate(frontier)]
            if len(set(tags)) < len(tags):
                self._tags = tags

    def splices(self, signature: int, width: int) -> tuple:
        """(rows, their total weight, keep) for a term whose closing slots
        hold `signature` (key & closing): the rows (code, lo, v, weight) of
        CouponNode.glued at `width`, code the fields of the slots where
        each spliced strand ends, so that the term's new key is (key &
        keep) | code.  keep clears the closing slots and the slots their
        strands end at.

        A row whose new strand joins two slots with equal tags caps an
        unswept projector, is worth exactly 0 (see the module docstring)
        and is left out.  Strands between kept slots were checked when
        they were made, so only the new ones need the check."""
        bits = self.bits
        field = (1 << bits) - 1
        back = list(self._back)
        end = list(self._end)
        keep = self._keep
        closing_port = self._closing_port
        for s, pi in closing_port.items():
            partner = (signature >> bits * s & field) - 1
            if partner in closing_port:
                back[pi] = closing_port[partner]
            else:
                end[pi] = partner
                keep &= ~(field << bits * partner)
        table, weight = self._glued(tuple(back), width)
        tags = self._tags
        rows = []
        for pairs, lo, v, w in table:
            code = 0
            for p, q in pairs:
                a, b = end[p], end[q]
                if tags is not None and tags[a] == tags[b]:
                    break
                code |= (b + 1) << bits * a | (a + 1) << bits * b
            else:
                rows.append((code, lo, v, w))
        if len(rows) < len(table):
            weight = sum(row[3] for row in rows)
        return rows, weight, keep


# ---------------------------------------------------------------------------
# brackets and cables


def bracket(link: LinkDiagram, max_width: int = DEFAULT_MAX_WIDTH) -> LaurentPolynomial:
    """Kauffman bracket, normalized so the empty diagram gives 1 and a
    crossing-free circle gives delta, swept on from_link's network, twist
    regions fused."""
    value = evaluate(from_link(link), max_width=max_width)
    return value * LaurentPolynomial(_delta_power(link.free_loops)) if link.free_loops else value


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
    """The m x m grid at base 0, node (u, o) at u*m + o counting from 0 and
    its port i at 4 (u*m + o) + i: its own port table, each stub wired to
    itself until a band takes it, and its stubs' ports in stub order."""
    to = list(range(4 * m * m))
    for p in range(0, 4 * m * m, 4):  # port 0 of each node
        if p // 4 % m < m - 1:  # port 2 to the next node's port 0
            to[p + 2], to[p + 4] = p + 4, p + 2
        if p < 4 * m * (m - 1):  # port 1 to port 3 of the node m further on
            to[p + 1], to[p + 4 * m + 3] = p + 4 * m + 3, p + 1
    last = m * m - 1
    stubs = [4 * i * m for i in range(m)] + [4 * (last - m + 1 + i) + 1 for i in range(m)]
    stubs += [4 * (last - i * m) + 2 for i in range(m)] + [4 * (m - 1 - i) + 3 for i in range(m)]
    return tuple(to), tuple(stubs)


def cable_network(link: LinkDiagram, n: int, boxes, local=None) -> tuple:
    """The n-cable of `link` as (nodes, to), its port table (see
    DecoratedDiagram): the one builder of the J~, Y(s) and Lambda
    networks; at n = 1 with no box the table is link.to.  Band i of an arc
    runs from stub i (stubs count counterclockwise 1..n in a slot) at its
    first PD slot to stub n+1-i at the other.  Per (arc, node) in `boxes`,
    each node of 2n points, band i enters the node's bottom at i-1 and
    leaves its top there; other bands tie their ends.  local[ci] = (m,
    shift, chords) lays out crossing ci: an m x m CROSSING grid
    (under-strand u from slot 0 to 2, over-strand o from 3 to 1) whose
    boundary index idx at a slot is on stub idx + shift[slot], and chords
    ((slot, stub), (slot, stub)) between stubs of boxed bands; None gives
    n x n grids.  Nodes: the boxes, then the grids in order."""
    if n < 1:
        raise ValueError("cable width must be >= 1")
    base = 2 * n * len(boxes)
    to, stubs = _grids(link, n, base, local)
    _bands(link, n, [arc for arc, _ in boxes], stubs, local, to)
    return [node for _, node in boxes] + [CROSSING] * ((len(to) - base) // 4), to


def _grids(link: LinkDiagram, n: int, base: int, local) -> tuple:
    """cable_network's grids after `base` box ports: (the port table, box
    ports and stubs wired to themselves for _bands to wire, and the stub
    table), stubs[n*slot + j-1] the grid port on stub j at that PD slot
    (LinkDiagram.to), or None where a chord ends."""
    to = list(range(base))
    stubs = []
    for ci in range(link.crossing_count):
        m, shift, _ = local[ci] if local else (n, None, ())
        inner, ends = _grid_template(m)
        at = len(to)
        to += [at + q for q in inner]
        table = [at + p for p in ends]
        if m < n:
            grid, table = table, [None] * (4 * n)
            for slot, lead in enumerate(shift):
                table[slot * n + lead:slot * n + lead + m] = grid[slot * m:slot * m + m]
        stubs += table
    return to, stubs


def _bands(link: LinkDiagram, n: int, arcs, stubs: list, local, to: list):
    """Wire cable_network's bands into `to` onto the stub table of
    _grids, box b on each band of arcs[b], and its chords.  An arc is the
    slot pair p < link.to[p], p its first slot."""
    boxed: dict = {}
    for b, arc in enumerate(arcs):
        if boxed.setdefault(arc, b) != b:
            raise ValueError(f"arc {arc!r} boxed twice")
    facing = {}  # n*slot + j-1 -> the box port facing a chord's end
    for p, q in enumerate(link.to):
        if q < p:
            continue
        b = boxed.get(link.crossings[p >> 2][p & 3])
        for i in range(n):
            s1, s2 = n * p + i, n * q + n - 1 - i
            end1, end2 = stubs[s1], stubs[s2]
            if b is None:
                to[end1], to[end2] = end2, end1
                continue
            bottom, top = 2 * n * b + i, 2 * n * b + top_point(i, n)
            if end1 is not None:
                to[end1], to[bottom] = bottom, end1
            else:
                facing[s1] = bottom
            if end2 is not None:
                to[top], to[end2] = end2, top
            else:
                facing[s2] = top
    for ci, (_, _, chords) in enumerate(local or ()):
        at = 4 * n * ci - 1
        for (s1, j1), (s2, j2) in chords:
            p, q = facing[at + s1 * n + j1], facing[at + s2 * n + j2]
            to[p], to[q] = q, p


def cabled_diagram(link: LinkDiagram, m: int, box_arcs=()) -> DecoratedDiagram:
    """The blackboard m-cable of `link` with the Jones-Wenzl box f(m)
    spliced across the cable at each arc in `box_arcs`, the boxes first
    (cable_network).  Free loops of `link` are *not* carried over; the
    caller decides what a closed cabled loop is worth.  The network is
    nodes plus a port table; morse_decompose plans it when it is swept."""
    return DecoratedDiagram(*cable_network(
        link, m, [(arc, projector_node(m)) for arc in box_arcs]))


def _place_boxes(link: LinkDiagram, m: int, max_width: int = DEFAULT_MAX_WIDTH) -> list:
    """The box arcs, one per component, of the m-cable of `link` with an
    f(m) box on each component, ranked by the box-deferring greedy's walk.

    A box slides along its band through the crossings of the cable, so
    the value does not depend on the arc that carries it, but the sweep's
    cost does.  Each placement is read by _graph off the very port table
    (cable_network's, grids built once) that its sweep runs on and walked
    by the box-deferring greedy.  A walk within the cap `max_width`, the
    one morse_decompose keeps, ranks by its predicted live matchings; one
    over the cap ranks after every one within it, by its peak width,
    though morse_decompose may keep the plain greedy's walk there.  Every
    box starts on the first arc (by repr) of its component; then the
    components are taken one at a time, each box moved to the least-ranked
    of its arcs (the earlier on ties) with the other boxes where they are,
    so the walks number the arcs, not their product."""
    comps = [sorted(comp, key=repr) for comp in link.components()]
    base = 2 * m * len(comps)
    grid, stubs = _grids(link, m, base, None)
    half = [m] * len(comps) + [0] * ((len(grid) - base) // 4)
    first = (0, *itertools.accumulate(2 * h or 4 for h in half))
    boxes = [h > 0 for h in half]

    def rank(arcs) -> tuple:
        to = list(grid)
        _bands(link, m, arcs, stubs, None, to)
        cross, degree, sides = _graph(half, first, to)
        _, peak, cost = _walk(cross, degree, boxes, sides)
        return (0, cost) if peak <= max_width else (1, peak)

    arcs = [comp[0] for comp in comps]
    for c, comp in enumerate(comps):
        arcs[c] = min(comp, key=lambda arc: rank(arcs[:c] + [arc] + arcs[c + 1:]))
    return arcs


def colored_jones(link: LinkDiagram, n: int,
                  max_width: int = DEFAULT_MAX_WIDTH) -> LaurentPolynomial:
    """Unreduced n-colored Jones polynomial in the Kauffman variable,
    blackboard framing: the n-cable with one Jones-Wenzl box per
    component, each on the arc that _place_boxes predicts cheapest to
    sweep; at n = 1 the bracket.  The 0-crossing unknot gives the loop
    polynomial of f(n).

    With a crossing, each box's 2n ports are wired to other nodes, so
    every order peaks at width n or more: a color over the cap is
    refused before any cable is built."""
    _check_color(n, 0)
    _check_width(max_width)  # even when no sweep runs
    if n == 0:
        return LaurentPolynomial.one()
    if n == 1:  # J~_1 is the bracket, and f(1) is one strand
        return bracket(link, max_width)
    if link.crossing_count and n > max_width:
        raise ResourceLimitError(f"color {n} needs width {n} or more, budget is "
                                 f"{max_width} (raise with --max-width)")
    arcs = _place_boxes(link, n, max_width)
    value = evaluate(cabled_diagram(link, n, arcs), max_width=max_width)
    return value * quantum_dimension(n) ** link.free_loops if link.free_loops else value
