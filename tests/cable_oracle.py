"""Label-level blackboard m-cable of a PD diagram, the oracle for the
port-level cable builder skein_eval.cable_network: the cabled link is a
plain LinkDiagram, so its bracket comes from the ordinary link path.

The m-cable replaces every crossing by an m x m grid of crossings and
every arc by a band of m parallel arcs.  Grid layout per crossing: the
under-cable runs bottom (slot 0) to top (slot 2), the over-cable left
(slot 3) to right (slot 1).  vert(u, j) is the segment of under-strand
u (x = u) between rows j and j+1; horiz(o, i) the segment of
over-strand o (y = o) between columns i and i+1.  Boundary stubs carry
counterclockwise indices within each slot; gluing a band between two
slots reverses the index (i pairs with m+1-i).

counted_matchings replays a sweep and counts its matchings, the measure
that the box placement of colored_jones predicts, and peak_matchings the
most it holds at once; sweep_events replays the events themselves, and
signature_splices works out one event's splice the way the sweep did
before nodes kept their glued tables, by gluing with the slots as labels;
enumerate_matchings lists the basis diagrams of TL_n by brute force, and
glued_fusion fuses a bigon of two 4-point coupons by gluing them with the
strand tracer, the oracle of skein_eval._fused's TL_2 product.

planar_by_faces and alternating_by_strands are the oracles of the
LinkDiagram constructor's planarity check and of diagram.is_alternating:
they walk (crossing, position) pairs that they pair up from the arc
labels alone.  raw_code builds a code's slot table the same way, planar
or not, for the sweep's fail-closed tests: no LinkDiagram holds a code
that is not planar.
"""
from types import SimpleNamespace

from skeinlab.diagram import LinkDiagram
from skeinlab.laurent import _delta_power, term_add, term_mul
from skeinlab.skein_eval import MorsePlan, _EventStep, _halves, _side, morse_decompose
from skeinlab.temperley_lieb import PlanarMatching, glue


def _stub_index(slot: int, m: int, *, x: int = 0, y: int = 0) -> int:
    # counterclockwise index of a boundary stub within its slot
    if slot == 0:
        return x
    if slot == 1:
        return y
    if slot == 2:
        return m + 1 - x
    return m + 1 - y


def cable(diagram: LinkDiagram, m: int) -> LinkDiagram:
    """Blackboard m-cable: k*m^2 crossings, every arc made into m parallel
    copies (cable_rows)."""
    return LinkDiagram(
        cable_rows(diagram, m),
        free_loops=diagram.free_loops * m,
        name=f"cable({diagram.name or '?'},{m})",
    )


def cable_rows(diagram, m: int) -> list:
    """The crossings of the blackboard m-cable of `diagram` (a LinkDiagram
    or a raw_code).  Band arcs are labeled ("band", arc, i) with i = 1..m
    indexed counterclockwise at the arc's first slot end."""
    if m < 1:
        raise ValueError("cable width must be >= 1")
    band_at: dict[tuple[int, int, int], tuple] = {}
    for p, q in enumerate(diagram.to):
        if p < q:  # p is the arc's first slot
            arc = diagram.crossings[p >> 2][p & 3]
            for i in range(1, m + 1):
                label = ("band", arc, i)
                band_at[(p >> 2, p & 3, i)] = label
                band_at[(q >> 2, q & 3, m + 1 - i)] = label

    crossings = []
    for ci, t in enumerate(diagram.crossings):
        def vert(u, j):
            if j == 0:
                return band_at[(ci, 0, _stub_index(0, m, x=u))]
            if j == m:
                return band_at[(ci, 2, _stub_index(2, m, x=u))]
            return ("v", ci, u, j)

        def horiz(o, i):
            if i == 0:
                return band_at[(ci, 3, _stub_index(3, m, y=o))]
            if i == m:
                return band_at[(ci, 1, _stub_index(1, m, y=o))]
            return ("h", ci, o, i)

        for u in range(1, m + 1):
            for o in range(1, m + 1):
                crossings.append((vert(u, o - 1), horiz(o, u), vert(u, o), horiz(o, u - 1)))
    return crossings


def counted_matchings(dd, order=None) -> int:
    """The sum, over the events of `order` (by default the plan the sweep
    runs on `dd`), of the matchings in its term bag: the cost that sweep
    time follows."""
    return sum(len(keys) for *_, keys in sweep_events(dd, order))


def peak_matchings(dd, order=None) -> int:
    """The most matchings the term bag holds after any event of `order`
    (by default the plan the sweep runs on `dd`)."""
    return max((len(keys) for *_, keys in sweep_events(dd, order)), default=1)


def sweep_events(dd, order=None):
    """Replay the events of `order` (by default the plan the sweep runs on
    `dd`): yield (node, step, frontier, bag keys before, bag keys after)
    per event, each key skein_eval's int (decoded by `slots`).

    Keys only: it replays skein_eval's events, its stable slots, its key
    masks and row codes and its pruning without the coefficient
    arithmetic, so a matching whose coefficient cancels to 0 still counts
    here (an upper bound on the live matchings, equal to them when nothing
    cancels).  The frontier (the global port at each slot, None at a
    hole) is updated in place, so it is current only until the next event
    is drawn."""
    box_half = _halves(dd.nodes)
    side = _side(box_half, dd.first) if any(box_half) else None
    plan = morse_decompose(dd)
    if order is not None:
        plan = MorsePlan(tuple(order), max(cut_widths(dd, order), default=0))
    bits = plan.peak_width.bit_length()
    frontier, holes, slot_of = [], [], [None] * len(dd.to)
    keys = {0}
    for ni in plan.order:
        step = _EventStep(dd, ni, frontier, holes, slot_of, side, bits)
        new_keys = set()
        for key in keys:
            rows, _, keep = step.splices(key & step.closing, 32)
            new_keys.update((key & keep) | code for code, *_ in rows)
        yield dd.nodes[ni], step, frontier, keys, new_keys
        keys = new_keys


def cut_widths(dd, order) -> list:
    """The number of wires with exactly one end in each swept prefix of
    `order`, read straight off the port table `to`; the oracle for the
    planner's widths."""
    owner = [u for u, node in enumerate(dd.nodes) for _ in range(node.port_count)]
    wires = [(owner[p], owner[q]) for p, q in enumerate(dd.to) if p < q]
    swept, widths = set(), []
    for ni in order:
        swept.add(ni)
        widths.append(sum((a in swept) != (b in swept) for a, b in wires))
    return widths


def slots(key: int, bits: int, size: int) -> tuple:
    """An int key of the sweep as a tuple of `size` slots: the partner
    slot at each, -1 at a hole (a field of bits holds partner + 1)."""
    field = (1 << bits) - 1
    return tuple((key >> bits * s & field) - 1 for s in range(size))


def signature_splices(node, step, signature) -> list:
    """The rows (partners, li, loops) of one event for a term whose closing
    slots have the partners `signature`, a tuple in the order of
    step._closing_port: each local matching of `node` glued with the real
    slot labels of the event `step`, then every row whose new strand joins
    two slots with equal tags dropped.  partners maps each new strand end
    to the other end."""
    back, end = list(step._back), list(step._end)
    for pi, partner in zip(step._closing_port.values(), signature):
        if partner in step._closing_port:
            back[pi] = step._closing_port[partner]
        else:
            end[pi] = partner
    tags = step._tags
    rows = []
    for li, (local_map, _) in enumerate(node.local_terms()):
        partners, loops = glue(local_map, back, end)
        if tags is None or all(tags[a] != tags[b] for a, b in partners.items()):
            rows.append((partners, li, loops))
    return rows


def enumerate_matchings(n: int) -> list[PlanarMatching]:
    """All non-crossing perfect matchings of 2n points (Catalan(n) many)."""

    def split(points: tuple[int, ...]) -> list[list[tuple[int, int]]]:
        if not points:
            return [[]]
        a = points[0]
        results = []
        # a's partner must leave an even gap on each side of the chord
        for idx in range(1, len(points), 2):
            b = points[idx]
            for left in split(points[1:idx]):
                for right in split(points[idx + 1:]):
                    results.append([(a, b)] + left + right)
        return results

    return [PlanarMatching(n, pairs) for pairs in split(tuple(range(2 * n)))]


def glued_fusion(u, v, a: int, b: int) -> tuple:
    """The terms, as sorted (pairs, sorted coefficient items), of the
    4-point coupon of u and v joined by the bigon u a ~ v b, u a+1 ~ v
    b-1, its ports u a+2, u a+3, v b+1, v b+2: each pair of local
    matchings glued on 8 points, coefficient the product times
    delta^loops, merged by matching."""
    back, end = [None] * 8, [None] * 8
    for p, q in ((a, 4 + b), ((a + 1) % 4, 4 + (b - 1) % 4)):
        back[p], back[q] = q, p
    for i, p in enumerate(((a + 2) % 4, (a + 3) % 4, 4 + (b + 1) % 4, 4 + (b + 2) % 4)):
        end[p] = i
    terms: dict = {}
    for mu, cu in u.local_terms():
        for mv, cv in v.local_terms():
            partners, loops = glue(mu + tuple(4 + p for p in mv), back, end)
            pairs = tuple(sorted((p, q) for p, q in partners.items() if p < q))
            terms[pairs] = term_add(terms.get(pairs, {}),
                                    term_mul(term_mul(cu, cv), _delta_power(loops)))
    return tuple(sorted((pairs, tuple(sorted(c.items()))) for pairs, c in terms.items() if c))


def _other_ends(rows) -> dict:
    """{(crossing, position): the (crossing, position) at the other end
    of its arc}, read off the arc labels of the crossing rows."""
    at: dict = {}
    for c, row in enumerate(rows):
        for p, arc in enumerate(row):
            at.setdefault(arc, []).append((c, p))
    other = {}
    for a, b in at.values():
        other[a], other[b] = b, a
    return other


def raw_code(rows) -> SimpleNamespace:
    """What cable_network reads of a link (crossings, crossing_count and
    the slot table `to` of LinkDiagram), for rows planar or not: slot
    4c + p is position p of crossing c, paired up by arc label."""
    other_end = _other_ends(rows)
    to = tuple(4 * c + p for c, p in (other_end[divmod(s, 4)] for s in range(4 * len(rows))))
    return SimpleNamespace(crossings=tuple(map(tuple, rows)), crossing_count=len(rows), to=to)


def planar_by_faces(rows) -> bool:
    """Euler's count on (crossing, position) pairs of the crossing rows:
    trace each face by running along an arc and turning to the next
    position counterclockwise; planar exactly when there are crossings +
    2 faces per connected piece of the crossing graph."""
    other_end = _other_ends(rows)
    faces, seen = 0, set()
    for start in other_end:
        if start in seen:
            continue
        faces += 1
        c, p = start
        while (c, p) not in seen:
            seen.add((c, p))
            c, p = other_end[(c, p)]
            p = (p + 1) % 4
    pieces, reached = 0, set()
    for c in range(len(rows)):
        if c in reached:
            continue
        pieces += 1
        stack = [c]
        while stack:
            u = stack.pop()
            if u not in reached:
                reached.add(u)
                stack += [other_end[(u, p)][0] for p in range(4)]
    return faces == len(rows) + 2 * pieces


def alternating_by_strands(diagram: LinkDiagram) -> bool:
    """Walk every strand (in at a position, out at the opposite one);
    its passages must alternate over (positions 1, 3) and under (0, 2)."""
    other_end = _other_ends(diagram.crossings)
    seen = set()
    for start in other_end:
        if start in seen:
            continue
        walk = []
        c, p = start
        while (c, p) not in seen:
            opp = (p + 2) % 4
            seen.update(((c, p), (c, opp)))
            walk.append(p % 2)
            c, p = other_end[(c, opp)]
        if any(walk[i] == walk[i - 1] for i in range(len(walk))):
            return False
    return True
