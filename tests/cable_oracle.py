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
enumerate_matchings lists the basis diagrams of TL_n by brute force.
"""
from skeinlab.diagram import LinkDiagram
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
    copies.  Band arcs are labeled ("band", arc, i) with i = 1..m indexed
    counterclockwise at the arc's first slot end."""
    if m < 1:
        raise ValueError("cable width must be >= 1")
    band_at: dict[tuple[int, int, int], tuple] = {}
    for arc in diagram.arcs:
        (c1, p1), (c2, p2) = diagram.arc_slots(arc)
        for i in range(1, m + 1):
            label = ("band", arc, i)
            band_at[(c1, p1, i)] = label
            band_at[(c2, p2, m + 1 - i)] = label

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
    return LinkDiagram(
        crossings,
        free_loops=diagram.free_loops * m,
        name=f"cable({diagram.name or '?'},{m})",
    )


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
