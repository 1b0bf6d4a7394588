"""Label-level blackboard m-cable of a PD diagram, the oracle for the
port-level cable builder skein_eval.cable_ports: the cabled link is a
plain LinkDiagram, so its bracket comes from the ordinary link path.

The m-cable replaces every crossing by an m x m grid of crossings and
every arc by a band of m parallel arcs.  Grid layout per crossing: the
under-cable runs bottom (slot 0) to top (slot 2), the over-cable left
(slot 3) to right (slot 1).  vert(u, j) is the segment of under-strand
u (x = u) between rows j and j+1; horiz(o, i) the segment of
over-strand o (y = o) between columns i and i+1.  Boundary stubs carry
counterclockwise indices within each slot; gluing a band between two
slots reverses the index (i pairs with m+1-i).
"""
from skeinlab.diagram import LinkDiagram


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
