"""Link diagrams as PD codes, Kauffman states, and diagram surgery.

A crossing is a 4-tuple of arc labels listed counterclockwise starting at
the incoming under-strand, the usual table convention, so positions 0 and
2 hold the under-strand and positions 1 and 3 the over-strand.  The
A-smoothing joins each over-strand end to its counterclockwise-adjacent
arc: slot pairs (1,2) and (3,0).  The B-smoothing joins (0,1) and (2,3).

A Kauffman state is a tuple of signs, one per crossing in crossing
order: +1 picks the A-smoothing and -1 the B-smoothing.  The colored
states of `colored_states` are the same tuples, the color an argument of
its own there.

Unoriented diagrams do not distinguish the two under-strand ends, so each
stored tuple is canonicalized up to rotation by two positions; this makes
mirror() a genuine involution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

A_JOINS = ((1, 2), (3, 0))
B_JOINS = ((0, 1), (2, 3))


class MalformedPDError(ValueError):
    pass


def union_find(elements: Iterable[Hashable], joins) -> dict:
    """Map each element to the root of its class in the partition
    generated by the pairs in `joins`."""
    parent = {x: x for x in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {x: find(x) for x in parent}


def _canonical_crossing(t: tuple) -> tuple:
    r = (t[2], t[3], t[0], t[1])
    return min(t, r)


class LinkDiagram:
    """An unoriented link diagram given by its crossing tuples.

    Arc labels may be any hashable values; parse_pd produces consecutive
    integers.  free_loops counts crossing-free circle components.
    """

    __slots__ = ("crossings", "free_loops", "name", "arcs", "_slots_of_arc")

    def __init__(self, crossings: Iterable[Sequence[Hashable]], free_loops: int = 0,
                 name: str = ""):
        rows = []
        try:
            for t in crossings:
                t = tuple(t)
                if len(t) != 4:
                    raise MalformedPDError(f"crossing needs 4 arcs, got {t!r}")
                for arc in t:
                    hash(arc)
                rows.append(_canonical_crossing(t))
        except TypeError as exc:
            raise MalformedPDError(
                f"crossings must be rows of 4 hashable arc labels: {exc}") from exc
        if free_loops < 0:
            raise MalformedPDError("negative loop count")
        self.crossings = tuple(rows)
        self.free_loops = free_loops
        self.name = name
        slots: dict[Hashable, list[tuple[int, int]]] = {}
        for ci, t in enumerate(self.crossings):
            for pos, arc in enumerate(t):
                slots.setdefault(arc, []).append((ci, pos))
        for arc, occ in slots.items():
            if len(occ) != 2:
                raise MalformedPDError(
                    f"arc {arc!r} appears {len(occ)} time(s); every arc must appear exactly twice")
        self.arcs = frozenset(slots)
        self._slots_of_arc = slots

    # -- structure -----------------------------------------------------

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def arc_slots(self, arc) -> tuple[tuple[int, int], tuple[int, int]]:
        a, b = self._slots_of_arc[arc]
        return a, b

    def components(self) -> list[frozenset]:
        """Partition of the arcs into link components (strand-following:
        a strand entering a crossing leaves at the opposite position)."""
        root = union_find(self.arcs, ((t[pos], t[pos + 2])
                                      for t in self.crossings for pos in (0, 1)))
        groups: dict = {}
        for a, r in root.items():
            groups.setdefault(r, set()).add(a)
        return [frozenset(g) for g in sorted(groups.values(), key=lambda g: sorted(map(repr, g)))]

    @property
    def component_count(self) -> int:
        return len(self.components()) + self.free_loops

    def __eq__(self, other):
        if not isinstance(other, LinkDiagram):
            return NotImplemented
        return (sorted(self.crossings, key=repr) == sorted(other.crossings, key=repr)
                and self.free_loops == other.free_loops)

    def __repr__(self):
        label = self.name or f"{self.crossing_count} crossings"
        return f"LinkDiagram<{label}>"


# ---------------------------------------------------------------------------
# parsing

def parse_pd(text: str, name: str = "") -> LinkDiagram:
    """Parse PD text: entries "X a b c d" separated by newlines or "/",
    plus "O" for a crossing-free loop.  Arc labels may be any integers;
    they are kept as written."""
    crossings = []
    loops = 0
    for chunk in text.replace("/", "\n").splitlines():
        tokens = chunk.replace(",", " ").split()
        if not tokens:
            continue
        head = tokens[0].upper()
        if head == "O":
            if len(tokens) != 1:
                raise MalformedPDError(f"loop entry takes no arguments: {chunk!r}")
            loops += 1
            continue
        if head != "X":
            raise MalformedPDError(f"expected 'X a b c d' or 'O', got {chunk!r}")
        if len(tokens) != 5:
            raise MalformedPDError(f"crossing needs 4 arc labels: {chunk!r}")
        try:
            crossings.append(tuple(int(x) for x in tokens[1:]))
        except ValueError as exc:
            raise MalformedPDError(f"non-integer arc label in {chunk!r}") from exc
    return LinkDiagram(crossings, free_loops=loops, name=name)


# ---------------------------------------------------------------------------
# Kauffman states

def all_a_state(diagram: LinkDiagram) -> tuple:
    return (1,) * diagram.crossing_count


def all_b_state(diagram: LinkDiagram) -> tuple:
    return (-1,) * diagram.crossing_count


@dataclass(frozen=True)
class StateGraph:
    """Circles of a smoothed diagram with one edge per crossing."""
    circle_count: int
    edges: tuple  # (circle_i, circle_j) per crossing, in crossing order

    @property
    def has_loop_edge(self) -> bool:
        return any(i == j for i, j in self.edges)


def _check_state(diagram: LinkDiagram, state: Sequence[int]) -> None:
    """The one state validator: one sign per crossing, each +1 or -1."""
    if len(state) != diagram.crossing_count:
        raise ValueError("state length must equal the crossing count")
    for s in state:
        if s not in (-1, 1):
            raise ValueError(f"state entries must be +1 or -1, got {s!r}")


def apply_state(diagram: LinkDiagram, state: Sequence[int]) -> StateGraph:
    """Smooth every crossing and collect the circles.

    Slot ends are (crossing, position) points; each arc connects its two
    occurrences and each smoothing joins slot pairs within a crossing.
    """
    _check_state(diagram, state)
    k = diagram.crossing_count
    smoothing = [A_JOINS if s == 1 else B_JOINS for s in state]
    joins = [(4 * c1 + p1, 4 * c2 + p2)
             for (c1, p1), (c2, p2) in map(diagram.arc_slots, diagram.arcs)]
    joins += [(4 * ci + a, 4 * ci + b)
              for ci, pairs in enumerate(smoothing) for a, b in pairs]
    root = union_find(range(4 * k), joins)

    circles: dict[int, int] = {}
    for r in root.values():
        circles.setdefault(r, len(circles))
    edges = tuple((circles[root[4 * ci + a]], circles[root[4 * ci + c]])
                  for ci, ((a, _), (c, _)) in enumerate(smoothing))
    return StateGraph(circle_count=len(circles) + diagram.free_loops, edges=edges)


# ---------------------------------------------------------------------------
# diagram predicates

def is_a_adequate(diagram: LinkDiagram) -> bool:
    """No crossing touches the same all-A circle twice."""
    if diagram.crossing_count == 0:
        return True
    return not apply_state(diagram, all_a_state(diagram)).has_loop_edge


def is_b_adequate(diagram: LinkDiagram) -> bool:
    if diagram.crossing_count == 0:
        return True
    return not apply_state(diagram, all_b_state(diagram)).has_loop_edge


def is_adequate(diagram: LinkDiagram) -> bool:
    return is_a_adequate(diagram) and is_b_adequate(diagram)


def is_planar(diagram: LinkDiagram) -> bool:
    """Euler's check on the rotation system of the PD code.  Each face is
    traced by running along an arc to its other end and turning to the
    next slot counterclockwise there; the code describes a planar diagram
    exactly when there are crossings + 2 faces per connected component of
    the crossing graph."""
    k = diagram.crossing_count
    other_end = {}
    for arc in diagram.arcs:
        a, b = diagram.arc_slots(arc)
        other_end[a] = b
        other_end[b] = a
    faces = 0
    seen = set()
    for start in other_end:
        if start in seen:
            continue
        faces += 1
        c, p = start
        while (c, p) not in seen:
            seen.add((c, p))
            c, p = other_end[(c, p)]
            p = (p + 1) % 4
    root = union_find(range(k), ((a[0], b[0]) for a, b in other_end.items()))
    return faces == k + 2 * len(set(root.values()))


def is_alternating(diagram: LinkDiagram) -> bool:
    """Walk every strand; passages must alternate over/under.

    Positions 0 and 2 are under-passages, 1 and 3 over-passages.  A strand
    entering at a slot leaves at the opposite slot of the same crossing.
    """
    seen: set[tuple[int, int]] = set()
    for ci in range(diagram.crossing_count):
        for start in range(4):
            if (ci, start) in seen:
                continue
            walk = []
            c, p = ci, start
            while (c, p) not in seen:
                seen.add((c, p))
                opp = (p + 2) % 4
                seen.add((c, opp))
                walk.append(p % 2)  # 0: under, 1: over
                arc = diagram.crossings[c][opp]
                (c1, p1), (c2, p2) = diagram.arc_slots(arc)
                c, p = (c2, p2) if (c1, p1) == (c, opp) else (c1, p1)
            for i in range(len(walk)):
                if walk[i] == walk[(i + 1) % len(walk)]:
                    return False
    return True


def mirror(diagram: LinkDiagram) -> LinkDiagram:
    """Swap over- and under-strands everywhere (rotate each tuple once)."""
    return LinkDiagram(
        [(b, c, d, a) for a, b, c, d in diagram.crossings],
        free_loops=diagram.free_loops,
        name=f"mirror({diagram.name})" if diagram.name else "",
    )
