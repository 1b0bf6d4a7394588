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

The wiring of a diagram is one flat slot table, the form a network's
port table has in skein_eval: slot 4c + p is position p of crossing c,
and to[4c + p] is the slot at the other end of its arc, so `to` is its
own inverse.  An arc's lower slot is its first.  Slots 4c and 4c + 2 are
under-passages and 4c + 1 and 4c + 3 over-passages, so a slot's parity
says which strand it is on, and the next slot counterclockwise at its
crossing is s & ~3 | (s + 1) & 3.

Record, the base of the package's eight result records (StateGraph here,
MorsePlan, LemmaCheck, DegreeLemmaReport, CoefficientPrefix, ColorEntry,
StabilityReport and Fixture), lives here as the lowest module that all
of their modules import.  It stands in for a frozen dataclass because
importing dataclasses costs more at start-up than the whole package.
"""
from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

A_JOINS = ((1, 2), (3, 0))
B_JOINS = ((0, 1), (2, 3))


class MalformedPDError(ValueError):
    pass


class Record:
    """An immutable record whose fields are its class's annotations, in
    order.  It is built from its fields by position or keyword and then
    checked by __post_init__; it equals and hashes as its field values,
    against records of its own class only; it prints as
    Name(field=value, ...); assigning to it raises AttributeError.  The
    fields live in the instance __dict__, so a record pickles as a plain
    object and rebuilds from Name(**record.__dict__)."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        surplus = args[len(fields):] or [k for k in kwargs if k not in fields or k in values]
        values.update(kwargs)
        if surplus or len(values) < len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}: "
                            f"got {surplus or 'too few'}")
        self.__dict__.update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a record with a rule overrides this."""

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


def _planar(to: list) -> bool:
    """Euler's check on the rotation system of the slot table `to`.  Each
    face is a cycle of slots p -> the slot after to[p] counterclockwise at
    its crossing: run along the arc to its other end and turn there.  The
    code describes a planar diagram exactly when there are crossings + 2
    faces per connected component of the crossing graph."""
    seen = [False] * len(to)
    faces = 0
    for start in range(len(to)):
        if not seen[start]:
            faces += 1
            p = start
            while not seen[p]:
                seen[p] = True
                q = to[p]
                p = q & ~3 | (q + 1) & 3
    root = union_find(range(len(to) >> 2),
                      ((p >> 2, q >> 2) for p, q in enumerate(to) if p < q))
    return faces == len(root) + 2 * len(set(root.values()))


class LinkDiagram:
    """An unoriented link diagram given by its crossing tuples.

    Arc labels may be any hashable values; parse_pd produces consecutive
    integers.  free_loops counts crossing-free circle components; it must
    be an int (not a bool).  `to` is the slot table of the module
    docstring.  Every arc must appear exactly twice and the code must be
    planar (_planar): a diagram is drawn in the plane by construction.
    """

    __slots__ = ("crossings", "free_loops", "name", "arcs", "to")

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
        if type(free_loops) is not int:  # bool is an int subclass; refuse it too
            raise MalformedPDError(f"loops must be an integer, got {free_loops!r}")
        if free_loops < 0:
            raise MalformedPDError("negative loop count")
        self.crossings = tuple(rows)
        self.free_loops = free_loops
        self.name = name
        slots: dict = {}
        for p, arc in enumerate(arc for t in rows for arc in t):
            slots.setdefault(arc, []).append(p)
        to = [0] * (4 * len(rows))
        for arc, ends in slots.items():
            if len(ends) != 2:
                raise MalformedPDError(f"arc {arc!r} appears {len(ends)} time(s); "
                                       "every arc must appear exactly twice")
            p, q = ends
            to[p], to[q] = q, p
        if not _planar(to):
            raise MalformedPDError(f"{name or 'the PD code'} is not planar: "
                                   "it draws no diagram in the plane")
        self.arcs = frozenset(slots)
        self.to = tuple(to)

    # -- structure -----------------------------------------------------

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

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


class StateGraph(Record):
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

    Slot 4c + p is position p of crossing c; each arc joins its two slots
    (`to`) and each smoothing joins slot pairs within a crossing.
    """
    _check_state(diagram, state)
    k = diagram.crossing_count
    smoothing = [A_JOINS if s == 1 else B_JOINS for s in state]
    joins = list(enumerate(diagram.to))
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
    return not apply_state(diagram, all_a_state(diagram)).has_loop_edge


def is_b_adequate(diagram: LinkDiagram) -> bool:
    return not apply_state(diagram, all_b_state(diagram)).has_loop_edge


def is_adequate(diagram: LinkDiagram) -> bool:
    return is_a_adequate(diagram) and is_b_adequate(diagram)


def is_alternating(diagram: LinkDiagram) -> bool:
    """Every arc joins an under-passage (positions 0, 2) to an
    over-passage (1, 3).  A strand leaves a crossing at the position
    opposite the one it entered by, of the same parity, so this is the
    strands' alternation of over and under."""
    return all((p ^ q) & 1 for p, q in enumerate(diagram.to))


def mirror(diagram: LinkDiagram) -> LinkDiagram:
    """Swap over- and under-strands everywhere (rotate each tuple once)."""
    return LinkDiagram(
        [(b, c, d, a) for a, b, c, d in diagram.crossings],
        free_loops=diagram.free_loops,
        name=f"mirror({diagram.name})" if diagram.name else "",
    )
