"""Bundled reduced alternating diagrams for verification runs.

The corpus ships as data/fixtures.json: the 3- to 6-crossing prime
alternating knots (3_1, 4_1, 5_1, 5_2, 6_1, 6_2, 6_3) plus the Hopf link
as the 2-component representative.  Every entry carries a provenance
note describing how its PD code was constructed and cross-checked.

Entries are revalidated on every load rather than trusted: a fixture
feeding a verification run must be what it claims to be.  The checks are
arc bookkeeping and planarity (the PD parses), alternation, adequacy
(which for an alternating diagram rules out nugatory crossings, so the
diagram is reduced and its crossing number is honest), the declared
crossing and component counts, the circle-count identity |s_A| +
|s_B| = k + 2 of reduced alternating diagrams, and the declared
determinant recomputed as the spanning-tree count of the all-A state
graph.  Any mismatch raises FixtureValidationError.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache

from .diagram import (
    LinkDiagram, MalformedPDError, Record, all_a_state, all_b_state, apply_state,
    is_alternating,
)

_DATA = os.path.join(os.path.dirname(__file__), "data", "fixtures.json")


class FixtureValidationError(ValueError):
    """A bundled fixture failed its load-time revalidation."""


class Fixture(Record):
    name: str
    aliases: tuple
    diagram: LinkDiagram
    determinant: int
    note: str


# ---------------------------------------------------------------------------
# determinant oracle
#
# For a connected reduced alternating diagram the link determinant equals
# the number of spanning trees of either checkerboard graph; the all-A
# state graph (one vertex per state circle, one edge per crossing) is one
# of the two.  Kirchhoff's theorem turns the count into an integer
# determinant of a Laplacian minor, taken here by fraction-free (Bareiss)
# elimination: every division is exact, so it stays in the integers.

def _spanning_trees(vertex_count: int, edges) -> int:
    if vertex_count == 0:
        return 0
    lap = [[0] * vertex_count for _ in range(vertex_count)]
    for i, j in edges:
        if i == j:
            continue  # loop edges never sit in a tree
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    size = vertex_count - 1
    m = [row[1:] for row in lap[1:]]
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return 0
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        for row in m[col + 1:]:
            f = row[col]
            for c in range(col + 1, size):
                row[c] = (row[c] * top[col] - f * top[c]) // prev
        prev = top[col]
    return abs(prev)


def determinant(diagram: LinkDiagram) -> int:
    """Link determinant of an alternating diagram (spanning trees of the
    all-A state graph).  Free loops contribute a disconnected vertex, so
    split links correctly report 0."""
    if diagram.crossing_count == 0:
        return 1 if diagram.free_loops <= 1 else 0
    graph = apply_state(diagram, all_a_state(diagram))
    return _spanning_trees(graph.circle_count, graph.edges)


# ---------------------------------------------------------------------------
# loading

def _load_entry(entry: dict) -> Fixture:
    name = entry["name"]
    try:
        diagram = LinkDiagram(entry["pd"], name=name)
    except MalformedPDError as exc:
        raise FixtureValidationError(f"{name}: bad PD code ({exc})") from exc

    def check(ok: bool, what: str):
        if not ok:
            raise FixtureValidationError(f"{name}: {what}")

    check(diagram.crossing_count == entry["crossings"],
          f"declared {entry['crossings']} crossings, found {diagram.crossing_count}")
    check(diagram.component_count == entry["components"],
          f"declared {entry['components']} component(s), found {diagram.component_count}")
    check(is_alternating(diagram), "not alternating")
    a = apply_state(diagram, all_a_state(diagram))
    b = apply_state(diagram, all_b_state(diagram))
    check(not (a.has_loop_edge or b.has_loop_edge),
          "not adequate (nugatory or otherwise reducible)")
    circles = a.circle_count + b.circle_count
    check(circles == diagram.crossing_count + 2,
          f"|s_A| + |s_B| = {circles}, expected crossings + 2 = {diagram.crossing_count + 2}")
    det = determinant(diagram)
    check(det == entry["determinant"],
          f"declared determinant {entry['determinant']}, spanning trees give {det}")
    return Fixture(name=name, aliases=tuple(entry.get("aliases", ())),
                   diagram=diagram, determinant=det, note=entry.get("note", ""))


@lru_cache(maxsize=1)
def load_fixtures() -> tuple:
    """All bundled fixtures, revalidated; order as shipped (by crossing
    count within the knot table, Hopf link last)."""
    with open(_DATA, encoding="utf-8") as f:
        payload = json.load(f)
    return tuple(_load_entry(e) for e in payload["fixtures"])


def _key(name: str) -> str:
    return name.lower().replace("-", "_")


def fixture(name: str) -> Fixture:
    """Look up a fixture by name or alias (case-insensitive; hyphens and
    underscores interchangeable)."""
    wanted = _key(name)
    for fx in load_fixtures():
        if _key(fx.name) == wanted or any(_key(a) == wanted for a in fx.aliases):
            return fx
    raise KeyError(f"no fixture named {name!r}; available: {', '.join(fixture_names())}")


def fixture_names() -> tuple:
    return tuple(fx.name for fx in load_fixtures())
