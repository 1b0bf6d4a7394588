"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
the same PD text and the same Temperley-Lieb elements.  The program under
test only ever sees the generated inputs, never the seed.
"""
from __future__ import annotations

import random

# (strands, crossings) grid of bracket_braids; crossing counts straddle
# the planner's 13-node switch from its exact subset DP to its width greedy.
BRAID_STRANDS = (3, 4, 5, 6)
BRAID_CROSSINGS = tuple(range(6, 41, 2)) + (11, 13, 15)
# Signs change a bracket's cost through coefficient cancellation; three
# braids per cell keep the median job within a few percent across seeds.
BRAIDS_PER_CELL = 3


def braid_shape(strands: int, length: int) -> list:
    """Generator indices of one grid cell, the same for every seed.

    Every index 1..strands-1 occurs, so the closure is one connected
    diagram with no crossing-free loops."""
    if strands < 2 or length < strands - 1:
        raise ValueError("need at least one crossing per adjacent strand pair")
    rng = random.Random(f"shape:{strands}:{length}")
    shape = list(range(1, strands))
    shape += [rng.randrange(1, strands) for _ in range(length - len(shape))]
    rng.shuffle(shape)
    return shape


def random_braid(rng: random.Random, shape) -> list:
    """A braid word on a fixed shape: +i for sigma_i, -i for its inverse.

    The seed draws only the crossing signs.  Flipping a sign rotates a
    crossing's PD tuple, which swaps its A- and B-smoothings but keeps
    the network a bracket's sweep walks, so the links differ from seed to
    seed while the planner's work does not.  The sweep's cost still moves
    with coefficient cancellation, and a cable's with the orientation of
    its crossing grids."""
    return [g if rng.random() < 0.5 else -g for g in shape]


def braid_pd(word, strands: int) -> list:
    """PD tuples of the braid closure.

    Strands run upward; a crossing lists its arcs counterclockwise from
    the incoming under-strand, the convention of skeinlab.diagram.  For
    sigma_i the under-strand runs bottom-left to top-right; for its
    inverse the over-strand does."""
    label = list(range(1, strands + 1))
    next_label = strands + 1
    rows = []
    for g in word:
        i = abs(g) - 1
        a, b = label[i], label[i + 1]
        c, d = next_label, next_label + 1
        next_label += 2
        rows.append((a, b, d, c) if g > 0 else (b, d, c, a))
        label[i], label[i + 1] = c, d
    close = {top: bottom for top, bottom in zip(label, range(1, strands + 1))}
    return [tuple(close.get(x, x) for x in row) for row in rows]


def pd_text(rows) -> str:
    return " / ".join("X " + " ".join(map(str, row)) for row in rows)


def bracket_inputs(seed: int) -> list:
    """(strands, crossings, PD text), BRAIDS_PER_CELL per cell of the
    braid grid."""
    rng = random.Random(f"bracket_braids:{seed}")
    return [(s, c, pd_text(braid_pd(random_braid(rng, braid_shape(s, c)), s)))
            for s in BRAID_STRANDS for c in BRAID_CROSSINGS
            for _ in range(BRAIDS_PER_CELL)]


# Random closures added to the corpus in cjones_cables: color -> shapes.
# They are small enough that every one is cheaper than the corpus jobs in
# the middle and the tail of the job-time distribution, so job_p50_s and
# job_tail_s read corpus jobs on every seed.
CABLE_RANDOM = {2: ((3, 6),), 3: ((3, 3),)}


def cable_inputs(seed: int) -> list:
    """(color, PD text) of random braid closures for cjones_cables.

    Each shape occurs once per color, so no (diagram, color) pair repeats
    and no word meets its mirror."""
    rng = random.Random(f"cjones_cables:{seed}")
    return [(n, pd_text(braid_pd(random_braid(rng, braid_shape(s, c)), s)))
            for n, shapes in sorted(CABLE_RANDOM.items()) for s, c in shapes]


def catalan(n: int) -> int:
    """Number of non-crossing matchings of 2n points."""
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def tl_pairs(rng: random.Random, n: int) -> list:
    """A uniformly shaped random non-crossing matching of 2n circle points
    (a random balanced bracket word, chords read off its matching)."""
    opens = [1] * n + [-1] * n
    while True:
        rng.shuffle(opens)
        depth = 0
        for step in opens:
            depth += step
            if depth < 0:
                break
        else:
            break
    stack, pairs = [], []
    for point, step in enumerate(opens):
        if step > 0:
            stack.append(point)
        else:
            pairs.append((stack.pop(), point))
    return pairs


# Random TL_n elements multiplied against f(n) in tl_projectors: how many
# per n, and how many distinct basis diagrams each (the cost of x*f grows
# with it, so it is fixed).
TL_RANDOM_PER_N = 2
TL_RANDOM_TERMS = 3


def tl_inputs(seed: int, n_max: int = 6) -> list:
    """(n, [(pairs, {exponent: coefficient}), ...]) random TL_n elements
    with small monomial coefficients."""
    rng = random.Random(f"tl_projectors:{seed}")
    out = []
    for n in range(2, n_max + 1):
        for _ in range(TL_RANDOM_PER_N):
            terms = {}
            while len(terms) < min(TL_RANDOM_TERMS, catalan(n)):
                pairs = tuple(tl_pairs(rng, n))
                terms[pairs] = {rng.randrange(-4, 5): rng.choice((-3, -2, -1, 1, 2, 3))}
            out.append((n, sorted(terms.items())))
    return out
