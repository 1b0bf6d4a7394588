"""Colored Kauffman states and their skein elements.

An n-colored state is a Kauffman state of `diagram`, a tuple of one sign
per crossing, and the color n is an argument of its own; `all_states` is
the one enumeration of them, capped at DEFAULT_MAX_STATES.  Resolving
each crossing of the n-cabled, projector-decorated diagram with the
colored Kauffman skein relation produces, per state s, a skein element
Y(s) (one Jones-Wenzl box per original arc, a classically smoothed
single strand pair and a residual (n-1)-cabled crossing at every
original crossing) weighted by the monomial alpha(s) = A^((2n-1) sum s),
the relation's only weights.  Summing over all 2^k states
(`colored_state_sum`) recovers the n-colored bracket.

Expanding every residual cabled crossing into its crossingless corner
patterns with the C_{m,k} coefficients yields the Lambda diagrams; their
degree bookkeeping (the D function, adequacy) drives the stability
results checked in `tails`.  Y(s) and every Lambda diagram are n-cables
of skein_eval.cable_network with a box on every arc; only the layout of
each crossing (_local) differs.

The sign convention is `diagram`'s: the +1 side carries A^(2n-1) and is
the classical A-smoothing at n=1, as the alpha formulas pin it.
"""
from __future__ import annotations

import functools
import itertools

from .diagram import LinkDiagram, Record, _check_state, all_b_state, union_find
from .laurent import (
    LaurentPolynomial,
    RationalFunction,
    crossing_expansion_coefficient,
)
from .skein_eval import (
    DecoratedDiagram,
    ResourceLimitError,
    _check_color,
    cable_network,
    evaluate_rational,
    projector_node,
)
from .temperley_lieb import top_point

# the most colored states a state sum or listing visits (2^12)
DEFAULT_MAX_STATES = 4096
# the most terms a corner-pattern expansion builds (2^16)
MAX_LAMBDA_TERMS = 65536


def all_states(link: LinkDiagram, n: int) -> list:
    """Every color-n state of `link` in sign order: -1 before +1, crossing
    0 first, as sorting the tuples gives.  The color is checked first
    (ValueError), then the cap of DEFAULT_MAX_STATES (ResourceLimitError),
    before any state is built."""
    _check_color(n)
    k = link.crossing_count
    if 1 << k > DEFAULT_MAX_STATES:
        raise ResourceLimitError(
            f"2^{k} states exceed the cap of {DEFAULT_MAX_STATES}")
    return list(itertools.product((-1, 1), repeat=k))


def alpha(link: LinkDiagram, n: int, s: tuple) -> LaurentPolynomial:
    """The state weight A^((2n-1) sum s(i))."""
    _check_color(n)
    _check_state(link, s)
    return LaurentPolynomial.monomial(1, (2 * n - 1) * sum(s))


def corner_pattern(m: int, k: int):
    """Chords of the k-th crossingless corner pattern of an m-cabled
    crossing: k strands turn back across the corners (0,1) and (2,3),
    m-k across (1,2) and (3,0).  Chord ends are (slot, stub index)."""
    if not 0 <= k <= m:
        raise ValueError(f"corner index {k} out of range for width {m}")
    chords = []
    counts = {(0, 1): k, (1, 2): m - k, (2, 3): k, (3, 0): m - k}
    for (s1, s2), c in counts.items():
        for j in range(1, c + 1):
            chords.append(((s1, m + 1 - j), (s2, j)))
    return tuple(chords)


# ---------------------------------------------------------------------------
# diagram assembly


@functools.cache
def _local(sign: int, n: int, k=None) -> tuple:
    """One crossing on one side of the colored skein relation, as the
    (m, shift, chords) of cable_network.  The two chords of the classically
    smoothed strand take stub 1 or stub n of each slot, and the residual
    (n-1)-cable fills the rest in order, its boundary index idx in a slot
    on cable stub idx + shift[slot]: an (n-1) x (n-1) grid, or, given a
    corner index k, no grid and the chords of its k-th corner pattern."""
    if sign == 1:
        singles, shift = (((1, n), (2, 1)), ((3, n), (0, 1))), (1, 0, 1, 0)
    else:
        singles, shift = (((0, n), (1, 1)), ((2, n), (3, 1))), (0, 1, 0, 1)
    if k is None:
        return n - 1, shift, singles
    corners = tuple(((s1, j1 + shift[s1]), (s2, j2 + shift[s2]))
                    for (s1, j1), (s2, j2) in corner_pattern(n - 1, k))
    return 0, shift, singles + corners


def _network(link: LinkDiagram, n: int, s: tuple, indices=None) -> DecoratedDiagram:
    """Y(s), or given one corner index per crossing its Lambda diagram:
    the n-cable of cable_network with an f(n) box on every arc (by repr)
    and each crossing laid out by _local, then a closed f(n) box per free
    loop.  The caller has checked the color and the state."""
    box = projector_node(n)
    local = [_local(sign, n, k) for sign, k in zip(s, indices or itertools.repeat(None))]
    nodes, to = cable_network(
        link, n, [(arc, box) for arc in sorted(link.arcs, key=repr)], local)
    for _ in range(link.free_loops):
        nodes.append(box)
        to += [len(to) + top_point(p, n) for p in range(2 * n)]
    return DecoratedDiagram(nodes, to)


def build_upsilon(link: LinkDiagram, n: int, s: tuple) -> DecoratedDiagram:
    """The skein element of a colored state: every crossing smoothed per
    s with a residual (n-1)-cabled crossing, one f(n) box per arc."""
    _check_color(n)
    _check_state(link, s)
    return _network(link, n, s)


def lambda_diagram(link: LinkDiagram, n: int, s: tuple,
                   indices) -> DecoratedDiagram:
    """The crossingless skein element for one expansion index tuple: the
    residual cable of crossing j collapsed to its indices[j]-th corner
    pattern."""
    indices = tuple(indices)
    if len(indices) != link.crossing_count:
        raise ValueError("one corner index per crossing")
    _check_color(n)
    _check_state(link, s)
    return _network(link, n, s, indices)


def lambda_expand(link: LinkDiagram, n: int, s: tuple):
    """All n^k terms (coefficient, Lambda diagram) of the corner-pattern
    expansion, indices in lexicographic order; the coefficient of
    (i_1..i_k) is the product of C_{n-1, i_j}.  More than MAX_LAMBDA_TERMS
    raise ResourceLimitError before any term is built."""
    _check_color(n)
    _check_state(link, s)
    k = link.crossing_count
    m = n - 1
    if (m + 1) ** k > MAX_LAMBDA_TERMS:
        raise ResourceLimitError(
            f"{(m + 1) ** k} expansion terms exceed the cap of {MAX_LAMBDA_TERMS}")
    out = []
    for indices in itertools.product(range(m + 1), repeat=k):
        coeff = LaurentPolynomial.one()
        for i in indices:
            coeff = coeff * crossing_expansion_coefficient(m, i)
        out.append((coeff, _network(link, n, s, indices)))
    return out


def colored_state_sum(link: LinkDiagram, n: int) -> LaurentPolynomial:
    """Sum alpha(s) * <Y(s)> over all 2^k colored states; equals the
    n-colored bracket of the diagram.

    Individual state values live in Q(A) — only the sum is integral."""
    total = RationalFunction.zero()
    for s in all_states(link, n):
        value = evaluate_rational(build_upsilon(link, n, s))
        total = total + value * alpha(link, n, s)
    return total.as_laurent()


# ---------------------------------------------------------------------------
# degrees and adequacy


def _require_crossingless(S: DecoratedDiagram):
    # every node must be a Jones-Wenzl box: a crossing, or a tangle that
    # from_link fused, is no box to replace by parallel strands
    if not all(nd.projector for nd in S.nodes):
        raise ValueError("skein element still has crossings")


def _bar_circles(S: DecoratedDiagram):
    """Circles of the diagram with every box replaced by parallel strands:
    (circle count, (node index, circle) per strand), each circle named by
    a port on it."""
    first = S.first
    strands = [(ni, first[ni] + p, first[ni] + top_point(p, nd.port_count // 2))
               for ni, nd in enumerate(S.nodes) for p in range(nd.port_count // 2)]
    root = union_find(range(len(S.to)), itertools.chain(
        enumerate(S.to), ((bottom, top) for _, bottom, top in strands)))
    return len(set(root.values())), [(ni, root[bottom]) for ni, bottom, _ in strands]


def D_degree(S: DecoratedDiagram) -> int:
    """Minimum degree -2c of the loop polynomial obtained by replacing
    every box with the identity; a lower bound for the minimum degree of
    the value of S."""
    _require_crossingless(S)
    circles, _ = _bar_circles(S)
    return -2 * circles


def is_adequate_skein(S: DecoratedDiagram) -> bool:
    """True when no circle of the identity-replaced diagram passes through
    the same box twice; then the bound of D_degree is attained."""
    _require_crossingless(S)
    _, on = _bar_circles(S)
    return len(set(on)) == len(on)


# ---------------------------------------------------------------------------
# the degree ladder


class LemmaCheck(Record):
    name: str
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class DegreeLemmaReport(Record):
    diagram: str
    n: int
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c.name for c in self.checks if not c.ok)


def verify_degree_lemmas(link: LinkDiagram, n: int) -> DegreeLemmaReport:
    """The exact degree identities behind tail stability, checked on one
    diagram at one color."""
    _check_color(n)
    k = link.crossing_count
    m = n - 1
    checks = []
    lo = all_b_state(link)

    # weight ladder: d(alpha) climbs by 4n-2 per flipped crossing
    if k:
        s1 = (1,) + lo[1:]
        checks.append(LemmaCheck(
            "alpha-step", alpha(link, n, lo).min_degree(),
            alpha(link, n, s1).min_degree() - 4 * n + 2))
        prev = lo
        monotone = True
        for r in range(k):
            nxt = prev[:r] + (-prev[r],) + prev[r + 1:]
            if alpha(link, n, prev).min_degree() > alpha(link, n, nxt).min_degree():
                monotone = False
            prev = nxt
        checks.append(LemmaCheck("alpha-monotone", int(monotone), 1))

    # top coefficient step: d(C_{m,m}) - d(C_{m,m-1}) = -2
    if m >= 1:
        checks.append(LemmaCheck(
            "coefficient-step",
            crossing_expansion_coefficient(m, m).min_degree()
            - crossing_expansion_coefficient(m, m - 1).min_degree(),
            -2))
    else:
        checks.append(LemmaCheck(
            "coefficient-step",
            crossing_expansion_coefficient(0, 0).min_degree(), 0))

    if k:
        all_top = (m,) * k
        lam_lo = lambda_diagram(link, n, lo, all_top)
        checks.append(LemmaCheck(
            "extreme-lambda-adequate", int(is_adequate_skein(lam_lo)), 1))

        # flipping one state entry moves D by exactly 2
        s1 = (1,) + lo[1:]
        checks.append(LemmaCheck(
            "lambda-state-step",
            D_degree(lam_lo),
            D_degree(lambda_diagram(link, n, s1, all_top)) - 2))

        # lowering one corner index moves D by exactly 2 either way
        if m >= 1:
            steps_ok = True
            for j in range(k):
                lowered = list(all_top)
                lowered[j] = m - 1
                dd = D_degree(lambda_diagram(link, n, lo, lowered))
                if abs(dd - D_degree(lam_lo)) != 2:
                    steps_ok = False
            checks.append(LemmaCheck("lambda-index-step", int(steps_ok), 1))

        # the extreme term is never canceled: the state value's minimum
        # degree equals the extreme expansion term's
        ups_value = evaluate_rational(build_upsilon(link, n, lo))
        lam_value = evaluate_rational(lam_lo)
        extreme = lam_value * crossing_expansion_coefficient(m, m) ** k
        checks.append(LemmaCheck(
            "extreme-term-survives",
            ups_value.min_degree(), extreme.min_degree()))

        # and the bound D is exactly attained there
        checks.append(LemmaCheck(
            "adequate-degree-attained",
            lam_value.min_degree(), D_degree(lam_lo)))

    return DegreeLemmaReport(link.name or "?", n, tuple(checks))
