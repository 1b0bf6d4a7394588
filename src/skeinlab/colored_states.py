"""Colored Kauffman states and their skein elements.

An n-colored state assigns +1 or -1 to every crossing.  Resolving each
crossing of the n-cabled, projector-decorated diagram with the colored
Kauffman skein relation produces, per state s, a skein element Y(s)
(one Jones-Wenzl box per original arc, a classically smoothed single
strand pair and a residual (n-1)-cabled crossing at every original
crossing) weighted by the monomial alpha(s) = A^((2n-1) sum s).  Summing
over all 2^k states recovers the n-colored bracket.

Expanding every residual cabled crossing into its crossingless corner
patterns with the C_{m,k} coefficients yields the Lambda diagrams; their
degree bookkeeping (the D function, adequacy) drives the stability
results checked in `tails`.

Sign convention: +1 is the side carrying A^(2n-1) and degenerating to
the classical A-smoothing at n=1; -1 likewise for B.  (The coefficient
assignment follows the alpha formulas, which pin it unambiguously.)
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import LinkDiagram, union_find
from .laurent import (
    LaurentPolynomial,
    RationalFunction,
    crossing_expansion_coefficient,
)
from .skein_eval import (
    CROSSING,
    DecoratedDiagram,
    ResourceLimitError,
    _crossing_grid,
    _require_planar,
    evaluate_rational,
    projector_node,
)
from .temperley_lieb import top_point

# the most colored states a state sum or listing visits (2^12)
DEFAULT_MAX_STATES = 4096


@dataclass(frozen=True)
class ColoredState:
    """A total assignment of +1/-1 to the crossings, at color n."""

    n: int
    signs: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("color must be >= 1")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("state entries must be +1 or -1")

    @property
    def crossing_count(self) -> int:
        return len(self.signs)

    def flipped(self, i: int) -> "ColoredState":
        signs = list(self.signs)
        signs[i] = -signs[i]
        return ColoredState(self.n, tuple(signs))


def s_plus(link: LinkDiagram, n: int) -> ColoredState:
    return ColoredState(n, (1,) * link.crossing_count)


def s_minus(link: LinkDiagram, n: int) -> ColoredState:
    return ColoredState(n, (-1,) * link.crossing_count)


def all_states(link: LinkDiagram, n: int):
    k = link.crossing_count
    for bits in range(1 << k):
        yield ColoredState(n, tuple(1 if bits >> i & 1 else -1 for i in range(k)))


def smoothing_coefficients(n: int) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """(plus-side, minus-side) weights of the color-n skein relation."""
    if n < 1:
        raise ValueError("color must be >= 1")
    return (LaurentPolynomial.monomial(1, 2 * n - 1),
            LaurentPolynomial.monomial(1, -(2 * n - 1)))


def _check_state(link: LinkDiagram, n: int, s: ColoredState):
    if s.n != n or s.crossing_count != link.crossing_count:
        raise ValueError(f"expected a color-{n} state of {link.crossing_count} "
                         f"crossings, got color {s.n} with {s.crossing_count}")


def alpha(link: LinkDiagram, n: int, s: ColoredState) -> LaurentPolynomial:
    """The state weight A^((2n-1) sum s(i))."""
    _check_state(link, n, s)
    return LaurentPolynomial.monomial(1, (2 * n - 1) * sum(s.signs))


@dataclass(frozen=True)
class SmoothingPattern:
    """Stub-level layout of one side of the colored skein relation.

    `singles` are the two chords of the classically smoothed strand,
    as ((slot, stub), (slot, stub)) with stubs counted counterclockwise
    1..n within each slot.  `grid_shift[slot]` maps a boundary index of
    the residual (n-1)-cable to the cable stub it occupies: the single
    takes stub 1 or stub n of each slot and the residual cable fills the
    rest in order.
    """

    sign: int
    singles: tuple
    grid_shift: tuple  # per slot: 0 (stubs 1..n-1) or 1 (stubs 2..n)

    def stub_of_grid(self, slot: int, idx: int) -> int:
        return idx + self.grid_shift[slot]


def _pattern(sign: int, n: int) -> SmoothingPattern:
    if sign == 1:
        singles = (((1, n), (2, 1)), ((3, n), (0, 1)))
        shift = (1, 0, 1, 0)
    else:
        singles = (((0, n), (1, 1)), ((2, n), (3, 1)))
        shift = (0, 1, 0, 1)
    return SmoothingPattern(sign, singles, shift)


def colored_smoothing_expand(n: int):
    """The color-n Kauffman skein relation at one crossing: two weighted
    local patterns (coefficient, SmoothingPattern), the same at every
    crossing."""
    c_plus, c_minus = smoothing_coefficients(n)
    return ((c_plus, _pattern(1, n)), (c_minus, _pattern(-1, n)))


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


def _state_wiring(link: LinkDiagram, n: int, s: ColoredState):
    """The wiring that Y(s) and its Lambda diagrams share: one f(n) box per
    arc plus a closed box per free loop, and each crossing's two
    classically smoothed strands.  Returns (nodes, arc_side, pairing,
    patterns) where arc_side[(crossing, slot, stub)] is the box port
    facing that cable stub and patterns[ci] the SmoothingPattern of
    crossing ci."""
    _check_state(link, n, s)
    _require_planar(link, n)
    nodes = []
    pairing = {}
    arc_side = {}
    for arc in sorted(link.arcs, key=repr):
        b = len(nodes)
        nodes.append(projector_node(n))
        (c1, p1), (c2, p2) = link.arc_slots(arc)
        for i in range(1, n + 1):
            arc_side[(c1, p1, i)] = (b, i - 1)
            arc_side[(c2, p2, n + 1 - i)] = (b, top_point(i - 1, n))
    for _ in range(link.free_loops):
        b = len(nodes)
        nodes.append(projector_node(n))
        for p in range(n):
            pairing[(b, p)] = (b, top_point(p, n))
    patterns = [_pattern(sign, n) for sign in s.signs]
    for ci, pat in enumerate(patterns):
        for (sl1, i1), (sl2, i2) in pat.singles:
            pairing[arc_side[(ci, sl1, i1)]] = arc_side[(ci, sl2, i2)]
    return nodes, arc_side, pairing, patterns


def build_upsilon(link: LinkDiagram, n: int, s: ColoredState) -> DecoratedDiagram:
    """The skein element of a colored state: every crossing smoothed per
    s with a residual (n-1)-cabled crossing, one f(n) box per arc."""
    m = n - 1
    nodes, arc_side, pairing, patterns = _state_wiring(link, n, s)
    for ci, pat in enumerate(patterns if m else ()):  # n = 1: no residual cable
        base = len(nodes)
        nodes.extend([CROSSING] * (m * m))
        stubs = _crossing_grid(pairing, base, m)
        # boundary of the residual cable onto the remaining stubs
        for slot in range(4):
            for idx in range(1, m + 1):
                end = arc_side[(ci, slot, pat.stub_of_grid(slot, idx))]
                pairing[end] = stubs[slot * m + idx - 1]
    return DecoratedDiagram(nodes, pairing)


def lambda_diagram(link: LinkDiagram, n: int, s: ColoredState,
                   indices) -> DecoratedDiagram:
    """The crossingless skein element for one expansion index tuple: the
    residual cable of crossing j collapsed to its indices[j]-th corner
    pattern."""
    indices = tuple(indices)
    if len(indices) != link.crossing_count:
        raise ValueError("one corner index per crossing")
    return _lambda_builder(link, n, s)(indices)


def _lambda_builder(link: LinkDiagram, n: int, s: ColoredState):
    """Check the state and the planarity of `link` once; return the map
    from an index tuple to its Lambda diagram."""
    nodes, arc_side, pairing, patterns = _state_wiring(link, n, s)

    def build(indices) -> DecoratedDiagram:
        wired = dict(pairing)
        for ci, (pat, k) in enumerate(zip(patterns, indices)):
            for (sl1, j1), (sl2, j2) in corner_pattern(n - 1, k):
                a = arc_side[(ci, sl1, pat.stub_of_grid(sl1, j1))]
                wired[a] = arc_side[(ci, sl2, pat.stub_of_grid(sl2, j2))]
        return DecoratedDiagram(nodes, wired)
    return build


def lambda_expand(link: LinkDiagram, n: int, s: ColoredState,
                  max_terms: int | None = 65536):
    """All n^k terms (coefficient, Lambda diagram) of the corner-pattern
    expansion, indices in lexicographic order; the coefficient of
    (i_1..i_k) is the product of C_{n-1, i_j}."""
    k = link.crossing_count
    m = n - 1
    if max_terms is not None and (m + 1) ** k > max_terms:
        raise ResourceLimitError(
            f"{(m + 1) ** k} expansion terms exceed the cap of {max_terms}")
    build = _lambda_builder(link, n, s)
    out = []
    for indices in itertools.product(range(m + 1), repeat=k):
        coeff = LaurentPolynomial.one()
        for i in indices:
            coeff = coeff * crossing_expansion_coefficient(m, i)
        out.append((coeff, build(indices)))
    return out


def colored_state_sum(link: LinkDiagram, n: int, max_width: int | None = None,
                      max_states: int = DEFAULT_MAX_STATES) -> LaurentPolynomial:
    """Sum alpha(s) * <Y(s)> over all 2^k colored states; equals the
    n-colored bracket of the diagram.

    Individual state values live in Q(A) — only the sum is integral."""
    if n < 1:
        raise ValueError("color must be >= 1")
    k = link.crossing_count
    if 1 << k > max_states:
        raise ResourceLimitError(f"2^{k} states exceed the cap of {max_states}")
    total = RationalFunction.zero()
    for s in all_states(link, n):
        value = evaluate_rational(build_upsilon(link, n, s), max_width=max_width)
        total = total + value * alpha(link, n, s)
    return total.as_laurent()


# ---------------------------------------------------------------------------
# degrees and adequacy


def _require_crossingless(S: DecoratedDiagram):
    if CROSSING in S.nodes:
        raise ValueError("skein element still has crossings")


def _bar_circles(S: DecoratedDiagram):
    """Circles of the diagram with every box replaced by parallel strands.
    Returns (circle count, strand->circle map) where strands are keyed by
    (node index, bottom position)."""
    ports = [(ni, p) for ni, nd in enumerate(S.nodes) for p in range(nd.port_count)]
    strands = [((ni, p), (ni, top_point(p, nd.port_count // 2)))
               for ni, nd in enumerate(S.nodes) for p in range(nd.port_count // 2)]
    root = union_find(ports, itertools.chain(S.pairing.items(), strands))
    strand_circle = {bottom: root[bottom] for bottom, _ in strands}
    return len(set(root.values())), strand_circle


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
    _, strand_circle = _bar_circles(S)
    seen = set()
    for (ni, _p), root in strand_circle.items():
        if (ni, root) in seen:
            return False
        seen.add((ni, root))
    return True


# ---------------------------------------------------------------------------
# the degree ladder


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class DegreeLemmaReport:
    diagram: str
    n: int
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c.name for c in self.checks if not c.ok)

    def to_dict(self) -> dict:
        return {
            "diagram": self.diagram,
            "n": self.n,
            "ok": self.ok,
            "checks": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "ok": c.ok}
                       for c in self.checks],
        }


def verify_degree_lemmas(link: LinkDiagram, n: int,
                         max_width: int | None = None) -> DegreeLemmaReport:
    """The exact degree identities behind tail stability, checked on one
    diagram at one color."""
    k = link.crossing_count
    m = n - 1
    checks = []
    lo = s_minus(link, n)

    # weight ladder: d(alpha) climbs by 4n-2 per flipped crossing
    if k:
        s1 = lo.flipped(0)
        checks.append(LemmaCheck(
            "alpha-step", alpha(link, n, lo).min_degree(),
            alpha(link, n, s1).min_degree() - 4 * n + 2))
        prev = lo
        monotone = True
        for r in range(k):
            nxt = prev.flipped(r)
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
        s1 = lo.flipped(0)
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
        ups_value = evaluate_rational(build_upsilon(link, n, lo),
                                      max_width=max_width)
        lam_value = evaluate_rational(lam_lo, max_width=max_width)
        extreme = lam_value * crossing_expansion_coefficient(m, m) ** k
        checks.append(LemmaCheck(
            "extreme-term-survives",
            ups_value.min_degree(), extreme.min_degree()))

        # and the bound D is exactly attained there
        checks.append(LemmaCheck(
            "adequate-degree-attained",
            lam_value.min_degree(), D_degree(lam_lo)))

    return DegreeLemmaReport(link.name or "?", n, tuple(checks))
