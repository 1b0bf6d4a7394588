"""The Temperley-Lieb algebras TL_n and their Jones-Wenzl projectors.

Boundary points of an (n, n)-tangle sit on a circle: bottom points
0..n-1 left to right, then top points n..2n-1 continuing counterclockwise,
so top position p (left to right) is point 2n-1-p.  A basis diagram is a
non-crossing perfect matching of the 2n points; there are Catalan(n) of
them.  Elements are finite sums with coefficients in Q(A); closed loops
formed while stacking evaluate to delta = -A^2 - A^-2 each.

glue is the package's one strand tracer: it joins a matching to its
outside wires, follows every strand and counts the closed loops.
Stacking, the partial trace and the sweep's splice in skein_eval only
build its wire tables and call it.

Arithmetic runs over Z[A, A^-1].  An element's cleared form is
(q, {matching: numerator}) with q the lcm of its coefficient denominators
and x = (1/q) * sum num_m * m; _cleared works it out once per element
and is the only code here that clears denominators.  Products, traces
and Wenzl's step combine integer numerators over the product of the
operands' q, and each output coefficient is reduced to a canonical
RationalFunction once, at the end -- never once per pair of terms.
Elements do not change after construction (`terms` is read-only), so the
remembered cleared form cannot go stale.

The n-th Jones-Wenzl projector is built by the two-box recursion
    f(n) = f(n-1)x1 - (Delta_{n-2}/Delta_{n-1}) (f(n-1)x1) e_{n-1} (f(n-1)x1)
with f(0) empty and f(1) a single strand.
"""
from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

from .laurent import (
    LaurentPolynomial,
    ONE,
    RationalFunction,
    divide_exact,
    laurent_lcm,
    loop_value,
    quantum_dimension,
    term_add,
    term_mul,
    term_neg,
)

_DELTA = loop_value().terms  # term dict of one closed loop; never mutated


def top_point(position: int, n: int) -> int:
    """Circle label of the top boundary point at left-to-right position p."""
    return 2 * n - 1 - position


class PlanarMatching:
    """A non-crossing perfect matching of 2n circle points; partner[p] is
    the point that p is joined to."""

    __slots__ = ("n", "pairs", "partner")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        size = 2 * n
        partner = [-1] * size
        for a, b in pairs:
            if a == b or not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"bad chord ({a}, {b}) on {size} points")
            if partner[a] >= 0 or partner[b] >= 0:
                raise ValueError("point matched twice")
            partner[a] = b
            partner[b] = a
        if n < 0 or -1 in partner:
            raise ValueError("matching must cover all points")
        stack: list[int] = []
        for i, j in enumerate(partner):
            if j > i:
                stack.append(i)
            elif not stack or stack.pop() != j:
                raise ValueError("chords cross")
        self.n = n
        self.partner = tuple(partner)
        self.pairs = tuple((i, j) for i, j in enumerate(partner) if i < j)

    def __eq__(self, other):
        if not isinstance(other, PlanarMatching):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __lt__(self, other):
        return self.pairs < other.pairs

    def to_parens(self) -> str:
        """Balanced-parenthesis rendering in circle order."""
        return "".join("(" if j > i else ")" for i, j in enumerate(self.partner))

    def __repr__(self):
        return f"PlanarMatching({self.n}, {self.to_parens()})"


def identity_matching(n: int) -> PlanarMatching:
    return PlanarMatching(n, [(i, top_point(i, n)) for i in range(n)])


def cup_cap_matching(n: int, i: int) -> PlanarMatching:
    """The generator e_i (1 <= i <= n-1): cup at bottom positions i-1, i
    and cap at the same top positions; all other strands vertical."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"e_{i} does not live in TL_{n}")
    pairs = [(i - 1, i), (top_point(i - 1, n), top_point(i, n))]
    pairs += [(j, top_point(j, n)) for j in range(n) if j not in (i - 1, i)]
    return PlanarMatching(n, pairs)


def _coerce_scalar(c) -> RationalFunction:
    if isinstance(c, RationalFunction):
        return c
    if isinstance(c, LaurentPolynomial):
        return RationalFunction.from_laurent(c)
    if isinstance(c, int):
        return RationalFunction(c)
    raise TypeError(f"bad scalar {c!r}")


class TLElement:
    """A Q(A)-linear combination of TL_n basis diagrams; immutable."""

    __slots__ = ("n", "_terms", "_cleared")

    def __init__(self, n: int, terms: Mapping[PlanarMatching, RationalFunction] | None = None):
        self.n = n
        self._terms: dict[PlanarMatching, RationalFunction] = {}
        self._cleared = None
        if terms:
            for m, c in terms.items():
                if m.n != n:
                    raise ValueError("strand count mismatch")
                c = _coerce_scalar(c)
                if not c.is_zero():
                    self._terms[m] = c

    @property
    def terms(self) -> Mapping[PlanarMatching, RationalFunction]:
        """Read-only view of the nonzero coefficients."""
        return MappingProxyType(self._terms)

    @classmethod
    def basis(cls, m: PlanarMatching) -> "TLElement":
        return cls(m.n, {m: RationalFunction.one()})

    @classmethod
    def identity(cls, n: int) -> "TLElement":
        return cls.basis(identity_matching(n))

    @classmethod
    def generator(cls, n: int, i: int) -> "TLElement":
        return cls.basis(cup_cap_matching(n, i))

    @classmethod
    def zero(cls, n: int) -> "TLElement":
        return cls(n)

    def __add__(self, other: "TLElement") -> "TLElement":
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, RationalFunction.zero()) + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return TLElement(self.n, out)

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + (-other)

    def __neg__(self) -> "TLElement":
        return TLElement(self.n, {m: -c for m, c in self._terms.items()})

    def scale(self, c) -> "TLElement":
        c = _coerce_scalar(c)
        if c.is_zero():
            return TLElement.zero(self.n)
        return TLElement(self.n, {m: ci * c for m, ci in self._terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPolynomial, RationalFunction)):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TLElement):
            return tl_multiply(self, other)
        if isinstance(other, (int, LaurentPolynomial, RationalFunction)):
            return self.scale(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return f"TLElement(TL_{self.n}, 0)"
        bits = [f"({c}) {m.to_parens()}" for m, c in sorted(self._terms.items(), key=lambda t: t[0].pairs)]
        return f"TLElement(TL_{self.n}, " + " + ".join(bits) + ")"


def _cleared(x: TLElement) -> tuple[LaurentPolynomial, dict[PlanarMatching, dict]]:
    """x as (q, {matching: integer numerator term-dict}) with q the lcm of
    its coefficient denominators and x = (1/q) * sum num_m * m.

    Worked out once per element and kept on it; callers must not mutate
    the numerators.
    """
    got = x._cleared
    if got is None:
        q = ONE
        for den in {c.den for c in x._terms.values()}:
            q = laurent_lcm(q, den)
        cofactor = {}
        nums = {}
        for m, c in x._terms.items():
            k = cofactor.get(c.den)
            if k is None:
                k = cofactor[c.den] = divide_exact(q, c.den)
            nums[m] = (c.num * k).terms
        got = x._cleared = (q, nums)
    return got


def _reduced(n: int, q: LaurentPolynomial, nums: Mapping[PlanarMatching, dict]) -> TLElement:
    """(1/q) * sum num_m * m, with one canonical RationalFunction per
    nonzero numerator."""
    return TLElement(n, {m: RationalFunction(LaurentPolynomial(num), q)
                         for m, num in nums.items() if num})


def _add_into(out: dict, m: PlanarMatching, num: dict) -> None:
    """out[m] += num on numerator term-dicts; never mutates num."""
    s = out.get(m)
    out[m] = num if s is None else term_add(s, num)


def glue(local_map, back: list, end: list) -> tuple[dict, int]:
    """Glue a matching to its outside wires and follow every strand.

    local_map[p] is the point joined to p inside.  The outside wire of p
    re-enters at point back[p], or, where back[p] is None, ends at the
    label end[p].  Returns {label: label at the other end of its strand}
    over the labels where strands end, and the number of closed loops.
    """
    npoints = len(back)
    seen = [False] * npoints
    partner = {}
    for p0 in range(npoints):
        if seen[p0] or back[p0] is not None:
            continue
        # p0's outside is a strand end: follow chords to the other end
        p = p0
        while True:
            seen[p] = True
            q = local_map[p]
            seen[q] = True
            p = back[q]
            if p is None:
                break
        a, b = end[p0], end[q]
        partner[a] = b
        partner[b] = a
    loops = 0
    for p0 in range(npoints):
        if seen[p0]:
            continue
        loops += 1
        p = p0
        while not seen[p]:
            seen[p] = True
            q = local_map[p]
            seen[q] = True
            p = back[q]
    return partner, loops


def _stack_pair(a: PlanarMatching, b: PlanarMatching) -> tuple[PlanarMatching, int]:
    """Glue b on top of a (a's top position p fuses with b's bottom point p);
    return the resulting matching and the number of closed loops formed.
    a's bottoms keep their labels 0..n-1 and b's tops theirs, n..2n-1."""
    n = a.n
    back = [None] * (2 * n)
    end = list(range(n)) + [None] * n
    for p in range(n):
        # a's top point at position p runs on through b's bottom point p
        q = b.partner[p]
        if q < n:
            back[top_point(p, n)] = top_point(q, n)
        else:
            end[top_point(p, n)] = q
    partners, loops = glue(a.partner, back, end)
    chords = [(x, y) for x, y in partners.items() if x < y]
    # b's top-to-top chords never meet a, so glue does not walk them
    chords += [(x, y) for x, y in b.pairs if x >= n]
    return PlanarMatching(n, chords), loops


def _product(nx: Mapping[PlanarMatching, dict], ny: Mapping[PlanarMatching, dict]) -> dict:
    """Numerators of x*y over q_x*q_y, from the numerators of x and y."""
    delta_powers = [{0: 1}]
    out: dict[PlanarMatching, dict] = {}
    for mx, cx in nx.items():
        for my, cy in ny.items():
            m, loops = _stack_pair(mx, my)
            while loops >= len(delta_powers):
                delta_powers.append(term_mul(delta_powers[-1], _DELTA))
            _add_into(out, m, term_mul(term_mul(cx, cy), delta_powers[loops]))
    return out


def tl_multiply(x: TLElement, y: TLElement) -> TLElement:
    """Product in TL_n: stack y atop x, delta per closed loop."""
    if x.n != y.n:
        raise ValueError("strand count mismatch")
    qx, nx = _cleared(x)
    qy, ny = _cleared(y)
    return _reduced(x.n, qx * qy, _product(nx, ny))


def _juxtapose(mx: PlanarMatching, my: PlanarMatching) -> PlanarMatching:
    """mx on the left of my, as one matching on mx.n + my.n strands."""
    n, k = mx.n, my.n
    total = n + k

    def left(pt):
        return pt if pt < n else top_point(top_point(pt, n), total)

    def right(pt):
        return n + pt if pt < k else top_point(n + top_point(pt, k), total)

    return PlanarMatching(total, [(left(a), left(b)) for a, b in mx.pairs]
                          + [(right(a), right(b)) for a, b in my.pairs])


def tl_tensor(x: TLElement, y: TLElement) -> TLElement:
    """Horizontal juxtaposition: x on the left, y on the right."""
    qx, nx = _cleared(x)
    qy, ny = _cleared(y)
    return _reduced(x.n + y.n, qx * qy, {_juxtapose(mx, my): term_mul(cx, cy)
                                         for mx, cx in nx.items() for my, cy in ny.items()})


def _close_last(m: PlanarMatching) -> tuple[PlanarMatching, int]:
    """Join the rightmost bottom point to the rightmost top point around
    the side; returns the smaller matching and the loop count (0 or 1)."""
    n = m.n
    b, t = n - 1, top_point(n - 1, n)  # adjacent on the circle
    back = [None] * (2 * n)
    back[b], back[t] = t, b
    end = [p if p < b else p - 2 for p in range(2 * n)]
    partners, loops = glue(m.partner, back, end)
    return PlanarMatching(n - 1, [(x, y) for x, y in partners.items() if x < y]), loops


def partial_trace(x: TLElement, count: int = 1) -> TLElement:
    """Close the rightmost `count` strands around the side."""
    if not 0 <= count <= x.n:
        raise ValueError("cannot close more strands than exist")
    q, nums = _cleared(x)
    for _ in range(count):
        out: dict[PlanarMatching, dict] = {}
        for m, num in nums.items():
            mm, loops = _close_last(m)
            _add_into(out, mm, term_mul(num, _DELTA) if loops else num)
        nums = out
    return _reduced(x.n - count, q, nums)


def closure(x: TLElement) -> RationalFunction:
    """Markov-style closure of all strands; the bracket value of the
    resulting closed diagram."""
    closed = partial_trace(x, x.n)
    if closed.is_zero():
        return RationalFunction.zero()
    # TL_0 has the single empty matching
    [(m, c)] = closed.terms.items()
    return c


_JW_CACHE: dict[int, TLElement] = {}


def jones_wenzl(n: int) -> TLElement:
    """The n-th Jones-Wenzl projector in TL_n (Wenzl's recursion)."""
    if n < 0:
        raise ValueError("projector index must be >= 0")
    got = _JW_CACHE.get(n)
    if got is not None:
        return got
    if n == 0:
        val = TLElement.basis(PlanarMatching(0, []))
    elif n == 1:
        val = TLElement.identity(1)
    else:
        # With prev = f(n-1)x1 = (1/q) P and prev.e.prev = (1/q^2) S:
        # f(n) = (Delta_{n-1} q P - Delta_{n-2} S) / (Delta_{n-1} q^2).
        q, nums = _cleared(jones_wenzl(n - 1))
        strand = identity_matching(1)
        prev = {_juxtapose(m, strand): num for m, num in nums.items()}
        e = {cup_cap_matching(n, n - 1): {0: 1}}
        sandwich = _product(_product(prev, e), prev)
        big, small = quantum_dimension(n - 1), quantum_dimension(n - 2)
        scale = (big * q).terms
        out = {m: term_mul(scale, num) for m, num in prev.items()}
        minus_small = term_neg(small.terms)
        for m, num in sandwich.items():
            _add_into(out, m, term_mul(minus_small, num))
        val = _reduced(n, big * q * q, out)
    _JW_CACHE[n] = val
    return val


def cleared_projector(n: int) -> tuple[LaurentPolynomial, list[tuple[dict, PlanarMatching]]]:
    """Denominator-free form of f(n): a common denominator Q and integer
    Laurent coefficients (as raw dicts) with f(n) = (1/Q) * sum c_i m_i.

    Used by the sweep evaluator so closed diagrams can be computed entirely
    over Z[A, A^-1] with one checked exact division at the end.
    """
    q, nums = _cleared(jones_wenzl(n))
    return q, [(dict(num), m) for m, num in sorted(nums.items(), key=lambda t: t[0].pairs)]
