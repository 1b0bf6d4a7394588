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
build its wire tables and call it.  Inside this module a matching is its
partner tuple, partner[p] the point joined to p, on len // 2 strands:
elements key their numerators by it, and stacking, closing and
juxtaposing, whose results are planar by construction, take and return
it.  A PlanarMatching, checked by its constructor, is what a matching
is outside: TLElement and basis accept one, and terms, cleared_projector
and repr hand one out.

Arithmetic runs over Z[A, A^-1].  An element has one form,
(q, {matching: integer numerator}) with x = (1/q) * sum num_m * m and q
the least common denominator: Q(A)'s one normal form, that of
laurent._reduce, with one numerator per matching.  The form is unique,
so == compares it directly.  The constructor clears the Q(A)
coefficients it is given once; every operation (+, -, scale, products,
tensors, traces, a projector level) combines numerators and ends in
_normalized, which drops the zero ones and reduces the rest with q
through laurent._reduce.  A product scales each left numerator by
delta^k once per loop count k and sums in place.  `terms` is a
read-only view of reduced coefficients, computed per read; the closure
of TL_0's one numerator over q is already a reduced RationalFunction.

The n-th Jones-Wenzl projector is built by the single-clasp expansion
(Kauffman-Lins 1994; Frenkel-Khovanov 1997)
    f(n) = f(n-1)x1 + sum_{k=n-1..1} ([k]/[n]) (f(n-1)x1) e_{n-1} ... e_k
with [k] = (-1)^(k-1) Delta_{k-1}, f(0) empty and f(1) a single strand.
Each term is the one before times one generator, so a level stacks
(n-1) Catalan(n-1) pairs, where Wenzl's two-box recursion
(f(n-1)x1) e_{n-1} (f(n-1)x1) stacks about Catalan(n-1)^2.
"""
from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .laurent import (
    LaurentPolynomial,
    ONE,
    RationalFunction,
    _delta_power,
    _reduce,
    divide_exact,
    laurent_lcm,
    quantum_dimension,
    term_add,
    term_mul,
    term_mul_into,
)


def top_point(position: int, n: int) -> int:
    """Circle label of the top boundary point at left-to-right position p."""
    return 2 * n - 1 - position


class PlanarMatching:
    """A non-crossing perfect matching of 2n circle points; partner[p] is
    the point that p is joined to."""

    __slots__ = ("n", "partner")

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

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The chords (i, j), i < j, in order of i."""
        return _chords(self.partner)

    # the partner table fixes n (its length is 2n) and the chords
    def __eq__(self, other):
        if not isinstance(other, PlanarMatching):
            return NotImplemented
        return self.partner == other.partner

    def __hash__(self):
        return hash(self.partner)

    def __lt__(self, other):
        return self.pairs < other.pairs

    def to_parens(self) -> str:
        """Balanced-parenthesis rendering in circle order."""
        return "".join("(" if j > i else ")" for i, j in enumerate(self.partner))

    def __repr__(self):
        return f"PlanarMatching({self.n}, {self.to_parens()})"


def _chords(partner: tuple) -> tuple[tuple[int, int], ...]:
    """The chords (i, j), i < j, of a partner tuple, in order of i."""
    return tuple((i, j) for i, j in enumerate(partner) if i < j)


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


class TLElement:
    """A Q(A)-linear combination of TL_n basis diagrams; immutable, and
    stored only in the one form (q, numerators) of the module docstring."""

    __slots__ = ("n", "_q", "_nums")

    def __init__(self, n: int, terms: Mapping[PlanarMatching, RationalFunction] | None = None):
        coeffs = {}
        for m, c in (terms or {}).items():
            if m.n != n:
                raise ValueError("strand count mismatch")
            r = RationalFunction._coerce(c)
            if r is None:
                raise TypeError(f"bad scalar {c!r}")
            if not r.is_zero():
                coeffs[m.partner] = r
        # the lcm of reduced denominators is already the normalized q
        dens = {c.den for c in coeffs.values()}
        q = ONE
        for den in dens:
            q = laurent_lcm(q, den)
        cofactor = {den: divide_exact(q, den) for den in dens}
        self.n, self._q = n, q
        self._nums = {m: (c.num * cofactor[c.den]).terms for m, c in coeffs.items()}

    @property
    def terms(self) -> Mapping[PlanarMatching, RationalFunction]:
        """Read-only view of the nonzero coefficients, reduced afresh on
        each read."""
        return MappingProxyType({PlanarMatching(self.n, _chords(m)):
                                 RationalFunction(LaurentPolynomial._raw(num), self._q)
                                 for m, num in self._nums.items()})

    @classmethod
    def basis(cls, m: PlanarMatching) -> "TLElement":
        return cls(m.n, {m: RationalFunction.one()})

    @classmethod
    def identity(cls, n: int) -> "TLElement":
        return cls.basis(identity_matching(n))

    @classmethod
    def generator(cls, n: int, i: int) -> "TLElement":
        return cls.basis(cup_cap_matching(n, i))

    def __add__(self, other: "TLElement") -> "TLElement":
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        q = laurent_lcm(self._q, other._q)
        out: dict[tuple, dict] = {}
        for x in (self, other):
            k = divide_exact(q, x._q).terms
            for m, num in x._nums.items():
                _add_into(out, m, term_mul(num, k))
        return _normalized(self.n, q, out)

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + (-other)

    def __neg__(self) -> "TLElement":
        return self.scale(-1)

    def scale(self, c) -> "TLElement":
        r = RationalFunction._coerce(c)
        if r is None:
            raise TypeError(f"bad scalar {c!r}")
        k = r.num.terms
        return _normalized(self.n, self._q * r.den,
                           {m: term_mul(num, k) for m, num in self._nums.items()})

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
        return not self._nums

    def __eq__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return self.n == other.n and self._q == other._q and self._nums == other._nums

    def __repr__(self):
        if not self._nums:
            return f"TLElement(TL_{self.n}, 0)"
        bits = [f"({c}) {m.to_parens()}" for m, c in sorted(self.terms.items(), key=lambda t: t[0].pairs)]
        return f"TLElement(TL_{self.n}, " + " + ".join(bits) + ")"


def _normalized(n: int, q: LaurentPolynomial, nums: Mapping[tuple, dict]) -> TLElement:
    """The element (1/q) * sum num_m * m in its one form: zero numerators
    dropped, the rest reduced with q by laurent._reduce."""
    nums = {m: num for m, num in nums.items() if num}
    q, reduced = _reduce(q, [LaurentPolynomial._raw(num) for num in nums.values()])
    x = object.__new__(TLElement)
    x.n, x._q, x._nums = n, q, dict(zip(nums, (num.terms for num in reduced)))
    return x


def _add_into(out: dict, m: tuple, num: dict) -> None:
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


def _stack_pair(a: tuple, b: tuple) -> tuple[tuple, int]:
    """Glue partner tuple b on top of a (a's top position p fuses with b's
    bottom point p): the resulting partner tuple and its closed loops.
    a's bottoms keep their labels 0..n-1 and b's tops theirs, n..2n-1."""
    n = len(a) // 2
    back = [None] * (2 * n)
    end = list(range(n)) + [None] * n
    for p in range(n):
        # a's top point at position p runs on through b's bottom point p
        q = b[p]
        if q < n:
            back[top_point(p, n)] = top_point(q, n)
        else:
            end[top_point(p, n)] = q
    partners, loops = glue(a, back, end)
    # every label but the ends of b's top-to-top chords is a strand end;
    # those chords never meet a, so glue does not walk them
    return tuple([partners.get(p, q) for p, q in enumerate(b)]), loops


def _product(nx: Mapping[tuple, dict], ny: Mapping[tuple, dict]) -> dict:
    """Numerators of x*y over q_x*q_y, from those of x and y by partner tuple;
    the sums are fresh dicts, added to in place, and no operand is written."""
    sums: dict[tuple, dict] = {}
    for mx, cx in nx.items():
        scaled = [cx]  # scaled[k] = cx * delta^k, grown as loop counts appear
        for my, cy in ny.items():
            m, loops = _stack_pair(mx, my)
            while loops >= len(scaled):
                scaled.append(term_mul(scaled[-1], _delta_power(1)))
            s = sums.get(m)
            if s is None:
                s = sums[m] = {}
            term_mul_into(s, scaled[loops], cy)
    return {m: num for m, s in sums.items() if (num := {e: c for e, c in s.items() if c})}


def tl_multiply(x: TLElement, y: TLElement) -> TLElement:
    """Product in TL_n: stack y atop x, delta per closed loop."""
    if x.n != y.n:
        raise ValueError("strand count mismatch")
    return _normalized(x.n, x._q * y._q, _product(x._nums, y._nums))


def _juxtapose(mx: tuple, my: tuple) -> tuple:
    """Partner tuple mx on the left of my, as one on all their strands."""
    n, k = len(mx) // 2, len(my) // 2
    total = n + k

    def left(pt):
        return pt if pt < n else top_point(top_point(pt, n), total)

    def right(pt):
        return n + pt if pt < k else top_point(n + top_point(pt, k), total)

    partner = [0] * (2 * total)
    for place, m in ((left, mx), (right, my)):
        for a, b in enumerate(m):
            partner[place(a)] = place(b)
    return tuple(partner)


def tl_tensor(x: TLElement, y: TLElement) -> TLElement:
    """Horizontal juxtaposition: x on the left, y on the right."""
    return _normalized(x.n + y.n, x._q * y._q, {_juxtapose(mx, my): term_mul(cx, cy)
                                                for mx, cx in x._nums.items()
                                                for my, cy in y._nums.items()})


def _close_last(m: tuple) -> tuple[tuple, int]:
    """Join the rightmost bottom point of m to its rightmost top point around
    the side; returns the smaller tuple and the loop count (0 or 1)."""
    n = len(m) // 2
    b, t = n - 1, top_point(n - 1, n)  # adjacent on the circle
    back = [None] * (2 * n)
    back[b], back[t] = t, b
    end = [p if p < b else p - 2 for p in range(2 * n)]
    partners, loops = glue(m, back, end)  # every point left is a strand end
    return tuple(map(partners.__getitem__, range(2 * n - 2))), loops


def partial_trace(x: TLElement, count: int = 1) -> TLElement:
    """Close the rightmost `count` strands around the side."""
    if not 0 <= count <= x.n:
        raise ValueError("cannot close more strands than exist")
    nums = x._nums
    for _ in range(count):
        out: dict[tuple, dict] = {}
        for m, num in nums.items():
            mm, loops = _close_last(m)
            _add_into(out, mm, term_mul(num, _delta_power(1)) if loops else num)
        nums = out
    return _normalized(x.n - count, x._q, nums)


def closure(x: TLElement) -> RationalFunction:
    """Markov-style closure of all strands; the bracket value of the
    resulting closed diagram."""
    closed = partial_trace(x, x.n)
    # TL_0 has the single empty matching, so its one form (q, {m: num}) is
    # already the reduced fraction num/q; the zero element is (1, {})
    num = next(iter(closed._nums.values()), {})
    return RationalFunction._raw(LaurentPolynomial._raw(num), closed._q)


@functools.cache
def jones_wenzl(n: int) -> TLElement:
    """The n-th Jones-Wenzl projector in TL_n (the single-clasp expansion)."""
    if n < 0:
        raise ValueError("projector index must be >= 0")
    if n == 0:
        return TLElement.basis(PlanarMatching(0, []))
    if n == 1:
        return TLElement.identity(1)
    # With prev = f(n-1)x1 = (1/q) P and the quantum integers
    # [k] = (-1)^(k-1) Delta_{k-1}, each term one generator longer:
    # f(n) = ([n] P + sum_{k=n-1..1} [k] P e_{n-1} ... e_k) / ([n] q).
    def qint(k):
        return quantum_dimension(k - 1) * (-1) ** (k - 1)

    last = jones_wenzl(n - 1)
    term = {_juxtapose(m, (1, 0)): num for m, num in last._nums.items()}  # P: f(n-1) beside a strand
    top = qint(n)
    out = {m: term_mul(top.terms, num) for m, num in term.items()}
    for k in range(n - 1, 0, -1):
        term = _product(term, {cup_cap_matching(n, k).partner: {0: 1}})
        scale = qint(k).terms
        for m, num in term.items():
            term_mul_into(out.setdefault(m, {}), scale, num)
    return _normalized(n, top * last._q,
                       {m: {e: c for e, c in s.items() if c} for m, s in out.items()})


def cleared_projector(n: int) -> tuple[LaurentPolynomial, list[tuple[dict, PlanarMatching]]]:
    """f(n)'s own form, copied and sorted by matching: its least common
    denominator Q and integer Laurent coefficients (as raw dicts) with
    f(n) = (1/Q) * sum c_i m_i.

    Used by the sweep evaluator so closed diagrams can be computed entirely
    over Z[A, A^-1] with one checked exact division at the end.
    """
    f = jones_wenzl(n)
    rows = sorted((_chords(m), num) for m, num in f._nums.items())
    return f._q, [(dict(num), PlanarMatching(n, pairs)) for pairs, num in rows]
