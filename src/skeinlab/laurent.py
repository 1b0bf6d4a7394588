"""Exact arithmetic for the Kauffman bracket variable.

Everything downstream works in the ring Z[A, A^-1] of integer Laurent
polynomials in a single variable A, or in its fraction field Q(A).  A
polynomial is stored sparsely as a dict {exponent: coefficient} with no
zero coefficients; Python ints keep all arithmetic exact at any size.

The module also owns the quantum scalars of the trade:

* the loop value  delta = -A^2 - A^-2,
* the colored unknot values  Delta_n  (Chebyshev-style recurrence
  Delta_{n+1} = delta*Delta_n - Delta_{n-1}),
* the quantum binomials [n k]_A with
  [n k] = A^{2k} [n-1 k] + A^{2k-2n} [n-1 k-1],  [n 0] = [n n] = 1,
* the cable-crossing expansion coefficients C_{n,k} = A^{n(n-2k)} [n k]_A.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, Mapping


# ---------------------------------------------------------------------------
# raw term-dict helpers
#
# The sweep evaluator wants to do a very large number of tiny polynomial
# operations; these functions work on bare dicts so that hot loops can skip
# object construction.  LaurentPolynomial wraps the same dicts.

def term_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def term_mul(p: dict, q: dict) -> dict:
    if len(p) > len(q):
        p, q = q, p
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def term_shift(p: dict, k: int) -> dict:
    if k == 0:
        return dict(p)
    return {e + k: c for e, c in p.items()}


def term_neg(p: dict) -> dict:
    return {e: -c for e, c in p.items()}


def term_mirror(p: dict) -> dict:
    return {-e: c for e, c in p.items()}


class LaurentPolynomial:
    """An element of Z[A, A^-1] with exact integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | None = None):
        if terms is None:
            self._terms = {}
        else:
            self._terms = {int(e): int(c) for e, c in terms.items() if c}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPolynomial":
        # trusted: no zero coefficients present
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        return self

    @classmethod
    def monomial(cls, coeff: int = 1, exponent: int = 0) -> "LaurentPolynomial":
        if coeff == 0:
            return cls._raw({})
        return cls._raw({exponent: coeff})

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls._raw({0: 1})

    # -- basic queries --------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def min_degree(self) -> int:
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return min(self._terms)

    def max_degree(self) -> int:
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self._terms)

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPolynomial | None":
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, int):
            return LaurentPolynomial.monomial(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPolynomial._raw(term_add(self._terms, o._terms))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPolynomial._raw(term_add(self._terms, term_neg(o._terms)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return LaurentPolynomial._raw(term_neg(self._terms))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPolynomial._raw(term_mul(self._terms, o._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers live in RationalFunction")
        out = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by the unit A^k."""
        return LaurentPolynomial._raw(term_shift(self._terms, k))

    def mirror(self) -> "LaurentPolynomial":
        """Substitute A -> A^-1 (the bracket of the mirror diagram)."""
        return LaurentPolynomial._raw(term_mirror(self._terms))

    def is_unit(self) -> bool:
        return len(self._terms) == 1 and abs(next(iter(self._terms.values()))) == 1

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """Dense JSON form: {"minDeg": d, "coeffs": [c_d, ..., c_D]}."""
        if not self._terms:
            return {"minDeg": 0, "coeffs": []}
        lo, hi = self.min_degree(), self.max_degree()
        return {"minDeg": lo, "coeffs": [self._terms.get(e, 0) for e in range(lo, hi + 1)]}

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPolynomial":
        lo = int(data["minDeg"])
        coeffs = data["coeffs"]
        return cls({lo + i: int(c) for i, c in enumerate(coeffs)})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "A" if e == 1 else f"A^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self})"


A = LaurentPolynomial.monomial(1, 1)
ONE = LaurentPolynomial.one()
ZERO = LaurentPolynomial.zero()


def loop_value() -> LaurentPolynomial:
    """The bracket value of one closed circle: -A^2 - A^-2."""
    return LaurentPolynomial({2: -1, -2: -1})


# ---------------------------------------------------------------------------
# exact division and gcd (used by RationalFunction normalization)

def _dense(p: LaurentPolynomial) -> tuple[int, list[int]]:
    lo, hi = p.min_degree(), p.max_degree()
    return lo, [p.coefficient(e) for e in range(lo, hi + 1)]


def _from_dense(lo: int, cs: list[int]) -> LaurentPolynomial:
    return LaurentPolynomial({lo + i: c for i, c in enumerate(cs) if c})


def divide_exact(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Return p/q in Z[A, A^-1]; raises ValueError if q does not divide p."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    plo, pc = _dense(p)
    qlo, qc = _dense(q)
    out = [0] * (len(pc) - len(qc) + 1)
    if len(pc) < len(qc):
        raise ValueError("not divisible")
    rem = list(pc)
    for i in range(len(pc) - len(qc), -1, -1):
        lead = rem[i + len(qc) - 1]
        if lead % qc[-1]:
            raise ValueError("not divisible")
        f = lead // qc[-1]
        out[i] = f
        if f:
            for j, c in enumerate(qc):
                rem[i + j] -= f * c
    if any(rem):
        raise ValueError("not divisible")
    return _from_dense(plo - qlo, out)


def _content(cs: list[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _primitive(cs: list[int]) -> list[int]:
    g = _content(cs)
    if g in (0, 1):
        return list(cs)
    return [c // g for c in cs]


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of f by g over Z (g nonzero, deg f >= deg g)."""
    f = list(f)
    lg = g[-1]
    while len(f) >= len(g) and _trim(f):
        lead = f[-1]
        shift = len(f) - len(g)
        f = [c * lg for c in f]
        for j, c in enumerate(g):
            f[shift + j] -= lead * c
        _trim(f)
    return f


def laurent_gcd(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Gcd in Z[A] after shifting both arguments to lowest degree 0.

    The result has lowest degree 0 and positive leading coefficient, so it
    is a canonical representative of the gcd up to units of Z[A, A^-1].
    """
    if p.is_zero() and q.is_zero():
        return ZERO
    if p.is_zero():
        p, q = q, p
    _, f = _dense(p)
    if q.is_zero():
        g: list[int] = []
    else:
        _, g = _dense(q)
    cf, cg = _content(f), _content(g)
    f, g = _primitive(f), _primitive(g)
    while g:
        if len(f) < len(g):
            f, g = g, f
            continue
        r = _pseudo_rem(f, g)
        f, g = g, _primitive(r)
    c = math.gcd(cf, cg)
    if f[-1] < 0:
        f = [-x for x in f]
    return _from_dense(0, [c * x for x in f])


def laurent_lcm(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    if p.is_zero() or q.is_zero():
        return ZERO
    return divide_exact(p * q, laurent_gcd(p, q))


class RationalFunction:
    """An element of Q(A), stored as a reduced fraction of Laurent polynomials.

    Canonical form: the denominator has lowest degree 0 and positive leading
    coefficient, and numerator/denominator share no factor in Z[A] (integer
    content included), so equality is plain component comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, _trusted: bool = False):
        if isinstance(num, int):
            num = LaurentPolynomial.monomial(num, 0)
        if den is None:
            den = ONE
        elif isinstance(den, int):
            den = LaurentPolynomial.monomial(den, 0)
        if _trusted:
            self.num, self.den = num, den
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        # clear the A-power unit ambiguity: put den at lowest degree 0
        num = num.shift(-den.min_degree())
        den = den.shift(-den.min_degree())
        g = laurent_gcd(num, den)
        if g != ONE:
            num = divide_exact(num, g)
            den = divide_exact(den, g)
        if den.coefficient(den.max_degree()) < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_laurent(cls, p: LaurentPolynomial) -> "RationalFunction":
        return cls(p, ONE, _trusted=True)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(ZERO, ONE, _trusted=True)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(ONE, ONE, _trusted=True)

    @staticmethod
    def _coerce(other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, LaurentPolynomial):
            return RationalFunction.from_laurent(other)
        if isinstance(other, int):
            return RationalFunction.from_laurent(LaurentPolynomial.monomial(other, 0))
        return None

    # -- field operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _trusted=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero() or o.num.is_zero():
            return RationalFunction.zero()
        # cross-reduce before multiplying to keep intermediates small
        g1 = laurent_gcd(self.num, o.den)
        g2 = laurent_gcd(o.num, self.den)
        n1 = self.num if g1.is_unit() else divide_exact(self.num, g1)
        d2 = o.den if g1.is_unit() else divide_exact(o.den, g1)
        n2 = o.num if g2.is_unit() else divide_exact(o.num, g2)
        d1 = self.den if g2.is_unit() else divide_exact(self.den, g2)
        return RationalFunction(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def min_degree(self) -> int:
        """Minimum degree of the quotient: d(p/q) = d(p) - d(q).  Well
        defined on the class, it extends the Laurent minimum degree."""
        return self.num.min_degree() - self.den.min_degree()

    def max_degree(self) -> int:
        return self.num.max_degree() - self.den.max_degree()

    def is_laurent(self) -> bool:
        """True when the denominator is a unit +-A^k of the Laurent ring."""
        return self.den.is_unit()

    def as_laurent(self) -> LaurentPolynomial:
        """Checked demotion to Z[A, A^-1]; raises if the value is not integral."""
        if self.num.is_zero():
            return ZERO
        if not self.den.is_unit():
            raise ValueError(f"not a Laurent polynomial: denominator {self.den}")
        e = self.den.min_degree()
        c = self.den.coefficient(e)
        out = self.num.shift(-e)
        return out if c == 1 else -out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


# ---------------------------------------------------------------------------
# quantum scalars

@functools.cache
def quantum_dimension(n: int) -> LaurentPolynomial:
    """Bracket value Delta_n of the unknot colored n (Delta_0 = 1)."""
    if n < -1:
        raise ValueError("delta defined for n >= -1")
    if n == -1:
        return ZERO
    if n == 0:
        return ONE
    if n == 1:
        return loop_value()
    return loop_value() * quantum_dimension(n - 1) - quantum_dimension(n - 2)


@functools.cache
def quantum_binomial(n: int, k: int) -> LaurentPolynomial:
    """Quantum binomial [n k]_A from the two-term exponent recursion."""
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return (quantum_binomial(n - 1, k).shift(2 * k)
            + quantum_binomial(n - 1, k - 1).shift(2 * k - 2 * n))


@functools.cache
def crossing_expansion_coefficient(n: int, k: int) -> LaurentPolynomial:
    """C_{n,k} = A^{n(n-2k)} [n k]_A, the weight of the k-th crossingless
    term in the expansion of a crossing of two n-cables."""
    if not 0 <= k <= n:
        raise ValueError(f"expansion coefficient needs 0 <= k <= n, got ({n}, {k})")
    return quantum_binomial(n, k).shift(n * (n - 2 * k))
