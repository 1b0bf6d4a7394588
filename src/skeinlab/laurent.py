"""Exact arithmetic for the Kauffman bracket variable.

Everything downstream works in the ring Z[A, A^-1] of integer Laurent
polynomials in a single variable A, or in its fraction field Q(A).  A
polynomial is stored sparsely as a dict {exponent: coefficient} with no
zero coefficients; Python ints keep all arithmetic exact at any size.
Exponents and coefficients must be ints; anything else is a TypeError.

Q(A) has one normal form, (1/q) * (numerators) with q at lowest degree 0
and a positive leading coefficient and no factor of q shared by all the
numerators, and one function that reduces to it, _reduce.  A
RationalFunction is that form with one numerator; a Temperley-Lieb
element (temperley_lieb) is it with one numerator per basis diagram.

The module also owns the quantum scalars of the trade:

* the loop value  delta = -A^2 - A^-2, and its powers delta^k, cached
  once as term dicts for the sweep, the brackets and the TL products,
* the colored unknot values  Delta_n  (Chebyshev-style recurrence
  Delta_{n+1} = delta*Delta_n - Delta_{n-1}),
* the quantum binomials [n k]_A with
  [n k] = A^{2k} [n-1 k] + A^{2k-2n} [n-1 k-1],  [n 0] = [n n] = 1,
* the cable-crossing expansion coefficients C_{n,k} = A^{n(n-2k)} [n k]_A.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Mapping


# ---------------------------------------------------------------------------
# raw term-dict helpers
#
# LaurentPolynomial's arithmetic and the Temperley-Lieb numerators work on
# bare {exponent: coefficient} dicts, so that their many small operations
# skip object construction; LaurentPolynomial wraps the same dicts.  The
# sweep packs each of its coefficients into one int instead (skein_eval._pack).

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


def term_mul_into(out: dict, p: dict, q: dict) -> None:
    """out += p * q in place; a cancelled coefficient stays, as 0, for the caller to drop."""
    if len(p) > len(q):
        p, q = q, p
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2


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
            terms = {}
        elif not hasattr(terms, "items"):
            raise TypeError(f"Laurent terms are an {{exponent: int}} mapping, got {terms!r}")
        for e, c in terms.items():
            if not (isinstance(e, int) and isinstance(c, int)):
                raise TypeError(f"a term needs an int exponent and coefficient, got {e!r}: {c!r}")
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
# exact division, gcd and the one normal form of Q(A)

def _stride(*polys: LaurentPolynomial) -> int:
    """The gcd of the exponent gaps within each of polys, or 1 if they
    have none: each is A^lo times a polynomial in x = A^stride."""
    s = 0
    for p in polys:
        lo = min(p._terms, default=0)
        for e in p._terms:
            s = math.gcd(s, e - lo)
        if s == 1:
            break
    return s or 1


def _dense(p: LaurentPolynomial, s: int) -> tuple[int, list[int]]:
    """p as A^lo times the dense coefficients of a polynomial in A^s."""
    lo = min(p._terms)
    cs = [0] * ((max(p._terms) - lo) // s + 1)
    for e, c in p._terms.items():
        cs[(e - lo) // s] = c
    return lo, cs


def _from_dense(lo: int, cs: list[int], s: int) -> LaurentPolynomial:
    return LaurentPolynomial._raw({lo + s * i: c for i, c in enumerate(cs) if c})


def divide_exact(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Return p/q in Z[A, A^-1]; raises ValueError if q does not divide p.
    Both are expanded over A^s, s their common exponent stride: q(A) = A^a Q(A^s)
    divides p(A) = A^b P(A^s) in Z[A, A^-1] exactly when Q divides P in Z[x]."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    s = _stride(p, q)
    plo, pc = _dense(p, s)
    qlo, qc = _dense(q, s)
    if len(pc) < len(qc):
        raise ValueError("not divisible")
    out = [0] * (len(pc) - len(qc) + 1)
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
    return _from_dense(plo - qlo, out, s)


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
    s = _stride(p, q)
    f = _dense(p, s)[1]
    g = _dense(q, s)[1] if q else []
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
    return _from_dense(0, [c * x for x in f], s)


def laurent_lcm(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    if p.is_zero() or q.is_zero():
        return ZERO
    return divide_exact(p * q, laurent_gcd(p, q))


def _reduce(q: LaurentPolynomial, nums: list) -> tuple[LaurentPolynomial, list]:
    """(q, nums), for the fractions num/q of nonzero nums, in Q(A)'s one
    normal form: q and every num divided by their common gcd, then by the
    unit that puts q at lowest degree 0 with a positive leading
    coefficient.  The gcd takes the numerators in turn and stops once it
    is 1.  No numerators (the zero element) give (1, [])."""
    if not nums:
        return ONE, []
    g = q
    for num in nums:
        g = laurent_gcd(g, num)
        if g == ONE:
            break
    # the gcd has lowest degree 0 and a positive leading coefficient, so
    # q/g takes the lowest degree and the leading sign of q
    g = g * LaurentPolynomial.monomial(1 if q.coefficient(q.max_degree()) > 0 else -1,
                                       q.min_degree())
    if g == ONE:
        return q, nums
    return divide_exact(q, g), [divide_exact(num, g) for num in nums]


class RationalFunction:
    """An element of Q(A), stored as a reduced fraction of Laurent polynomials.

    Canonical form (_reduce's): the denominator has lowest degree 0 and
    positive leading coefficient, and numerator/denominator share no
    factor in Z[A] (integer content included), so equality is plain
    component comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = LaurentPolynomial._coerce(num), LaurentPolynomial._coerce(den)
        if num is None or den is None:
            raise TypeError("a RationalFunction is a quotient of Laurent polynomials or ints")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        self.den, [self.num] = _reduce(den, [num])

    # -- constructors ---------------------------------------------------

    @classmethod
    def _raw(cls, num: LaurentPolynomial, den: LaurentPolynomial) -> "RationalFunction":
        # trusted: num/den is already in the normal form of _reduce
        self = object.__new__(cls)
        self.num, self.den = num, den
        return self

    @classmethod
    def from_laurent(cls, p: LaurentPolynomial) -> "RationalFunction":
        return cls._raw(p, ONE)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls._raw(ZERO, ONE)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls._raw(ONE, ONE)

    @staticmethod
    def _coerce(other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        p = LaurentPolynomial._coerce(other)
        return None if p is None else RationalFunction.from_laurent(p)

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
        return RationalFunction._raw(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        for u, x in ((o, self), (self, o)):  # a unit +-A^k keeps x reduced over x.den
            if u.den == ONE and u.num.is_unit():
                return RationalFunction._raw(x.num * u.num, x.den)
        return RationalFunction(self.num * o.num, self.den * o.den)

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
    """Bracket value Delta_n of the unknot colored n: (-1)^n times the sum
    of A^(2n - 4k) over k = 0..n, so Delta_-1 = 0 and Delta_0 = 1."""
    if n < -1:
        raise ValueError("delta defined for n >= -1")
    return LaurentPolynomial({2 * n - 4 * k: (-1) ** n for k in range(n + 1)})


@functools.cache
def _delta_power(k: int) -> dict:
    """delta^k as a term dict; shared, so callers must not mutate it."""
    return (loop_value() ** k)._terms


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
