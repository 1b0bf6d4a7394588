"""Head and tail stability of colored Jones polynomials.

Two values are compared "over a window": align the chosen end's extreme
exponent to zero and read a fixed number of consecutive coefficients,
zeros included, allowing one global sign flip.  The stability theorems
say consecutive colors agree on windows of length 4n, so the low-end
coefficients of the family converge to a series (the tail); the head is
the same story on the mirror diagram.

Comparisons accept exact rational values: a quotient is expanded as a
Laurent series from the chosen end, which is the natural home of these
statements (the limits are series, and the B-state skein elements they
are compared against generally have quantum integers in their
denominators).
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

from .colored_states import alpha, build_upsilon, s_minus
from .diagram import LinkDiagram, is_alternating, mirror
from .laurent import LaurentPolynomial, RationalFunction
from .skein_eval import colored_jones, evaluate_rational


def _series_prefix(num: LaurentPolynomial, den: LaurentPolynomial,
                   span: int) -> list:
    """Ascending coefficients of num/den from its lowest exponent."""
    nlo = num.min_degree()
    dlo = den.min_degree()
    c0 = den.coefficient(dlo)
    if c0 not in (1, -1):
        raise ValueError(
            f"series expansion needs a unit extreme coefficient, got {c0}")
    nc = [num.coefficient(nlo + i) for i in range(span)]
    dc = [den.coefficient(dlo + i) for i in range(span)]
    out: list = []
    for i in range(span):
        acc = nc[i]
        for j in range(1, i + 1):
            acc -= dc[j] * out[i - j]
        out.append(acc if c0 == 1 else -acc)
    return out


def aligned_coefficients(value, span: int, end: str = "lowest") -> tuple:
    """The first `span` coefficients of `value` read from the chosen end,
    extreme exponent aligned to position 0, zeros included."""
    if span < 1:
        raise ValueError("span must be positive")
    if end not in ("lowest", "highest"):
        raise ValueError(f"end must be 'lowest' or 'highest', not {end!r}")
    if isinstance(value, LaurentPolynomial):
        value = RationalFunction.from_laurent(value)
    elif not isinstance(value, RationalFunction):
        raise TypeError(f"cannot align {type(value).__name__}")
    if value.is_zero():
        raise ValueError("the zero polynomial has no aligned end")
    num, den = value.num, value.den
    if end == "highest":
        num, den = num.mirror(), den.mirror()
    return tuple(_series_prefix(num, den, span))


def doteq(p, q, span: int, end: str = "lowest") -> bool:
    """Do p and q agree on `span` consecutive coefficients from the
    chosen end, up to one global sign?"""
    a = aligned_coefficients(p, span, end)
    b = aligned_coefficients(q, span, end)
    return a == b or a == tuple(-x for x in b)


# ---------------------------------------------------------------------------
# certified prefixes


@dataclass(frozen=True)
class CoefficientPrefix:
    """Aligned coefficients of one polynomial with a certificate: the
    first `certified` entries are guaranteed stable under raising the
    color further."""

    source: str
    end: str
    coefficients: tuple
    certified: int

    def __post_init__(self):
        if len(self.coefficients) < self.certified:
            raise ValueError("certificate longer than the stored vector")
        if not self.coefficients or self.coefficients[0] == 0:
            raise ValueError("aligned vector must start at a nonzero entry")

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "end": self.end,
            "coefficients": list(self.coefficients),
            "certified": self.certified,
        }


class TailStabilityError(ValueError):
    """A consecutive-color window comparison failed where the stability
    theorems require it to hold."""

    def __init__(self, name: str, n: int, current, successor):
        super().__init__(
            f"{name}: colors {n} and {n + 1} disagree on the window of "
            f"length {4 * n}")
        self.n = n
        self.current = current
        self.successor = successor


def _display_name(link: LinkDiagram) -> str:
    return link.name or f"{link.crossing_count}-crossing diagram"


def _certified_tail(name: str, values, end: str = "lowest") -> CoefficientPrefix:
    """Check the consecutive-color chain over values = [J~_1 .. J~_max]
    and package the aligned last row with its certificate.

    The stored vector is normalized to a positive leading entry: the limit
    series is only defined up to one global sign, and fixing it makes
    prefixes from different color ranges literally comparable."""
    for n in range(1, len(values)):
        if not doteq(values[n - 1], values[n], 4 * n, "lowest"):
            raise TailStabilityError(name, n, values[n - 1], values[n])
    last = values[-1]
    certified = 4 * (len(values) - 1)
    width = last.max_degree() - last.min_degree() + 1
    coeffs = aligned_coefficients(last, max(width, certified), "lowest")
    if coeffs[0] < 0:
        coeffs = tuple(-c for c in coeffs)
    return CoefficientPrefix(f"{name} color {len(values)}", end, coeffs,
                             certified)


def _jtilde_values(link: LinkDiagram, n_max: int,
                   max_width: int | None) -> list:
    """J~_1..J~_{n_max}, the input of both certificates."""
    if n_max < 2:
        raise ValueError("need n_max >= 2 to certify anything")
    if not is_alternating(link):
        raise ValueError("tail stability is established for alternating "
                         "diagrams; this one is not alternating")
    return [colored_jones(link, n, max_width=max_width)
            for n in range(1, n_max + 1)]


def _certified_head(link: LinkDiagram, values) -> CoefficientPrefix:
    """The head of `link` is the tail of its mirror diagram, whose J~_n is
    J~_n(link) under A -> A^-1, so the mirrored values certify it."""
    p = _certified_tail(_display_name(mirror(link)),
                        [v.mirror() for v in values])
    return CoefficientPrefix(f"{_display_name(link)} color {len(values)}",
                             "highest", p.coefficients, p.certified)


def tail_prefix(link: LinkDiagram, n_max: int,
                max_width: int | None = None) -> CoefficientPrefix:
    """Stable low-end coefficients: compute J~_1..J~_{n_max}, check every
    consecutive window, return the aligned lowest coefficients of the last
    with certified length 4(n_max - 1)."""
    return _certified_tail(_display_name(link),
                           _jtilde_values(link, n_max, max_width))


def head_prefix(link: LinkDiagram, n_max: int,
                max_width: int | None = None) -> CoefficientPrefix:
    """Stable high-end coefficients, read off the mirror diagram."""
    return _certified_head(link, _jtilde_values(link, n_max, max_width))


def tail_and_head(link: LinkDiagram, n_max: int,
                  max_width: int | None = None) -> tuple:
    """(tail_prefix, head_prefix) from one computation of each J~_n."""
    values = _jtilde_values(link, n_max, max_width)
    return (_certified_tail(_display_name(link), values),
            _certified_head(link, values))


# ---------------------------------------------------------------------------
# theorem-level checks


def _bstate_value(link: LinkDiagram, n: int,
                  max_width: int | None) -> RationalFunction:
    """alpha(s-) * <Y(s-)>, the all-B colored state's term of J~_n."""
    s = s_minus(link, n)
    value = evaluate_rational(build_upsilon(link, n, s), max_width=max_width)
    return value * alpha(link, n, s)


def verify_theorem_1(link: LinkDiagram, n: int,
                     max_width: int | None = None) -> bool:
    """The n-colored B-state carries the lowest 4n coefficients of J~_n."""
    return doteq(colored_jones(link, n, max_width=max_width),
                 _bstate_value(link, n, max_width), 4 * n)


def verify_theorem_2(link: LinkDiagram, n: int,
                     max_width: int | None = None) -> bool:
    """The (n+1)-colored B-state already matches J~_n on its lowest 4n
    coefficients."""
    return doteq(_bstate_value(link, n + 1, max_width),
                 colored_jones(link, n, max_width=max_width), 4 * n)


def verify_corollary(link: LinkDiagram, n: int,
                     max_width: int | None = None) -> bool:
    """Consecutive colors agree on the lowest 4n coefficients."""
    return doteq(colored_jones(link, n + 1, max_width=max_width),
                 colored_jones(link, n, max_width=max_width), 4 * n)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ColorEntry:
    """One color's row of a stability report.

    `next_jtilde_agrees` is the consecutive-color window check: True below
    the top color and None on it, where J~ of the next color was not
    computed.  It is never False in a returned report: each window is
    compared once, by _certified_tail, which raises TailStabilityError on
    a failing window before the report exists.  `seconds` is the wall time
    of the row: the terms it computes (J~_1 and B_1 in row 1, then B_{n+1}
    and J~_{n+1}) and its comparisons.  It is in the CSV form only; the
    JSON form (to_dict) is deterministic.
    """

    n: int
    min_degree: int
    max_degree: int
    coefficients: int
    bstate_vs_jtilde: bool
    next_bstate_vs_jtilde: bool
    next_jtilde_agrees: bool | None
    seconds: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "minDegree": self.min_degree,
            "maxDegree": self.max_degree,
            "coefficients": self.coefficients,
            "bstateVsJtilde": self.bstate_vs_jtilde,
            "nextBstateVsJtilde": self.next_bstate_vs_jtilde,
            "nextJtildeAgrees": self.next_jtilde_agrees,
        }


@dataclass(frozen=True)
class StabilityReport:
    link: str
    colors: tuple
    tail: CoefficientPrefix

    @property
    def ok(self) -> bool:
        # a failed next_jtilde_agrees never reaches a report:
        # _certified_tail raises TailStabilityError on the same window
        return all(e.bstate_vs_jtilde and e.next_bstate_vs_jtilde
                   for e in self.colors)

    def to_dict(self) -> dict:
        return {
            "link": self.link,
            "ok": self.ok,
            "colors": [e.to_dict() for e in self.colors],
            "tail": self.tail.to_dict(),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["link", "n", "min_degree", "max_degree", "coefficients",
                    "bstate_vs_jtilde", "next_bstate_vs_jtilde",
                    "next_jtilde_agrees", "seconds"])
        for e in self.colors:
            w.writerow([self.link, e.n, e.min_degree, e.max_degree,
                        e.coefficients, e.bstate_vs_jtilde,
                        e.next_bstate_vs_jtilde,
                        "" if e.next_jtilde_agrees is None
                        else e.next_jtilde_agrees,
                        e.seconds])
        return buf.getvalue()


def stability_report(link: LinkDiagram, n_max: int,
                     max_width: int | None = None) -> StabilityReport:
    """Run the full window-comparison suite for colors 1..n_max.

    Each J~_n and each B-state term is computed once, in the order
    J~_1, B_1, then B_{n+1} and J~_{n+1} for each color n in turn."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    name = _display_name(link)
    start = time.perf_counter()
    jtilde = {1: colored_jones(link, 1, max_width=max_width)}
    bstate = {1: _bstate_value(link, 1, max_width)}
    entries = []
    for n in range(1, n_max + 1):
        p = jtilde[n]
        thm1 = doteq(p, bstate[n], 4 * n)
        bstate[n + 1] = _bstate_value(link, n + 1, max_width)
        thm2 = doteq(bstate[n + 1], p, 4 * n)
        if n < n_max:
            jtilde[n + 1] = colored_jones(link, n + 1, max_width=max_width)
        entries.append(ColorEntry(
            n=n,
            min_degree=p.min_degree(),
            max_degree=p.max_degree(),
            coefficients=sum(1 for c in p.terms.values() if c),
            bstate_vs_jtilde=thm1,
            next_bstate_vs_jtilde=thm2,
            next_jtilde_agrees=True if n < n_max else None,
            seconds=round(time.perf_counter() - start, 6),
        ))
        start = time.perf_counter()
    # the one comparison of each consecutive-color window; a failure
    # raises TailStabilityError before any report exists
    tail = _certified_tail(name, list(jtilde.values()))
    return StabilityReport(name, tuple(entries), tail)
