"""The four benchmark workloads: job lists, untimed output checks, digests.

A job is one call into skeinlab's public API.  Jobs reach skeinlab
through its modules (`sk.bracket`, not a name bound when this module is
imported), and child.py builds them after installing the recorder of a
traced pass, so the recorder in spans.py sees every call it wraps.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import skeinlab as sk
from skeinlab import cli
from skeinlab import temperley_lieb as tl

import gen

WORKLOADS = ("bracket_braids", "cjones_cables", "verify_tail", "tl_projectors")

# bracket_braids checks against the 2^k state sum up to this many
# crossings (0.28 s at 12) and by the mirror identity above it.
BRUTE_FORCE_MAX = 12

# cjones_cables: (fixture, color) pairs.
# - Color 4 only where a job stays under ~2.5 s; 5_1..6_3 cost 3.4-5.2 s.
# - Left out at color 2: the trefoil, whose 13-node 2-cable is planned by
#   the exact DP (bracket_braids' mechanism) and costs what trefoil n=3
#   costs, so the median job flipped between the two; and the Hopf link,
#   so that the median falls in the middle of trefoil n=3's samples.
_CORPUS = ("hopf", "trefoil", "figure_eight", "5_1", "5_2", "6_1", "6_2", "6_3")
CABLE_PAIRS = ([(name, 2) for name in _CORPUS[2:]]
               + [(name, 3) for name in _CORPUS]
               + [(name, 4) for name in _CORPUS[:3]])

# verify_tail: --nmax per fixture; the rest of the corpus uses 2.
VERIFY_NMAX = {"hopf": 3, "trefoil": 3, "figure_eight": 3, "5_1": 3}

TL_MAX = 6
TL_SQUARE_MAX = 5  # f(6)*f(6) alone takes 13 s

EXPECTED = Path(__file__).resolve().parent / "expected" / "verify_tail.json"


@dataclass(frozen=True)
class Job:
    key: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def build(workload: str, seed: int) -> list:
    """The job list of one workload; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return globals()["_" + workload](seed)


# ---------------------------------------------------------------------------
# bracket_braids

def _bracket_run(text):
    return sk.bracket(sk.parse_pd(text))


def _bracket_ok(text, crossings, value) -> bool:
    link = sk.parse_pd(text)
    if crossings <= BRUTE_FORCE_MAX:
        return value == sk.bracket_bruteforce(link)
    return sk.bracket(sk.mirror(link)) == value.mirror()


def _bracket_braids(seed):
    return [Job(f"bracket {s}x{c} #{i}", partial(_bracket_run, text),
                partial(_bracket_ok, text, c))
            for i, (s, c, text) in enumerate(gen.bracket_inputs(seed))]


# ---------------------------------------------------------------------------
# cjones_cables

def _cjones_ok(link, n, value) -> bool:
    return sk.colored_jones(sk.mirror(link), n) == value.mirror()


def _cjones_cables(seed):
    pairs = [(name, sk.fixture(name).diagram, n) for name, n in CABLE_PAIRS]
    pairs += [(f"braid{i}", sk.parse_pd(text), n)
              for i, (n, text) in enumerate(gen.cable_inputs(seed))]
    random.Random(f"cjones_cables:order:{seed}").shuffle(pairs)
    return [Job(f"cjones {name} n={n}", partial(sk.colored_jones, link, n),
                partial(_cjones_ok, link, n))
            for name, link, n in pairs]


# ---------------------------------------------------------------------------
# verify_tail

def _cli_run(argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_ok(expected, result) -> bool:
    code, text = result
    return code == 0 and text.encode() == expected.encode()


def verify_tail_argvs() -> list:
    """Every CLI invocation of verify_tail, in corpus order."""
    argvs = []
    for fx in sk.load_fixtures():
        nmax = str(VERIFY_NMAX.get(fx.name, 2))
        pd = " / ".join("X " + " ".join(map(str, row))
                        for row in fx.diagram.crossings)
        argvs.append(["verify", fx.name, "--nmax", nmax,
                      "--format", "json", "--jobs", "1"])
        argvs.append(["tail", "--pd", pd, "--nmax", nmax, "--format", "json"])
    return argvs


def _verify_tail(seed):
    expected = json.loads(EXPECTED.read_text())
    argvs = verify_tail_argvs()
    random.Random(f"verify_tail:{seed}").shuffle(argvs)
    return [Job(" ".join(a), partial(_cli_run, a),
                partial(_cli_ok, expected[" ".join(a)]))
            for a in argvs]


# ---------------------------------------------------------------------------
# tl_projectors

def _delta_ratio(n: int):
    return sk.RationalFunction(sk.quantum_dimension(n), sk.quantum_dimension(n - 1))


def _jw_ok(n, f) -> bool:
    return (len(f.terms) == gen.catalan(n)
            and f.terms.get(tl.identity_matching(n)) == sk.RationalFunction.one())


def _cleared_ok(n, result) -> bool:
    q, rows = result
    rebuilt = sk.TLElement(n, {m: sk.RationalFunction(sk.LaurentPolynomial(c), q)
                               for c, m in rows})
    return rebuilt == sk.jones_wenzl(n)


def _square_run(n):
    f = sk.jones_wenzl(n)
    return sk.tl_multiply(f, f)


def _edge_run(n, i, left):
    f, e = sk.jones_wenzl(n), sk.TLElement.generator(n, i)
    return sk.tl_multiply(e, f) if left else sk.tl_multiply(f, e)


def _times_f_run(x):
    return sk.tl_multiply(x, sk.jones_wenzl(x.n))


def _times_f_ok(product) -> bool:
    return all(sk.tl_multiply(product, sk.TLElement.generator(product.n, i)).is_zero()
               for i in range(1, product.n))


def _closure_run(n):
    return sk.closure(sk.jones_wenzl(n))


def _closure_ok(n, value) -> bool:
    return value == sk.RationalFunction(sk.quantum_dimension(n))


def _trace_run(n):
    return sk.partial_trace(sk.jones_wenzl(n), 1)


def _trace_ok(n, value) -> bool:
    return value == sk.jones_wenzl(n - 1).scale(_delta_ratio(n))


def _square_ok(n, value) -> bool:
    return value == sk.jones_wenzl(n)


def _random_element(n, terms):
    return sk.TLElement(n, {sk.PlanarMatching(n, pairs): sk.LaurentPolynomial(coeff)
                            for pairs, coeff in terms})


def _tl_projectors(seed):
    # Jones-Wenzl projectors are built cold, bottom up: the process is
    # fresh and each jones_wenzl(n) job adds one level to the cache.
    jobs = [Job(f"jw {n}", partial(sk.jones_wenzl, n), partial(_jw_ok, n))
            for n in range(1, TL_MAX + 1)]
    jobs += [Job(f"cleared {n}", partial(tl.cleared_projector, n),
                 partial(_cleared_ok, n)) for n in range(1, TL_MAX + 1)]
    jobs += [Job(f"f*f {n}", partial(_square_run, n), partial(_square_ok, n))
             for n in range(2, TL_SQUARE_MAX + 1)]
    jobs += [Job(f"{'e*f' if left else 'f*e'} {n} {i}", partial(_edge_run, n, i, left),
                 sk.TLElement.is_zero)
             for n in range(2, TL_MAX + 1) for i in range(1, n) for left in (True, False)]
    jobs += [Job(f"closure {n}", partial(_closure_run, n), partial(_closure_ok, n))
             for n in range(1, TL_MAX + 1)]
    jobs += [Job(f"ptrace {n}", partial(_trace_run, n), partial(_trace_ok, n))
             for n in range(1, TL_MAX + 1)]
    jobs += [Job(f"x*f {n} #{k}", partial(_times_f_run, _random_element(n, terms)),
                 _times_f_ok)
             for k, (n, terms) in enumerate(gen.tl_inputs(seed, TL_MAX))]
    return jobs


# ---------------------------------------------------------------------------
# outputs

def canonical(value) -> str:
    """Exact, deterministic text of a job's output."""
    if isinstance(value, sk.LaurentPolynomial):
        return "L" + repr(sorted(value.terms.items()))
    if isinstance(value, sk.RationalFunction):
        return f"Q({canonical(value.num)}/{canonical(value.den)})"
    if isinstance(value, sk.TLElement):
        rows = sorted((m.pairs, canonical(c)) for m, c in value.terms.items())
        return f"TL{value.n}{rows!r}"
    if isinstance(value, tuple):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{v}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, sk.PlanarMatching):
        return repr(value.pairs)
    return repr(value)


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def stdout_bytes(outputs) -> int:
    """Bytes the in-process CLI wrote to stdout over verify_tail's jobs."""
    return sum(len(o[1].encode()) for o in outputs
               if isinstance(o, tuple) and len(o) == 2 and isinstance(o[1], str))
