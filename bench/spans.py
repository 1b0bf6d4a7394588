"""Span recording around skeinlab's public functions, from outside.

install() wraps each function named in TRACED and puts the wrapper in
place of the original in every skeinlab module namespace that holds it,
so calls between modules are seen too (tails.colored_jones,
skein_eval.divide_exact, ...).  Nothing under src/ changes.

A span is [name, start, end, parent, hidden]: `parent` is the index of
the enclosing span or -1, and `hidden` is time the recorder itself spent
inside that span (reading argument and result values), which the
self-time arithmetic removes again.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

NAME, START, END, PARENT, HIDDEN = range(5)

# Self time of these spans, summed per metric.
SELF_TIME = {
    "skein_eval.plan_s": ("skein_eval.morse_decompose",),
    "skein_eval.sweep_s": ("skein_eval.evaluate", "skein_eval.evaluate_rational"),
    "skein_eval.build_s": ("skein_eval.cabled_diagram", "skein_eval.from_link"),
    "laurent.gcd_s": ("laurent.laurent_gcd",),
    "temperley_lieb.jw_s": ("temperley_lieb.jones_wenzl",),
    "temperley_lieb.cleared_s": ("temperley_lieb.cleared_projector",),
    "temperley_lieb.multiply_s": ("temperley_lieb.tl_multiply",),
    "temperley_lieb.tensor_s": ("temperley_lieb.tl_tensor",),
    "temperley_lieb.trace_s": ("temperley_lieb.partial_trace", "temperley_lieb.closure"),
    "colored_states.upsilon_build_s": ("colored_states.build_upsilon",),
    "colored_states.alpha_s": ("colored_states.alpha",),
    "tails.doteq_s": ("tails.doteq",),
    "tails.report_s": ("tails.stability_report", "tails.tail_prefix", "tails.head_prefix"),
    "cli.self_s": ("cli.main",),
    "diagram.parse_s": ("diagram.parse_pd",),
    "diagram.predicates_s": ("diagram.is_alternating", "diagram.is_adequate",
                             "diagram.is_a_adequate", "diagram.is_b_adequate"),
    "diagram.mirror_s": ("diagram.mirror",),
}

_METRIC_OF = {name: metric for metric, names in SELF_TIME.items() for name in names}

# Number of spans of one function.
CALLS = {
    "skein_eval.networks": "skein_eval.morse_decompose",
    "skein_eval.cjones_calls": "skein_eval.colored_jones",
    "laurent.gcd_calls": "laurent.laurent_gcd",
    "laurent.divide_exact_calls": "laurent.divide_exact",
    "temperley_lieb.multiply_calls": "temperley_lieb.tl_multiply",
    "colored_states.upsilon_calls": "colored_states.build_upsilon",
    "tails.doteq_calls": "tails.doteq",
}

# skein_eval.reduce_s: the final division and gcd reduction of a sweep.
EVALUATE = frozenset({"skein_eval.evaluate", "skein_eval.evaluate_rational"})
REDUCE = frozenset({"laurent.divide_exact", "laurent.laurent_gcd"})

# Entry points wrapped so that their spans cover the time they spend
# outside the functions above; they feed no metric of their own.
ENTRY = ("skein_eval.bracket", "fixtures.load_fixtures")

TRACED = tuple(sorted({n for names in SELF_TIME.values() for n in names}
                      | set(CALLS.values()) | REDUCE | set(ENTRY)))


class Recorder:
    """Spans and value statistics of one process; records only while `on`."""

    def __init__(self):
        self.on = False
        self.clear()

    def clear(self) -> None:
        """Drop every span and value statistic recorded so far."""
        self.spans: list = []
        self.stack: list = []
        self.values = {"skein_eval.nodes_max": 0, "skein_eval.peak_width_max": 0,
                       "laurent.den_degree_max": 0, "laurent.coeff_bits_max": 0}
        self.cjones_seen: set = set()
        self.cjones_repeats = 0

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
                if span[PARENT] >= 0:
                    spans[span[PARENT]][HIDDEN] += time.perf_counter() - span[END]
            return result

        return traced

    def metrics(self, wall_s: float) -> dict:
        """Per-module metrics of the recorded spans over a pass of wall_s."""
        out = {metric: 0.0 for metric in SELF_TIME}
        counts: dict = {}
        for s, own in zip(self.spans, self_times(self.spans)):
            counts[s[NAME]] = counts.get(s[NAME], 0) + 1
            metric = _METRIC_OF.get(s[NAME])
            if metric is not None:
                out[metric] += own
        for metric, name in CALLS.items():
            out[metric] = counts.get(name, 0)
        out["skein_eval.reduce_s"] = reduce_time(self.spans)
        out.update(self.values)
        calls = out["skein_eval.cjones_calls"]
        out["skein_eval.cjones_repeat_ratio"] = self.cjones_repeats / calls if calls else 0.0
        out["trace.uncovered_share"] = uncovered_share(self.spans, wall_s)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# value observers

def _bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.terms.values()), default=0)


def _span(poly) -> int:
    return 0 if poly.is_zero() else poly.max_degree() - poly.min_degree()


def _keep_max(rec, key, value) -> None:
    if value > rec.values[key]:
        rec.values[key] = value


def _observe_plan(rec, args, kwargs, plan) -> None:
    _keep_max(rec, "skein_eval.nodes_max", args[0].node_count)
    _keep_max(rec, "skein_eval.peak_width_max", plan.peak_width)


def _observe_cjones(rec, args, kwargs, value) -> None:
    link = args[0]
    n = args[1] if len(args) > 1 else kwargs["n"]
    key = (tuple(sorted(link.crossings)), link.free_loops, n)
    if key in rec.cjones_seen:
        rec.cjones_repeats += 1
    rec.cjones_seen.add(key)


def _observe_division(rec, args, kwargs, result) -> None:
    # both take (numerator side, denominator side)
    _keep_max(rec, "laurent.den_degree_max", _span(args[1]))
    _keep_max(rec, "laurent.coeff_bits_max",
              max(_bits(args[0]), _bits(args[1]), _bits(result)))


_OBSERVERS = {
    "skein_eval.morse_decompose": _observe_plan,
    "skein_eval.colored_jones": _observe_cjones,
    "laurent.divide_exact": _observe_division,
    "laurent.laurent_gcd": _observe_division,
}


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans) -> list:
    """Duration of each span minus its children's durations and its
    hidden recorder time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c - s[HIDDEN] for s, c in zip(spans, child)]


def reduce_time(spans) -> float:
    """Total time of the outermost REDUCE spans that run inside an
    EVALUATE span.  Parents precede children in the list."""
    under_eval = [False] * len(spans)
    under_reduce = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        p = s[PARENT]
        pe = p >= 0 and under_eval[p]
        pr = p >= 0 and under_reduce[p]
        under_eval[i] = pe or s[NAME] in EVALUATE
        under_reduce[i] = pr or (pe and s[NAME] in REDUCE)
        if pe and not pr and s[NAME] in REDUCE:
            total += s[END] - s[START]
    return total


def uncovered_share(spans, wall_s: float) -> float:
    """Share of wall_s that no top-level span covers."""
    if wall_s <= 0:
        return 0.0
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return max(0.0, 1.0 - covered / wall_s)


# ---------------------------------------------------------------------------
# installation

def install(package) -> Recorder:
    """Wrap every TRACED function of `package` (skeinlab) in every module
    namespace that refers to it.  Returns the recorder, switched off."""
    rec = Recorder()
    prefix = package.__name__
    for name in TRACED:
        importlib.import_module(f"{prefix}.{name.split('.')[0]}")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == prefix or name.startswith(prefix + "."))]
    for name in TRACED:
        module_name, func_name = name.split(".")
        original = getattr(sys.modules[f"{prefix}.{module_name}"], func_name)
        wrapper = rec.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return rec
