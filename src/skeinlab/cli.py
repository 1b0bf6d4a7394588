"""Command-line interface.

Subcommands: bracket | cjones | tail | verify | adequacy | states.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input error (including a PD code that is not planar), 3 resource cap
exceeded, 141 (128 + SIGPIPE) the reader closed stdout.  JSON output is
deterministic (sorted keys, no timing fields); timings appear in the
human and CSV forms only.

Each `_cmd_*` returns (exit code, JSON payload, CSV text, human lines)
and prints nothing to stdout; `main` prints the one form that --format
selects.  `main` also checks the width cap, --max-width, before any
command runs, so a bad cap exits 2 even where no sweep would read it.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .colored_states import all_states, alpha, build_upsilon
from .diagram import (
    LinkDiagram, MalformedPDError, all_a_state, all_b_state, apply_state,
    is_a_adequate, is_adequate, is_alternating, is_b_adequate, parse_pd,
)
from .fixtures import fixture, fixture_names
from .laurent import LaurentPolynomial, RationalFunction, loop_value
from .skein_eval import (
    DEFAULT_MAX_WIDTH, ResourceLimitError, _check_width, bracket, colored_jones,
    evaluate_rational,
)
from .tails import StabilityReport, TailStabilityError, stability_report, tail_and_head

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141


# ---------------------------------------------------------------------------
# input plumbing

def _load_input(args) -> LinkDiagram:
    """Resolve the single diagram named by --pd/--file; LinkDiagram
    refuses a code that is not planar."""
    if args.pd is not None and args.file is not None:
        raise MalformedPDError("give exactly one of --pd and --file")
    if args.pd is not None:
        return parse_pd(args.pd, name="input")
    if args.file is None:
        raise MalformedPDError("no input: give --pd or --file")
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedPDError(f"cannot read {args.file}: {exc}") from exc
    name = os.path.basename(args.file)
    i = name.rfind(".")  # the stem as pathlib names it, not as splitext does
    return _parse_any(text, default_name=name[:i] if 0 < i < len(name) - 1 else name)


def _parse_any(text: str, default_name: str = "input") -> LinkDiagram:
    """PD text, or the JSON diagram form {"pd": [[a,b,c,d], ...], "name": ...}."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
            rows = payload["pd"]
        except KeyError as exc:
            raise MalformedPDError(f"bad JSON diagram: missing key {exc.args[0]!r}") from exc
        except (json.JSONDecodeError, TypeError) as exc:
            raise MalformedPDError(f"bad JSON diagram: {exc}") from exc
        return LinkDiagram(rows, free_loops=payload.get("loops", 0),
                           name=str(payload.get("name", default_name)))
    return parse_pd(text, name=default_name)


def _csv_rows(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# bracket / cjones

def _poly_result(name: str, key: str, value: LaurentPolynomial,
                 color: dict) -> tuple:
    """The output of one polynomial; `color` is {} or {"n": n}."""
    j = value.to_json()
    row = [name, *color.values(), j["minDeg"], " ".join(map(str, j["coeffs"]))]
    return (EXIT_OK, {"name": name, **color, key: j, "text": str(value)},
            _csv_rows(["name", *color, "minDeg", "coeffs"], [row]),
            [str(value), json.dumps(j, sort_keys=True)])


def _cmd_bracket(args) -> tuple:
    diagram = _load_input(args)
    return _poly_result(diagram.name or "input", "bracket",
                        bracket(diagram, max_width=args.max_width), {})


def _cmd_cjones(args) -> tuple:
    diagram = _load_input(args)
    return _poly_result(diagram.name or "input", "jtilde",
                        colored_jones(diagram, args.n, max_width=args.max_width),
                        {"n": args.n})


# ---------------------------------------------------------------------------
# adequacy

def _cmd_adequacy(args) -> tuple:
    diagram = _load_input(args)
    row = {
        "name": diagram.name or "input",
        "crossings": diagram.crossing_count,
        "alternating": is_alternating(diagram),
        "aAdequate": is_a_adequate(diagram),
        "bAdequate": is_b_adequate(diagram),
        "adequate": is_adequate(diagram),
        "sA": apply_state(diagram, all_a_state(diagram)).circle_count,
        "sB": apply_state(diagram, all_b_state(diagram)).circle_count,
    }
    header = ["name", "crossings", "alternating", "a_adequate",
              "b_adequate", "adequate", "sA", "sB"]
    return (EXIT_OK, row, _csv_rows(header, [list(row.values())]),
            [f"{key:12} {value}" for key, value in row.items()])


# ---------------------------------------------------------------------------
# states

def _cmd_states(args) -> tuple:
    diagram = _load_input(args)
    n = args.n
    states = all_states(diagram, n)
    rows, total = [], RationalFunction.zero()
    if n == 1:
        # classical Kauffman states, A (+1) before B: weight alpha * delta^circles
        for s in reversed(states):
            circles = apply_state(diagram, s).circle_count
            weight = alpha(diagram, 1, s) * loop_value() ** circles
            total = total + weight
            rows.append({"state": "".join("A" if x > 0 else "B" for x in s),
                         "circles": circles,
                         "weight": weight.to_json(), "text": str(weight)})
        header, middle, prefix = ["state", "circles", "weight"], "circles", ""
    else:
        for s in states:
            coeff = alpha(diagram, n, s)
            value = evaluate_rational(build_upsilon(diagram, n, s),
                                      max_width=args.max_width)
            contribution = value * coeff
            total = total + contribution
            rows.append({
                "state": "".join("+" if x > 0 else "-" for x in s),
                "alphaExponent": coeff.min_degree(),
                "value": {"num": value.num.to_json(), "den": value.den.to_json()},
                "text": str(contribution),
            })
        header = ["state", "alpha_exponent", "contribution"]
        middle, prefix = "alphaExponent", "A^"
    total = total.as_laurent()
    payload = {"name": diagram.name or "input", "n": n, "states": rows,
               "total": total.to_json(), "totalText": str(total)}
    lines = [f"{r['state']}  {prefix}{r[middle]}  {r['text']}" for r in rows]
    return (EXIT_OK, payload,
            _csv_rows(header, [[r["state"], r[middle], r["text"]] for r in rows]),
            lines + [f"total: {total}"])


# ---------------------------------------------------------------------------
# tail

def _cmd_tail(args) -> tuple:
    diagram = _load_input(args)
    tail, head = tail_and_head(diagram, args.nmax, max_width=args.max_width)
    payload = {"link": diagram.name or "input", "nMax": args.nmax,
               "tail": tail.to_dict(), "head": head.to_dict()}
    rows = [[p.source, p.end, p.certified, " ".join(map(str, p.coefficients))]
            for p in (tail, head)]
    return (EXIT_OK, payload,
            _csv_rows(["source", "end", "certified", "coefficients"], rows),
            [f"{p.end:8} certified {p.certified:3}  "
             f"{list(p.coefficients)}  ({p.source})" for p in (tail, head)])


# ---------------------------------------------------------------------------
# verify

def _verify_job(job: tuple) -> tuple:
    """One link's verification; runs in a worker process under --jobs.

    job is (diagram, n_max, max_width); the result is (name, outcome, detail)
    with outcome "checked" (detail: the StabilityReport), "failed" (detail:
    the failing color and message), "resource" or "skipped" (detail: why)."""
    diagram, n_max, max_width = job
    name = diagram.name or "input"
    if not is_alternating(diagram):
        return name, "skipped", "not alternating"
    try:
        return name, "checked", stability_report(diagram, n_max,
                                                   max_width=max_width)
    except TailStabilityError as exc:
        return name, "failed", (exc.n, str(exc))
    except ResourceLimitError as exc:
        return name, "resource", str(exc)


def _link_row(name: str, status: str, **fields) -> list:
    """The one CSV row of a link that yields no report: its name, status
    and `fields`, blank elsewhere, in StabilityReport.CSV_HEADER's order."""
    row = dict.fromkeys(StabilityReport.CSV_HEADER, "")
    row.update(link=name, status=status, **fields)
    return list(row.values())


def _cmd_verify(args) -> tuple:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.nmax < 1:
        raise ValueError("need n_max >= 1")
    if args.pd is not None or args.file is not None:
        if args.names:
            raise MalformedPDError("give fixture names or --pd/--file, not both")
        diagrams = [_load_input(args)]
    else:
        try:
            diagrams = [fixture(name).diagram
                        for name in args.names or fixture_names()]
        except KeyError as exc:
            raise MalformedPDError(exc.args[0]) from exc
    jobs = [(d, args.nmax, args.max_width) for d in diagrams]

    workers = args.jobs if args.jobs else (os.cpu_count() or 1)
    if workers > 1 and len(jobs) > 1:
        import multiprocessing  # here, not at the top: no other command pays for it
        with multiprocessing.Pool(min(workers, len(jobs))) as pool:
            results = pool.map(_verify_job, jobs)
    else:
        results = [_verify_job(job) for job in jobs]

    checks = ("bstate_vs_jtilde", "next_bstate_vs_jtilde")
    links, failures, lines, csv_rows = [], [], [], []
    for name, outcome, detail in results:
        if outcome == "checked":
            links.append(detail.to_dict())
            csv_rows += detail.csv_rows()
            for e in detail.colors:
                failures += [[name, c, e.n] for c in checks if not getattr(e, c)]
                marks = "  ".join(f"{c}={'pass' if getattr(e, c) else 'FAIL'}"
                                  for c in checks)
                step = "-" if e.next_jtilde_agrees is None else "pass"
                lines.append(f"{detail.link:14} n={e.n}  {marks}  "
                             f"next_jtilde_agrees={step}  ({e.seconds:.2f}s)")
            lines.append(f"{detail.link:14} tail certified "
                         f"{detail.tail.certified}: {list(detail.tail.coefficients)}")
        elif outcome == "failed":
            n, message = detail
            failed = [[name, "next_jtilde_agrees", n]]
            failures += failed
            links.append({"link": name, "ok": False, "failures": failed,
                          "error": message})
            lines.append(f"{name}: FAIL ({message})")
            csv_rows.append(_link_row(name, outcome, n=n, next_jtilde_agrees=False))
        elif outcome == "resource":
            links.append({"link": name, "resource": detail})
            lines.append(f"{name}: resource cap ({detail})")
            csv_rows.append(_link_row(name, outcome))
        else:
            links.append({"link": name, "skipped": detail})
            lines.append(f"{name}: skipped ({detail})")
            csv_rows.append(_link_row(name, outcome))
            print(f"warning: {name} skipped: {detail}", file=sys.stderr)
    hit_cap = any(outcome == "resource" for _, outcome, _ in results)
    ok = not failures and not hit_cap
    lines.append("ok" if ok else "FAILED")
    code = EXIT_RESOURCE if hit_cap else EXIT_VERIFY if failures else EXIT_OK
    return (code, {"ok": ok, "links": links, "failures": failures},
            _csv_rows(StabilityReport.CSV_HEADER, csv_rows), lines)


# ---------------------------------------------------------------------------
# parser

def _add_input_flags(sub, with_names: bool = False):
    sub.add_argument("--pd", help="inline PD code ('X a b c d / ...', 'O' for a loop)")
    sub.add_argument("--file", help="diagram file: PD text or JSON {'pd': [[...]], ...}")
    if with_names:
        sub.add_argument("names", nargs="*",
                         help="bundled fixture names (default: all); "
                              f"available: {', '.join(fixture_names())}")


def _add_common_flags(sub):
    sub.add_argument("--format", choices=("human", "json", "csv"),
                     default="human")
    sub.add_argument("--max-width", type=int, default=DEFAULT_MAX_WIDTH,
                     help=f"peak open-strand cap (default {DEFAULT_MAX_WIDTH})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinlab",
        description="Exact Kauffman-bracket skein calculator for link diagrams.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("bracket", help="Kauffman bracket of a diagram")
    _add_input_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_bracket)

    p = commands.add_parser("cjones", help="unreduced colored Jones polynomial")
    _add_input_flags(p)
    p.add_argument("-n", type=int, required=True, help="color (cable width)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_cjones)

    p = commands.add_parser("tail", help="certified stable head/tail coefficients")
    _add_input_flags(p)
    p.add_argument("--nmax", type=int, default=3,
                   help="highest color to compare (default 3)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_tail)

    p = commands.add_parser("verify",
                            help="window comparisons (B-state vs J~, consecutive colors)")
    _add_input_flags(p, with_names=True)
    p.add_argument("--nmax", type=int, default=2,
                   help="verify colors 1..n_max (default 2)")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel links (default: all cores)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = commands.add_parser("adequacy", help="adequacy/alternation classification")
    _add_input_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_adequacy)

    p = commands.add_parser("states", help="Kauffman state table (colored for -n >= 2)")
    _add_input_flags(p)
    p.add_argument("-n", type=int, default=1, help="color (default 1, classical)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_states)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_width(args.max_width)
        code, payload, csv_text, lines = args.func(args)
        if args.format == "json":
            sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        elif args.format == "csv":
            sys.stdout.write(csv_text)
        else:
            sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # send what is still buffered to devnull so the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (MalformedPDError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except TailStabilityError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
