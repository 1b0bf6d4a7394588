"""Command-line interface.

Subcommands: bracket | cjones | tail | verify | adequacy | states.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input error (including a PD code that is not planar), 3 resource cap
exceeded, 141 (128 + SIGPIPE) the reader closed stdout.  JSON output is
deterministic (sorted keys, no timing fields); timings appear in the
human and CSV forms only.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import multiprocessing
import os
import sys
from pathlib import Path

from .colored_states import all_states, alpha, build_upsilon
from .diagram import (
    LinkDiagram, MalformedPDError, all_a_state, all_b_state, apply_state,
    is_a_adequate, is_adequate, is_alternating, is_b_adequate, is_planar,
    parse_pd,
)
from .fixtures import fixture, fixture_names
from .laurent import LaurentPolynomial, RationalFunction, loop_value
from .skein_eval import ResourceLimitError, bracket, colored_jones, evaluate_rational
from .tails import TailStabilityError, stability_report, tail_and_head

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141

DEFAULT_MAX_STATES = 4096


# ---------------------------------------------------------------------------
# input plumbing

def _load_input(args) -> LinkDiagram:
    """Resolve the single diagram named by --pd/--file; it must be planar,
    as the engine's turnback pruning assumes."""
    if args.pd is not None and args.file is not None:
        raise MalformedPDError("give exactly one of --pd and --file")
    if args.pd is not None:
        diagram = parse_pd(args.pd, name="input")
    elif args.file is None:
        raise MalformedPDError("no input: give --pd or --file")
    else:
        path = Path(args.file)
        try:
            text = path.read_text()
        except OSError as exc:
            raise MalformedPDError(f"cannot read {path}: {exc}") from exc
        diagram = _parse_any(text, default_name=path.stem)
    if not is_planar(diagram):
        raise MalformedPDError("the PD code does not describe a planar diagram")
    return diagram


def _parse_any(text: str, default_name: str = "input") -> LinkDiagram:
    """PD text, or the JSON diagram form {"pd": [[a,b,c,d], ...], "name": ...}."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
            rows = payload["pd"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedPDError(f"bad JSON diagram: {exc}") from exc
        loops = payload.get("loops", 0)
        if type(loops) is not int:  # bool is an int subclass; refuse it too
            raise MalformedPDError(
                f"bad JSON diagram: loops must be an integer, got {loops!r}")
        return LinkDiagram(rows, free_loops=loops,
                           name=str(payload.get("name", default_name)))
    d = parse_pd(text)
    return LinkDiagram(d.crossings, free_loops=d.free_loops, name=default_name)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _to_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _compact_json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _poly_json(poly: LaurentPolynomial) -> dict:
    return poly.to_json()


def _rational_json(value: RationalFunction) -> dict:
    return {"num": value.num.to_json(), "den": value.den.to_json()}


def _csv_rows(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# bracket / cjones

def _cmd_bracket(args) -> int:
    diagram = _load_input(args)
    value = bracket(diagram, max_width=args.max_width)
    name = diagram.name or "input"
    if args.format == "json":
        _emit(_to_json({"name": name, "bracket": _poly_json(value),
                        "text": str(value)}))
    elif args.format == "csv":
        j = _poly_json(value)
        _emit(_csv_rows(["name", "minDeg", "coeffs"],
                        [[name, j["minDeg"], " ".join(map(str, j["coeffs"]))]]))
    else:
        _emit(str(value))
        _emit(_compact_json(_poly_json(value)))
    return EXIT_OK


def _cmd_cjones(args) -> int:
    diagram = _load_input(args)
    value = colored_jones(diagram, args.n, max_width=args.max_width)
    name = diagram.name or "input"
    if args.format == "json":
        _emit(_to_json({"name": name, "n": args.n, "jtilde": _poly_json(value),
                        "text": str(value)}))
    elif args.format == "csv":
        j = _poly_json(value)
        _emit(_csv_rows(["name", "n", "minDeg", "coeffs"],
                        [[name, args.n, j["minDeg"], " ".join(map(str, j["coeffs"]))]]))
    else:
        _emit(str(value))
        _emit(_compact_json(_poly_json(value)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# adequacy

def _cmd_adequacy(args) -> int:
    diagram = _load_input(args)
    k = diagram.crossing_count
    row = {
        "name": diagram.name or "input",
        "crossings": k,
        "alternating": is_alternating(diagram),
        "aAdequate": is_a_adequate(diagram),
        "bAdequate": is_b_adequate(diagram),
        "adequate": is_adequate(diagram),
        "sA": apply_state(diagram, all_a_state(diagram)).circle_count,
        "sB": apply_state(diagram, all_b_state(diagram)).circle_count,
    }
    if args.format == "json":
        _emit(_to_json(row))
    elif args.format == "csv":
        header = ["name", "crossings", "alternating", "a_adequate",
                  "b_adequate", "adequate", "sA", "sB"]
        _emit(_csv_rows(header, [[row["name"], k, row["alternating"],
                                  row["aAdequate"], row["bAdequate"],
                                  row["adequate"], row["sA"], row["sB"]]]))
    else:
        for key in ("name", "crossings", "alternating", "aAdequate",
                    "bAdequate", "adequate", "sA", "sB"):
            _emit(f"{key:12} {row[key]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# states

def _cmd_states(args) -> int:
    diagram = _load_input(args)
    k = diagram.crossing_count
    if 2 ** k > DEFAULT_MAX_STATES:
        raise ResourceLimitError(
            f"2^{k} states exceed the listing cap {DEFAULT_MAX_STATES}")
    name = diagram.name or "input"
    n = args.n if args.n is not None else 1
    rows = []
    if n == 1:
        # classical Kauffman states: weight A^(a-b) * delta^circles
        delta = loop_value()
        total = LaurentPolynomial.zero()
        for bits in range(2 ** k):
            state = tuple("A" if bits & (1 << i) else "B" for i in range(k))
            a_count = sum(1 for s in state if s == "A")
            circles = apply_state(diagram, state).circle_count
            weight = (LaurentPolynomial.monomial(1, 2 * a_count - k)
                      * delta ** circles)
            total = total + weight
            rows.append({"state": "".join(state), "circles": circles,
                         "weight": _poly_json(weight), "text": str(weight)})
        rows.sort(key=lambda r: r["state"])
    else:
        total_rf = RationalFunction.zero()
        for s in sorted(all_states(diagram, n), key=lambda s: s.signs):
            coeff = alpha(diagram, n, s)
            value = evaluate_rational(build_upsilon(diagram, n, s),
                                      max_width=args.max_width)
            contribution = value * coeff
            total_rf = total_rf + contribution
            rows.append({
                "state": "".join("+" if x > 0 else "-" for x in s.signs),
                "alphaExponent": coeff.min_degree(),
                "value": _rational_json(value),
                "text": str(contribution),
            })
        total = total_rf.as_laurent()
    payload = {"name": name, "n": n, "states": rows,
               "total": _poly_json(total), "totalText": str(total)}
    if args.format == "json":
        _emit(_to_json(payload))
    elif args.format == "csv":
        if n == 1:
            _emit(_csv_rows(["state", "circles", "weight"],
                            [[r["state"], r["circles"], r["text"]] for r in rows]))
        else:
            _emit(_csv_rows(["state", "alpha_exponent", "contribution"],
                            [[r["state"], r["alphaExponent"], r["text"]] for r in rows]))
    else:
        for r in rows:
            left = r["state"]
            mid = r["circles"] if n == 1 else f"A^{r['alphaExponent']}"
            _emit(f"{left}  {mid}  {r['text']}")
        _emit(f"total: {payload['totalText']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tail

def _cmd_tail(args) -> int:
    diagram = _load_input(args)
    name = diagram.name or "input"
    tail, head = tail_and_head(diagram, args.nmax, max_width=args.max_width)
    if args.format == "json":
        _emit(_to_json({"link": name, "nMax": args.nmax,
                        "tail": tail.to_dict(), "head": head.to_dict()}))
    elif args.format == "csv":
        header = ["source", "end", "certified", "coefficients"]
        _emit(_csv_rows(header, [
            [tail.source, tail.end, tail.certified,
             " ".join(map(str, tail.coefficients))],
            [head.source, head.end, head.certified,
             " ".join(map(str, head.coefficients))]]))
    else:
        for p in (tail, head):
            _emit(f"{p.end:8} certified {p.certified:3}  "
                  f"{list(p.coefficients)}  ({p.source})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _verify_job(payload: dict) -> dict:
    """One link's verification; runs in a worker process under --jobs."""
    if "fixture" in payload:
        diagram = fixture(payload["fixture"]).diagram
    else:
        diagram = LinkDiagram(payload["pd"], free_loops=payload["loops"],
                              name=payload["name"])
    name = diagram.name or "input"
    if not is_alternating(diagram):
        return {"link": name, "skipped": "not alternating"}
    try:
        report = stability_report(diagram, payload["n_max"],
                                  max_width=payload["max_width"])
    except TailStabilityError as exc:
        return {"link": name, "ok": False,
                "failures": [[name, "next_jtilde_agrees", exc.n]],
                "error": str(exc)}
    except ResourceLimitError as exc:
        return {"link": name, "resource": str(exc)}
    failures = []
    for entry in report.colors:
        if not entry.bstate_vs_jtilde:
            failures.append([name, "bstate_vs_jtilde", entry.n])
        if not entry.next_bstate_vs_jtilde:
            failures.append([name, "next_bstate_vs_jtilde", entry.n])
    return {"link": name, "ok": report.ok, "failures": failures,
            "report": report.to_dict(), "csv": report.to_csv()}


def _strip_seconds(report: dict) -> dict:
    out = dict(report)
    out["colors"] = [{k: v for k, v in c.items() if k != "seconds"}
                     for c in report["colors"]]
    return out


def _cmd_verify(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    jobs_spec = []
    if args.pd is not None or args.file is not None:
        if args.names:
            raise MalformedPDError("give fixture names or --pd/--file, not both")
        d = _load_input(args)
        jobs_spec.append({"pd": d.crossings, "loops": d.free_loops,
                          "name": d.name or "input"})
    else:
        names = args.names or list(fixture_names())
        for name in names:
            try:
                jobs_spec.append({"fixture": fixture(name).name})
            except KeyError as exc:
                raise MalformedPDError(str(exc)) from exc
    for spec in jobs_spec:
        spec["n_max"] = args.nmax
        spec["max_width"] = args.max_width

    workers = args.jobs if args.jobs else (os.cpu_count() or 1)
    if workers > 1 and len(jobs_spec) > 1:
        with multiprocessing.Pool(min(workers, len(jobs_spec))) as pool:
            results = pool.map(_verify_job, jobs_spec)
    else:
        results = [_verify_job(spec) for spec in jobs_spec]

    failures = [f for r in results for f in r.get("failures", ())]
    hit_cap = [r for r in results if "resource" in r]
    skipped = [r for r in results if "skipped" in r]

    if args.format == "json":
        payload = {
            "ok": not failures and not hit_cap,
            "links": [
                _strip_seconds(r["report"]) if "report" in r
                else {k: v for k, v in r.items() if k != "csv"}
                for r in results
            ],
            "failures": failures,
        }
        _emit(_to_json(payload))
    elif args.format == "csv":
        blocks = [r["csv"] for r in results if "csv" in r]
        if blocks:
            header, *_ = blocks[0].splitlines()
            body = [line for block in blocks for line in block.splitlines()[1:]]
            _emit("\n".join([header] + body))
    else:
        for r in results:
            if "skipped" in r:
                _emit(f"{r['link']}: skipped ({r['skipped']})")
                continue
            if "resource" in r:
                _emit(f"{r['link']}: resource cap ({r['resource']})")
                continue
            if "report" not in r:
                _emit(f"{r['link']}: FAIL ({r.get('error', 'no report')})")
                continue
            rep = r["report"]
            for c in rep["colors"]:
                step = "-" if c["nextJtildeAgrees"] is None else "pass"
                _emit(f"{rep['link']:14} n={c['n']}  "
                      f"bstate_vs_jtilde={'pass' if c['bstateVsJtilde'] else 'FAIL'}  "
                      f"next_bstate_vs_jtilde={'pass' if c['nextBstateVsJtilde'] else 'FAIL'}  "
                      f"next_jtilde_agrees={step}  ({c['seconds']:.2f}s)")
            tail = rep["tail"]
            _emit(f"{rep['link']:14} tail certified {tail['certified']}: "
                  f"{tail['coefficients']}")
        _emit("ok" if not failures and not hit_cap else "FAILED")

    for r in skipped:
        print(f"warning: {r['link']} skipped: {r['skipped']}", file=sys.stderr)
    if hit_cap:
        return EXIT_RESOURCE
    return EXIT_VERIFY if failures else EXIT_OK


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
    sub.add_argument("--max-width", type=int, default=None,
                     help="peak open-strand cap (default: SKEINLAB_MAX_WIDTH or 24)")


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
    p.add_argument("-n", type=int, default=None, help="color (default 1, classical)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_states)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
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
