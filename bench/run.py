"""skeinlab benchmark: seeded workloads against the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Load is a closed loop with one client: the jobs of a workload run back to
back in one process, each starting when the previous one returns.  One
pass is the whole job list in a fresh interpreter, so every pass pays the
process-global caches (Jones-Wenzl projectors, coupons, fixture
revalidation) again, as each CLI invocation does.  A run makes
seconds // NOMINAL_PASS_S passes, at least one, and checks every output
untimed: the first pass against the workload's oracles, later passes
against the first pass's digests.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untimed-tracing passes with traced passes and
reports the per-module metrics.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 2 means
the run could not start (no skeinlab source, or SKEINLAB_MAX_WIDTH set);
1 means a pass crashed or overran.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# Seconds one untraced pass takes, interpreter start included, on a 2-core
# host with Python 3.11.  The pass count of a run is fixed from these, not
# from the clock, so the pooled job list (and with it the rank that
# job_tail_s reads) is the same on every run of every commit.
NOMINAL_PASS_S = {"bracket_braids": 3.0, "cjones_cables": 5.5,
                  "verify_tail": 6.5, "tl_projectors": 4.5}
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A pass crashed, overran, or the benchmark cannot run here."""


def metadata() -> dict:
    src_files = sorted((SRC / "skeinlab").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in src_files),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


class Runner:
    """Starts the child passes of one run and enforces its deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))

    def child(self, mode: str, check: bool = False, spans_path=None) -> dict:
        cmd = [sys.executable, str(BENCH / "child.py"), self.workload,
               str(self.seed), mode, "1" if check else "0"]
        if spans_path is not None:
            cmd.append(str(spans_path))
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"{self.workload}: run deadline passed")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}: {mode} pass overran the run deadline")
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: {mode} pass exited {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def verdicts(passes: list) -> tuple:
    """(attempted, failed, first errors): a job fails when it raised, when
    its first-pass output failed the check, or when its output differs
    from the first pass's."""
    first = passes[0]["jobs"]
    attempted = failed = 0
    errors = []
    for p in passes:
        same_list = [r["key"] for r in p["jobs"]] == [r["key"] for r in first]
        for rec, ref in zip(p["jobs"], first):
            attempted += 1
            ok = (same_list and rec["error"] is None and ref["ok"]
                  and rec["digest"] == ref["digest"])
            if not ok:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{rec['key']}: {rec['error'] or 'wrong output'}")
    return attempted, failed, errors


def tail(times: list) -> tuple:
    """(time, percentile) at the highest percentile with at least ten jobs
    beyond it; the slowest job when there are ten or fewer."""
    ordered = sorted(times)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _median(values: list):
    """The median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner(workload, seed)
    runner.child("probe")  # untimed: compiles bytecode and warms the file cache
    count = max(1, int(seconds // NOMINAL_PASS_S[workload]))
    plain, traced = [], []
    if trace:
        BUILD.joinpath("spans").mkdir(parents=True, exist_ok=True)
        spans_path = BUILD / "spans" / f"{workload}.json"
        for k in range(max(1, (count + 1) // 2)):
            plain.append(runner.child("plain", check=k == 0))
            traced.append(runner.child("traced", spans_path=spans_path))
    else:
        for k in range(count):
            plain.append(runner.child("plain", check=k == 0))
    attempted, failed, errors = verdicts(plain + traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    out = {"attempted": attempted, "failed": failed, "errors": errors,
           "passes": len(plain) + len(traced), "fail_ratio": failed / attempted}
    if trace:
        layer = {name: _median([p["layer"][name] for p in traced])
                 for name in traced[0]["layer"]}
        layer["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - plain_wall
        out["metrics"] = layer
        return out
    setup = [p["setup_s"] for p in plain]
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.child("probe")["setup_s"])
    seconds = [r["seconds"] for p in plain for r in p["jobs"]]
    refs = [r["seconds"] / r["ref"] for p in plain for r in p["jobs"]]
    tail_s, tail_pct = tail(seconds)
    out.update(jobs=len(seconds), job_tail_percentile=round(tail_pct, 2))
    out["metrics"] = {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.median(sum(r["seconds"] / r["ref"] for r in p["jobs"])
                                      for p in plain),
        "job_p50_ref": statistics.median(refs),
        "job_tail_ref": tail(refs)[0],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }
    out["seconds"] = {"wall_s": plain_wall, "job_p50_s": statistics.median(seconds),
                      "job_tail_s": tail_s}
    return out


def run_info(result: dict) -> dict:
    """What the meta line records next to a run's metrics."""
    keys = ("passes", "jobs", "job_tail_percentile", "fail_ratio", "seconds")
    return {k: result[k] for k in keys if k in result}


def report(workload: str, result: dict, declared: list) -> dict:
    """Print the metrics with units; return them in the result format."""
    metrics = {}
    for m in declared:
        if m["name"] not in result["metrics"]:
            raise BenchError(f"{workload}: metric {m['name']} was not measured")
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{workload:15} {m['name']:32} {value:14.6g} {m['unit']}")
    for name, value in result.get("seconds", {}).items():
        print(f"{workload:15} {name:32} {value:14.6g} s")
    print(f"{workload:15} {'fail_ratio':32} {result['fail_ratio']:14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for line in result["errors"]:
        print(f"{workload:15} FAILED {line}")
    return metrics


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skeinlab" / "__init__.py").is_file():
        print(f"error: no skeinlab source under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("SKEINLAB_MAX_WIDTH"):
        print("error: SKEINLAB_MAX_WIDTH is set; unset it so the default "
              "width cap is what gets measured", file=sys.stderr)
        return 2

    meta = dict(metadata(), seed=args.seed, seconds=args.seconds)
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            metrics = report(args.workload, result,
                             declared["per_layer" if args.trace else "end_to_end"])
            print("meta " + json.dumps(dict(meta, workload=args.workload, trace=args.trace,
                                            **run_info(result)), sort_keys=True))
            print(json.dumps({"correct": result["failed"] == 0,
                              "attempted": result["attempted"],
                              "failed": result["failed"], "metrics": metrics}))
            return 0
        summary = {}
        attempted = failed = 0
        for workload in workloads:
            summary[workload] = {}
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                result = measure(workload, args.seed, args.seconds, trace)
                summary[workload][key] = report(workload, result, declared[key])
                attempted += result["attempted"]
                failed += result["failed"]
                if not trace:
                    summary[workload]["meta"] = run_info(result)
        print("meta " + json.dumps(meta, sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "workloads": summary}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
