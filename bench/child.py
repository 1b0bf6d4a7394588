"""One pass of a workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED MODE CHECK [SPANS_PATH]

MODE is `probe` (set-up only), `plain` or `traced`; CHECK is 1 to run the
untimed output checks after the jobs.  Prints one JSON object on its last
stdout line.  run.py starts this with src/ on PYTHONPATH.
"""
from __future__ import annotations

import json
import resource
import sys
import time


# The reference loop: tuple-keyed dict updates of small int dicts, the
# shape of the sweep's term bags, over a working set larger than L1.
REFERENCE_KEYS = [tuple(range(i, i + 8)) for i in range(4096)]
REFERENCE_ITERATIONS = 3000


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop, independent of skeinlab, takes now.

    The host's speed drifts by up to 2x in phases of seconds.  Dividing a
    job's time by this loop's, timed just before and after the job, gives
    the job's cost in units of the loop, which the drift moves 3-6 times
    less than it moves seconds."""
    t0 = time.perf_counter()
    bag: dict = {}
    for i in range(REFERENCE_ITERATIONS):
        key = REFERENCE_KEYS[(i * 2654435761) & 4095]
        coeff = bag.get(key)
        bag[key] = {0: i} if coeff is None else {e + 1: c * 3 for e, c in coeff.items()}
    return time.perf_counter() - t0


def execute(jobs, recorder=None) -> tuple:
    """Run jobs back to back, one at a time; returns (seconds of the whole
    job list, per-job records, outputs).  Each record holds the job's
    seconds and the reference loop's seconds around it (untimed).  An
    exception fails its job only."""
    records, outputs = [], []
    before = reference_loop()
    for job in jobs:
        error = None
        if recorder is not None:
            recorder.on = True
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a failed job is counted, not fatal
            out = None
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if recorder is not None:
            recorder.on = False
        after = reference_loop()
        records.append({"key": job.key, "seconds": dt, "ref": (before + after) / 2,
                        "error": error})
        outputs.append(out)
        before = after
    return sum(r["seconds"] for r in records), records, outputs


def check(jobs, records, outputs) -> None:
    """Fill in each record's verdict; a check that raises fails its job."""
    for job, rec, out in zip(jobs, records, outputs):
        if rec["error"] is not None:
            rec["ok"] = False
            continue
        try:
            rec["ok"] = bool(job.check(out))
        except Exception as exc:  # a failed check is counted, not fatal
            rec["ok"] = False
            rec["error"] = f"check raised {type(exc).__name__}: {exc}"


def main(argv) -> int:
    workload, seed, mode, want_check = argv[1], int(argv[2]), argv[3], argv[4] == "1"
    t0 = time.perf_counter()
    import skeinlab
    recorder = None
    if mode == "traced":
        import spans
        recorder = spans.install(skeinlab)
        recorder.on = True
    skeinlab.load_fixtures()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if mode == "probe":
        print(json.dumps(result))
        return 0

    load_s = 0.0
    if recorder is not None:
        recorder.on = False
        load_s = sum(s[spans.END] - s[spans.START] for s in recorder.spans
                     if s[spans.NAME] == "fixtures.load_fixtures" and s[spans.PARENT] < 0)
        recorder.clear()

    import workloads
    jobs = workloads.build(workload, seed)
    wall_s, records, outputs = execute(jobs, recorder)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for rec, out in zip(records, outputs):
        rec["digest"] = None if rec["error"] else workloads.digest(out)
    if want_check:
        check(jobs, records, outputs)
    result.update(wall_s=wall_s, rss_mb=rss_kib / 1024, jobs=records)
    if recorder is not None:
        layer = recorder.metrics(wall_s)
        layer["fixtures.load_s"] = load_s
        layer["cli.stdout_bytes"] = workloads.stdout_bytes(outputs)
        result["layer"] = layer
        if len(argv) > 5:
            recorder.dump(argv[5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
