"""Recompute the `slow` map of tests/color5_digests.json.

    PYTHONPATH=src python3 tests/check_color5_slow.py              # every key
    PYTHONPATH=src python3 tests/check_color5_slow.py s_minus:6_2:5 s_minus:6_2:6

Each key is 'kind:fixture:n' (kind jtilde, s_minus or s_plus) or the
verify command as the map names it, and each is computed in a fresh
process, so its seconds and its VmHWM (read from /proc/self/status; a
verify also reports the largest RSS of its worker processes) are its
own.  One line per key: kind, key, match or MISMATCH, seconds, MB.  The
exit code is 1 if any key does not match.  The digests are the ones the
tier-1 tests compute (tests/test_colored_states.py::upsilon_digest,
tests/test_cli.py::stdout_digest); pytest does not collect this file.
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import resource
import shlex
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
PINS = json.loads((HERE / "color5_digests.json").read_text())["slow"]


def _vm_hwm_mb() -> float:
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return float("nan")


def _digest(kind: str, key: str):
    """The pinned form of one value of the map."""
    sys.path.insert(0, str(HERE))
    if kind == "verify":
        from test_cli import stdout_digest
        return stdout_digest(shlex.split(key))
    from skeinlab import all_a_state, all_b_state, build_upsilon, colored_jones
    from skeinlab import evaluate_rational
    from skeinlab.fixtures import fixture
    from test_colored_states import upsilon_digest
    name, n = key.rsplit(":", 1)
    d = fixture(name).diagram
    if kind == "jtilde":
        value = colored_jones(d, int(n))
        return hashlib.sha256(repr(sorted(value.terms.items())).encode()).hexdigest()
    state = all_b_state(d) if kind == "s_minus" else all_a_state(d)
    return upsilon_digest(evaluate_rational(build_upsilon(d, int(n), state)))


def _one(kind: str, key: str):
    start = time.perf_counter()
    match = _digest(kind, key) == PINS[kind][key]
    seconds = time.perf_counter() - start
    mb = max(_vm_hwm_mb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    print(json.dumps([match, seconds, mb]))


def main(argv) -> int:
    keys = [(kind, key) for kind, pins in PINS.items() for key in pins]
    if argv:
        wanted = set(argv)
        keys = [(kind, key) for kind, key in keys
                if (key if kind == "verify" else f"{kind}:{key}") in wanted]
        if len(keys) != len(wanted):
            print(f"unknown keys among {sorted(wanted)}", file=sys.stderr)
            return 2
    failed = 0
    for kind, key in keys:
        out = subprocess.run([sys.executable, __file__, "--one", kind, key],
                             capture_output=True, text=True)
        if out.returncode:
            print(f"{kind:8} {key:42} ERROR\n{out.stderr}", flush=True)
            failed += 1
            continue
        match, seconds, mb = json.loads(out.stdout.splitlines()[-1])
        failed += not match
        print(f"{kind:8} {key:42} {'match' if match else 'MISMATCH':8} "
              f"{seconds:8.2f} s {mb:8.1f} MB", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        _one(*sys.argv[2:4])
    else:
        sys.exit(main(sys.argv[1:]))
