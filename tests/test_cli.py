"""Command-line interface: subcommands, formats, exit codes."""
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import pytest

import skeinlab
import skeinlab.cli as cli
from skeinlab import skein_eval
from skeinlab.cli import (
    EXIT_INPUT, EXIT_OK, EXIT_PIPE, EXIT_RESOURCE, EXIT_VERIFY, main,
)
from skeinlab.diagram import parse_pd
from skeinlab.laurent import LaurentPolynomial, quantum_dimension
from skeinlab.skein_eval import bracket, colored_jones
from skeinlab.tails import StabilityReport, TailStabilityError

TREFOIL = "X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 3"
HOPF = "X 4 1 3 2 / X 2 3 1 4"
FIG8 = "X 4 2 5 1 / X 8 6 1 5 / X 6 3 7 4 / X 2 7 3 8"
NONALT = "X 1 4 2 5 / X 3 6 4 1 / X 2 6 3 5"
# a 4-valent gluing that no diagram in the plane realises
NONPLANAR = "X 1 3 4 3 / X 4 2 6 5 / X 1 2 5 6"


def from_json(data) -> LaurentPolynomial:
    """Decode the dense {"minDeg", "coeffs"} form of a polynomial in a payload."""
    return LaurentPolynomial({data["minDeg"] + i: c for i, c in enumerate(data["coeffs"])})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bracket

def test_bracket_trefoil_text(capsys):
    code, out, _ = run(capsys, "bracket", "--pd", TREFOIL)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "-A^-9 + A^-1 + A^3 + A^7"


def test_bracket_empty_diagram(capsys):
    code, out, _ = run(capsys, "bracket", "--pd", "")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "1"


def test_bracket_malformed_exits_2(capsys):
    code, _, err = run(capsys, "bracket", "--pd", "X 1 2 3")
    assert code == EXIT_INPUT
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("bracket",), ("cjones", "-n", "3"), ("tail", "--nmax", "2"),
    ("verify",), ("adequacy",), ("states",), ("states", "-n", "0"),
])
def test_non_planar_pd_exits_2(capsys, argv):
    # states reads its input before it checks the color
    code, out, err = run(capsys, argv[0], "--pd", NONPLANAR, *argv[1:])
    assert code == EXIT_INPUT
    assert out == "" and "input is not planar" in err


@pytest.mark.parametrize("name, text", [
    ("glued.json", json.dumps({"pd": [[1, 3, 4, 3], [4, 2, 6, 5], [1, 2, 5, 6]]})),
    ("glued.pd", NONPLANAR),
])
def test_non_planar_file_exits_2(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "cjones", "--file", str(path), "-n", "3")
    assert code == EXIT_INPUT
    assert out == "" and "glued is not planar" in err


def checkout_env(**extra) -> dict:
    """os.environ plus `extra`, with the package this test session imported
    first on PYTHONPATH, so that a subprocess runs this checkout's code."""
    src = str(Path(skeinlab.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader of stdout is gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "skeinlab.cli", "tail", "--pd", TREFOIL,
             "--nmax", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=checkout_env())
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE == 141
    assert proc.stderr == ""


def test_bracket_json_round_trips(capsys):
    code, out, _ = run(capsys, "bracket", "--pd", TREFOIL, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert from_json(payload["bracket"]) == bracket(parse_pd(TREFOIL))
    assert payload["text"] == "-A^-9 + A^-1 + A^3 + A^7"


def test_bracket_csv(capsys):
    code, out, _ = run(capsys, "bracket", "--pd", HOPF, "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "name,minDeg,coeffs"
    assert lines[1].startswith("input,-6,")


def test_both_input_sources_rejected(capsys):
    code, _, err = run(capsys, "bracket", "--pd", HOPF, "--file", "x.pd")
    assert code == EXIT_INPUT and "exactly one" in err


def test_missing_input_rejected(capsys):
    code, _, err = run(capsys, "bracket")
    assert code == EXIT_INPUT and "no input" in err


def test_file_inputs(tmp_path, capsys):
    plain = tmp_path / "knot.pd"
    plain.write_text(TREFOIL + "\n")
    code, out, _ = run(capsys, "bracket", "--file", str(plain))
    assert code == EXIT_OK and out.splitlines()[0] == "-A^-9 + A^-1 + A^3 + A^7"

    as_json = tmp_path / "knot.json"
    as_json.write_text(json.dumps(
        {"name": "trefoil-from-json", "pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}))
    code, out, _ = run(capsys, "bracket", "--file", str(as_json), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["name"] == "trefoil-from-json"

    code, _, err = run(capsys, "bracket", "--file", str(tmp_path / "absent.pd"))
    assert code == EXIT_INPUT and "cannot read" in err


@pytest.mark.parametrize("name", ["x.", "..pd", "x..pd", "a.b.pd", ".hidden", "dir/k.pd"])
def test_file_names_the_diagram_by_its_stem(tmp_path, capsys, name):
    # the name pathlib's stem gives, which os.path.splitext does not
    # for x. and ..pd
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(TREFOIL)
    code, out, _ = run(capsys, "bracket", "--file", str(path), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["name"] == Path(path).stem


@pytest.mark.parametrize("text", ['{"pd": [1,2,3,4]}', '{"pd": 5}',
                                  '{"pd": [[[1],2,3,4]]}',
                                  '{"pd": [], "loops": null}',
                                  '{"pd": [], "loops": 2.7}',
                                  '{"pd": [], "loops": true}',
                                  '{"pd": [], "loops": "2"}'])
def test_malformed_json_diagram_exits_2(tmp_path, capsys, text):
    # rows that are not iterable, labels that are not hashable, and a
    # loop count that is not a JSON integer
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(capsys, "bracket", "--file", str(bad))
    assert code == EXIT_INPUT and "error" in err


def test_json_diagram_without_pd_names_the_missing_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    code, out, err = run(capsys, "bracket", "--file", str(bad))
    assert code == EXIT_INPUT and out == ""
    assert err == "error: bad JSON diagram: missing key 'pd'\n"


# ---------------------------------------------------------------------------
# cjones

def test_cjones_unknot_delta(capsys):
    code, out, _ = run(capsys, "cjones", "--pd", "O", "-n", "3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert from_json(payload["jtilde"]) == quantum_dimension(3)


def test_cjones_color_one_is_bracket(capsys):
    _, out_c, _ = run(capsys, "cjones", "--pd", TREFOIL, "-n", "1")
    _, out_b, _ = run(capsys, "bracket", "--pd", TREFOIL)
    assert out_c.splitlines()[0] == out_b.splitlines()[0]


def test_cjones_resource_cap_exits_3(capsys):
    code, _, err = run(capsys, "cjones", "--pd", TREFOIL, "-n", "5",
                       "--max-width", "6")
    assert code == EXIT_RESOURCE
    assert "resource cap" in err


def test_cjones_unknot_at_a_high_colour(capsys):
    # Delta_500 has a closed form, so no recursion runs out of stack
    code, out, _ = run(capsys, "cjones", "--pd", "O", "-n", "500", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert from_json(payload["jtilde"]) == quantum_dimension(500)
    assert payload["jtilde"]["minDeg"] == -1000


@pytest.mark.parametrize("argv", [["cjones", "-n", "9"], ["states", "-n", "8"]])
def test_over_cap_colours_exit_3_before_any_box_is_built(capsys, monkeypatch, argv):
    # the cap is checked on the plan, which needs no f(n) terms: f(9) or
    # f(8) is never built
    def no_projectors(n):
        raise AssertionError(f"f({n}) was built")
    monkeypatch.setattr(skein_eval, "cleared_projector", no_projectors)
    code, _, err = run(capsys, *argv, "--pd", TREFOIL)
    assert code == EXIT_RESOURCE
    assert "budget is 24" in err


# a 4-strand braid closure with two kinks: its J~_2 cable peaks at width 8
# with the box on arc 4 and at 10 with it on any other arc
NARROW_ARC = "X 2 5 4 1 / X 5 7 6 4 / X 0 0 6 9 / X 3 3 10 7 / X 1 9 10 2"


def test_cjones_colour_over_the_cap_exits_3_before_its_cable(capsys):
    code, out, err = run(capsys, "cjones", "--pd", TREFOIL, "-n", "25")
    assert code == EXIT_RESOURCE and out == ""
    assert "color 25 needs width 25 or more, budget is 24" in err


def test_cjones_cap_names_the_narrowest_box_arc(capsys):
    code, _, err = run(capsys, "cjones", "--pd", NARROW_ARC, "-n", "2",
                       "--max-width", "7")
    assert code == EXIT_RESOURCE
    assert "plan needs width 8, budget is 7" in err
    code, out, _ = run(capsys, "cjones", "--pd", NARROW_ARC, "-n", "2",
                       "--max-width", "8", "--format", "json")
    assert code == EXIT_OK
    assert from_json(json.loads(out)["jtilde"]) == colored_jones(
        parse_pd(NARROW_ARC), 2)


def test_negative_width_cap_exits_2(capsys):
    code, _, err = run(capsys, "bracket", "--pd", "O", "--max-width", "-1")
    assert code == EXIT_INPUT
    assert "width cap" in err
    code, _, _ = run(capsys, "bracket", "--pd", "O", "--max-width", "0")
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [
    ("cjones", "--pd", "O", "-n", "3"),
    ("tail", "--pd", "O", "--nmax", "2"),
])
def test_negative_width_cap_without_a_sweep_exits_2(capsys, argv):
    # a crossing-free diagram never reaches the sweep; the cap is still checked
    code, _, err = run(capsys, *argv, "--max-width", "-1")
    assert code == EXIT_INPUT
    assert "width cap" in err
    code, _, _ = run(capsys, *argv, "--max-width", "0")
    assert code == EXIT_OK


def test_negative_width_cap_from_env_is_ignored(capsys, monkeypatch):
    # --max-width is the one source of the cap; the variable that once
    # set its default is read by nothing
    monkeypatch.setenv("SKEINLAB_MAX_WIDTH", "-3")
    code, _, err = run(capsys, "bracket", "--pd", TREFOIL)
    assert code == EXIT_OK and err == ""


SUBCOMMANDS = [
    ("bracket", "--pd", "O"), ("cjones", "--pd", "O", "-n", "2"),
    ("tail", "--pd", "O", "--nmax", "2"), ("verify", "--pd", NONALT),
    ("adequacy", "--pd", "O"), ("states", "--pd", "O"),
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_every_subcommand_rejects_a_bad_width_cap(capsys, argv):
    # adequacy, classical states and a verify that skips every link run no
    # sweep, and main checks the cap for them too
    code, out, err = run(capsys, *argv, "--max-width", "-1")
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("value", ["-3", "abc"], ids=["env-negative", "env-not-int"])
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_every_subcommand_ignores_the_width_cap_variable(capsys, monkeypatch, argv, value):
    expect = run(capsys, *argv)
    monkeypatch.setenv("SKEINLAB_MAX_WIDTH", value)
    assert run(capsys, *argv) == expect
    assert expect[0] == EXIT_OK


# ---------------------------------------------------------------------------
# adequacy

def test_adequacy_trefoil(capsys):
    code, out, _ = run(capsys, "adequacy", "--pd", TREFOIL, "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)
    assert row == {"name": "input", "crossings": 3, "alternating": True,
                   "aAdequate": True, "bAdequate": True, "adequate": True,
                   "sA": 2, "sB": 3}


def test_adequacy_nugatory(capsys):
    code, out, _ = run(capsys, "adequacy", "--pd", "X 1 2 2 1", "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)
    assert row["adequate"] is False and row["alternating"] is True


def test_adequacy_empty_vacuous(capsys):
    code, out, _ = run(capsys, "adequacy", "--pd", "", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["adequate"] is True


# ---------------------------------------------------------------------------
# states

def test_states_classical_total_is_bracket(capsys):
    code, out, _ = run(capsys, "states", "--pd", HOPF, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["states"]) == 4
    assert from_json(payload["total"]) == bracket(parse_pd(HOPF))


def test_states_colored_total_is_cjones(capsys):
    code, out, _ = run(capsys, "states", "--pd", "X 1 2 2 1", "-n", "2",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["states"]) == 2
    assert from_json(payload["total"]) == colored_jones(
        parse_pd("X 1 2 2 1"), 2)
    # the per-state values are quotients: denominators are recorded
    dens = {tuple(s["value"]["den"]["coeffs"]) for s in payload["states"]}
    assert dens != {(1,)}


# 13 kinks in a row: 2^13 states, over the state cap
CHAIN = " / ".join(f"X {2 * i + 1} {2 * i + 2} {2 * i + 2} {(2 * i + 3) % 26 or 26}"
                   for i in range(13))


def test_states_cap_exits_3(capsys):
    code, _, err = run(capsys, "states", "--pd", CHAIN)
    assert code == EXIT_RESOURCE and "cap" in err


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("pd", ["X 1 2 2 1", "O", CHAIN], ids=["kink", "unknot", "chain"])
def test_states_color_below_one_exits_2(capsys, pd, n):
    # the color is checked before the state cap, as verify checks --nmax
    code, out, err = run(capsys, "states", "--pd", pd, "-n", n)
    assert (code, out) == (EXIT_INPUT, "")
    assert "color must be >= 1" in err


# ---------------------------------------------------------------------------
# tail

def test_tail_trefoil_certified_8(capsys):
    code, out, _ = run(capsys, "tail", "--pd", TREFOIL, "--nmax", "3",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tail"]["certified"] == 8
    assert payload["head"]["certified"] == 8
    assert payload["tail"]["end"] == "lowest"
    assert payload["head"]["end"] == "highest"


def test_tail_figure_eight_head_equals_tail(capsys):
    code, out, _ = run(capsys, "tail", "--pd", FIG8, "--nmax", "2",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tail"]["coefficients"] == payload["head"]["coefficients"]


def test_tail_non_alternating_exits_2(capsys):
    code, _, err = run(capsys, "tail", "--pd", NONALT)
    assert code == EXIT_INPUT and "alternating" in err


def test_tail_csv(capsys):
    code, out, _ = run(capsys, "tail", "--pd", HOPF, "--nmax", "2",
                       "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "source,end,certified,coefficients"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# verify

def test_verify_two_fixtures(capsys):
    code, out, _ = run(capsys, "verify", "trefoil", "hopf", "--nmax", "1",
                       "--jobs", "1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True and payload["failures"] == []
    assert [r["link"] for r in payload["links"]] == ["trefoil", "hopf"]


def test_verify_defaults_to_all_fixtures(capsys):
    code, out, _ = run(capsys, "verify", "--nmax", "1", "--jobs", "1",
                       "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["links"]) == 8


def test_verify_alias_lookup_and_unknown_name(capsys):
    code, _, _ = run(capsys, "verify", "4_1", "--nmax", "1", "--jobs", "1")
    assert code == EXIT_OK
    code, _, err = run(capsys, "verify", "7_1", "--nmax", "1")
    # the message itself, not the repr of a KeyError
    assert code == EXIT_INPUT and err.startswith("error: no fixture named '7_1'")


@pytest.mark.parametrize("jobs", ["-3", "0"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "trefoil", "--nmax", "1", "--jobs", jobs)
    assert code == EXIT_INPUT
    assert "error: --jobs must be >= 1" in err
    assert out == ""


@pytest.mark.parametrize("nmax", ["0", "-4"])
def test_verify_rejects_nmax_below_one(capsys, nmax):
    # checked before any link runs, so a link that would be skipped
    # cannot hide it
    code, out, err = run(capsys, "verify", "--pd", NONALT, "--nmax", nmax)
    assert code == EXIT_INPUT
    assert out == "" and "error: need n_max >= 1" in err


def test_verify_json_is_deterministic_and_parallel_safe(capsys):
    args = ("verify", "trefoil", "hopf", "--nmax", "1", "--format", "json")
    _, first, _ = run(capsys, *args, "--jobs", "1")
    _, second, _ = run(capsys, *args, "--jobs", "1")
    _, parallel, _ = run(capsys, *args, "--jobs", "2")
    assert first == second == parallel
    assert "seconds" not in first  # timings only in human/csv output


def test_verify_csv_single_header(capsys):
    code, out, _ = run(capsys, "verify", "trefoil", "hopf", "--nmax", "1",
                       "--jobs", "1", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("link,n,")
    assert sum(1 for ln in lines if ln.startswith("link,")) == 1
    assert len(lines) == 3


@pytest.mark.parametrize("argv, exit_code", [
    (("verify", "--pd", "O", "--jobs", "1"), EXIT_OK),
    (("verify", "6_1", "--nmax", "2", "--max-width", "4"), EXIT_RESOURCE),
])
def test_verify_csv_always_has_its_header(capsys, argv, exit_code):
    # one CSV writer for every subcommand: a header row even when no
    # link yields a report, and csv-module line endings
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == exit_code
    header = ",".join(StabilityReport.CSV_HEADER) + "\r\n"
    assert out.startswith(header)
    assert out.count("\n") == out.count("\r\n")


def test_verify_csv_has_a_row_for_every_link(capsys, monkeypatch):
    # a link that yields no report still gets its one row, its outcome in
    # the status column, so the table names every link asked for
    def rows(*argv):
        code, out, _ = run(capsys, "verify", *argv, "--jobs", "1", "--format", "csv")
        return code, out.splitlines()[1:]

    assert rows("6_1", "--nmax", "2", "--max-width", "4") == (
        EXIT_RESOURCE, ["6_1,,,,,,,,resource,"])
    assert rows("--pd", NONALT) == (EXIT_OK, ["input,,,,,,,,skipped,"])
    code, checked = rows("hopf", "--nmax", "1")
    assert code == EXIT_OK and checked[0].startswith("hopf,1,-6,6,4,True,True,,checked,")

    def raising(link, n_max, max_width=None):
        raise TailStabilityError("hopf", 1, (1, 0), (1, 1))

    monkeypatch.setattr(cli, "stability_report", raising)
    assert rows("hopf", "--nmax", "1") == (EXIT_VERIFY, ["hopf,1,,,,,,False,failed,"])


def test_verify_skips_non_alternating(capsys):
    code, out, err = run(capsys, "verify", "--pd", NONALT, "--nmax", "2")
    assert code == EXIT_OK
    assert "skipped" in out and "not alternating" in err


def test_verify_resource_cap_exits_3(capsys):
    code, _, _ = run(capsys, "verify", "6_1", "--nmax", "2", "--jobs", "1",
                     "--max-width", "4")
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("name,width", [("hopf", 8), ("6_2", 12)])
def test_verify_width_cap_holds_with_deferred_boxes(capsys, name, width):
    # these Y networks would peak 2 wider if the planner deferred their
    # projector boxes without checking the plain walk's width
    code, _, _ = run(capsys, "verify", name, "--nmax", "2", "--jobs", "1",
                     "--max-width", str(width))
    assert code == EXIT_OK
    code, _, _ = run(capsys, "verify", name, "--nmax", "2", "--jobs", "1",
                     "--max-width", str(width - 1))
    assert code == EXIT_RESOURCE


def test_verify_failure_exits_1(capsys, monkeypatch):
    real = cli.stability_report

    def sabotaged(link, n_max, max_width=None):
        report = real(link, n_max, max_width=max_width)
        broken = [e.__class__(**{**e.__dict__, "bstate_vs_jtilde": False})
                  if e.n == 1 else e for e in report.colors]
        return StabilityReport(link=report.link, colors=tuple(broken),
                               tail=report.tail)

    monkeypatch.setattr(cli, "stability_report", sabotaged)
    code, out, _ = run(capsys, "verify", "hopf", "--nmax", "1", "--jobs", "1",
                       "--format", "json")
    assert code == EXIT_VERIFY
    payload = json.loads(out)
    assert payload["ok"] is False
    assert ["hopf", "bstate_vs_jtilde", 1] in payload["failures"]


def test_verify_tail_certification_failure_exits_1(capsys, monkeypatch):
    def raising(link, n_max, max_width=None):
        raise TailStabilityError("hopf", 1, (1, 0), (1, 1))

    monkeypatch.setattr(cli, "stability_report", raising)
    code, out, _ = run(capsys, "verify", "hopf", "--nmax", "1", "--jobs", "1",
                       "--format", "json")
    assert code == EXIT_VERIFY
    assert json.loads(out)["failures"] == [["hopf", "next_jtilde_agrees", 1]]


# ---------------------------------------------------------------------------
# stdout pinned byte for byte

DIGESTS = Path(__file__).with_name("cli_digests.json")

# every subcommand on five small diagrams, then the corpus-level verify runs;
# the two capped runs pin the order of the report's computations through
# the message of the first network over the cap
DIGEST_COMMANDS = [
    ("bracket",), ("cjones", "-n", "2"), ("tail",), ("verify", "--jobs", "1"),
    ("adequacy",), ("states",), ("states", "-n", "2"),
]
DIGEST_DIAGRAMS = (TREFOIL, HOPF, "O", "", NONALT)
DIGEST_RUNS = [
    ("verify", "--nmax", "2", "--jobs", "1"),
    ("verify", "trefoil", "hopf", "--nmax", "3", "--jobs", "2"),
    ("verify", "6_1", "--nmax", "2", "--max-width", "4"),
    ("verify", "6_2", "--nmax", "2", "--max-width", "11"),
]


def digest_argvs() -> list:
    argvs = [[cmd, "--pd", pd, *rest] for pd in DIGEST_DIAGRAMS
             for cmd, *rest in DIGEST_COMMANDS]
    argvs += [list(run) for run in DIGEST_RUNS]
    return [argv + ["--format", fmt] for argv in argvs
            for fmt in ("human", "json", "csv")]


def stdout_digest(argv) -> dict:
    """Exit code and SHA-256 of stdout, with the timings masked: the
    (x.xxs) of verify's human rows and the seconds column of its CSV,
    whose lines end in \r\n."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = re.sub(r"\(\d+\.\d\ds\)", "(x.xxs)", out.getvalue())
    if argv[0] == "verify" and argv[-1] == "csv":
        text = re.sub(r",[0-9.e+-]+(?=\r$)", ",x", text, flags=re.M)
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


PINNED_STDOUT = json.loads(DIGESTS.read_text())


def test_digests_cover_every_invocation():
    assert sorted(PINNED_STDOUT) == sorted(map(shlex.join, digest_argvs()))


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_matches_pinned_digest(command):
    assert stdout_digest(shlex.split(command)) == PINNED_STDOUT[command]


# ---------------------------------------------------------------------------
# console script

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The wrapper pip/distlib write for a console_scripts entry point.
CONSOLE_SCRIPT = """#!{python}
import re
import sys
from {module} import {import_name}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def declared_console_script():
    """The declared ``skeinlab`` console_scripts entry point.

    Taken from the installed distribution's metadata when there is one, else
    from ``[project.scripts]`` in this checkout's ``pyproject.toml``.
    """
    for ep in entry_points(group="console_scripts", name="skeinlab"):
        return ep
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["skeinlab"]
    return EntryPoint("skeinlab", target, "console_scripts")


def test_console_script_installed(tmp_path):
    ep = declared_console_script()
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "skeinlab"
    script.write_text(CONSOLE_SCRIPT.format(
        python=sys.executable, module=ep.module,
        import_name=ep.attr.split(".")[0], attr=ep.attr))
    script.chmod(0o755)
    # Run this checkout's package, wherever the test session imported it from.
    env = checkout_env(
        PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))

    proc = subprocess.run(
        ["skeinlab", "bracket", "--pd", ""],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1"

    # main()'s return value must reach the process exit code.
    proc = subprocess.run(
        ["skeinlab", "bracket", "--pd", "X 1 2 3"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == EXIT_INPUT
    assert "error" in proc.stderr


@pytest.mark.skipif(shutil.which("skeinlab") is None,
                    reason="no skeinlab console script on PATH")
def test_console_script_on_path():
    proc = subprocess.run(
        ["skeinlab", "bracket", "--pd", ""],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1"


def test_main_module_help():
    proc = subprocess.run(
        [sys.executable, "-m", "skeinlab.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=checkout_env())
    assert proc.returncode == 0
    for sub in ("bracket", "cjones", "tail", "verify", "adequacy", "states"):
        assert sub in proc.stdout
