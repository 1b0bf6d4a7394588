"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import skeinlab as sk  # noqa: E402

import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# generator

@pytest.mark.parametrize("make", [gen.bracket_inputs, gen.cable_inputs, gen.tl_inputs])
def test_generator_is_deterministic(make):
    assert make(11) == make(11)
    assert make(11) != make(12)


def test_job_lists_are_deterministic():
    for name in workloads.WORKLOADS:
        assert ([j.key for j in workloads.build(name, 5)]
                == [j.key for j in workloads.build(name, 5)])


def test_braid_closures_parse_with_every_crossing():
    for strands, crossings, text in gen.bracket_inputs(3):
        link = sk.parse_pd(text)
        assert link.crossing_count == crossings
        assert link.free_loops == 0


def test_seed_draws_signs_on_a_fixed_shape():
    a = gen.random_braid(random.Random(1), gen.braid_shape(4, 10))
    b = gen.random_braid(random.Random(2), gen.braid_shape(4, 10))
    assert [abs(g) for g in a] == [abs(g) for g in b] == gen.braid_shape(4, 10)
    assert sorted(set(gen.braid_shape(4, 10))) == [1, 2, 3]


def test_braid_closures_are_the_corpus_knots():
    trefoil = sk.parse_pd(gen.pd_text(gen.braid_pd([1, 1, 1], 2)))
    figure_eight = sk.parse_pd(gen.pd_text(gen.braid_pd([1, -2, 1, -2], 3)))
    assert sk.bracket(trefoil) == sk.bracket(sk.fixture("trefoil").diagram)
    assert sk.bracket(figure_eight) == sk.bracket(sk.fixture("figure_eight").diagram)


def test_cable_pairs_are_unique():
    jobs = workloads.build("cjones_cables", 9)
    assert len({j.key for j in jobs}) == len(jobs)


def test_tl_elements_have_distinct_diagrams():
    for n, terms in gen.tl_inputs(4):
        assert len({pairs for pairs, _ in terms}) == min(gen.TL_RANDOM_TERMS, gen.catalan(n))
        sk.PlanarMatching(n, terms[0][0])  # non-crossing


# ---------------------------------------------------------------------------
# output checks and fail_ratio

def _corrupt(poly):
    terms = dict(poly.terms)
    e = min(terms)
    terms[e] += 1
    return sk.LaurentPolynomial(terms)


def test_corrupted_polynomial_is_counted_as_failed():
    jobs = workloads.build("bracket_braids", 1)[:3]
    bad = jobs[1]
    jobs[1] = workloads.Job(bad.key, lambda: _corrupt(bad.run()), bad.check)
    _, records, outputs = child.execute(jobs)
    for rec, out in zip(records, outputs):
        rec["digest"] = workloads.digest(out)
    child.check(jobs, records, outputs)
    assert [r["ok"] for r in records] == [True, False, True]
    attempted, failed, errors = run.verdicts([{"jobs": records}])
    assert (attempted, failed) == (3, 1)
    assert errors == [f"{bad.key}: wrong output"]


def test_later_pass_with_a_different_output_fails():
    first = {"jobs": [{"key": "a", "error": None, "ok": True, "digest": "x"},
                      {"key": "b", "error": None, "ok": True, "digest": "y"}]}
    later = {"jobs": [{"key": "a", "error": None, "digest": "x"},
                      {"key": "b", "error": None, "digest": "z"}]}
    assert run.verdicts([first, later])[:2] == (4, 1)


def test_raising_job_is_counted_as_failed():
    def boom():
        raise sk.ResourceLimitError("width")
    jobs = [workloads.Job("boom", boom, lambda value: True)]
    _, records, _ = child.execute(jobs)
    records[0]["digest"] = None
    child.check(jobs, records, [None])
    assert run.verdicts([{"jobs": records}])[:2] == (1, 1)
    assert records[0]["error"].startswith("ResourceLimitError")


def test_cli_check_compares_bytes_and_exit_code():
    assert workloads._cli_ok("ok\n", (0, "ok\n"))
    assert not workloads._cli_ok("ok\n", (0, "ok \n"))
    assert not workloads._cli_ok("ok\n", (1, "ok\n"))


# ---------------------------------------------------------------------------
# span arithmetic

def _tree():
    #  eval [0, 10]            hidden 0.5
    #    plan [1, 3]
    #    gcd  [4, 8]
    #      divide [5, 6]
    #  mirror [11, 12]
    return [["skein_eval.evaluate", 0.0, 10.0, -1, 0.5],
            ["skein_eval.morse_decompose", 1.0, 3.0, 0, 0.0],
            ["laurent.laurent_gcd", 4.0, 8.0, 0, 0.0],
            ["laurent.divide_exact", 5.0, 6.0, 2, 0.0],
            ["diagram.mirror", 11.0, 12.0, -1, 0.0]]


def test_self_times_subtract_children_and_hidden_time():
    assert spans.self_times(_tree()) == [10 - 2 - 4 - 0.5, 2.0, 3.0, 1.0, 1.0]


def test_reduce_time_counts_outermost_reduction_under_evaluate():
    assert spans.reduce_time(_tree()) == 4.0
    outside = [["laurent.laurent_gcd", 0.0, 1.0, -1, 0.0]]
    assert spans.reduce_time(outside) == 0.0


def test_uncovered_share():
    assert spans.uncovered_share(_tree(), 16.0) == pytest.approx(1 - 11 / 16)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.NOMINAL_PASS_S) == set(workloads.WORKLOADS)
    produced = set(spans.Recorder().metrics(wall_s=1.0))
    produced |= {"fixtures.load_s", "cli.stdout_bytes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_tail_reads_ten_jobs_beyond():
    times = list(range(1, 101))
    assert run.tail(times) == (90, 90.0)
    assert run.tail([3.0, 1.0]) == (1.0, 50.0)


def test_recorder_wraps_every_namespace_and_records_nesting():
    rec = spans.install(sk)
    try:
        assert sk.tails.colored_jones is sk.skein_eval.colored_jones is sk.colored_jones
        assert sk.colored_jones.__wrapped__ is not None
        hopf = sk.fixture("hopf").diagram
        rec.on = True
        sk.tails.tail_prefix(hopf, 2)
        rec.on = False
        names = [s[spans.NAME] for s in rec.spans]
        assert names[0] == "tails.tail_prefix"
        assert "skein_eval.morse_decompose" in names
        metrics = rec.metrics(wall_s=1.0)
        assert metrics["skein_eval.cjones_calls"] == 2
        assert metrics["skein_eval.networks"] >= 1
        assert metrics["skein_eval.peak_width_max"] > 0
        assert all(t >= 0 for t in spans.self_times(rec.spans))
    finally:
        rec.on = False
