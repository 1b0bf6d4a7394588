"""Pins of the networks the engine builds and of the plans it walks.

A value cannot see a changed node order, wiring or plan, since it does
not depend on them; these digests do.  Per key, network_digests.json
holds one SHA-256 of the network (each node's label, with its terms
unless it is a projector box, in node order, then every wire as a pair
of global port numbers, sorted) in "networks" and one of its
morse_decompose order and peak width in "plans", kept apart so that a
re-pin's diff shows whether the networks or only the plans moved.

The keys cover the corpus: from_link's network, the placed J~ cables at
n = 2..4, Y(s+-) at n = 2..4 and the all-top Lambda of s+- at n = 2, 3;
and 20 of the seed-1 bench bracket braids, whose PD texts the file
keeps under "braids".

Re-pin from the repository root with
    PYTHONPATH=src python3 tests/test_network_digests.py
which rewrites both maps.
"""
import hashlib
import json
import pathlib

from skeinlab.colored_states import build_upsilon, lambda_diagram
from skeinlab.diagram import all_a_state, all_b_state, parse_pd
from skeinlab.fixtures import load_fixtures
from skeinlab.skein_eval import _place_boxes, cabled_diagram, from_link, morse_decompose

PATH = pathlib.Path(__file__).with_name("network_digests.json")
PINNED = json.loads(PATH.read_text())
STATES = (("s_plus", all_a_state), ("s_minus", all_b_state))


def networks() -> dict:
    """Every pinned network by key."""
    out = {}
    for fx in load_fixtures():
        d = fx.diagram
        out[f"{fx.name}/bracket"] = from_link(d)
        for n in (2, 3, 4):
            out[f"{fx.name}/jtilde{n}"] = cabled_diagram(d, n, _place_boxes(d, n))
        for label, state in STATES:
            for n in (2, 3, 4):
                out[f"{fx.name}/upsilon{n}/{label}"] = build_upsilon(d, n, state(d))
            for n in (2, 3):
                top = (n - 1,) * d.crossing_count
                out[f"{fx.name}/lambda{n}/{label}"] = lambda_diagram(d, n, state(d), top)
    for key, text in PINNED["braids"].items():
        out[key] = from_link(parse_pd(text))
    return out


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def network_digest(dd) -> str:
    nodes = [node.label if node.projector else
             [node.label, [[list(m), sorted(c.items())] for m, c in node.local_terms()]]
             for node in dd.nodes]
    return _sha([nodes, [[p, q] for p, q in enumerate(dd.to) if p < q]])


def plan_digest(dd) -> str:
    plan = morse_decompose(dd)
    return _sha([list(plan.order), plan.peak_width])


def test_every_network_and_plan_is_pinned():
    built = networks()
    assert sorted(built) == sorted(PINNED["networks"]) == sorted(PINNED["plans"])
    assert len(built) == 132
    for key, dd in built.items():
        assert network_digest(dd) == PINNED["networks"][key], key
        assert plan_digest(dd) == PINNED["plans"][key], key


if __name__ == "__main__":
    built = networks()
    PINNED["networks"] = {key: network_digest(dd) for key, dd in sorted(built.items())}
    PINNED["plans"] = {key: plan_digest(dd) for key, dd in sorted(built.items())}
    PATH.write_text(json.dumps(PINNED, indent=1) + "\n")
