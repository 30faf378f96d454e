"""One correctness rule per problem (graphs.node_rule), shared by
graphs.validate and the extendability auditor.

validate is checked against the four validators it replaced, kept below as
the reference: on correct solutions with 1-3 seeded corruptions it must
find the same violation code, or none."""

import random
from typing import Mapping

from predsync import measures
from predsync.cli import Plan, run_one
from predsync.engine import simulate
from predsync.graphs import (line, random_connected_graph, random_graph,
                             validate)

from helpers import program, undecided
from reference import check_extendable

# ---------------------------------------------------------------------------
# reference: one pass per violation code, over all nodes or edges


def _ref_validate(kind, g, outputs):
    for u in g.nodes:
        if u not in outputs:
            return "INCOMPLETE"
    return {"MIS": _ref_mis, "MAXIMAL_MATCHING": _ref_matching,
            "VERTEX_COLORING": _ref_vertex_coloring,
            "EDGE_COLORING": _ref_edge_coloring}[kind](g, outputs)


def _ref_mis(g, out):
    for u in g.nodes:
        if out[u] not in (0, 1):
            return "RANGE"
    for u, v in g.edges():
        if out[u] == 1 and out[v] == 1:
            return "INDEPENDENCE"
    for u in g.nodes:
        if out[u] == 0 and not any(out[v] == 1 for v in g.adjacency[u]):
            return "MAXIMALITY"
    return None


def _ref_matching(g, out):
    for u in g.nodes:
        y = out[u]
        if y is not None:
            if y not in g.adjacency[u]:
                return "RANGE"
            if out[y] != u:
                return "SYMMETRY"
    for u in g.nodes:
        if out[u] is None and any(out[v] is None for v in g.adjacency[u]):
            return "MAXIMALITY"
    return None


def _ref_vertex_coloring(g, out):
    hi = g.delta + 1
    for u in g.nodes:
        if not isinstance(out[u], int) or not 1 <= out[u] <= hi:
            return "RANGE"
    for u, v in g.edges():
        if out[u] == out[v]:
            return "CONFLICT"
    return None


def _ref_edge_coloring(g, out):
    hi = 2 * g.delta - 1
    for u in g.nodes:
        cols = out[u]
        if not isinstance(cols, Mapping) or set(cols) != set(g.adjacency[u]):
            return "INCOMPLETE"
        for v, c in cols.items():
            if not isinstance(c, int) or not 1 <= c <= hi:
                return "RANGE"
    for u, v in g.edges():
        if out[u][v] != out[v][u]:
            return "CONFLICT"
    for u in g.nodes:
        seen = set()
        for c in out[u].values():
            if c in seen:
                return "CONFLICT"
            seen.add(c)
    return None


# ---------------------------------------------------------------------------
# seeded corruptions of correct solutions


_PROBLEMS = ("MIS", "MAXIMAL_MATCHING", "VERTEX_COLORING", "EDGE_COLORING")


def _corrupt(kind, g, out, r, complete):
    """Apply one random corruption in place.  With complete=True every node
    keeps an output, and for edge coloring a color on every incident edge."""
    nodes = list(g.nodes)
    u = r.choice(nodes)
    nbrs = g.neighbors(u)
    stranger = r.choice([v for v in nodes if v != u and v not in nbrs] or [g.d + 1])
    if not complete and r.random() < 0.15:
        out.pop(u, None)
    elif kind == "MIS":
        flip = 1 - out[u] if out.get(u) in (0, 1) else 0
        out[u] = r.choice((flip, flip, 2, -1, None))
    elif kind == "MAXIMAL_MATCHING":
        out[u] = r.choice(nbrs + (None, None, stranger, u))
    elif kind == "VERTEX_COLORING":
        hi = g.delta + 1
        same = [out.get(v, 1) for v in nbrs]
        out[u] = r.choice(same + [r.randint(1, hi), 0, hi + 1, "1"])
    elif not isinstance(out.get(u), dict):
        out[u] = {v: 1 for v in nbrs}
    elif not complete and r.random() < 0.1:
        out[u] = 0  # not a map at all
    elif not nbrs or r.random() < 0.1:
        out[u][stranger] = 1  # spurious edge
    else:
        cols = out[u]
        v = r.choice(nbrs)
        hi = 2 * g.delta - 1
        choice = r.randrange(5 if complete else 6)
        if choice == 0:
            cols[v] = r.choice((0, hi + 1, None))  # out of range
        elif choice == 1:
            cols[v] = r.randint(1, hi)  # the endpoints may disagree
        elif choice == 2:
            cols[v] = r.choice(list(cols.values()))  # reused at u
        elif choice == 3:
            cols[v] = r.randint(1, hi)  # agreed, maybe reused
            if isinstance(out.get(v), dict):
                out[v][u] = cols[v]
        elif choice == 4:
            cols[stranger] = r.randint(1, hi)  # spurious edge
        else:
            cols.pop(v, None)  # missing edge


def _seeded_outputs(complete):
    """(kind, g, outputs) over seeded graphs: every correct solution, and
    copies of it with 1-3 corruptions."""
    for kind in _PROBLEMS:
        for seed in range(30):
            r = random.Random(f"{kind}-{seed}-{complete}")
            n = 2 + seed % 11
            if seed % 3:
                g = random_connected_graph(n, 0.3, seed)
            else:
                g = random_graph(n, 0.3, seed)  # isolated nodes too
            solved = measures.solve(kind, g)
            yield kind, g, solved
            for _ in range(12):
                out = {u: dict(v) if isinstance(v, dict) else v
                       for u, v in solved.items()}
                for _ in range(r.randint(1, 3)):
                    _corrupt(kind, g, out, r, complete)
                yield kind, g, out


def test_validate_matches_reference_codes():
    codes = {kind: set() for kind in _PROBLEMS}
    for kind, g, out in _seeded_outputs(complete=False):
        expected = _ref_validate(kind, g, out)
        found = validate(kind, g, out)
        assert (found and found.code) == expected, (kind, g.adjacency, out)
        codes[kind].add(expected)
    # every code of every problem was reached
    assert codes == {
        "MIS": {None, "INCOMPLETE", "RANGE", "INDEPENDENCE", "MAXIMALITY"},
        "MAXIMAL_MATCHING": {None, "INCOMPLETE", "RANGE", "SYMMETRY", "MAXIMALITY"},
        "VERTEX_COLORING": {None, "INCOMPLETE", "RANGE", "CONFLICT"},
        "EDGE_COLORING": {None, "INCOMPLETE", "RANGE", "CONFLICT"},
    }


def _slots(kind, out):
    """A complete output as the auditor's partial: node -> {slot: value}."""
    if kind == "EDGE_COLORING":
        return out
    return {u: {"y": value} for u, value in out.items()}


def test_complete_output_extendable_exactly_when_valid():
    verdicts = set()
    for kind, g, out in _seeded_outputs(complete=True):
        valid = validate(kind, g, out) is None
        assert (check_extendable(kind, g, _slots(kind, out)) == "") == valid
        verdicts.add((kind, valid))
    assert len(verdicts) == 2 * len(_PROBLEMS)


def test_rule_messages_on_complete_outputs():
    g = line(3)
    assert str(validate("MIS", g, {1: 1, 2: 1, 3: 0})) == (
        "INDEPENDENCE at (1, 2): adjacent nodes 1,2 both joined")
    assert str(validate("MAXIMAL_MATCHING", g, {1: 3, 2: None, 3: None})) == (
        "RANGE at 1: node 1 matched to non-neighbor 3")
    assert str(validate("EDGE_COLORING", g, {1: {2: 1}, 2: {1: 1}, 3: {2: 2}})) == (
        "INCOMPLETE at 2: node 2 did not color every incident edge")


# ---------------------------------------------------------------------------
# a node that never outputs makes the solution INCOMPLETE


def test_matching_node_without_output_is_incomplete():
    cfg = {"graph": "RANDOM_CONNECTED", "n": "10", "p": "0.3",
           "problem": "MAXIMAL_MATCHING", "program": "mm.base"}
    plan = Plan(cfg)
    row, _, outcome = run_one(plan, 1, 0)
    g = plan.instance(0)[0]
    assert outcome.outputs[12] == {} and 12 in outcome.term_round
    assert 12 not in outcome.solution("MAXIMAL_MATCHING", g)
    assert row["valid"] == "INCOMPLETE"


def test_mis_init_all_zero_predictions_is_incomplete():
    g = line(5)
    out = simulate(g, program("mis.init"), {u: 0 for u in g.nodes})
    assert undecided(out, g) == set(g.nodes)
    assert out.solution("MIS", g) == {}
    assert validate("MIS", g, out.solution("MIS", g)).code == "INCOMPLETE"
