"""The single correctness pass, audit.audit_run, against checks made from
scratch: its final violation against graphs.validate on the whole output,
and its extendability messages against reference.check_extendable on the
partial output at every checkpoint.

Two kinds of input: seeded synthetic output records, which reach every
violation code of each problem, and simulated runs of every registry
program and template over test_wake.FAMILIES.

Run as a script for a larger sweep, over more records and every graph of
the networkx atlas with at most N nodes:
    PYTHONPATH=src python3 tests/test_single_pass.py [RECORDS] [N]
"""

import random

from predsync import measures as M
from predsync.audit import audit_run
from predsync.cli import RUN_ERRORS
from predsync.engine import Outcome, simulate
from predsync.graphs import (ROOT, build_graph, generate, line,
                             random_graph, rooted_tree, validate)
from predsync.registry import PROGRAMS as REGISTRY, get_program
from predsync.templates import build_template

from reference import check_extendable, partial_outputs
from test_wake import FAMILIES, PROGRAMS, _template_cases

KINDS = ("MIS", "MAXIMAL_MATCHING", "VERTEX_COLORING", "EDGE_COLORING")

# every code validate reports for each problem
CODES = {"MIS": {"INCOMPLETE", "RANGE", "INDEPENDENCE", "MAXIMALITY"},
         "MAXIMAL_MATCHING": {"INCOMPLETE", "RANGE", "SYMMETRY", "MAXIMALITY"},
         "VERTEX_COLORING": {"INCOMPLETE", "RANGE", "CONFLICT"},
         "EDGE_COLORING": {"INCOMPLETE", "RANGE", "CONFLICT"}}


def expected(kind, g, outcome, checkpoints):
    """What audit_run must return, from scratch."""
    messages = []
    for rnd in checkpoints:
        if rnd <= outcome.total_rounds:
            msg = check_extendable(kind, g, partial_outputs(outcome, rnd))
            if msg:
                messages.append(f"round {rnd}: {msg}")
    return validate(kind, g, outcome.solution(kind, g)), messages


def check(kind, g, outcome, checkpoints):
    """Assert that the pass agrees with the reference; returns its result."""
    got = audit_run(kind, g, outcome, checkpoints)
    assert got == expected(kind, g, outcome, checkpoints), (kind, sorted(g.edges()))
    return got


# ---------------------------------------------------------------------------
# synthetic output records


def _record(g, log, rounds):
    """The outcome of a run that made the given (round, node, slot, value)
    assignments, in order, and ended in the given round; as in the engine,
    each node's slots are in the order of the record."""
    outputs = {u: {} for u in g.nodes}
    for _, u, slot, value in log:
        outputs[u][slot] = value
    return Outcome(outputs=outputs, term_round={u: rounds for u in g.nodes},
                   total_rounds=rounds,
                   output_log=[(rnd, u, slot) for rnd, u, slot, _ in log])


def _faulty_value(kind, g, u, r):
    if kind == "MIS":
        return r.choice((0, 1, 2))
    if kind == "MAXIMAL_MATCHING":
        # a neighbour, no mate, any node, no node, or an unhashable value
        return r.choice(g.neighbors(u) + (None, r.choice(g.nodes), g.d + 1, [u]))
    return r.choice((0, r.randint(1, g.delta + 1), g.delta + 2, "c"))


def _faulty_slots(g, u, slots, r):
    """Break one edge-coloring output: a slot left out, a color changed, or
    a non-incident edge colored (to another node, or to no node)."""
    fault = r.randrange(3)
    if fault == 0 and slots:
        del slots[r.choice(sorted(slots))]
    elif fault == 1 and slots:
        slots[r.choice(sorted(slots))] = r.choice((0, r.randint(1, 2 * g.delta + 1)))
    else:
        strangers = [v for v in g.nodes if v != u and v not in g.neighbor_sets[u]]
        slots[r.choice(strangers + [g.d + 1])] = r.randint(1, 2 * g.delta + 1)


def synthetic_record(kind, seed):
    """(graph, outcome, checkpoints): a solved output with a few seeded
    faults, nodes that never output, and stray slots, spread over random
    rounds and logged as the engine logs them."""
    r = random.Random(f"{kind}-{seed}")
    g = random_graph(r.randint(1, 9), r.choice((0.15, 0.3, 0.5)), seed)
    solved = M.solve(kind, g)
    slots = {}
    for u in g.nodes:
        if kind == "EDGE_COLORING":
            slots[u] = dict(solved[u])
        else:
            slots[u] = {"y": solved[u]}
            if r.random() < 0.05:
                slots[u]["z"] = 1  # a slot that no rule reads
    for _ in range(r.choice((0, 0, 1, 1, 2, 3))):
        u = r.choice(g.nodes)
        if kind == "EDGE_COLORING":
            _faulty_slots(g, u, slots[u], r)
        elif r.random() < 0.2:
            slots[u].pop("y", None)  # never outputs its value
        elif kind == "MAXIMAL_MATCHING" and solved[u] is not None and r.random() < 0.3:
            slots[u]["y"] = slots[solved[u]]["y"] = None  # a pair unmatched
        else:
            slots[u]["y"] = _faulty_value(kind, g, u, r)
    rounds = r.randint(1, 5)
    log = sorted(((r.randint(1, rounds), u, slot, value)
                  for u in g.nodes for slot, value in slots[u].items()),
                 key=lambda e: (e[0], e[1], repr(e[2])))
    outcome = _record(g, log, rounds)
    # any order, repeats, and rounds past the end of the run
    checkpoints = [r.randrange(rounds + 2) for _ in range(r.randint(0, 4))]
    return g, outcome, checkpoints


def sweep_records(count):
    """Check count records of each problem; returns what they covered:
    kind -> final codes seen (None for valid), and the number of records
    with a non-extendable checkpoint, a non-incident edge-coloring slot,
    and an isolated node."""
    seen = {kind: set() for kind in KINDS}
    unextendable = non_incident = isolated = 0
    for kind in KINDS:
        for seed in range(count):
            g, outcome, checkpoints = synthetic_record(kind, seed)
            violation, messages = check(kind, g, outcome, checkpoints)
            seen[kind].add(violation and violation.code)
            unextendable += bool(messages)
            non_incident += "non-incident" in str(violation) + str(messages)
            isolated += any(not g.neighbors(u) for u in g.nodes)
    return seen, unextendable, non_incident, isolated


def test_pass_matches_reference_on_synthetic_records():
    seen, unextendable, non_incident, isolated = sweep_records(600)
    for kind in KINDS:
        assert seen[kind] == CODES[kind] | {None}, kind
    assert unextendable and non_incident and isolated


# ---------------------------------------------------------------------------
# simulated runs


def _every_round(outcome):
    return list(range(outcome.total_rounds + 2))


def test_pass_matches_reference_on_template_runs():
    for problem, template, tree in PROGRAMS:
        inst = build_template(problem, template, tree=tree)
        for g, rooted, p in _template_cases(problem, tree):
            out = simulate(g, inst.program, p, inst.max_rounds(g), tree=rooted)
            check(problem, g, out, _every_round(out))


def _registry_runs(name, cases):
    """Check one registry program on (graph, rooted tree or None) cases;
    returns how many runs ended without raising."""
    program, kind = get_program(name)
    # the part-2 programs read a stored coloring from their predictions
    source = "VERTEX_COLORING" if "part2" in name else kind
    ran = 0
    for g, rooted in cases:
        solved = M.solve(source, g)
        for k, seed in ((0, 0), (2, 1), (5, 2)):
            p = M.corrupt(source, g, solved, k, seed)
            try:
                out = simulate(g, program, p, tree=rooted)
            except tuple(RUN_ERRORS):
                continue
            check(kind, g, out, _every_round(out))
            ran += 1
    return ran


def test_pass_matches_reference_on_registry_runs():
    cases = {False: [], True: []}
    for family, params in FAMILIES.items():
        made = generate(family, params, "INCREASING", 0)
        if family == "TREE":
            cases[True].append((made.graph, made))
            made = made.graph
        cases[False].append((made, None))
    for name in REGISTRY:
        assert _registry_runs(name, cases["tree" in name]) > 0, name


# ---------------------------------------------------------------------------
# an edge-coloring slot is read by both of its endpoints


def test_edge_coloring_slot_changes_its_far_endpoint():
    g = line(3)
    first = [(1, 2, 1, 1), (1, 2, 3, 2), (1, 3, 2, 2)]
    # node 1's slot clears node 2, which colored the edge first
    out = _record(g, first + [(2, 1, 2, 1)], 2)
    assert check("EDGE_COLORING", g, out, [1, 2]) == (
        None, ["round 1: edge {2,1} colored 1 at 2 but None at 1"])
    # node 1's slot changes node 2's message, and node 2 still reports
    # first, having output first
    out = _record(g, first + [(2, 1, 2, 2)], 2)
    violation, messages = check("EDGE_COLORING", g, out, [1, 2])
    assert violation.detail == "edge {1,2} colored 2 at 1 but 1 at 2"
    assert messages == ["round 1: edge {2,1} colored 1 at 2 but None at 1",
                        "round 2: edge {2,1} colored 1 at 2 but 2 at 1"]


# ---------------------------------------------------------------------------
# the larger sweep


def _atlas_cases(max_nodes):
    """(graph, rooted tree or None) for every atlas graph on 1..max_nodes
    nodes, with ids 1..n; a tree is rooted at node 1."""
    import networkx as nx

    for atlas in nx.graph_atlas_g():
        n = atlas.number_of_nodes()
        if not 1 <= n <= max_nodes:
            continue
        g = build_graph(range(1, n + 1), [(u + 1, v + 1) for u, v in atlas.edges()])
        rooted = None
        if nx.is_tree(atlas):
            parent, frontier = {1: ROOT}, [1]
            while frontier:
                u = frontier.pop()
                for v in g.neighbors(u):
                    if v not in parent:
                        parent[v] = u
                        frontier.append(v)
            rooted = rooted_tree(g, parent)
        yield g, rooted


def sweep_atlas(max_nodes):
    """Every template and registry program on every atlas graph on at most
    max_nodes nodes; returns the number of runs checked."""
    cases = list(_atlas_cases(max_nodes))
    runs = 0
    for problem, template, tree in PROGRAMS:
        inst = build_template(problem, template, tree=tree)
        for g, rooted in cases:
            if tree and rooted is None:
                continue
            solved = M.solve(problem, g)
            for k, seed in ((0, 0), (1, 0), (3, 1), (g.n, 2)):
                p = M.corrupt(problem, g, solved, k, seed)
                out = simulate(g, inst.program, p, inst.max_rounds(g), tree=rooted)
                check(problem, g, out, _every_round(out))
                runs += 1
    trees = [(g, rooted) for g, rooted in cases if rooted is not None]
    for name in REGISTRY:
        runs += _registry_runs(name, trees if "tree" in name else cases)
    return runs


if __name__ == "__main__":
    import sys

    records = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    max_nodes = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    seen, unextendable, non_incident, isolated = sweep_records(records)
    print(f"{4 * records} records checked: codes {seen}; {unextendable} "
          f"non-extendable, {non_incident} with a non-incident slot, "
          f"{isolated} with an isolated node")
    print(f"{sweep_atlas(max_nodes)} atlas runs on <= {max_nodes} nodes checked")
