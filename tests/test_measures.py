"""Error components, measures and prediction generation."""

import copy
import itertools
import random

import pytest

from predsync import engine
from predsync import measures as M
from predsync.engine import simulate
from predsync.graphs import (CapExceeded, Graph, _assign_ids, build_graph,
                             grid, line, line_tree, random_connected_graph,
                             random_graph, random_tree, validate)
from predsync.registry import get_program
from predsync.templates import build_template

from helpers import program, undecided, value
from reference import (alpha_oracle, components, edge_induced_subgraph,
                       enumerate_mis, format_predictions, induced_subgraph,
                       mu1, mu2, unique_edge_colors)


def _k(n):
    return build_graph(range(1, n + 1),
                       [(i, j) for i in range(1, n + 1)
                        for j in range(i + 1, n + 1)])


def test_mu_values():
    single = build_graph([1], [])
    assert mu1(single) == 1 and mu2(single) == 0
    assert mu2(_k(6)) == 2
    g = line(5)
    assert mu1(g) == 5 and mu2(g) == 4


def test_error_components_examples():
    e = build_graph([1, 2], [(1, 2)])
    assert M.error_report("MIS", e, {1: 1, 2: 1})["eta1"] == 2
    # a path whose nodes all predict 0: one component of all three nodes
    lonely = build_graph([1, 2, 3], [(1, 2), (2, 3)])
    assert M.error_report("MIS", lonely, {1: 0, 2: 0, 3: 0})["eta1"] == 3
    assert M.error_report("MIS", e, {1: 1, 2: 0})["eta1"] == 0


def test_eta_examples():
    k6 = _k(6)
    report = M.error_report("MIS", k6, {u: 1 for u in k6.nodes})
    assert report["eta1"] == 6 and report["eta2"] == 2


def test_grid_pattern():
    g = grid(16, 16)
    p = M.reference("MIS", g, pattern="GRID_4BLOCK", rows=16, cols=16)
    report = M.error_report("MIS", g, p)
    assert report["eta1"] == 256 and report["eta_bw"] == 4


def test_eta_bw_all_ones_line():
    g = line(7)
    p = M.reference("MIS", g, pattern="ALL_ONES")
    report = M.error_report("MIS", g, p)
    assert report["eta_bw"] == 7 == report["eta1"]


def test_eta_t():
    t = line_tree(15)
    p = M.reference("MIS", t.graph, pattern="MOD3_LINE", tree=t)
    assert [p[u] for u in sorted(t.graph.nodes)][:4] == [0, 1, 1, 0]
    assert M.error_report("MIS", t.graph, p, t)["eta_t"] == 2
    t6 = line_tree(6)
    ones = {u: 1 for u in t6.graph.nodes}
    assert M.error_report("MIS", t6.graph, ones, t6)["eta_t"] == 6
    solved = M.corrupt("MIS", t6.graph, M.reference("MIS", t6.graph), 0, 0)
    assert M.error_report("MIS", t6.graph, solved, t6)["eta_t"] == 0


def _eta_hamming(g, p, masks=None):
    return M.error_report("MIS", g, p, masks=masks)["eta_hamming"]


def test_eta_hamming():
    tri = build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert _eta_hamming(tri, {1: 1, 2: 1, 3: 1}) == 2
    e = build_graph([1, 2], [(1, 2)])
    assert _eta_hamming(e, {1: 0, 2: 0}) == 1
    assert _eta_hamming(e, {1: 1, 2: 0}) == 0


def test_eta_hamming_masks_match_set_scoring():
    """The bitmask popcount over mis_bitmasks agrees with scoring each
    maximal independent set as a set of nodes."""
    r = random.Random(5)
    for seed in range(25):
        g = random_graph(2 + seed % 11, 0.35, seed)
        masks = M.mis_bitmasks(g)
        assert len(masks) == len(enumerate_mis(g))
        for _ in range(4):
            p = {u: r.choice((0, 1, 1, 0, None)) for u in g.nodes}
            ones = {u for u in g.nodes if p[u] == 1}
            zeros = {u for u in g.nodes if p[u] == 0}
            want = min(g.n - len(ones & m) - len(zeros - m)
                       for m in enumerate_mis(g))
            assert _eta_hamming(g, p, masks) == _eta_hamming(g, p) == want
    assert M.mis_bitmasks(line(30)) is M.mis_bitmasks(line(21)) is None
    assert len(M.mis_bitmasks(line(20))) == len(enumerate_mis(line(20)))
    assert _eta_hamming(line(30), {u: 1 for u in line(30).nodes}) is None


def test_solve_then_corrupt_k0_is_correct():
    for kind in ("MIS", "MAXIMAL_MATCHING", "VERTEX_COLORING",
                 "EDGE_COLORING"):
        g = random_connected_graph(10, 0.3, 11)
        p = M.corrupt(kind, g, M.reference(kind, g), 0, 0)
        assert M.error_report(kind, g, p)["eta1"] == 0
        assert validate(kind, g, p) is None


_UNIFORM_PROGRAMS = {"MIS": "mis.greedy", "MAXIMAL_MATCHING": "mm.uniform",
                     "VERTEX_COLORING": "vc.uniform",
                     "EDGE_COLORING": "ec.uniform"}


def _solve_cases():
    """Every atlas graph on at most 5 nodes, connected or not, under two
    seeded identifier permutations, then graphs shaped like the benchmark
    workloads, a line and a tree."""
    nx = pytest.importorskip("networkx")
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        if n > 5:
            break
        for perm in range(2):
            ids, d = _assign_ids(n, "SEEDED_PERMUTATION", perm, None)
            yield build_graph(ids, [(ids[u], ids[v]) for u, v in a.edges()], d)
    for seed in range(10):
        yield random_connected_graph(60, 0.1, seed)
    for seed in range(20):
        yield random_connected_graph(18, 0.3, seed)
    yield line(30)
    yield random_tree(40, 7).graph


def test_solve_matches_the_simulated_uniform_programs():
    """solve evaluates each uniform rule directly; it returns what a
    simulated run of the registry's uniform program outputs."""
    seen = 0
    for g in _solve_cases():
        for kind, name in _UNIFORM_PROGRAMS.items():
            program, program_kind = get_program(name)
            assert program_kind == kind
            out = simulate(g, program)
            if kind == "EDGE_COLORING":
                want = {u: out.outputs[u] for u in g.nodes}
            else:
                want = {u: value(out, u) for u in g.nodes}
            assert M.solve(kind, g) == want, (kind, g.adjacency)
        seen += 1
    assert seen == 2 * 53 + 32


def test_corruption_is_deterministic_and_in_range():
    g = random_connected_graph(12, 0.3, 4)
    for kind in ("MIS", "MAXIMAL_MATCHING", "VERTEX_COLORING",
                 "EDGE_COLORING"):
        a = M.corrupt(kind, g, M.reference(kind, g), 5, 9)
        b = M.corrupt(kind, g, M.reference(kind, g), 5, 9)
        assert a == b
    p = M.corrupt("VERTEX_COLORING", g, M.reference("VERTEX_COLORING", g),
                  12, 1)
    assert all(1 <= p[u] <= g.delta + 1 for u in g.nodes)
    p = M.corrupt("MAXIMAL_MATCHING", g, M.reference("MAXIMAL_MATCHING", g),
                  12, 1)
    assert all(p[u] is None or p[u] in g.adjacency[u] for u in g.nodes)


def test_pattern_errors():
    g = line(5)
    with pytest.raises(ValueError):
        M.reference("MIS", g, pattern="GRID_4BLOCK", rows=2, cols=2)
    with pytest.raises(ValueError):
        M.reference("MIS", g, pattern="MOD3_LINE")
    with pytest.raises(ValueError):
        M.reference("VERTEX_COLORING", g, pattern="ALL_ONES")
    with pytest.raises(ValueError):
        M.reference("MIS", g, pattern="NOPE")


def test_measure_relations_on_random_instances():
    for seed in range(15):
        g = random_connected_graph(4 + seed % 9, 0.35, seed)
        for k in (1, 3, 6):
            p = M.corrupt("MIS", g, M.reference("MIS", g), k, seed)
            report = M.error_report("MIS", g, p)
            assert report["eta2"] <= report["eta1"]
            assert report["eta_bw"] <= report["eta1"]
    for seed in range(10):
        t = random_tree(4 + seed, seed)
        p = M.corrupt("MIS", t.graph, M.reference("MIS", t.graph), 3, seed)
        report = M.error_report("MIS", t.graph, p, t)
        assert report["eta_t"] <= report["eta_bw"]


def test_init_components_nest_inside_base_components():
    for seed in range(20):
        g = random_connected_graph(4 + seed % 9, 0.35, seed)
        p = M.corrupt("MIS", g, M.reference("MIS", g), 4, seed)
        base_comps = [set(c.nodes) for c in _error_components("MIS", g, p)[1]]
        init_active = undecided(simulate(g, program("mis.init"), p), g)
        for c in components(induced_subgraph(g, init_active)):
            assert any(set(c.nodes) <= b for b in base_comps)


_BASE_PROGRAMS = {"MIS": "mis.base", "MAXIMAL_MATCHING": "mm.base",
                  "VERTEX_COLORING": "vc.base", "EDGE_COLORING": "ec.base"}


def _error_components(kind, g, p):
    """(undecided nodes, error components) of one simulated run of the
    registry's base program, from the definition: the nodes without
    output, or the uncolored edges."""
    out = simulate(g, program(_BASE_PROGRAMS[kind]), p)
    if kind == "EDGE_COLORING":
        uncolored = [(u, v) for u, v in g.edges() if v not in out.outputs[u]]
        return None, components(edge_induced_subgraph(g, uncolored))
    nodes = undecided(out, g)
    return nodes, components(induced_subgraph(g, nodes))


def _single_measures(kind, g, p, tree):
    """Each measure from its definition, on the error components of one
    base-program run."""
    def capped(measure):
        try:
            return measure()
        except CapExceeded:
            return None

    def mu2(c):
        alpha = alpha_oracle(c)
        return 2 * min(alpha, c.n - alpha)

    undecided, comps = _error_components(kind, g, p)
    expected = {"eta1": max((c.n for c in comps), default=0),
                "eta2": capped(lambda: max(map(mu2, comps), default=0)),
                "eta_bw": None, "eta_t": None, "eta_hamming": None}
    if kind == "MIS":
        expected["eta_bw"] = max(
            (c.n for color in (0, 1) for c in components(induced_subgraph(
                g, {u for u in undecided if p[u] == color}))), default=0)
        if tree is not None:
            expected["eta_t"] = _longest_path(tree, p, undecided)
        # the fewest flips to some maximal independent set, scored as sets
        expected["eta_hamming"] = capped(lambda: min(
            g.n - sum(p[u] == 1 for u in m)
            - sum(p[u] == 0 for u in g.nodes if u not in m)
            for m in enumerate_mis(g)))
    return expected


def _longest_path(tree, p, undecided):
    """eta_t by its definition: 1 plus the edges of the longest parent-
    pointer path of undecided nodes with one prediction; 0 if none is."""
    def up(u):
        parent = tree.parent[u]
        if parent in undecided and p[parent] == p[u]:
            return 1 + up(parent)
        return 0
    return 1 + max(map(up, undecided)) if undecided else 0


def test_error_report_matches_single_measures_without_simulating(monkeypatch):
    """Neither error_report nor reference runs the engine: measures binds
    no simulate, and a counting engine.simulate sees no call from them
    (the expected measures come from this module's own simulate)."""
    assert not hasattr(M, "simulate")
    runs = []
    real = engine.simulate
    monkeypatch.setattr(engine, "simulate",
                        lambda *args, **kw: runs.append(1) or real(*args, **kw))
    cases = []
    for kind in ("MIS", "MAXIMAL_MATCHING", "VERTEX_COLORING",
                 "EDGE_COLORING"):
        for seed in range(3):
            g = random_connected_graph(12, 0.3, seed)
            for k in (0, 2, 5):
                cases.append((kind, g, M.corrupt(kind, g, M.reference(kind, g),
                                                 k, seed), None))
    t = random_tree(14, 3)
    for k in (0, 3, 6):
        cases.append(("MIS", t.graph, M.corrupt("MIS", t.graph,
                                                M.reference("MIS", t.graph),
                                                k, k), t))
    long_line = line(30)
    for pattern in ("ALL_ONES", "ALL_ZEROS"):
        cases.append(("MIS", long_line,
                      M.reference("MIS", long_line, pattern=pattern), None))

    assert not runs
    reports = []
    for kind, g, p, tree in cases:
        expected = _single_measures(kind, g, p, tree)
        report = M.error_report(kind, g, p, tree)
        assert not runs, (kind, g.n)
        assert report == expected, (kind, g.n)
        reports.append(report)
    assert any(r["eta_t"] for r in reports)  # a tree case has eta_t set
    assert any(r["eta2"] for r in reports) and any(r["eta_hamming"] for r in reports)
    assert reports[-1]["eta2"] is None and reports[-1]["eta_hamming"] is None
    assert reports[-1]["eta1"] == 30


def _residue_cases():
    """(kind, graph, predictions): every connected atlas graph on at most 5
    nodes under two seeded identifier permutations, with every 0/1 vector
    for MIS and solve-then-corrupt predictions for k = 0..n and seeds 0..3
    for the other problems, then one instance shaped like each benchmark
    workload."""
    nx = pytest.importorskip("networkx")
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        if not 1 <= n <= 5 or not nx.is_connected(a):
            continue
        for perm in range(2):
            ids, d = _assign_ids(n, "SEEDED_PERMUTATION", perm, None)
            g = build_graph(ids, [(ids[u], ids[v]) for u, v in a.edges()], d)
            for bits in itertools.product((0, 1), repeat=n):
                yield "MIS", g, dict(zip(ids, bits))
            for kind in _OTHER_KINDS:
                ref = M.reference(kind, g)
                for k in range(n + 1):
                    for seed in range(4):
                        yield kind, g, M.corrupt(kind, g, ref, k, seed)
    g = random_connected_graph(18, 0.3, 0)
    for k in (0, 5, 10):
        yield "MIS", g, M.corrupt("MIS", g, M.reference("MIS", g), k, 0)
    g = random_connected_graph(60, 0.1, 0)
    for kind in _OTHER_KINDS:
        for k in (0, 4, 10):
            yield kind, g, M.corrupt(kind, g, M.reference(kind, g), k, 0)
    g = line(800)
    yield "MIS", g, M.reference("MIS", g, pattern="ALL_ZEROS")


_OTHER_KINDS = ("MAXIMAL_MATCHING", "VERTEX_COLORING", "EDGE_COLORING")


def test_direct_residue_matches_simulated_base_programs():
    """The base rule evaluated directly leaves the same undecided nodes and
    error components as a simulated run of the registry's base program."""
    sizes = {}
    for kind, g, p in _residue_cases():
        undecided, nbr, comps = M._residue(kind, g, p)
        want_undecided, want_comps = _error_components(kind, g, p)

        def nodes(mask):  # a mask over g.nodes decoded, in node order
            return tuple(u for i, u in enumerate(g.nodes) if mask >> i & 1)
        if undecided is not None:
            undecided = set(nodes(undecided))
        assert undecided == want_undecided, (kind, g.adjacency, p)
        index = {u: i for i, u in enumerate(g.nodes)}
        assert ([{u: nodes(nbr[index[u]] & c) for u in nodes(c)} for c in comps]
                == [dict(c.adjacency) for c in want_comps]), (kind, g.adjacency, p)
        sizes.setdefault(kind, set()).add(sum(c.bit_count() for c in comps))
    # every problem saw both correct and erroneous predictions
    assert all(0 in seen and len(seen) > 1 for seen in sizes.values())
    assert len(sizes) == 4 and 800 in sizes["MIS"]


def alpha_mask_mismatches(max_nodes):
    """(subsets checked, mismatches): over every atlas graph on at most
    max_nodes nodes and every non-empty node subset S, the largest |M & S|
    over the maximal independent sets M (mis_bitmasks) against alpha_oracle
    of the induced subgraph g[S]."""
    import networkx as nx
    checked, bad = 0, []
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        if n > max_nodes:
            break
        g = build_graph(range(1, n + 1), [(u + 1, v + 1) for u, v in a.edges()])
        masks = M.mis_bitmasks(g)
        for s in range(1, 1 << n):
            alpha = alpha_oracle(induced_subgraph(
                g, [u for i, u in enumerate(g.nodes) if s >> i & 1]))
            if max((m & s).bit_count() for m in masks) != alpha:
                bad.append((sorted(g.edges()), s))
            checked += 1
    return checked, bad


def test_alpha_of_a_subset_is_its_largest_share_of_a_maximal_set():
    """The identity behind eta2 from the masks: alpha(g[S]) equals the
    largest |M & S| over the maximal independent sets M of g."""
    pytest.importorskip("networkx")
    assert alpha_mask_mismatches(6) == (11082, [])


def test_error_report_from_masks_matches_branch_and_bound():
    """Given mis_bitmasks(g), error_report takes eta2 from the masks; without
    them from branch and bound on each component.  Both agree with the
    measures from their definitions."""
    checked = 0
    last = None
    for kind, g, p in _residue_cases():
        if kind != "MIS":
            continue
        if g is not last:
            last, masks = g, M.mis_bitmasks(g)
        report = M.error_report("MIS", g, p, None, masks)
        assert report == M.error_report("MIS", g, p), (g.adjacency, p)
        assert report == _single_measures("MIS", g, p, None), (g.adjacency, p)
        checked += bool(report["eta2"])
    assert checked  # some component had an edge, so mu2 > 0


def test_error_report_builds_no_graph(monkeypatch):
    """error_report reads g's adjacency and builds no Graph, for any
    problem, with or without masks, capped or not.  Only MIS reads the
    masks: the other problems' reports are the same with them.  The alpha
    oracle is never called, and branch and bound only without masks."""
    cases = []
    for kind in ("MIS", "MAXIMAL_MATCHING", "VERTEX_COLORING",
                 "EDGE_COLORING"):
        g = random_connected_graph(18, 0.3, 1)
        for k in (0, 4, 10):
            cases.append((kind, g, M.corrupt(kind, g, M.reference(kind, g),
                                             k, 1)))
    g = line(30)
    cases.append(("MIS", g, M.reference("MIS", g, pattern="ALL_ONES")))
    t = random_tree(14, 3)
    masks = {id(g): M.mis_bitmasks(g) for _, g, _ in cases}
    built, searched = [], []
    real = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda self, *args, **kwargs:
                        built.append(1) or real(self, *args, **kwargs))
    assert not hasattr(M, "alpha_oracle")  # measures cannot reach it
    branch = M._alpha_branch
    monkeypatch.setattr(M, "_alpha_branch",
                        lambda *args: searched.append(1) or branch(*args))
    eta2 = set()
    for kind, g, p in cases:
        searched.clear()
        with_masks = M.error_report(kind, g, p, None, masks[id(g)])
        assert not searched or kind != "MIS"
        assert M.error_report(kind, g, p) == with_masks
        eta2.add(with_masks["eta2"])
    M.error_report("MIS", t.graph, M.reference("MIS", t.graph, pattern="ALL_ONES"),
                   t)
    assert not built
    assert None in eta2 and len(eta2) > 2


_INVALID = [
    # (kind, predictions on line(3), the base program's start-check message)
    ("MIS", {1: 1, 3: 0}, "predictions missing for nodes [2]"),
    ("MAXIMAL_MATCHING", {1: 3, 2: None},
     "predictions missing for nodes [3]"),
    ("MAXIMAL_MATCHING", {1: 3, 2: None, 3: None},
     "node 1: predicted partner 3 is not a neighbor"),
    ("VERTEX_COLORING", {1: 1, 2: 4, 3: 1},
     "node 2: predicted color 4 out of range"),
    ("VERTEX_COLORING", {1: 1, 2: None, 3: 0},
     "node 2: predicted color None out of range"),
    ("EDGE_COLORING", {1: {2: 1}, 2: {1: 1}, 3: {2: 2}},
     "node 2: edge predictions incomplete"),
    ("EDGE_COLORING", {1: {2: 1}, 2: {1: 1, 3: 5}, 3: {2: 2}},
     "node 2: predicted color 5 out of range"),
    ("EDGE_COLORING", {1: {2: 0}, 2: {1: 1}, 3: {2: 2}},
     "node 1: predicted color 0 out of range"),
    ("EDGE_COLORING", {1: {2: 1}, 2: [1, 3], 3: {2: 2}},
     "node 2: edge predictions incomplete"),
    ("EDGE_COLORING", {1: {2: 1.0}, 2: {1: 1, 3: 2}, 3: {2: 2}},
     "node 1: predicted color 1.0 out of range"),
    ("EDGE_COLORING", {1: {2: 1}, 2: {1: 1, 3: 2}, 3: {1: 2}},
     "node 3: edge predictions incomplete"),
]


@pytest.mark.parametrize("kind, p, message", _INVALID)
def test_invalid_predictions_raise_the_base_program_message(kind, p, message):
    g = line(3)
    with pytest.raises(ValueError) as direct:
        M.error_report(kind, g, p)
    with pytest.raises(ValueError) as simulated:
        _error_components(kind, g, p)
    assert str(direct.value) == str(simulated.value) == message


def _ec_predictions():
    """(g, predictions) for seeded edge-colouring corruptions, some with a
    colour repeated at a node."""
    for seed in range(6):
        g = random_connected_graph(12 + 4 * seed, 0.3, seed)
        solved = M.reference("EDGE_COLORING", g)
        for k in (0, 3, 8, g.n):
            yield g, M.corrupt("EDGE_COLORING", g, solved, k, seed)


def test_edge_predictions_match_the_reference_tally():
    """edge_predictions returns each node's unique predicted colours, as
    the reference tally counts them, and the prediction itself when all
    its colours are distinct."""
    repeated = distinct = 0
    for g, p in _ec_predictions():
        for u in g.nodes:
            got = M.edge_predictions(u, p[u], g.neighbor_sets[u], g.delta)
            assert got == unique_edge_colors(p[u]), (u, p[u])
            if len(set(p[u].values())) == len(p[u]):
                assert got is p[u]
                distinct += 1
            else:
                repeated += 1
    assert repeated > 10 and distinct > 10


def test_start_checks_leave_predictions_unchanged():
    """Neither error_report nor a simulated run changes a prediction,
    although the edge-colouring start check shares a node's prediction
    map when its colours are distinct."""
    programs = [program(_BASE_PROGRAMS["EDGE_COLORING"])]
    programs += [build_template("EDGE_COLORING", t).program
                 for t in ("simple", "consecutive")]
    for g, p in _ec_predictions():
        before = copy.deepcopy(p)
        M.error_report("EDGE_COLORING", g, p)
        for prog in programs:
            simulate(g, prog, p, 4 * g.n + 20)
        assert p == before
    for kind in ("MAXIMAL_MATCHING", "VERTEX_COLORING"):
        g = random_connected_graph(20, 0.3, 2)
        p = M.corrupt(kind, g, M.reference(kind, g), 6, 2)
        before = dict(p)
        M.error_report(kind, g, p)
        simulate(g, program(_BASE_PROGRAMS[kind]), p)
        assert p == before


def test_prediction_file_roundtrip():
    g = line(3)
    p = {1: 2, 2: None, 3: 2}
    text = format_predictions("MAXIMAL_MATCHING", p)
    assert M.parse_predictions("MAXIMAL_MATCHING", text) == p
    ec = {1: {2: 1}, 2: {1: 1, 3: 2}, 3: {2: 2}}
    text = format_predictions("EDGE_COLORING", ec)
    assert M.parse_predictions("EDGE_COLORING", text) == ec
    with pytest.raises(ValueError):
        M.parse_predictions("MIS", "1 2 3\n")


if __name__ == "__main__":
    import sys

    # the identity test over larger graphs: 7 covers the whole atlas
    max_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    checked, bad = alpha_mask_mismatches(max_nodes)
    print(f"{checked} subsets checked, {len(bad)} mismatches")
    for edges, s in bad[:10]:
        print("  edges", edges, "subset mask", bin(s))
    sys.exit(1 if bad else 0)
