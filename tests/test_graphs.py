"""Graph construction, oracles, validators and file format."""

import copy
import gc
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from predsync import graphs
from predsync.engine import Outcome
from predsync.graphs import (CapExceeded, GraphError, Violation,
                             build_graph, generate, grid, line, line_tree,
                             mask_components, mis_bitmasks,
                             random_connected_graph, random_graph,
                             random_tree, read_graph, RootedTree, validate,
                             wheel_fk)

import reference
from helpers import diameter, wheel_rim_nodes, write_graph
from reference import (alpha_oracle, component_walk, components,
                       edge_induced_subgraph, enumerate_mis, induced_subgraph)


def test_line_structure():
    g = line(5)
    assert g.n == 5 and g.num_edges() == 4 and g.delta == 2
    assert g.neighbors(3) == (2, 4)


def test_grid_structure():
    g = grid(3, 4)
    assert g.n == 12 and g.num_edges() == 3 * 3 + 2 * 4
    assert g.delta == 4


def test_wheel_structure_and_diameter():
    g = wheel_fk(8)
    assert g.n == 17
    assert diameter(g) == 4
    rim = induced_subgraph(g, wheel_rim_nodes(8))
    assert diameter(rim) == 4
    g12 = wheel_fk(12)
    assert diameter(g12) == 4
    rim12 = induced_subgraph(g12, wheel_rim_nodes(12))
    assert diameter(rim12) == 6


def test_random_graphs_deterministic():
    a = random_graph(12, 0.3, 7)
    b = random_graph(12, 0.3, 7)
    assert sorted(a.nodes) == sorted(b.nodes)
    assert sorted(a.edges()) == sorted(b.edges())
    c = random_connected_graph(12, 0.1, 7)
    assert len(components(c)) == 1


def test_random_tree_shape():
    t = random_tree(20, 3)
    assert t.graph.num_edges() == 19
    assert sum(1 for u in t.graph.nodes if t.parent[u] == 0) == 1


def test_generate_dispatch_errors():
    with pytest.raises(GraphError):
        generate("NOPE", {"n": 3})
    with pytest.raises(GraphError):
        line(0)


def test_components_and_subgraphs():
    g = build_graph([1, 2, 3, 4, 5], [(1, 2), (3, 4)])
    comps = components(g)
    assert sorted(len(c.nodes) for c in comps) == [1, 2, 2]
    sub = induced_subgraph(g, {1, 2, 5})
    assert sub.num_edges() == 1
    esub = edge_induced_subgraph(g, [(3, 4)])
    assert sorted(esub.nodes) == [3, 4]


def test_alpha_tau_oracles():
    g = line(5)
    assert alpha_oracle(g) == 3
    k6 = build_graph(range(1, 7),
                     [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
    assert alpha_oracle(k6) == 1
    big = line(30)
    with pytest.raises(CapExceeded):
        alpha_oracle(big, cap=25)


def test_enumerate_mis():
    e = build_graph([1, 2], [(1, 2)])
    assert sorted(enumerate_mis(e)) == [frozenset({1}), frozenset({2})]
    assert sorted(mis_bitmasks(e)) == [0b01, 0b10]
    tri = build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert len(enumerate_mis(tri)) == 3
    assert mis_bitmasks(build_graph([], [])) == []
    assert mis_bitmasks(build_graph([4, 9], [])) == [0b11]
    assert mis_bitmasks(line(21)) is None  # the cap is 20
    assert isinstance(mis_bitmasks(line(20)), list)
    with pytest.raises(CapExceeded):
        enumerate_mis(line(21))


@st.composite
def _graph_and_keep(draw):
    """A graph on up to 12 identifiers in 1..40 and a set of its nodes."""
    nodes = sorted(draw(st.sets(st.integers(1, 40), max_size=12)))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    keep = draw(st.sets(st.sampled_from(nodes))) if nodes else set()
    return build_graph(nodes, edges), keep


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_graph_and_keep())
@example((build_graph([], []), set()))
@example((build_graph([2, 5, 9], []), {2, 9}))
@example((line(800), set(range(1, 801))))
@example((line(800), {u for u in range(1, 801) if u % 3}))
def test_mask_components_match_component_walk(case):
    """mask_components over neighbor_bits gives component_walk's components
    of the kept nodes, in the same order (by smallest member)."""
    g, keep = case
    got = []
    for comp in mask_components(g.neighbor_bits, sum(
            1 << i for i, u in enumerate(g.nodes) if u in keep)):
        got.append([])
        while comp:  # decoded lowest bit first, so in node order
            low = comp & -comp
            got[-1].append(g.nodes[low.bit_length() - 1])
            comp ^= low
    assert got == [sorted(comp) for comp in component_walk(g.adjacency, keep)]


def test_oracles_leave_no_reference_cycles():
    g = random_graph(14, 0.3, 1)
    for oracle in (alpha_oracle, mis_bitmasks):
        gc.collect()
        gc.disable()
        try:
            oracle(g)
            assert gc.collect() == 0, oracle.__name__
        finally:
            gc.enable()


@pytest.mark.parametrize("family", ["RANDOM", "RANDOM_CONNECTED"])
def test_generators_match_the_two_build_reference(family, monkeypatch):
    """RANDOM and the one-build RANDOM_CONNECTED give the reference's graph:
    the same d, adjacency tuples and adjacency key order, and each
    generate() call builds one Graph."""
    want = (reference.random_connected_graph if family == "RANDOM_CONNECTED"
            else reference.random_graph)
    built = []
    real = graphs.Graph

    def counted(*args):
        built.append(1)
        return real(*args)
    monkeypatch.setattr(graphs, "Graph", counted)
    for n in [*range(26), 60]:
        for p in (0, 0.1, 0.3, 1):
            for seed in range(31):
                for scheme in ("INCREASING", "SEEDED_PERMUTATION"):
                    built.clear()
                    g = generate(family, {"n": n, "p": p}, scheme, seed)
                    assert len(built) == 1
                    h = want(n, p, seed, scheme)
                    assert g.d == h.d, (n, p, seed, scheme)
                    assert list(g.adjacency.items()) == list(h.adjacency.items()), (
                        n, p, seed, scheme)


_PATH_TREE = "3 3\n1 2\n2 3\nP 1 0\n"


@pytest.mark.parametrize("build, message", [
    (lambda: build_graph([1, 2, 1], []),
     "DUPLICATE_ID: duplicate node identifiers"),
    (lambda: build_graph([1, 2], [(2, 2)]), "SELF_LOOP: self loop at 2"),
    (lambda: build_graph([1, 2], [(1, 3)]),
     "ID_OUT_OF_RANGE: edge 1-3 uses unknown node"),
    (lambda: build_graph([2, 5, 4], [(2, 5)], 3),
     "ID_OUT_OF_RANGE: node 4 outside 1..3"),
    (lambda: build_graph([0, 1], []), "ID_OUT_OF_RANGE: node 0 outside 1..1"),
    (lambda: read_graph(_PATH_TREE + "P 2 0\nP 3 2\n"),
     "MALFORMED_LINE: expected exactly one root, got 2"),
    (lambda: read_graph(_PATH_TREE + "P 2 1\nP 3 1\n"),
     "MALFORMED_LINE: parent 1 of 3 is not a neighbor"),
    (lambda: read_graph("3 3\n1 2\n2 3\n1 3\nP 1 0\nP 2 1\nP 3 1\n"),
     "MALFORMED_LINE: rooted tree must be connected and acyclic"),
    (lambda: read_graph("4 4\n1 2\n2 3\n3 4\nP 1 0\nP 2 1\nP 3 4\nP 4 3\n"),
     "MALFORMED_LINE: nodes 3 and 4 are each other's parent"),
    # the last P line for node 1 once won, and gave a tree rooted at 2
    (lambda: read_graph("3 3\n1 2\n2 3\nP 1 0\nP 2 1\nP 3 2\nP 1 2\nP 2 0\n"),
     "MALFORMED_LINE: parent of 1 repeated (line 7)"),
    # both once gave the path 1-2-3, V lines ignored
    (lambda: read_graph("3 3\nV 1\nV 1\n1 2\n2 3\n"),
     "MALFORMED_LINE: node 1 repeated (line 3)"),
    (lambda: read_graph("3 3\nV 1\n1 2\n2 3\n"),
     "MALFORMED_LINE: node 1 has edges (line 2)"),
], ids=["duplicate-list", "self-loop-edge", "unknown-edge-end", "built-id-range",
        "built-id-zero", "tree-two-roots", "tree-parent-not-neighbor",
        "tree-edge-cycle", "tree-parent-cycle", "tree-parent-repeated",
        "lone-node-repeated", "lone-node-with-edges"])
def test_each_graph_error_branch(build, message):
    with pytest.raises(GraphError) as err:
        build()
    assert str(err.value) == message
    assert err.value.code == message.split(":")[0]


def test_graph_tree_and_violation_are_immutable():
    """Assigning or deleting a field of a graph, a rooted tree, a violation
    or an outcome raises; copies and pickles keep every field."""
    t = line_tree(3)
    g = t.graph
    v = Violation("RANGE", 1, "node 1 output 2")
    out = Outcome({1: {}}, {1: 1}, 1, [], sends=[(1, 1, {2: "x"})])
    for obj, name in ((g, "d"), (g, "adjacency"), (g, "nodes"), (g, "delta"),
                      (g, "neighbor_sets"), (g, "unset"), (t, "graph"),
                      (t, "parent"), (v, "code"), (v, "unset"),
                      (out, "outputs"), (out, "trace"), (out, "sends"),
                      (out, "unset")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for obj, name in ((g, "d"), (t, "parent"), (out, "total_rounds")):
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert (g.d, g.n, g.delta, t.root) == (3, 3, 2, 1)
    assert str(v) == "RANGE at 1: node 1 output 2"
    back = pickle.loads(pickle.dumps(t))
    assert (back.graph.adjacency, back.parent) == (g.adjacency, t.parent)
    assert copy.deepcopy(g).neighbor_sets == g.neighbor_sets


def test_validate_mis():
    g = line(3)
    assert validate("MIS", g, {1: 1, 2: 0, 3: 1}) is None
    assert validate("MIS", g, {1: 1, 2: 1, 3: 0}).code == "INDEPENDENCE"
    assert validate("MIS", g, {1: 0, 2: 0, 3: 1}).code == "MAXIMALITY"
    assert validate("MIS", g, {1: 1, 2: 0}).code == "INCOMPLETE"
    assert validate("MIS", g, {1: 2, 2: 0, 3: 1}).code == "RANGE"


def test_validate_matching():
    g = line(3)
    assert validate("MAXIMAL_MATCHING", g, {1: 2, 2: 1, 3: None}) is None
    assert validate("MAXIMAL_MATCHING", g,
                    {1: 2, 2: 3, 3: 2}).code == "SYMMETRY"
    assert validate("MAXIMAL_MATCHING", g,
                    {1: None, 2: None, 3: None}).code == "MAXIMALITY"


def test_validate_colorings():
    g = line(3)
    assert validate("VERTEX_COLORING", g, {1: 1, 2: 2, 3: 1}) is None
    assert validate("VERTEX_COLORING", g, {1: 1, 2: 1, 3: 2}).code == "CONFLICT"
    assert validate("VERTEX_COLORING", g, {1: 9, 2: 1, 3: 2}).code == "RANGE"
    ec = {1: {2: 1}, 2: {1: 1, 3: 2}, 3: {2: 2}}
    assert validate("EDGE_COLORING", g, ec) is None
    bad = {1: {2: 1}, 2: {1: 2, 3: 2}, 3: {2: 2}}
    assert validate("EDGE_COLORING", g, bad).code == "CONFLICT"


def test_graph_file_roundtrip():
    g = build_graph([1, 2, 3, 9], [(1, 2), (2, 3)])
    text = write_graph(g)
    back = read_graph(text)
    assert sorted(back.nodes) == [1, 2, 3, 9]
    assert sorted(back.edges()) == sorted(g.edges())
    t = line_tree(4)
    back_t = read_graph(write_graph(t.graph, t))
    assert isinstance(back_t, RootedTree)
    assert back_t.parent == dict(t.parent)
    with pytest.raises(GraphError):
        read_graph("not a header\n")
