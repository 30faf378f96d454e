"""Graph construction, oracles, validators and file format."""

import gc

import pytest

from predsync.graphs import (CapExceeded, GraphError, build_graph,
                             enumerate_mis, generate, grid, line,
                             line_tree, random_connected_graph, random_graph,
                             random_tree, read_graph, RootedTree, validate,
                             wheel_fk)

from helpers import diameter, wheel_rim_nodes, write_graph
from reference import (alpha_oracle, components, edge_induced_subgraph,
                       induced_subgraph)


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
    tri = build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert len(enumerate_mis(tri)) == 3
    with pytest.raises(CapExceeded):
        enumerate_mis(line(21), cap=20)


def test_oracles_leave_no_reference_cycles():
    g = random_graph(14, 0.3, 1)
    for oracle in (alpha_oracle, enumerate_mis):
        gc.collect()
        gc.disable()
        try:
            oracle(g)
            assert gc.collect() == 0, oracle.__name__
        finally:
            gc.enable()


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
