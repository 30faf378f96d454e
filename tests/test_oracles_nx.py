"""Differential tests against networkx: the exact oracles (an independent
set of g is a clique of g's complement), the matching validator, and
eta_bw (largest connected single-prediction set of undecided nodes)."""

import random

import pytest

from predsync import measures
from predsync.engine import simulate
from predsync.graphs import (DEFAULT_ALPHA_CAP, DEFAULT_ENUM_CAP, build_graph,
                             grid, line, random_graph,
                             random_connected_graph, validate)

from helpers import program, undecided
from reference import alpha_oracle, components, enumerate_mis

nx = pytest.importorskip("networkx")


def _complement(g):
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges())
    return nx.complement(h)


def _instances(cap):
    """Seeded graphs up to the cap, the empty and edgeless graphs included."""
    yield random_graph(0, 0.3, 0)
    for n in sorted({1, 2, 7, cap - 6, cap}):
        yield random_graph(n, 0.0, n)
        for p in (0.15, 0.3, 0.6):
            for seed in range(2):
                yield random_graph(n, p, seed)


def test_alpha_and_tau_match_max_clique_of_complement():
    for g in _instances(DEFAULT_ALPHA_CAP):
        _, clique = nx.max_weight_clique(_complement(g), weight=None)
        assert alpha_oracle(g) == clique, (g.n, sorted(g.edges()))


def _atlas(max_nodes):
    """Every graph of networkx's atlas on at most max_nodes nodes, with the
    atlas's nodes 0..n-1 as identifiers 1..n."""
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() <= max_nodes:
            yield build_graph([u + 1 for u in h], [(u + 1, v + 1) for u, v in h.edges()])


def test_components_match_connected_components_on_atlas():
    """Components, alpha and the maximal independent sets (mis_bitmasks,
    each found once) of every atlas graph on at most 6 nodes."""
    for g in _atlas(6):
        comps = components(g)
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(g.nodes)
        expected = sorted((set(c) for c in nx.connected_components(h)), key=min)
        assert [set(c.nodes) for c in comps] == expected, sorted(g.edges())
        for c in comps:  # a component keeps every neighbor of its nodes
            assert dict(c.adjacency) == {u: g.adjacency[u] for u in c.nodes}
        if len(comps) == 1:
            assert comps[0] is g
        _, clique = nx.max_weight_clique(_complement(g), weight=None)
        assert alpha_oracle(g) == clique, sorted(g.edges())
        found = enumerate_mis(g)  # mis_bitmasks decoded
        assert len(set(found)) == len(found), sorted(g.edges())
        assert set(found) == set(map(frozenset, nx.find_cliques(_complement(g)))), (
            sorted(g.edges()))


def test_enumerate_mis_matches_cliques_of_complement():
    for g in _instances(DEFAULT_ENUM_CAP):
        expected = sorted((frozenset(c) for c in nx.find_cliques(_complement(g))),
                          key=sorted)
        assert enumerate_mis(g) == expected, (g.n, sorted(g.edges()))


def test_matching_validator_matches_is_maximal_matching():
    verdicts = set()
    for g in _instances(DEFAULT_ALPHA_CAP):
        h = nx.Graph()
        h.add_nodes_from(g.nodes)
        h.add_edges_from(g.edges())
        r = random.Random(f"{g.n}-{sorted(g.edges())}")
        for keep in (1.0, 0.8, 0.5):
            edges = list(g.edges())
            r.shuffle(edges)
            mate = dict.fromkeys(g.nodes)
            for u, v in edges:
                if mate[u] is None and mate[v] is None and r.random() < keep:
                    mate[u], mate[v] = v, u
            matching = {(u, v) for u, v in mate.items() if v is not None and u < v}
            ok = validate("MAXIMAL_MATCHING", g, mate) is None
            assert ok == nx.is_maximal_matching(h, matching), (g.n, sorted(matching))
            verdicts.add(ok)
    assert verdicts == {True, False}


def _eta_bw_nx(g, p):
    """Largest connected component of G[{u undecided : p[u] = c}], c in {0, 1},
    with the undecided nodes those an mis.base run on p leaves."""
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges())
    left = undecided(simulate(g, program("mis.base"), p), g)
    return max((len(c) for color in (0, 1)
                for c in nx.connected_components(
                    h.subgraph(u for u in left if p[u] == color))),
               default=0)


def test_eta_bw_matches_largest_component():
    cases = [(line(n), measures.reference("MIS", line(n), pattern="ALL_ONES"))
             for n in (1, 2, 9, 30)]
    for rows, cols in ((4, 4), (8, 12)):
        g = grid(rows, cols)
        cases.append((g, measures.reference("MIS", g, pattern="GRID_4BLOCK",
                                            rows=rows, cols=cols)))
    for seed in range(4):
        for n, q in ((12, 0.2), (20, 0.15), (25, 0.3)):
            g = random_connected_graph(n, q, seed)
            ref = measures.reference("MIS", g)
            for k in (0, 3, n // 2, n):
                cases.append((g, measures.corrupt("MIS", g, ref, k, seed)))
            r = random.Random(f"{n}-{q}-{seed}")
            cases.append((g, {u: r.randint(0, 1) for u in g.nodes}))
        g = random_graph(15, 0.2, seed)
        cases.append((g, {u: (u + seed) % 2 for u in g.nodes}))
    seen = set()
    for g, p in cases:
        want = _eta_bw_nx(g, p)
        assert measures.error_report("MIS", g, p)["eta_bw"] == want, (
            g.n, sorted(g.edges()), p)
        seen.add(want)
    assert 0 in seen and max(seen) >= 8
