"""Differential tests of the exact oracles against networkx: an independent
set of g is a clique of g's complement."""

import pytest

from predsync.graphs import (DEFAULT_ALPHA_CAP, DEFAULT_ENUM_CAP, alpha_oracle,
                             enumerate_mis, random_graph, tau_oracle)

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
        assert tau_oracle(g) == g.n - clique


def test_enumerate_mis_matches_cliques_of_complement():
    for g in _instances(DEFAULT_ENUM_CAP):
        expected = sorted((frozenset(c) for c in nx.find_cliques(_complement(g))),
                          key=sorted)
        assert enumerate_mis(g) == expected, (g.n, sorted(g.edges()))
