"""Differential tests against networkx: the exact oracles (an independent
set of g is a clique of g's complement) and the matching validator."""

import random

import pytest

from predsync.graphs import (DEFAULT_ALPHA_CAP, DEFAULT_ENUM_CAP, alpha_oracle,
                             enumerate_mis, random_graph, tau_oracle, validate)

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
