"""Test-only helpers: graph facts and files the tests check against, a
run's output values and undecided nodes, a checkpoint list for bare phased
runs, and registry programs by name.  Nothing under src/ needs them."""

from typing import Optional

from predsync.graphs import Graph, RootedTree, _assign_ids
from predsync.registry import get_program

INFINITE = float("inf")


def diameter(g: Graph):
    """Max shortest-path length over node pairs; INFINITE if disconnected."""
    if g.n == 0:
        return 0
    best = 0
    for s in g.nodes:
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.adjacency[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < g.n:
            return INFINITE
        best = max(best, max(dist.values()))
    return best


def wheel_rim_nodes(k: int) -> set[int]:
    """Identifiers of the rim cycle of graphs.wheel_fk(k)."""
    ids, _ = _assign_ids(2 * k + 1, "INCREASING", 0, None)
    return set(ids[k + 1 :])


def write_graph(g: Graph, tree: Optional[RootedTree] = None) -> str:
    """The graph file format that graphs.read_graph parses."""
    lines = [f"{g.n} {g.d}"]
    isolated = [u for u in g.nodes if not g.adjacency[u]]
    lines += [f"V {u}" for u in isolated]
    lines += [f"{u} {v}" for u, v in g.edges()]
    if tree is not None:
        lines += [f"P {u} {tree.parent[u]}" for u in g.nodes]
    return "\n".join(lines) + "\n"


def value(outcome, node: int):
    """A node's single-slot output value, or None when it never output."""
    return outcome.outputs.get(node, {}).get("y")


def undecided(outcome, g: Graph) -> set:
    """Nodes that terminated (or stopped) without assigning any output."""
    return {u for u in g.nodes if not outcome.outputs.get(u)}


def even_rounds(outcome) -> list[int]:
    """Checkpoint list for a bare phased run: every even round."""
    return list(range(2, outcome.total_rounds + 1, 2))


def program(name: str):
    """A fresh program of the registry's stages for name."""
    return get_program(name)[0]
