"""Graph representation, generators, exact oracles, and one correctness
rule per problem (node_rule), which both validate() and the extendability
auditor apply.

Graphs are undirected, simple, with distinct integer identifiers drawn from
{1..d}.  All structures are immutable named tuples: Graph, built and
checked only by build_graph; RootedTree, built and checked only by
rooted_tree; and Violation.  The oracles are pure functions, so everything
here is safe to share between threads.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping, Sequence
from typing import NamedTuple, Optional

ROOT = 0  # parent marker for the root of a rooted tree

DEFAULT_ALPHA_CAP = 25
DEFAULT_ENUM_CAP = 20


class GraphError(ValueError):
    """Raised for malformed graph construction or parse input."""

    def __init__(self, code: str, message: str, line: Optional[int] = None):
        self.code = code
        self.reason = message + (f" (line {line})" if line is not None else "")
        super().__init__(f"{code}: {self.reason}")


class CapExceeded(RuntimeError):
    """An exact oracle was asked for a graph above its cap.  mis_bitmasks
    returns None instead; the benchmark's tracer and the tests name it."""


class Graph(NamedTuple):
    """d, the adjacency map node -> sorted tuple of neighbours, and what
    follows from it: nodes (sorted), n, delta (the maximum degree), each
    node's neighbours as a frozenset (neighbor_sets) and as a mask whose bit
    i is nodes[i] (neighbor_bits, by index).  build_graph checks them all."""

    d: int
    adjacency: Mapping[int, tuple[int, ...]]
    nodes: tuple[int, ...]
    n: int
    delta: int
    neighbor_sets: Mapping[int, frozenset]
    neighbor_bits: tuple[int, ...]

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in self.nodes:
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        return sum(1 for _ in self.edges())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency.get(u, ())


def build_graph(nodes: Sequence[int], edges: Sequence[tuple[int, int]], d: Optional[int] = None) -> Graph:
    """Check a node list and an edge list, and build the Graph they give:
    its adjacency is sorted, symmetric and loop-free."""
    node_set = set(nodes)
    if len(node_set) != len(list(nodes)):
        raise GraphError("DUPLICATE_ID", "duplicate node identifiers")
    adj: dict[int, set[int]] = {u: set() for u in nodes}
    for u, v in edges:
        if u == v:
            raise GraphError("SELF_LOOP", f"self loop at {u}")
        if u not in node_set or v not in node_set:
            raise GraphError("ID_OUT_OF_RANGE", f"edge {u}-{v} uses unknown node")
        adj[u].add(v)
        adj[v].add(u)
    if d is None:
        d = max(node_set, default=1)
    ordered = tuple(sorted(node_set))
    if ordered and not (1 <= ordered[0] and ordered[-1] <= d):
        u = next(u for u in ordered if not 1 <= u <= d)
        raise GraphError("ID_OUT_OF_RANGE", f"node {u} outside 1..{d}")
    adjacency = {u: tuple(sorted(vs)) for u, vs in adj.items()}
    bit = {u: 1 << i for i, u in enumerate(ordered)}.__getitem__
    return Graph(d, adjacency, ordered, len(ordered),
                 max(map(len, adjacency.values()), default=0),
                 {u: frozenset(vs) for u, vs in adj.items()},
                 tuple(sum(map(bit, adj[u])) for u in ordered))


class RootedTree(NamedTuple):
    """A tree graph and parent, a map node -> parent id, ROOT for the root.
    rooted_tree is the one builder that checks them."""

    graph: Graph
    parent: Mapping[int, int]

    @property
    def root(self) -> int:
        return next(u for u in self.graph.nodes if self.parent[u] == ROOT)

    def children(self, u: int) -> tuple[int, ...]:
        return tuple(v for v in self.graph.neighbors(u) if self.parent[v] == u)


def rooted_tree(g: Graph, parent: Mapping[int, int]) -> RootedTree:
    """Check that g is a tree and that parent (which covers g's nodes) has
    one root and points each other node along an edge toward it; on a tree,
    a cycle of parents can only be two nodes that point at each other."""
    roots = [u for u in g.nodes if parent[u] == ROOT]
    if len(roots) != 1:
        raise GraphError("MALFORMED_LINE", f"expected exactly one root, got {len(roots)}")
    for u in g.nodes:
        p = parent[u]
        if p == ROOT:
            continue
        if not g.has_edge(u, p):
            raise GraphError("MALFORMED_LINE", f"parent {p} of {u} is not a neighbor")
        if parent[p] == u:
            raise GraphError("MALFORMED_LINE", f"nodes {u} and {p} are each other's parent")
    if g.num_edges() != g.n - 1 or (g.n and len(
            mask_components(g.neighbor_bits, (1 << g.n) - 1)) != 1):
        raise GraphError("MALFORMED_LINE", "rooted tree must be connected and acyclic")
    return RootedTree(g, parent)


# ---------------------------------------------------------------------------
# generators


def _rng(seed: int, *salt) -> random.Random:
    # string seeds hash via sha512, stable across processes (tuple seeds
    # would go through hash(), which is salted per process)
    return random.Random(f"{seed}|{salt!r}")


ID_SCHEMES = ("INCREASING", "SEEDED_PERMUTATION")


def _assign_ids(n: int, id_scheme: str, seed: int, d: Optional[int]) -> tuple[list[int], int]:
    """Map positions 0..n-1 to identifiers; returns (ids, d)."""
    if id_scheme not in ID_SCHEMES:
        raise GraphError("MALFORMED_LINE", f"unknown id scheme {id_scheme!r}")
    if d is None:
        d = n if id_scheme == "INCREASING" else max(2 * n, 1)
    if d < n:
        raise GraphError("ID_OUT_OF_RANGE", f"d={d} too small for n={n}")
    if id_scheme == "INCREASING":
        return list(range(1, n + 1)), d
    return _rng(seed, "ids").sample(range(1, d + 1), n), d


def line(n: int, id_scheme: str = "INCREASING", seed: int = 0, d: Optional[int] = None) -> Graph:
    if n < 1:
        raise GraphError("MALFORMED_LINE", "line needs n >= 1")
    ids, d = _assign_ids(n, id_scheme, seed, d)
    return build_graph(ids, [(ids[i], ids[i + 1]) for i in range(n - 1)], d)


def wheel_fk(k: int, id_scheme: str = "INCREASING", seed: int = 0, d: Optional[int] = None) -> Graph:
    """Wheel with k rim nodes and one extra node on each spoke (2k+1 nodes).

    Positions: 0 is the hub, 1..k are spoke midpoints, k+1..2k the rim cycle.
    """
    if k < 3:
        raise GraphError("MALFORMED_LINE", "wheel needs k >= 3")
    ids, d = _assign_ids(2 * k + 1, id_scheme, seed, d)
    hub = ids[0]
    spokes = ids[1 : k + 1]
    rim = ids[k + 1 :]
    edges = []
    for i in range(k):
        edges.append((hub, spokes[i]))
        edges.append((spokes[i], rim[i]))
        edges.append((rim[i], rim[(i + 1) % k]))
    return build_graph(ids, edges, d)


def grid(rows: int, cols: int, id_scheme: str = "INCREASING", seed: int = 0, d: Optional[int] = None) -> Graph:
    """rows x cols grid; position (i, j) occupies slot i*cols + j (row major)."""
    if rows < 1 or cols < 1:
        raise GraphError("MALFORMED_LINE", "grid needs positive dimensions")
    ids, d = _assign_ids(rows * cols, id_scheme, seed, d)
    at = lambda i, j: ids[i * cols + j]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append((at(i, j), at(i + 1, j)))
            if j + 1 < cols:
                edges.append((at(i, j), at(i, j + 1)))
    return build_graph(ids, edges, d)


def _gnp(n: int, p: float, seed: int, id_scheme: str, d: Optional[int]):
    """(ids, G(n, p) edges, d) as random_graph draws them."""
    if not 0.0 <= p <= 1.0:
        raise GraphError("MALFORMED_LINE", f"edge probability {p} outside [0,1]")
    if n < 0:
        raise GraphError("MALFORMED_LINE", "n must be nonnegative")
    ids, d = _assign_ids(n, id_scheme, seed, d)
    draw = _rng(seed, "edges").random
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :] if draw() < p]
    return ids, edges, d


def random_graph(n: int, p: float, seed: int, id_scheme: str = "SEEDED_PERMUTATION", d: Optional[int] = None) -> Graph:
    """Erdos-Renyi G(n, p); identifier permutation drawn from the same seed."""
    return build_graph(*_gnp(n, p, seed, id_scheme, d))


def random_connected_graph(n: int, p: float, seed: int, id_scheme: str = "SEEDED_PERMUTATION", d: Optional[int] = None) -> Graph:
    """random_graph's G(n, p) plus a random spanning tree over the sorted
    identifiers, so the result is connected; one Graph is built."""
    ids, edges, d = _gnp(n, p, seed, id_scheme, d)
    ids.sort()
    r = _rng(seed, "spanning")
    order = ids[:]
    r.shuffle(order)
    edges += [(order[i], order[r.randrange(i)]) for i in range(1, n)]
    return build_graph(ids, edges, d)


def random_tree(n: int, seed: int, id_scheme: str = "SEEDED_PERMUTATION", d: Optional[int] = None) -> RootedTree:
    """Random rooted tree via random parent attachment."""
    if n < 1:
        raise GraphError("MALFORMED_LINE", "tree needs n >= 1")
    ids, d = _assign_ids(n, id_scheme, seed, d)
    r = _rng(seed, "tree")
    parent = {ids[0]: ROOT}
    edges = []
    for i in range(1, n):
        p = ids[r.randrange(i)]
        parent[ids[i]] = p
        edges.append((p, ids[i]))
    return rooted_tree(build_graph(ids, edges, d), parent)


def line_tree(n: int, id_scheme: str = "INCREASING", seed: int = 0, d: Optional[int] = None) -> RootedTree:
    """Directed line rooted at its first node (parent = previous node)."""
    g = line(n, id_scheme, seed, d)
    ids, _ = _assign_ids(n, id_scheme, seed, d)
    parent = {ids[0]: ROOT}
    for i in range(1, n):
        parent[ids[i]] = ids[i - 1]
    return rooted_tree(g, parent)


def shaped_tree(n: int, shape: str = "random", **kw) -> RootedTree:
    """line_tree for shape line, else random_tree."""
    return (line_tree if shape == "line" else random_tree)(n, **kw)


# family: (generator, the size parameters it needs)
FAMILIES = {
    "LINE": (line, ("n",)),
    "WHEEL_FK": (wheel_fk, ("k",)),
    "GRID": (grid, ("rows", "cols")),
    "RANDOM": (random_graph, ("n", "p")),
    "RANDOM_CONNECTED": (random_connected_graph, ("n", "p")),
    "TREE": (shaped_tree, ("n",)),
}


def generate(family: str, params: Mapping[str, object], id_scheme: str = "INCREASING", seed: int = 0):
    """The family's generator called with params as keywords: its size
    parameters and, optionally, d and (for TREE) shape."""
    if family.upper() not in FAMILIES:
        raise GraphError("MALFORMED_LINE", f"unknown graph family {family!r}")
    return FAMILIES[family.upper()][0](**params, id_scheme=id_scheme, seed=seed)


# ---------------------------------------------------------------------------
# structure operations


def mask_components(nbr: Sequence[int], keep: int) -> list[int]:
    """The connected components that the bits of keep induce, nbr[i] being
    bit i's neighbour mask, as masks by lowest bit."""
    comps = []
    while keep:
        comp = todo = keep & -keep
        keep ^= comp
        while todo:  # todo: the bits of comp whose neighbours are not in yet
            low = todo & -todo
            new = nbr[low.bit_length() - 1] & keep
            keep ^= new
            comp |= new
            todo ^= low | new
        comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# exact oracles


def _alpha_branch(nbr: Sequence[int], active: int, size: int, best: int) -> int:
    """Branch and bound over bitmasks: the larger of best and the biggest
    independent set of size chosen nodes plus some of active.  Branches on
    a node of largest degree in active, and closes out once every degree
    there is at most 1."""
    count = active.bit_count()
    if size + count <= best:
        return best  # bound: even taking everything cannot win
    top = top_deg = -1
    ends = 0  # edge endpoints inside active
    rest = active
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        deg = (nbr[i] & active).bit_count()
        ends += deg
        if deg > top_deg:
            top, top_deg = i, deg
        rest ^= low
    if top_deg <= 1:
        # a disjoint union of edges and isolated nodes (or nothing)
        return max(best, size + count - ends // 2)
    bit = 1 << top
    best = _alpha_branch(nbr, active & ~bit & ~nbr[top], size + 1, best)  # include top
    return _alpha_branch(nbr, active & ~bit, size, best)  # exclude top


def mis_bitmasks(g: Graph) -> Optional[list[int]]:
    """Every maximal independent set of g as a bitmask over g.nodes (bit i
    is g.nodes[i]), in search order: Bron-Kerbosch on the complement.
    None above DEFAULT_ENUM_CAP nodes."""
    if g.n > DEFAULT_ENUM_CAP:
        return None
    full = (1 << g.n) - 1
    # complement adjacency as bitsets
    comp = [full ^ 1 << i ^ nb for i, nb in enumerate(g.neighbor_bits)]
    out: list[int] = []
    if comp:
        _bron_kerbosch(comp, out, 0, full, 0)
    return out


def _bron_kerbosch(comp: list[int], out: list, r: int, p: int, x: int):
    """Append to out every maximal clique of the bitset graph comp that
    extends r with nodes of p and none of x."""
    if p == 0 and x == 0:
        out.append(r)
        return
    # pivot: a node of P|X with the most candidates in P, lowest first
    pivot = most = -1
    rest = p | x
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        hits = (p & comp[i]).bit_count()
        if hits > most:
            pivot, most = i, hits
        rest ^= low
    cand = p & ~comp[pivot]
    while cand:
        i = (cand & -cand).bit_length() - 1
        bit = 1 << i
        _bron_kerbosch(comp, out, r | bit, p & comp[i], x & comp[i])
        p &= ~bit
        x |= bit
        cand &= ~bit


# ---------------------------------------------------------------------------
# correctness rules and the validator


class Violation(NamedTuple):
    code: str  # INDEPENDENCE, MAXIMALITY, SYMMETRY, RANGE, CONFLICT, INCOMPLETE
    where: object  # offending node or edge
    detail: str = ""

    def __str__(self):
        return f"{self.code} at {self.where}: {self.detail}"


PROBLEM_KINDS = ("MIS", "MAXIMAL_MATCHING", "VERTEX_COLORING", "EDGE_COLORING")


def node_rule(kind: str, g: Graph):
    """The problem's correctness rule on g: rule(out, u) -> Violation or None.

    out maps nodes to outputs shaped as for validate(); a node missing from
    out (or, for edge coloring, an edge missing from a node's map) has not
    decided yet.  rule(out, u) reads only u's closed neighbourhood.  When
    every decided node passes it, out extends to a solution (a greedy
    completion of the undecided part exists); on a complete output that
    is correctness.  A node's checks run in _RANK order, so a node that
    breaks several reports its lowest-ranked one.
    """
    adj, nbrs = g.adjacency, g.neighbor_sets
    if kind == "MIS":
        def rule(out, u):
            if u not in out:
                return None
            value = out[u]
            if value == 1:
                for v in adj[u]:
                    if out.get(v) == 1:
                        return Violation("INDEPENDENCE", (u, v),
                                         f"adjacent nodes {u},{v} both joined")
            elif value == 0:
                if 1 not in map(out.get, adj[u]):
                    return Violation("MAXIMALITY", u,
                                     f"node {u} output 0 with no joined neighbor")
            else:
                return Violation("RANGE", u, f"node {u} output {value!r}")
            return None
    elif kind == "MAXIMAL_MATCHING":
        def rule(out, u):
            if u not in out:
                return None
            mate = out[u]
            if mate is None:
                for v in adj[u]:
                    if out.get(v) in (None, u):
                        return Violation("MAXIMALITY", (u, v), f"node {u} output - "
                                         f"but neighbor {v} is not matched away")
            else:
                try:
                    adjacent = mate in nbrs[u]
                except TypeError:  # unhashable, so no node
                    adjacent = False
                if not adjacent:
                    return Violation("RANGE", u, f"node {u} matched to non-neighbor {mate}")
                if out.get(mate) != u:
                    return Violation("SYMMETRY", (u, mate), f"match {u}->{mate} not mutual")
            return None
    elif kind == "VERTEX_COLORING":
        hi = g.delta + 1
        def rule(out, u):
            if u not in out:
                return None
            c = out[u]
            if not isinstance(c, int) or not 1 <= c <= hi:
                return Violation("RANGE", u, f"node {u} color {c!r} out of range")
            for v in adj[u]:
                if out.get(v) == c:
                    return Violation("CONFLICT", (u, v),
                                     f"adjacent nodes {u},{v} share color {c}")
            return None
    elif kind == "EDGE_COLORING":
        hi = 2 * g.delta - 1
        def rule(out, u):
            if u not in out:
                return None
            cols = out[u]
            if not cols.keys() <= nbrs[u]:
                v = next(v for v in cols if v not in nbrs[u])
                return Violation("INCOMPLETE", u,
                                 f"node {u} colored non-incident edge to {v}")
            for v, c in cols.items():
                if not isinstance(c, int) or not 1 <= c <= hi:
                    return Violation("RANGE", (u, v),
                                     f"edge {{{u},{v}}} color {c!r} out of range")
            seen = {}
            for v, c in cols.items():
                if c in seen:
                    return Violation("CONFLICT", (u, (seen[c], v)),
                                     f"node {u} used color {c} on two edges")
                seen[c] = v
                try:
                    other = out[v].get(u)
                except (KeyError, AttributeError):  # v undecided, or not a map
                    other = None
                if other != c:
                    return Violation("CONFLICT", (u, v), f"edge {{{u},{v}}} colored "
                                     f"{c} at {u} but {other!r} at {v}")
            return None
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    return rule


# The order in which validate() reports codes; equal ranks go by node order.
_RANK = {
    "MIS": {"RANGE": 0, "INDEPENDENCE": 1, "MAXIMALITY": 2},
    "MAXIMAL_MATCHING": {"RANGE": 0, "SYMMETRY": 0, "MAXIMALITY": 1},
    "VERTEX_COLORING": {"RANGE": 0, "CONFLICT": 1},
    "EDGE_COLORING": {"INCOMPLETE": 0, "RANGE": 0, "CONFLICT": 1},
}


def validate(kind: str, g: Graph, outputs: Mapping[int, object]) -> Optional[Violation]:
    """None when every node has an output and passes node_rule, that is, when
    the outputs solve the problem on g; otherwise first_violation's pick."""
    rule = node_rule(kind, g)
    return first_violation(kind, g, outputs, lambda u: rule(outputs, u))


def first_violation(kind: str, g: Graph, outputs, found) -> Optional[Violation]:
    """validate's verdict on outputs, given found(u): u's node_rule violation
    or None.  INCOMPLETE for the first node without an output, else the
    failure of lowest _RANK, first in node order.  An edge-coloring node
    must also color every incident edge."""
    for u in g.nodes:
        if u not in outputs:
            return Violation("INCOMPLETE", u, "no output")
    rank = _RANK[kind]
    first = None
    for u in g.nodes:
        cols = outputs[u]
        if kind == "EDGE_COLORING" and not (isinstance(cols, Mapping)
                                            and cols.keys() >= g.neighbor_sets[u]):
            failure = Violation("INCOMPLETE", u, f"node {u} did not color every incident edge")
        else:
            failure = found(u)
        if failure is not None and (first is None or rank[failure.code] < rank[first.code]):
            first = failure
    return first


# ---------------------------------------------------------------------------
# file format


def read_graph(text: str):
    """Parse the graph file format; returns Graph or RootedTree."""
    n = d = None
    nodes: list[int] = []  # edge ends
    lone: dict[int, int] = {}  # node of a V line -> its line
    edges: list[tuple[int, int]] = []
    parents: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        parts = s.split()
        if n is None:
            if len(parts) != 2:
                raise GraphError("MALFORMED_LINE", "expected 'n d' header", lineno)
            try:
                n, d = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError("MALFORMED_LINE", "non-integer header", lineno)
            continue
        if parts[0] == "V":
            if len(parts) != 2 or not parts[1].isdigit():
                raise GraphError("MALFORMED_LINE", "expected 'V u'", lineno)
            u = int(parts[1])
            if u in lone:
                raise GraphError("MALFORMED_LINE", f"node {u} repeated", lineno)
            lone[u] = lineno
        elif parts[0] == "P":
            if len(parts) != 3:
                raise GraphError("MALFORMED_LINE", "expected 'P u p'", lineno)
            try:
                u, p = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphError("MALFORMED_LINE", "non-integer parent line", lineno)
            if u in parents:
                raise GraphError("MALFORMED_LINE", f"parent of {u} repeated", lineno)
            parents[u] = p
        else:
            if len(parts) != 2:
                raise GraphError("MALFORMED_LINE", "expected 'u v' edge", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError("MALFORMED_LINE", "non-integer edge", lineno)
            if u == v:
                raise GraphError("SELF_LOOP", f"edge {u} {v}", lineno)
            if u > v:
                raise GraphError("MALFORMED_LINE", f"edge must satisfy u < v, got {u} {v}", lineno)
            edges.append((u, v))
            nodes += [u, v]
    if n is None:
        raise GraphError("MALFORMED_LINE", "empty graph file")
    ends = set(nodes)
    for u, at in lone.items():
        if u in ends:
            raise GraphError("MALFORMED_LINE", f"node {u} has edges", at)
    ids = sorted(ends.union(lone))
    if len(ids) != n:
        raise GraphError("MALFORMED_LINE", f"header says n={n} but found {len(ids)} nodes")
    if len(set(edges)) != len(edges):
        raise GraphError("DUPLICATE_ID", "duplicate edge")
    g = build_graph(ids, edges, d)
    if parents:
        if set(parents) != set(ids):
            raise GraphError("MALFORMED_LINE", "parent lines must cover all nodes")
        return rooted_tree(g, parents)
    return g
