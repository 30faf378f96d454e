"""Prediction-error measures.

Error components are the connected pieces of the subgraph induced by the
nodes that the problem's base algorithm leaves undecided on the given
predictions (for edge coloring: the subgraph induced by the edges that it
leaves uncolored).  All eta measures are maxima over these components, so
they are 0 exactly when the predictions already form a correct solution.
error_report evaluates the base rule directly, with no simulation, and
splits its undecided part into components once, each a mask over g.nodes
(bit i is g.nodes[i]) read against g.neighbor_bits, and every measure
reads that one result; no Graph is built.  eta2 takes each component's
independence number from the maximal independent sets of g when they are
given (mis_bitmasks), and from branch and bound on the component otherwise.

Whatever depends only on the graph is built apart from the predictions, so
a sweep builds it once per seed and shares it among its k values: the
reference that predictions corrupt (reference) and the maximal
independent sets behind eta_H and eta2 (mis_bitmasks, None above its
cap).  The reference is the output of the problem's measure-uniform
program, its rule evaluated directly on the graph, again with no
simulation; a differential test checks it against simulated runs of
mis.greedy, mm.uniform, vc.uniform and ec.uniform.
"""

from __future__ import annotations

from .graphs import (DEFAULT_ALPHA_CAP, Graph, RootedTree, _alpha_branch,
                     _rng, mask_components, mis_bitmasks)


# ---------------------------------------------------------------------------
# base rules: what mis.base, mm.base, vc.base and ec.base decide, with the
# errors their start checks raise


def check_prediction(kind: str, u: int, pred, nbrs, delta: int) -> None:
    """The start check of the matching and vertex-colouring
    initializations: raise ValueError when node u, with neighbour set
    nbrs, cannot start from its prediction pred."""
    if kind == "MAXIMAL_MATCHING":
        try:
            known = pred is None or pred in nbrs
        except TypeError:  # unhashable, so no node
            known = False
        if not known:
            raise ValueError(
                f"node {u}: predicted partner {pred!r} is not a neighbor")
    elif not isinstance(pred, int) or not 1 <= pred <= delta + 1:
        raise ValueError(f"node {u}: predicted color {pred!r} out of range")


def edge_predictions(u: int, pred, nbrs, delta: int) -> dict:
    """check_prediction for the edge-colouring initialization (keys, then
    each colour's range), which returns the predicted colours no other edge
    at u shares, by neighbour: pred itself, read-only, when all differ."""
    if not isinstance(pred, dict) or pred.keys() != nbrs:
        raise ValueError(f"node {u}: edge predictions incomplete")
    hi = max(1, 2 * delta - 1)
    for c in pred.values():
        if not isinstance(c, int) or not 1 <= c <= hi:
            raise ValueError(f"node {u}: predicted color {c!r} out of range")
    if len(set(pred.values())) == len(pred):
        return pred
    tally = {}
    for c in pred.values():
        tally[c] = tally.get(c, 0) + 1
    return {v: c for v, c in pred.items() if tally[c] == 1}


def _mask(g: Graph, p, value) -> int:
    """The nodes predicted value, as a mask over g.nodes."""
    return sum([1 << i for i, u in enumerate(g.nodes) if p[u] == value])


def _mis_undecided(g: Graph, p) -> int:
    """A prediction-1 node with no prediction-1 neighbor joins, and its
    neighbors leave."""
    ones, decided = _mask(g, p, 1), 0
    for i, nb in enumerate(g.neighbor_bits):
        if ones >> i & 1 and not nb & ones:
            decided |= 1 << i | nb
    return (1 << g.n) - 1 & ~decided


def _mm_undecided(g: Graph, p) -> int:
    """Mutually predicted pairs match; a node predicted None whose
    neighbors are all matched outputs None."""
    matched = sum(1 << i for i, u in enumerate(g.nodes)
                  if p[u] is not None and p[p[u]] == u)
    return sum(1 << i for i, (u, nb) in enumerate(zip(g.nodes, g.neighbor_bits))
               if not matched >> i & 1 and (p[u] is not None or nb & ~matched))


def _vc_undecided(g: Graph, p) -> int:
    """A node whose predicted color no neighbor shares commits it."""
    return sum(1 << i for i, u in enumerate(g.nodes)
               if any(p[v] == p[u] for v in g.adjacency[u]))


def _ec_uncolored(g: Graph, p) -> list[int]:
    """An edge is colored when both endpoints predict the same color for it
    and that color is unique at each endpoint.  Returns, at index i, the
    mask of nodes[i]'s neighbors across uncolored edges."""
    adj, nbrs = g.adjacency, g.neighbor_sets
    unique = {u: edge_predictions(u, p[u], nbrs[u], g.delta) for u in g.nodes}
    uncolored = []
    for u, rest in zip(g.nodes, g.neighbor_bits):
        mine, mask = unique[u], 0
        for v in adj[u]:  # adj[u] is sorted, so v is rest's lowest bit
            low = rest & -rest
            rest ^= low
            if mine.get(v, 0) != unique[v].get(u):  # colors are >= 1
                mask |= low
        uncolored.append(mask)
    return uncolored


_UNDECIDED = {
    "MIS": _mis_undecided,
    "MAXIMAL_MATCHING": _mm_undecided,
    "VERTEX_COLORING": _vc_undecided,
}


def _residue(kind: str, g: Graph, p):
    """The base rule evaluated directly on predictions p: (undecided nodes,
    neighbor masks, error components), as a run of the base program would
    leave them, with node sets as masks over g.nodes.  The neighbor masks
    are g.neighbor_bits, or for edge coloring those of the uncolored edges
    alone, and then the undecided nodes are None."""
    missing = [u for u in g.nodes if u not in p]
    if missing:
        raise ValueError(f"predictions missing for nodes {missing}")
    if kind in ("MAXIMAL_MATCHING", "VERTEX_COLORING"):
        for u in g.nodes:  # the start checks of their initializations
            check_prediction(kind, u, p[u], g.neighbor_sets[u], g.delta)
    if kind == "EDGE_COLORING":  # checked as it is tallied
        nbr = _ec_uncolored(g, p)
        keep = sum(1 << i for i, nb in enumerate(nbr) if nb)
        return None, nbr, mask_components(nbr, keep)
    active = _UNDECIDED[kind](g, p)
    return active, g.neighbor_bits, mask_components(g.neighbor_bits, active)


def _mu2(n: int, alpha: int) -> int:
    """2 min(alpha, tau) of an n-node graph, with tau = n - alpha."""
    return 2 * min(alpha, n - alpha)


def _eta2(nbr, comps: list, masks):
    """The largest mu2 over the error components; None when one is above
    the alpha oracle's cap.  Given masks (mis_bitmasks(g), not None), the
    independence number of g[C] is the largest |M & C| over the maximal
    independent sets M of g: an independent set of g[C] extends to a
    maximal one of g, and M & C is independent in g[C].  Otherwise it
    comes from branch and bound on the component."""
    worst = 0
    for c in comps:
        size = c.bit_count()
        if size > DEFAULT_ALPHA_CAP:
            return None
        if size // 2 * 2 <= worst:
            continue  # mu2 is at most 2 floor(n / 2): c cannot be worse
        alpha = (max(map(int.bit_count, map(c.__and__, masks)))
                 if masks is not None else _alpha_branch(nbr, c, 0, 0))
        worst = max(worst, _mu2(size, alpha))
    return worst


def _eta_t(t: RootedTree, p, active: int) -> int:
    """1 plus the longest monochromatic parent-pointer path (in edges)
    through the active nodes of a rooted tree; 0 when none is active."""
    if not active:
        return 0
    active = {u for i, u in enumerate(t.graph.nodes) if active >> i & 1}
    best = 0
    for u in active:
        steps, at = 0, u
        while (at := t.parent[at]) in active and p[at] == p[u]:
            steps += 1
        best = max(best, steps)
    return 1 + best


def _hamming(masks, n: int, ones: int, zeros: int):
    """eta_hamming: the fewest prediction flips that reach one of masks
    (mis_bitmasks), given the nodes predicted 1 and 0 as masks; None when
    masks is None."""
    if masks is None:
        return None
    other = (1 << n) - 1 & ~ones & ~zeros
    # u disagrees with the set m when it is predicted 1 outside m or 0 in
    # m (a bit of ones ^ m), and any other value disagrees with every set
    flips = map(int.bit_count, map(ones.__xor__, map((~other).__and__, masks)))
    return other.bit_count() + min(flips, default=0)


def error_report(kind: str, g: Graph, p, tree: RootedTree = None,
                 masks=None) -> dict:
    """All measures for one instance from its error components; oracle-capped
    entries come back None.  A given tree must span g; masks, when given,
    are mis_bitmasks(g), and only MIS reads them (an edge-coloring
    component is not an induced subgraph of g)."""
    active, nbr, comps = _residue(kind, g, p)
    report = {"eta1": max((c.bit_count() for c in comps), default=0),
              "eta2": _eta2(nbr, comps, masks if kind == "MIS" else None)}
    if kind == "MIS":
        ones, zeros = _mask(g, p, 1), _mask(g, p, 0)
        # eta_bw is eta1 when every undecided node has one prediction
        parts = (active & zeros, active & ones)
        report["eta_bw"] = report["eta1"] if active in parts else max(
            (c.bit_count() for part in parts for c in mask_components(nbr, part)),
            default=0)
        report["eta_t"] = _eta_t(tree, p, active) if tree is not None else None
        report["eta_hamming"] = _hamming(
            mis_bitmasks(g) if masks is None else masks, g.n, ones, zeros)
    else:
        report["eta_bw"] = report["eta_t"] = report["eta_hamming"] = None
    return report


# ---------------------------------------------------------------------------
# uniform rules: what mis.greedy, mm.uniform, vc.uniform and ec.uniform
# output.  In the greedy MIS and the two coloring rules a node acts in the
# first phase in which it beats every node within its reach that has not
# acted, so every larger node there acts before it and no smaller one does:
# their phases decide what one sweep in decreasing identifier order
# decides, and that is how they are evaluated.  Matching goes phase by phase.


def _greedy_mis(g: Graph) -> dict:
    """A node whose identifier beats all its undecided neighbors joins, and
    its neighbors leave."""
    out = {}
    for u in reversed(g.nodes):
        out[u] = 0 if any(out.get(v) == 1 for v in g.adjacency[u]) else 1
    return out


def _mm_uniform(g: Graph) -> dict:
    """Phase by phase: a local maximum proposes to its smallest active
    neighbor, each proposed-to node accepts its largest proposer, and a
    node left with no active neighbor outputs None."""
    active = {u: set(g.adjacency[u]) for u in g.nodes}
    out = {}
    while active:
        for u in [u for u, nbrs in active.items() if not nbrs]:
            out[u] = None
            del active[u]
        accepted = {}  # proposed-to node -> its largest proposer
        for u, nbrs in active.items():
            if max(nbrs) < u:
                v = min(nbrs)
                accepted[v] = max(accepted.get(v, u), u)
        for v, u in accepted.items():
            out[u], out[v] = v, u
            for w in (u, v):
                for x in active.pop(w):
                    if x in active:
                        active[x].discard(w)
    return out


def _vc_uniform(g: Graph) -> dict:
    """A local maximum takes the smallest color no decided neighbor uses."""
    out = {}
    for u in reversed(g.nodes):
        taken = {out.get(v) for v in g.adjacency[u]}
        c = 1
        while c in taken:
            c += 1
        out[u] = c
    return out


def _ec_uniform(g: Graph) -> dict:
    """A node whose identifier beats everything within two uncolored hops
    colors its uncolored edges in sorted-neighbor order, each with the
    smallest color free at both endpoints and not yet used in that step.
    So each edge is colored by its larger endpoint."""
    out = {u: {} for u in g.nodes}
    for u in reversed(g.nodes):
        mine = out[u]
        for v in g.adjacency[u]:
            if v > u:
                break
            taken = set(mine.values())
            taken.update(out[v].values())
            c = 1
            while c in taken:
                c += 1
            mine[v] = out[v][u] = c
    return out


_UNIFORM_RULES = {
    "MIS": _greedy_mis,
    "MAXIMAL_MATCHING": _mm_uniform,
    "VERTEX_COLORING": _vc_uniform,
    "EDGE_COLORING": _ec_uniform,
}


# ---------------------------------------------------------------------------
# prediction generation


PATTERNS = ("ALL_ONES", "ALL_ZEROS", "GRID_4BLOCK", "MOD3_LINE")


def solve(kind: str, g: Graph) -> dict:
    """Correct solution: the output of the problem's measure-uniform
    program, evaluated directly on g."""
    out = _UNIFORM_RULES[kind](g)
    return {u: out[u] for u in g.nodes}


def _corrupt_one(kind: str, g: Graph, p: dict, u: int, r) -> None:
    nbrs = g.neighbors(u)
    if kind == "MIS":
        p[u] = 1 - p[u]
    elif kind == "MAXIMAL_MATCHING":
        options = [v for v in nbrs if v != p[u]]
        if p[u] is not None:
            options.append(None)
        if options:
            p[u] = options[r.randrange(len(options))]
    elif kind == "VERTEX_COLORING":
        options = [c for c in range(1, g.delta + 2) if c != p[u]]
        if options:
            p[u] = options[r.randrange(len(options))]
    else:
        if not nbrs:
            return
        v = nbrs[r.randrange(len(nbrs))]
        hi = max(1, 2 * g.delta - 1)
        options = [c for c in range(1, hi + 1) if c != p[u][v]]
        if options:
            p[u] = dict(p[u])
            p[u][v] = options[r.randrange(len(options))]


def corrupt(kind: str, g: Graph, solution: dict, k: int, seed: int) -> dict:
    """Re-randomize the outputs of k seeded-chosen nodes."""
    p = dict(solution)
    r = _rng(seed, "corrupt", kind, k)
    for u in r.sample(sorted(g.nodes), min(k, g.n)):
        _corrupt_one(kind, g, p, u, r)
    return p


def reference(kind: str, g: Graph, *, pattern: str = None,
              tree: RootedTree = None, rows: int = None, cols: int = None,
              ids: list = None) -> dict:
    """What a run's predictions start from: the solved solution, which
    corrupt() then changes, or the named pattern, which is used as is.
    Neither is ever changed in place.  ids are the identifiers of a grid
    in position order, row major; sorted by default, as INCREASING ids
    are placed."""
    if pattern is None:
        return solve(kind, g)
    if kind != "MIS":
        raise ValueError("patterns are defined for MIS predictions only")
    if pattern == "ALL_ONES":
        return {u: 1 for u in g.nodes}
    if pattern == "ALL_ZEROS":
        return {u: 0 for u in g.nodes}
    if pattern == "GRID_4BLOCK":
        if rows is None or cols is None or rows * cols != g.n:
            raise ValueError("GRID_4BLOCK needs matching rows and cols")
        ids = ids or sorted(g.nodes)
        p = {}
        for i in range(rows):
            for j in range(cols):
                black = (i % 4 < 2) == (j % 4 < 2)
                p[ids[i * cols + j]] = 1 if black else 0
        return p
    if pattern == "MOD3_LINE":
        if tree is None:
            raise ValueError("MOD3_LINE needs a rooted tree")
        depth = {tree.root: 0}
        frontier = [tree.root]
        while frontier:
            u = frontier.pop()
            for v in tree.children(u):
                depth[v] = depth[u] + 1
                frontier.append(v)
        return {u: 0 if depth[u] % 3 == 0 else 1 for u in g.nodes}
    raise ValueError(f"unknown pattern {pattern!r}")


# ---------------------------------------------------------------------------
# prediction files


def parse_predictions(kind: str, text: str, nodes=None) -> dict:
    """The predictions of a prediction or outputs file: one `u value` line
    per node, `-` for no value, or for edge colouring one `u v c` line per
    edge end, read as {u: {v: c}}.  A line that cannot be read, a second
    line for one node or edge end, or a line for a node not in nodes (when
    given) is an error naming the line."""
    edge = kind == "EDGE_COLORING"
    p: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.split("#", 1)[0].strip()
        if not raw:
            continue
        parts = raw.split()
        try:
            if len(parts) != (3 if edge else 2):
                raise ValueError(f"bad {'edge ' if edge else ''}prediction "
                                 f"line {raw!r}")
            u = int(parts[0])
            if nodes is not None and u not in nodes:
                raise ValueError(f"node {u} is not in the graph")
            if edge:
                v, c = int(parts[1]), int(parts[2])
                slots = p.setdefault(u, {})
                if v in slots:
                    raise ValueError(f"edge {u} {v} repeated")
                slots[v] = c
            elif u in p:
                raise ValueError(f"node {u} repeated")
            else:
                p[u] = None if parts[1] == "-" else int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return p
