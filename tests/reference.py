"""Reference checks and helpers computed from scratch: the independent
side of the differential tests against predsync.audit's incremental pass
and the one-build graph generators, and the graph and measure helpers that
only tests use.  Nothing under src/ needs them."""

import itertools
from collections.abc import Iterator, Mapping, Sequence
from functools import cache

from predsync.engine import (NodeView, NonTermination, ProtocolViolation,
                             default_max_rounds)
from predsync.graphs import (DEFAULT_ALPHA_CAP, DEFAULT_ENUM_CAP, ROOT,
                             CapExceeded, Graph, GraphError, RootedTree,
                             _assign_ids, _rng, build_graph, first_violation,
                             mis_bitmasks, node_rule, rooted_tree)
from predsync.measures import _mu2


def partial_outputs(outcome, upto_round: int) -> dict:
    """Outputs assigned by the end of the given round, in assignment order."""
    partial: dict = {}
    for rnd, node, slot in outcome.output_log:
        if rnd > upto_round:
            break
        partial.setdefault(node, {})[slot] = outcome.outputs[node][slot]
    return partial


def check_extendable(kind: str, g: Graph, partial) -> str:
    """Empty string when the partial output ({node: {slot: value}}) is
    extendable; otherwise the message of the first failing node in the
    partial's order."""
    rule = node_rule(kind, g)
    if kind == "EDGE_COLORING":
        out = partial  # the slots of a node are its edges
    else:
        out = {u: slots["y"] for u, slots in partial.items() if "y" in slots}
    for u in partial:
        found = rule(out, u)
        if found is not None:
            return found.detail
    return ""


def rule_audit(kind: str, g: Graph, outcome, checkpoints) -> tuple:
    """audit.audit_run's answer from node_rule alone: at each checkpoint,
    replay the output record up to it and recheck by node_rule every node
    whose rule reads an output so far, with no mask filter in front."""
    rule = node_rule(kind, g)
    per_edge = kind == "EDGE_COLORING"
    log, end = outcome.output_log, outcome.total_rounds
    out, order, failing, verdict = {}, {}, {}, {}
    for rnd in sorted({r for r in checkpoints if r <= end} | {end}):
        recheck = set()
        for at, node, slot in log:
            if at > rnd:
                break
            order.setdefault(node)
            value = outcome.outputs[node][slot]
            if per_edge:
                out.setdefault(node, {})[slot] = value
                recheck.update((node, slot))
            elif slot == "y":
                out[node] = value
                recheck.update((node, *g.adjacency[node]))
        for u in recheck & out.keys():
            found = rule(out, u)
            if found is None:
                failing.pop(u, None)
            else:
                failing[u] = found
        if failing:
            verdict[rnd] = failing[next(u for u in order if u in failing)].detail
    if per_edge:
        for u in g.nodes:
            out.setdefault(u, {})
    messages = [f"round {rnd}: {verdict[rnd]}"
                for rnd in checkpoints if rnd in verdict]
    return first_violation(kind, g, out, failing.get), messages


def unique_edge_colors(pred: Mapping) -> dict:
    """The predicted edge colours, by neighbour, that no other edge of the
    node is predicted: the tally of measures.edge_predictions, by
    counting each colour in a list."""
    colors = list(pred.values())
    return {v: c for v, c in pred.items() if colors.count(c) == 1}


def snapshot_active(outcome, g: Graph, rnd: int) -> set:
    """Nodes not yet terminated at the end of round rnd."""
    if rnd < 0 or rnd > outcome.total_rounds:
        raise ValueError(f"round {rnd} out of range 0..{outcome.total_rounds}")
    return {u for u in g.nodes if outcome.term_round.get(u, rnd + 1) > rnd}


def induced_subgraph(g: Graph, keep) -> Graph:
    keep = set(keep)
    unknown = keep - set(g.nodes)
    if unknown:
        raise GraphError("ID_OUT_OF_RANGE", f"unknown identifiers {sorted(unknown)}")
    edges = [(u, v) for u in keep for v in g.adjacency[u] if u < v and v in keep]
    return build_graph(sorted(keep), edges, g.d)


def edge_induced_subgraph(g: Graph, edges: Sequence[tuple[int, int]]) -> Graph:
    """Subgraph whose nodes are the endpoints of the given edges."""
    nodes = sorted({u for e in edges for u in e})
    return build_graph(nodes, list(edges), g.d)


def component_walk(adj: Mapping[int, Sequence[int]], keep) -> Iterator[list]:
    """The connected components of the subgraph that the nodes in keep (a
    set or a mapping keyed by node) induce in the graph adj, as node lists
    in walk order, by smallest member: the set-based reference of
    graphs.mask_components."""
    left = set(keep)
    for start in sorted(left):
        if start not in left:
            continue
        left.remove(start)
        comp = [start]
        for u in comp:  # a breadth-first walk: comp grows as it goes
            for v in adj[u]:
                if v in left:
                    left.remove(v)
                    comp.append(v)
        yield comp


def components(g: Graph) -> list[Graph]:
    """Connected components as induced subgraphs, sorted by smallest member;
    [g] itself when g is connected."""
    comps = list(component_walk(g.adjacency, g.adjacency))
    if len(comps) == 1:
        return [g]
    return [induced_subgraph(g, c) for c in comps]


def alpha_oracle(g: Graph, cap: int = DEFAULT_ALPHA_CAP) -> int:
    """Exact maximum independent set size, by a search over node sets that
    shares no code with the bitmask measures."""
    if g.n > cap:
        raise CapExceeded(f"alpha oracle capped at {cap} nodes, got {g.n}")
    return _alpha_sets(g.neighbor_sets, frozenset(g.nodes))


def _alpha_sets(nbrs, left: frozenset) -> int:
    """The largest independent set inside left.  Some largest one holds a
    node of degree at most 1 in left, so such a node is taken; otherwise
    a node of largest degree is either taken or dropped."""
    if not left:
        return 0
    degree = {u: len(nbrs[u] & left) for u in left}
    low = min(left, key=degree.get)
    if degree[low] <= 1:
        return 1 + _alpha_sets(nbrs, left - nbrs[low] - {low})
    top = max(left, key=degree.get)
    return max(1 + _alpha_sets(nbrs, left - nbrs[top] - {top}),
               _alpha_sets(nbrs, left - {top}))


def enumerate_mis(g: Graph) -> list[frozenset]:
    """All maximal independent sets as node sets, sorted: mis_bitmasks
    decoded.  Raises CapExceeded where mis_bitmasks returns None."""
    masks = mis_bitmasks(g)
    if masks is None:
        raise CapExceeded(f"MIS enumeration capped at {DEFAULT_ENUM_CAP} "
                          f"nodes, got {g.n}")
    return sorted((frozenset(u for i, u in enumerate(g.nodes) if m >> i & 1)
                   for m in masks), key=sorted)


def greedy_mis_rounds(g: Graph) -> dict:
    """The round in which each node of a standalone mis.greedy run ends, by
    phases: in phase p, each undecided node whose identifier beats every
    undecided neighbour joins and ends in round 2p - 1, and those undecided
    neighbours leave and end in round 2p."""
    left, end, phase = set(g.nodes), {}, 0
    while left:
        phase += 1
        joins = {u for u in left if all(v < u for v in g.neighbor_sets[u] & left)}
        leaves = {v for u in joins for v in g.neighbor_sets[u] & left}
        end.update(dict.fromkeys(joins, 2 * phase - 1))
        end.update(dict.fromkeys(leaves, 2 * phase))
        left -= joins | leaves
    return end


def vc_uniform_rounds(g: Graph) -> dict:
    """The round in which each node of a standalone vc.uniform run ends:
    a node colours itself the round after its last larger-identifier
    neighbour, and in round 1 when it has none."""
    end = {}
    for u in reversed(g.nodes):
        end[u] = 1 + max((end[v] for v in g.neighbor_sets[u] if v > u),
                         default=0)
    return end


def mm_uniform_rounds(g: Graph) -> dict:
    """The round in which each node of a standalone mm.uniform run ends, by
    phases of three rounds: a node with no neighbour ends in round 1; in
    phase p, each local maximum proposes to its smallest active neighbour,
    each proposed-to node accepts its largest proposer, every matched pair
    ends in round 3p, and so does every node that the matches of phase p
    leave with no active neighbour."""
    active = {u: set(nbrs) for u, nbrs in g.neighbor_sets.items() if nbrs}
    end = dict.fromkeys(set(g.nodes) - set(active), 1)
    phase = 0
    while active:
        phase += 1
        accepted = {}  # proposed-to node -> its largest proposer
        for u, nbrs in active.items():
            if max(nbrs) < u:
                v = min(nbrs)
                accepted[v] = max(accepted.get(v, u), u)
        matched = {*accepted, *accepted.values()}
        for w in matched:
            for x in active.pop(w):
                if x in active:
                    active[x].discard(w)
        alone = {u for u, nbrs in active.items() if not nbrs}
        for u in alone:
            del active[u]
        end.update(dict.fromkeys(matched | alone, 3 * phase))
    return end


def naive_simulate(g: Graph, program, predictions=None, max_rounds=None,
                   *, tree=None, crash_schedule=None) -> tuple:
    """engine.simulate the slow way, sharing with it only NodeView,
    default_max_rounds, its two error types and the program interface:
    (outputs, term_round as a list of (node, round), total rounds, output
    record, trace lines).  Every active node composes and processes in
    every round, whatever wake its Step names; each inbox is built from
    scratch in sender order, and a message to an ended node is dropped.
    A step's outputs are taken in repr order, and a round's ending nodes,
    crashed ones included, end in node order.  Trace lines are written as
    the events happen: a round's sends, then its outputs, then its ends."""
    max_rounds = default_max_rounds(g) if max_rounds is None else max_rounds
    nodes = sorted(g.nodes)
    nodes_of = {}
    for u in nodes:
        parent = None if tree is None else tree.parent[u]
        nodes_of[u] = program.start(NodeView(
            u, tuple(sorted(g.neighbor_sets[u])), g.n, g.d, g.delta,
            None if predictions is None else predictions[u],
            None if tree is None else parent == ROOT,
            None if parent == ROOT else parent))
    active, outputs = set(nodes), {u: {} for u in nodes}
    ended, record, lines = [], [], []
    rnd = 0
    while active:
        rnd += 1
        if rnd > max_rounds:
            raise NonTermination(f"{len(active)} nodes still active after "
                                 f"{max_rounds} rounds")
        stepped = sorted(active)
        outboxes = {}
        for u in stepped:
            outboxes[u] = nodes_of[u].compose(rnd)
            strangers = outboxes[u].keys() - g.neighbor_sets[u]
            if strangers:
                raise ProtocolViolation(f"node {u} sent to non-neighbor "
                                        f"{min(strangers)} in round {rnd}")
            lines += [f"{rnd},{u},SEND,{v}:{outboxes[u][v]!r}"
                      for v in sorted(outboxes[u])]
        ending = set()
        for v in stepped:
            inbox = {u: outboxes[u][v] for u in stepped if v in outboxes[u]}
            step = nodes_of[v].process(rnd, inbox)
            for slot in sorted(step.outputs, key=repr):
                if slot in outputs[v]:
                    raise ProtocolViolation(f"node {v} re-assigned output "
                                            f"{slot!r} in round {rnd}")
                outputs[v][slot] = step.outputs[slot]
                record.append((rnd, v, slot))
                lines.append(f"{rnd},{v},OUTPUT,{slot}={outputs[v][slot]!r}")
            if step.terminate:
                ending.add(v)
        ending |= active & set((crash_schedule or {}).get(rnd, ()))
        for u in sorted(ending):
            active.remove(u)
            ended.append((u, rnd))
            lines.append(f"{rnd},{u},TERMINATE,")
    return outputs, ended, rnd, record, lines


@cache
def labelled_graphs(n: int) -> tuple[Graph, ...]:
    """Every connected graph on the node set 1..n, each labelling apart;
    cached, so built once per process (1, 1, 4, 38 and 728 graphs for
    n = 1..5)."""
    nodes = range(1, n + 1)
    pairs = list(itertools.combinations(nodes, 2))
    graphs = []
    for bits in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        g = build_graph(nodes, edges)
        if len(list(component_walk(g.adjacency, g.adjacency))) == 1:
            graphs.append(g)
    return tuple(graphs)


@cache
def labelled_rooted_trees(n: int) -> tuple[RootedTree, ...]:
    """Every tree on the node set 1..n with every root: n ** (n - 1)
    rooted trees, cached like labelled_graphs."""
    trees = []
    for g in labelled_graphs(n):
        if len(list(g.edges())) != n - 1:
            continue
        for root in g.nodes:
            parent, walk = {root: ROOT}, [root]
            for u in walk:  # breadth first from the root
                for v in g.adjacency[u]:
                    if v not in parent:
                        parent[v] = u
                        walk.append(v)
            trees.append(rooted_tree(g, parent))
    return tuple(trees)


def random_graph(n: int, p: float, seed: int, id_scheme: str, d=None) -> Graph:
    """graphs.random_graph as it was before the generators shared _gnp."""
    if not 0.0 <= p <= 1.0:
        raise GraphError("MALFORMED_LINE", f"edge probability {p} outside [0,1]")
    if n < 0:
        raise GraphError("MALFORMED_LINE", "n must be nonnegative")
    ids, d = _assign_ids(n, id_scheme, seed, d)
    r = _rng(seed, "edges")
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if r.random() < p]
    return build_graph(ids, edges, d)


def random_connected_graph(n: int, p: float, seed: int, id_scheme: str, d=None) -> Graph:
    """graphs.random_connected_graph as it was: a G(n, p) Graph, whose edges
    and sorted nodes make a second Graph with a random spanning tree."""
    g = random_graph(n, p, seed, id_scheme, d)
    ids = list(g.nodes)
    r = _rng(seed, "spanning")
    order = ids[:]
    r.shuffle(order)
    extra = [(order[i], order[r.randrange(i)]) for i in range(1, n)]
    all_edges = set(g.edges()) | {(min(e), max(e)) for e in extra}
    return build_graph(ids, sorted(all_edges), g.d)


def mu1(s: Graph) -> int:
    return s.n


def mu2(s: Graph) -> int:
    return _mu2(s.n, alpha_oracle(s))


def format_predictions(kind: str, p: dict) -> str:
    """The inverse of measures.parse_predictions."""
    lines = []
    if kind == "EDGE_COLORING":
        for u in sorted(p):
            for v in sorted(p[u]):
                lines.append(f"{u} {v} {p[u][v]}")
    else:
        for u in sorted(p):
            value = "-" if p[u] is None else str(p[u])
            lines.append(f"{u} {value}")
    return "\n".join(lines) + "\n"
