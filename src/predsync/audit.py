"""Extendability auditor.

Checks, at each checkpoint round, that the partial output accumulated so far
can still be completed to a correct solution.  The partial output comes from
the engine's output record (Outcome.output_log), so no trace is needed.
The checks are the problem-specific characterizations below, one rule per
node that reads only the node's closed neighbourhood; each is sufficient for
extendability (a greedy completion of the undecided part always exists once
they hold).
"""

from __future__ import annotations

from .graphs import Graph


def partial_outputs(outcome, upto_round: int) -> dict:
    """Outputs assigned by the end of the given round, in assignment order."""
    partial: dict = {}
    for rnd, node, slot in outcome.output_log:
        if rnd > upto_round:
            break
        partial.setdefault(node, {})[slot] = outcome.outputs[node][slot]
    return partial


_UNSET = object()  # no "y" output yet


def _y(partial, u):
    return partial.get(u, {}).get("y", _UNSET)


def _rule_mis(g: Graph, partial, u) -> str:
    value = _y(partial, u)
    if value is _UNSET:
        return ""
    if value == 1:
        for v in g.neighbors(u):
            if _y(partial, v) == 1:
                return f"adjacent nodes {u},{v} both joined"
    elif value == 0:
        if not any(_y(partial, v) == 1 for v in g.neighbors(u)):
            return f"node {u} output 0 with no joined neighbor"
    else:
        return f"node {u} output {value!r}"
    return ""


def _rule_matching(g: Graph, partial, u) -> str:
    mate = _y(partial, u)
    if mate is _UNSET:
        return ""
    if mate is None:
        for v in g.neighbors(u):
            if _y(partial, v) in (_UNSET, None, u):
                return f"node {u} output - but neighbor {v} is not matched away"
    else:
        if mate not in g.adjacency[u]:
            return f"node {u} matched to non-neighbor {mate}"
        if _y(partial, mate) != u:
            return f"match {u}->{mate} not mutual"
    return ""


def _rule_vertex_coloring(g: Graph, partial, u) -> str:
    c = _y(partial, u)
    if c is _UNSET:
        return ""
    if not isinstance(c, int) or not 1 <= c <= g.delta + 1:
        return f"node {u} color {c!r} out of range"
    for v in g.neighbors(u):
        if _y(partial, v) == c:
            return f"adjacent nodes {u},{v} share color {c}"
    return ""


def _rule_edge_coloring(g: Graph, partial, u) -> str:
    hi = max(1, 2 * g.delta - 1)
    seen = set()
    for v, c in partial[u].items():
        if v not in g.adjacency[u]:
            return f"node {u} colored non-incident edge to {v}"
        if not isinstance(c, int) or not 1 <= c <= hi:
            return f"edge {{{u},{v}}} color {c!r} out of range"
        if c in seen:
            return f"node {u} used color {c} on two edges"
        seen.add(c)
        other = partial.get(v, {}).get(u)
        if other != c:
            return f"edge {{{u},{v}}} colored {c} at {u} but {other!r} at {v}"
    return ""


_RULES = {
    "MIS": _rule_mis,
    "MAXIMAL_MATCHING": _rule_matching,
    "VERTEX_COLORING": _rule_vertex_coloring,
    "EDGE_COLORING": _rule_edge_coloring,
}


def check_extendable(kind: str, g: Graph, partial) -> str:
    """Empty string when the partial output is extendable; otherwise the
    message of the first failing node in the partial's order."""
    rule = _RULES[kind]
    for u in partial:
        msg = rule(g, partial, u)
        if msg:
            return msg
    return ""


def audit_run(kind: str, g: Graph, outcome, checkpoints) -> list[str]:
    """Extendability violations over all checkpoint rounds (empty = clean).

    Replays the output record once over the sorted checkpoints, growing the
    partial output in place; at each checkpoint only the nodes that got an
    output since the previous one, and their neighbours, are rechecked.
    """
    rule = _RULES[kind]
    log = outcome.output_log
    partial: dict = {}
    rank: dict = {}  # node -> position in the partial's order
    failing: dict = {}  # node -> message of its failing rule
    verdict: dict = {}  # checkpoint round -> first failing message
    i = 0
    for rnd in sorted({r for r in checkpoints if r <= outcome.total_rounds}):
        touched = set()
        while i < len(log) and log[i][0] <= rnd:
            _, node, slot = log[i]
            i += 1
            if node not in partial:
                partial[node] = {}
                rank[node] = len(rank)
            partial[node][slot] = outcome.outputs[node][slot]
            touched.add(node)
        recheck = set(touched)
        for u in touched:
            recheck.update(g.neighbors(u))
        for u in recheck & partial.keys():
            msg = rule(g, partial, u)
            if msg:
                failing[u] = msg
            else:
                failing.pop(u, None)
        if failing:
            verdict[rnd] = failing[min(failing, key=rank.__getitem__)]
    return [f"round {rnd}: {verdict[rnd]}" for rnd in checkpoints if rnd in verdict]


def even_rounds(outcome) -> list[int]:
    """Checkpoint list for a bare phased run: every even round."""
    return list(range(2, outcome.total_rounds + 1, 2))
