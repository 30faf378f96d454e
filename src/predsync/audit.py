"""The correctness pass over one run: final validity and extendability.

It replays the engine's output record (Outcome.output_log) once, so no
trace is needed.  At each checkpoint round, the partial output accumulated
so far must still be completable to a correct solution; after the last
round, the output must be one.  Both checks are the problem's correctness
rule, graphs.node_rule: it reads only a node's closed neighbourhood and
treats an output slot not assigned yet as undecided.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

from .graphs import Graph, first_violation, node_rule


def audit_run(kind: str, g: Graph, outcome, checkpoints) -> tuple:
    """(violation, messages): the final output's violation as graphs.validate
    reports it (None when valid), and the extendability violations over the
    checkpoint rounds (empty = clean).

    Replays the output record once over the sorted checkpoints and then to
    total_rounds, growing the output in place.  A new output rechecks only
    the nodes whose rule reads it: an edge-coloring slot v of node u is read
    by u and v, any other output of u by u's closed neighbourhood.
    """
    rule = node_rule(kind, g)
    per_edge = kind == "EDGE_COLORING"
    adj = g.adjacency
    log = outcome.output_log
    outputs = outcome.outputs
    end = outcome.total_rounds
    out: dict = {}  # the output so far, shaped as for graphs.validate
    order: dict = {}  # nodes in the partial's order, that of their first output
    failing: dict = {}  # node -> Violation of its failing rule
    verdict: dict = {}  # checkpoint round -> first failing message
    i = 0
    for rnd in sorted({r for r in checkpoints if r <= end} | {end}):
        j = bisect_right(log, rnd, i, key=itemgetter(0))
        recheck = set()
        for _, node, slot in log[i:j]:
            order.setdefault(node)
            if per_edge:
                out.setdefault(node, {})[slot] = outputs[node][slot]
                recheck.add(node)
                recheck.add(slot)
            elif slot == "y":
                out[node] = outputs[node][slot]
                recheck.add(node)
                recheck.update(adj[node])
        i = j
        for u in recheck & out.keys():
            found = rule(out, u)
            if found is None:
                failing.pop(u, None)
            else:
                failing[u] = found
        if failing:
            verdict[rnd] = failing[next(u for u in order if u in failing)].detail
    if per_edge:  # a node that colored no edge has an empty map
        for u in g.nodes:
            out.setdefault(u, {})
    messages = [f"round {rnd}: {verdict[rnd]}"
                for rnd in checkpoints if rnd in verdict]
    return first_violation(kind, g, out, failing.get), messages
