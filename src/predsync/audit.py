"""Extendability auditor.

Checks, at each checkpoint round, that the partial output accumulated so far
can still be completed to a correct solution.  The partial output comes from
the engine's output record (Outcome.output_log), so no trace is needed.
The check is the problem's correctness rule, graphs.node_rule, the same one
graphs.validate applies to complete outputs: it reads only a node's closed
neighbourhood and treats an output slot not assigned yet as undecided.
"""

from __future__ import annotations

from .graphs import Graph, node_rule


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


def audit_run(kind: str, g: Graph, outcome, checkpoints) -> list[str]:
    """Extendability violations over all checkpoint rounds (empty = clean).

    Replays the output record once over the sorted checkpoints, growing the
    partial output in place; at each checkpoint only the nodes that got an
    output since the previous one, and their neighbours, are rechecked.
    """
    rule = node_rule(kind, g)
    per_edge = kind == "EDGE_COLORING"
    log = outcome.output_log
    out: dict = {}  # the partial output, shaped as for graphs.validate
    rank: dict = {}  # node -> position in the partial's order
    failing: dict = {}  # node -> message of its failing rule
    verdict: dict = {}  # checkpoint round -> first failing message
    i = 0
    for rnd in sorted({r for r in checkpoints if r <= outcome.total_rounds}):
        touched = set()
        while i < len(log) and log[i][0] <= rnd:
            _, node, slot = log[i]
            i += 1
            rank.setdefault(node, len(rank))
            value = outcome.outputs[node][slot]
            if per_edge:
                out.setdefault(node, {})[slot] = value
            elif slot == "y":
                out[node] = value
            touched.add(node)
        recheck = set(touched)
        for u in touched:
            recheck.update(g.neighbors(u))
        for u in recheck & rank.keys():
            found = rule(out, u)
            if found is None:
                failing.pop(u, None)
            else:
                failing[u] = found.detail
        if failing:
            verdict[rnd] = failing[min(failing, key=rank.__getitem__)]
    return [f"round {rnd}: {verdict[rnd]}" for rnd in checkpoints if rnd in verdict]

