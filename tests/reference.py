"""Reference checks computed from scratch, the independent side of the
differential tests against predsync.audit's incremental pass.  Nothing
under src/ needs them."""

from predsync.graphs import Graph, node_rule


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


def snapshot_active(outcome, g: Graph, rnd: int) -> set:
    """Nodes not yet terminated at the end of round rnd."""
    if rnd < 0 or rnd > outcome.total_rounds:
        raise ValueError(f"round {rnd} out of range 0..{outcome.total_rounds}")
    return {u for u in g.nodes if outcome.term_round.get(u, rnd + 1) > rnd}
