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
from collections import Counter
from itertools import islice
from operator import itemgetter

from .graphs import Graph, first_violation, node_rule


def _flagger(kind: str, g: Graph, index: dict):
    """flag(new, out) -> mask over g.nodes (bit i is g.nodes[i]) that holds
    every node whose node_rule fails on out, and perhaps a few that pass,
    for MIS, matching and vertex colouring.  new lists the (index, node,
    value) outputs added to out since the last call.  The masks it keeps
    only grow, as outputs are never taken back.  index maps each node to
    its index."""
    nbits = g.neighbor_bits
    if kind == "MIS":
        ones = zeros = covered = bad = 0

        def flag(new, out):
            nonlocal ones, zeros, covered, bad
            for i, _, value in new:
                b, nb = 1 << i, nbits[i]
                if value == 1:
                    if nb & ones:  # adjacent nodes both joined
                        bad |= b | nb & ones
                    ones |= b
                    covered |= nb
                elif value == 0:
                    zeros |= b
                else:
                    bad |= b
            return bad | zeros & ~covered  # a 0 with no joined neighbour
    elif kind == "MAXIMAL_MATCHING":
        nbrs = g.neighbor_sets
        matched = paired = 0  # paired: both ends output each other
        lonely = []  # indices of None outputs with a neighbour not paired

        def flag(new, out):
            nonlocal matched, paired, lonely
            for i, u, mate in new:
                if mate is None:
                    lonely.append(i)
                    continue
                matched |= 1 << i
                try:
                    adjacent = mate in nbrs[u]
                except TypeError:  # unhashable, so no node
                    adjacent = False
                if adjacent and out.get(mate) == u:
                    paired |= 1 << i | 1 << index[mate]
            lonely = [i for i in lonely if nbits[i] & ~paired]
            return matched & ~paired | sum(1 << i for i in lonely)
    else:  # VERTEX_COLORING
        hi = g.delta + 1
        classes = {}  # color -> its nodes
        bad = near_bad = decided = 0

        def flag(new, out):
            nonlocal bad, near_bad, decided
            for i, _, c in new:
                b, nb = 1 << i, nbits[i]
                decided |= b
                if isinstance(c, int) and 1 <= c <= hi:
                    same = classes.get(c, 0)
                    if nb & same:  # adjacent nodes share c
                        bad |= b | nb & same
                    classes[c] = same | b
                else:  # out of range, and maybe equal to a neighbour's
                    bad |= b
                    near_bad |= nb
            return bad | near_bad & decided
    return flag


def audit_run(kind: str, g: Graph, outcome, checkpoints) -> tuple:
    """(violation, messages): the final output's violation as graphs.validate
    reports it (None when valid), and the extendability violations over the
    checkpoint rounds (empty = clean).

    Replays the output record once over the sorted checkpoints and then to
    total_rounds, growing the output in place.  A new output rechecks only
    the nodes whose rule reads it: an edge-coloring slot v of node u is read
    by u and v, any other output of u by u's closed neighbourhood.  For
    the other problems, a mask filter (_flagger) first narrows those to
    the nodes that may fail, so a clean checkpoint calls no rule.
    """
    rule = node_rule(kind, g)
    per_edge = kind == "EDGE_COLORING"
    nodes, nbits = g.nodes, g.neighbor_bits
    index = {u: i for i, u in enumerate(nodes)}
    flag = None if per_edge else _flagger(kind, g, index)
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
        if per_edge:
            # the engine records each slot once, and a node's slots are in
            # its outputs in record order: its output so far is a prefix
            new = log[i:j]
            count = Counter(map(itemgetter(1), new))
            for node, more in count.items():
                order.setdefault(node)
                mine, had = outputs[node], len(out.get(node, ())) + more
                out[node] = (mine if had == len(mine)
                             else dict(islice(mine.items(), had)))
            recheck = (count.keys() | set(map(itemgetter(2), new))) & out.keys()
        else:
            new, near = [], 0  # near: the closed neighbourhoods of new
            for _, node, slot in log[i:j]:
                order.setdefault(node)
                if slot == "y":
                    value = out[node] = outputs[node][slot]
                    at = index[node]
                    new.append((at, node, value))
                    near |= 1 << at | nbits[at]
            flagged = flag(new, out)
            if failing:
                for u in [u for u in failing if not flagged >> index[u] & 1]:
                    del failing[u]  # passes now
            recheck, near = [], flagged & near
            while near:
                low = near & -near
                recheck.append(nodes[low.bit_length() - 1])
                near ^= low
        i = j
        for u in recheck:
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
