"""Extendability auditor: it reports violations with exact messages, and its
incremental replay of the output record agrees with checking a partial
output read from the trace at every checkpoint."""

import random

from predsync import measures
from predsync.audit import audit_run
from predsync.engine import Outcome, Step, simulate
from predsync.graphs import (line, random_connected_graph, random_graph,
                             validate)
from predsync.templates import build_template
from reference import check_extendable, partial_outputs, rule_audit
from test_rules import _seeded_outputs


class Outputs:
    """Scripted program: node -> {round: outputs}.  A node sends nothing,
    assigns the outputs listed for each round, and terminates after its
    last listed round."""

    def __init__(self, plan):
        self.plan = plan

    def start(self, view):
        plan = self.plan.get(view.id, {})
        last = max(plan, default=1)

        class B:
            def compose(self, rnd):
                return {}

            def process(self, rnd, inbox):
                return Step(outputs=dict(plan.get(rnd, {})), terminate=rnd >= last)

        return B()


def _audit(kind, g, plan, checkpoints):
    out = simulate(g, Outputs(plan))
    return audit_run(kind, g, out, checkpoints)[1]


# detection: one scripted non-extendable run per problem


def test_mis_violations_reported():
    plan = {1: {1: {"y": 0}}, 2: {1: {"y": 1}}, 3: {1: {"y": 1}},
            4: {2: {"y": 2}}}
    assert _audit("MIS", line(4), plan, [1, 2]) == [
        "round 1: adjacent nodes 2,3 both joined",
        "round 2: adjacent nodes 2,3 both joined",
    ]
    # only node 4 breaks a rule once 2 and 3 are fixed
    plan[3] = {1: {"y": 0}}
    assert _audit("MIS", line(4), plan, [1, 2]) == ["round 2: node 4 output 2"]


def test_mis_violation_cleared_by_a_later_output():
    plan = {1: {1: {"y": 0}}, 2: {2: {"y": 1}}, 3: {2: {"y": 0}}}
    msg = "round 1: node 1 output 0 with no joined neighbor"
    assert _audit("MIS", line(3), plan, [1, 2]) == [msg]
    # checkpoints keep their given order and repeats; rounds past the end
    # of the run are skipped
    assert _audit("MIS", line(3), plan, [2, 1, 1, 99]) == [msg, msg]


def test_matching_violations_reported():
    plan = {1: {1: {"y": 2}}, 2: {1: {"y": 1}}, 4: {1: {"y": None}},
            3: {2: {"y": 4}}}
    # in round 2 nodes 3 and 4 both fail; 4 got its output first
    assert _audit("MAXIMAL_MATCHING", line(4), plan, [1, 2]) == [
        "round 1: node 4 output - but neighbor 3 is not matched away",
        "round 2: node 4 output - but neighbor 3 is not matched away",
    ]
    plan = {1: {1: {"y": None}}, 2: {2: {"y": None}}}
    assert _audit("MAXIMAL_MATCHING", line(2), plan, [1, 2]) == [
        "round 1: node 1 output - but neighbor 2 is not matched away",
        "round 2: node 1 output - but neighbor 2 is not matched away",
    ]
    plan = {1: {1: {"y": 3}}, 2: {1: {"y": 3}}, 3: {2: {"y": 4}}, 4: {2: {"y": 2}}}
    assert _audit("MAXIMAL_MATCHING", line(4), plan, [1, 2]) == [
        "round 1: node 1 matched to non-neighbor 3",
        "round 2: node 1 matched to non-neighbor 3",
    ]
    plan = {2: {1: {"y": 3}}, 3: {2: {"y": 4}}, 4: {2: {"y": 3}}}
    assert _audit("MAXIMAL_MATCHING", line(4), plan, [1, 2]) == [
        "round 1: match 2->3 not mutual",
        "round 2: match 2->3 not mutual",
    ]


def test_vertex_coloring_violations_reported():
    plan = {2: {1: {"y": 2}}, 3: {1: {"y": 4}}, 1: {2: {"y": 2}}}
    # node 1's output in round 2 makes node 2, a neighbor that got its
    # output first, fail
    assert _audit("VERTEX_COLORING", line(3), plan, [1, 2]) == [
        "round 1: node 3 color 4 out of range",
        "round 2: adjacent nodes 2,1 share color 2",
    ]


def test_edge_coloring_violations_reported():
    plan = {1: {1: {2: 1}}, 2: {1: {1: 1}, 2: {3: 1}}, 3: {1: {2: 2}}}
    assert _audit("EDGE_COLORING", line(3), plan, [1, 2]) == [
        "round 1: edge {3,2} colored 2 at 3 but None at 2",
        "round 2: node 2 used color 1 on two edges",
    ]
    plan = {1: {1: {3: 1}}, 2: {1: {1: 4}}}
    assert _audit("EDGE_COLORING", line(3), plan, [1]) == [
        "round 1: node 1 colored non-incident edge to 3"]
    assert _audit("EDGE_COLORING", line(3), {2: {1: {1: 4}}}, [1]) == [
        "round 1: edge {2,1} color 4 out of range"]


# differential: the incremental replay against the checker run on a partial
# read from the trace events at every checkpoint


def _parsed_partial(outcome, upto_round):
    partial = {}
    for rnd, node, event, key, value in outcome.events():
        if event != "OUTPUT" or rnd > upto_round:
            continue
        partial.setdefault(node, {})[key] = value
    return partial


def _reference_audit(kind, g, outcome, checkpoints):
    problems = []
    for rnd in checkpoints:
        if rnd > outcome.total_rounds:
            continue
        msg = check_extendable(kind, g, _parsed_partial(outcome, rnd))
        if msg:
            problems.append(f"round {rnd}: {msg}")
    return problems


def _agree(kind, g, out, checkpoints):
    """All three audits agree on every round; returns the violations
    found."""
    every = list(range(0, out.total_rounds + 2))
    violation = validate(kind, g, out.solution(kind, g))
    for cps in (checkpoints, every):
        expected = _reference_audit(kind, g, out, cps)
        assert audit_run(kind, g, out, cps) == (violation, expected)
        assert rule_audit(kind, g, out, cps) == (violation, expected)
    for rnd in every:
        assert partial_outputs(out, rnd) == _parsed_partial(out, rnd)
    return len(expected)


_PROBLEMS = ("MIS", "MAXIMAL_MATCHING", "VERTEX_COLORING", "EDGE_COLORING")


def test_audit_matches_reference_on_seeded_template_runs():
    runs = [(kind, template) for kind in _PROBLEMS
            for template in ("simple", "consecutive")]
    runs += [("MIS", "interleaved"), ("MIS", "parallel")]
    for kind, template in runs:
        inst = build_template(kind, template)
        for seed in range(3):
            g = random_connected_graph(8 + 3 * seed, 0.3, seed)
            for k in (0, 2, 5):
                p = measures.corrupt(kind, g, measures.reference(kind, g),
                                     k, seed)
                out = simulate(g, inst.program, p, inst.max_rounds(g))
                cps = inst.program.checkpoints(g, out.total_rounds)
                assert _agree(kind, g, out, cps) == 0


def _faulty_plan(kind, g, r, rounds):
    """Random outputs, right or wrong, spread over the given rounds."""
    plan = {}
    nodes = list(g.nodes)
    for u in g.nodes:
        if r.random() < 0.2:
            continue  # never outputs
        if kind == "EDGE_COLORING":
            slots = list(g.neighbors(u))
            strangers = [v for v in nodes if v != u and v not in slots]
            if strangers and r.random() < 0.1:
                slots.append(r.choice(strangers))
            for v in slots:
                rnd = r.randint(1, rounds)
                plan.setdefault(u, {}).setdefault(rnd, {})[v] = r.randint(1, 2 * g.delta + 1)
            continue
        if kind == "MIS":
            y = r.choice((0, 0, 1, 1, 2))
        elif kind == "MAXIMAL_MATCHING":
            y = r.choice(g.neighbors(u) + (None,) * 2 + (r.choice(nodes),))
        else:
            y = r.randint(1, g.delta + 2)
        plan[u] = {r.randint(1, rounds): {"y": y}}
    return plan


def test_audit_matches_reference_on_faulty_scripted_runs():
    for kind in _PROBLEMS:
        found = 0
        for seed in range(25):
            r = random.Random(f"{kind}-{seed}")
            g = random_graph(4 + seed % 9, 0.35, seed)
            program = Outputs(_faulty_plan(kind, g, r, 1 + seed % 5))
            out = simulate(g, program)
            found += _agree(kind, g, out,
                            sorted(r.sample(range(out.total_rounds + 2), 2)))
        assert found > 0, kind


def test_mask_filter_agrees_with_the_rule_alone():
    """The filtered audit gives what node_rule alone gives, on the random
    invalid outputs of test_rules, each output spread over 1-4 rounds (an
    edge colouring slot by slot) and audited at random checkpoints."""
    found = set()
    for n, (kind, g, final) in enumerate(_seeded_outputs(complete=False)):
        r = random.Random(n)
        rounds = r.randint(1, 4)
        log = []
        for u, value in final.items():
            if kind != "EDGE_COLORING":
                log.append((r.randint(1, rounds), u, "y", value))
            elif isinstance(value, dict):
                log += [(r.randint(1, rounds), u, v, c) for v, c in value.items()]
        log.sort(key=lambda entry: entry[0])
        outputs = {u: {} for u in g.nodes}
        for _, u, slot, value in log:
            outputs[u][slot] = value
        outcome = Outcome(outputs, dict.fromkeys(g.nodes, rounds), rounds,
                          [entry[:3] for entry in log])
        cps = sorted(r.sample(range(rounds + 2), 2))
        got = audit_run(kind, g, outcome, cps)
        assert got == rule_audit(kind, g, outcome, cps), (kind, g.adjacency, log)
        found.add((kind, bool(got[1])))
    assert len(found) == 8  # each problem, clean and not
    # a colour out of range can still equal a neighbour's: 2.0 == 2
    outcome = Outcome({1: {"y": 2.0}, 2: {"y": 2}}, {1: 1, 2: 1}, 1,
                      [(1, 2, "y"), (1, 1, "y")])
    assert audit_run("VERTEX_COLORING", line(2), outcome, [1]) == rule_audit(
        "VERTEX_COLORING", line(2), outcome, [1])
