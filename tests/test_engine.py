"""Round executor semantics."""

import pytest

from predsync import measures as M, mis, problems
from predsync.cli import RUN_ERRORS
from predsync.engine import (NEVER, NonTermination, ProtocolViolation, Step,
                             default_max_rounds, simulate)
from predsync.graphs import (build_graph, line, random_connected_graph,
                             random_tree)
from predsync.templates import build_template

from helpers import program, undecided
from reference import snapshot_active
from test_wake import MATRIX, _crashes, _matrix


class Script:
    """Program driven by per-node dicts: round -> (outbox, outputs, stop)."""

    def __init__(self, plans):
        self.plans = plans

    def start(self, view):
        plan = self.plans.get(view.id, {})

        class B:
            def compose(self, rnd):
                return plan.get(rnd, ({}, {}, False))[0]

            def process(self, rnd, inbox):
                _, outputs, stop = plan.get(rnd, ({}, {}, True))
                return Step(outputs=dict(outputs), terminate=stop)

        return B()


def test_terminating_node_outbox_still_delivered():
    g = build_graph([1, 2], [(1, 2)])
    seen = {}

    class P:
        def start(self, view):
            other = view.neighbor_ids[0]

            class B:
                def compose(self, rnd):
                    return {other: "hi"} if view.id == 1 and rnd == 1 else {}

                def process(self, rnd, inbox):
                    if view.id == 2:
                        seen.update(inbox)
                    return Step(outputs={"y": 0}, terminate=True)

            return B()

    simulate(g, P())
    assert seen == {1: "hi"}


def test_messages_to_terminated_nodes_dropped():
    g = build_graph([1, 2], [(1, 2)])
    got = []

    class P:
        def start(self, view):
            other = view.neighbor_ids[0]

            class B:
                def compose(self, rnd):
                    return {other: rnd} if view.id == 1 else {}

                def process(self, rnd, inbox):
                    if view.id == 2:
                        got.extend(inbox.values())
                        return Step(outputs={"y": 0}, terminate=True)
                    if rnd == 2:
                        return Step(outputs={"y": 1}, terminate=True)
                    return Step()

            return B()

    simulate(g, P())
    assert got == [1]  # node 2 terminated in round 1; round-2 message dropped


def test_send_to_non_neighbor_rejected():
    g = line(3)
    plans = {1: {1: ({3: "x"}, {}, True)}}
    with pytest.raises(ProtocolViolation):
        simulate(g, Script(plans))


@pytest.mark.parametrize("trace", [False, True])
def test_non_neighbor_violation_names_smallest_recipient(trace):
    # node 1 of the path 1-2-3-4 sends to its neighbor 2 and to 4 and 3
    g = line(4)
    plans = {1: {1: ({}, {}, False), 2: ({4: "a", 2: "b", 3: "c"}, {}, True)}}
    with pytest.raises(ProtocolViolation) as exc:
        simulate(g, Script(plans), trace=trace)
    assert str(exc.value) == "node 1 sent to non-neighbor 3 in round 2"


def test_write_once_outputs():
    g = build_graph([1], [])
    plans = {1: {1: ({}, {"y": 0}, False), 2: ({}, {"y": 1}, True)}}
    with pytest.raises(ProtocolViolation):
        simulate(g, Script(plans))


def test_multi_slot_outputs_are_assigned_in_repr_order():
    """A step's slots reach the output record and the trace sorted by
    repr, the order that sorting (slot, value) pairs by repr gave."""
    g = build_graph([1, 2], [(1, 2)])
    ints = {9: "a", 100: "b", 1: "c", 10: "d"}
    strs = {"b": 1, "ab": 2, "B": 3, "a": 4}
    plans = {1: {1: ({}, ints, True)}, 2: {1: ({}, strs, True)}}
    out = simulate(g, Script(plans), trace=True)
    expected = {1: [1, 10, 100, 9], 2: ["B", "a", "ab", "b"]}
    for u, slots in ((1, ints), (2, strs)):
        assert [s for s, _ in sorted(slots.items(), key=repr)] == expected[u]
    assert out.output_log == [(1, u, s) for u in (1, 2) for s in expected[u]]
    assert [(ev.node, ev.key) for ev in out.trace if ev.event == "OUTPUT"] == [
        (u, s) for u in (1, 2) for s in expected[u]]


def test_non_termination_guard():
    g = build_graph([1], [])
    plans = {1: {r: ({}, {}, False) for r in range(1, 100)}}
    with pytest.raises(NonTermination):
        simulate(g, Script(plans), max_rounds=5)
    assert default_max_rounds(g) == 24


def test_crash_schedule_forces_end_of_round_termination():
    g = build_graph([1, 2], [(1, 2)])
    inboxes = []

    class P:
        def start(self, view):
            other = view.neighbor_ids[0]

            class B:
                def compose(self, rnd):
                    return {other: (view.id, rnd)}

                def process(self, rnd, inbox):
                    if view.id == 2:
                        inboxes.append(dict(inbox))
                        return Step(terminate=rnd == 2)
                    return Step()

            return B()

    out = simulate(g, P(), crash_schedule={1: {1}})
    # node 1 crashed at the end of round 1; its round-1 message was delivered
    assert inboxes == [{1: (1, 1)}, {}]
    assert out.term_round[1] == 1 and out.term_round[2] == 2


def test_trace_and_snapshot():
    g = build_graph([1, 2], [(1, 2)])
    plans = {
        1: {1: ({2: "m"}, {"y": 1}, True)},
        2: {1: ({}, {}, False), 2: ({}, {"y": 0}, True)},
    }
    out = simulate(g, Script(plans), trace=True)
    lines = out.trace_lines()
    assert "1,1,SEND,2:'m'" in lines
    assert "1,1,OUTPUT,y=1" in lines
    assert "2,2,TERMINATE," in lines
    assert snapshot_active(out, g, 1) == {2}
    assert snapshot_active(out, g, 2) == set()
    assert undecided(out, g) == set()


def test_predictions_must_be_complete():
    g = line(3)
    with pytest.raises(ValueError):
        simulate(g, Script({}), predictions={1: 1})


class Sleeper:
    """Program that logs every call.  plans: node -> round -> (outbox, wake,
    stop); a round without a plan sends nothing, keeps the node awake and
    does not stop it."""

    def __init__(self, plans):
        self.plans = plans
        self.log = []  # (round, node, "compose" | "process", inbox)

    def start(self, view):
        plan = self.plans.get(view.id, {})
        log = self.log

        class B:
            def compose(self, rnd):
                log.append((rnd, view.id, "compose", None))
                return plan.get(rnd, ({}, None, False))[0]

            def process(self, rnd, inbox):
                log.append((rnd, view.id, "process", dict(inbox)))
                _, wake, stop = plan.get(rnd, ({}, None, False))
                return Step(outputs={"y": rnd} if stop else {},
                            terminate=stop, wake=wake)

        return B()

    def calls(self, node):
        return [(rnd, what) for rnd, u, what, _ in self.log if u == node]


def test_sleeping_node_not_stepped_before_its_wake_round():
    g = build_graph([1, 2], [(1, 2)])
    prog = Sleeper({1: {1: ({}, 5, False), 5: ({}, None, True)},
                    2: {3: ({}, None, True)}})
    out = simulate(g, prog)
    assert prog.calls(1) == [(1, "compose"), (1, "process"),
                             (5, "compose"), (5, "process")]
    assert out.term_round == {1: 5, 2: 3} and out.total_rounds == 5


def test_message_to_sleeper_calls_only_its_process():
    g = build_graph([1, 2], [(1, 2)])
    prog = Sleeper({1: {1: ({}, 9, False), 4: ({}, None, True)},
                    2: {3: ({1: "wake up"}, None, True)}})
    out = simulate(g, prog, trace=True)
    assert prog.calls(1) == [(1, "compose"), (1, "process"), (3, "process"),
                             (4, "compose"), (4, "process")]
    assert [inbox for rnd, u, what, inbox in prog.log
            if u == 1 and rnd == 3] == [{2: "wake up"}]
    assert "3,2,SEND,1:'wake up'" in out.trace_lines()
    assert out.term_round == {1: 4, 2: 3}


def test_stale_wake_entry_is_harmless():
    g = build_graph([1, 2], [(1, 2)])
    # node 1 sleeps to round 6, a message rouses it in round 2, and it goes
    # back to sleep, first to round 6 again (a second entry for the same
    # round), then from round 6 to round 8: round 6 steps it once, and the
    # entry left for round 6 never steps it again
    prog = Sleeper({1: {1: ({}, 6, False), 2: ({}, 6, False),
                        6: ({}, 8, False), 8: ({}, None, True)},
                    2: {2: ({1: "m"}, None, True)}})
    out = simulate(g, prog)
    assert prog.calls(1) == [(1, "compose"), (1, "process"), (2, "process"),
                             (6, "compose"), (6, "process"),
                             (8, "compose"), (8, "process")]
    assert out.term_round[1] == 8
    # roused before its wake round and then sent further: the old entry for
    # round 4 does not step it
    prog = Sleeper({1: {1: ({}, 4, False), 2: ({}, 7, False),
                        7: ({}, None, True)},
                    2: {2: ({1: "m"}, None, True)}})
    simulate(g, prog)
    assert prog.calls(1) == [(1, "compose"), (1, "process"), (2, "process"),
                             (7, "compose"), (7, "process")]


def test_crash_of_sleeping_node_ends_it_in_scheduled_round():
    g = build_graph([1, 2], [(1, 2)])
    prog = Sleeper({1: {1: ({}, 5, False)}, 2: {8: ({}, None, True)}})
    out = simulate(g, prog, crash_schedule={3: {1}}, trace=True)
    assert prog.calls(1) == [(1, "compose"), (1, "process")]  # not in round 5
    assert out.term_round == {1: 3, 2: 8}
    assert "3,1,TERMINATE," in out.trace_lines()
    # a message to a crashed sleeper is dropped, not delivered
    prog = Sleeper({1: {1: ({}, 10, False)}, 2: {4: ({1: "late"}, None, True)}})
    simulate(g, prog, crash_schedule={3: {1}})
    assert prog.calls(1) == [(1, "compose"), (1, "process")]


def test_all_nodes_asleep_forever_is_non_termination():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3)])
    prog = Sleeper({u: {1: ({}, NEVER, False)} for u in g.nodes})
    with pytest.raises(NonTermination) as asleep:
        simulate(g, prog, max_rounds=7)
    with pytest.raises(NonTermination) as awake:
        simulate(g, Script({u: {r: ({}, {}, False) for r in range(1, 9)}
                            for u in g.nodes}), max_rounds=7)
    assert str(asleep.value) == str(awake.value) == \
        "3 nodes still active after 7 rounds"
    assert len(prog.log) == 6  # one compose and one process per node


def _crash_cases():
    """(program, graph, tree, predictions, max_rounds, crash schedule):
    the crash-scheduled Linial and tree 3-coloring runs of
    test_acceptance's fault-tolerance criterion, and MIS templates with
    predictions under the same kind of schedule, on seeds 0..9."""
    for seed in range(10):
        g = random_connected_graph(5 + seed % 10, 0.35, seed)
        budget = problems.linial_rounds(g.d, g.delta)
        yield (program("vc.linial"), g, None, None, budget + 5,
               _crashes(g, seed, "crash-linial", budget))
        p = M.corrupt("MIS", g, M.reference("MIS", g), 2, seed)
        for template in ("simple", "interleaved", "parallel"):
            inst = build_template("MIS", template)
            yield (inst.program, g, None, p, inst.max_rounds(g),
                   _crashes(g, seed, f"crash-{template}", 3 * g.n))
        t = random_tree(5 + seed % 12, seed)
        budget = mis.gps_rounds(t.graph.d)
        yield (program("mis.tree_gps"), t.graph, t, None, budget + 5,
               _crashes(t.graph, seed, "crash-gps", budget))


def _ended(prog, g, p, max_rounds, **kwargs):
    """(error, None) for a run that raises, else (None, its records and
    trace)."""
    try:
        out = simulate(g, prog, p, max_rounds, **kwargs)
    except tuple(RUN_ERRORS) as exc:
        return f"{type(exc).__name__}: {exc}", None
    assert out.trace is None
    return None, (out.outputs, out.term_round, out.total_rounds,
                  out.output_log, out.sends, out.trace_lines())


def _same_runs(prog, g, p, max_rounds, **kwargs):
    """Two untraced runs end alike, and a traced run's events give the
    trace that the untraced run formats, line for line; True if the run
    ended without an error."""
    error, record = _ended(prog, g, p, max_rounds, **kwargs)
    assert _ended(prog, g, p, max_rounds, **kwargs) == (error, record)
    if error:
        return False
    traced = simulate(g, prog, p, max_rounds, trace=True, **kwargs)
    assert [ev.line() for ev in traced.trace] == record[-1]
    return True


@pytest.mark.parametrize("name", MATRIX)
def test_runs_repeat_and_trace_from_their_record(name):
    """The engine is deterministic, so a run's trace is formatted from its
    own send and output records and no run is simulated again to print
    one: over every template and registry program."""
    prog, cases, max_rounds = _matrix(name)
    ran = [_same_runs(prog, g, p, max_rounds(g), tree=rooted)
           for g, rooted, p in cases]
    assert any(ran)


def test_crashed_runs_repeat_and_trace_from_their_record():
    """As above under crash schedules, whose crashed nodes terminate in
    node order with the round's other terminations."""
    ran = [_same_runs(prog, g, p, max_rounds, tree=tree, crash_schedule=sched)
           for prog, g, tree, p, max_rounds, sched in _crash_cases()]
    assert sum(ran) >= 40
