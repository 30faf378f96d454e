"""Deterministic synchronous round executor (LOCAL model).

Each round, every active node first composes its outbox from its state at
the end of the previous round, then all messages are delivered, then each
active node processes its inbox, may assign output values, and may
terminate.  A node that terminates in round r still has its round-r outbox
delivered.  Each inbox lists its messages in sender order; a round's SEND
events come in sender order too, and each sender's in recipient order.

Waiting nodes cost nothing.  A node's Step may name its next wake round:
until then, its compose and process would do nothing unless a message
reaches it.  (A stage run names a stage round; to shift it, or to stop a
run, the stage driver returns a new Step.)  The engine steps only awake
nodes; a sleeping node is woken in its wake round, or earlier by a
message, in which case only its process runs in that round.  A NEVER
sleeper is kept only in asleep, for only a message wakes it.  Stepped or
not, every active node is in the same round, so node programs derive
their stage time from rnd, never from the number of calls they got.

A broadcast may hand one payload object to all its recipients, so a
receiver must never mutate a message it gets.  A node's NodeView, a run's
Outcome and each TraceEvent are immutable named tuples, and no code edits
a Step once returned: IDLE, SLEEP and STOP are shared.  Every run keeps a
send record, each non-empty outbox as compose returned it, and its trace
is formatted from that record, the output record and the termination
rounds once the run ends.  So compose returns a dict that its node never
edits again, and a sender never mutates a payload or an output value
after the round it sends or assigns it.

Delivery rests on one invariant: every active node is either awake, and
has an inbox this round, or asleep.  A message to any other node, one
that terminated or crashed, is dropped.
"""

from __future__ import annotations

import sys
from itertools import starmap
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Optional, Protocol

from .graphs import Graph, RootedTree, ROOT


class ProtocolViolation(RuntimeError):
    """A node broke the execution contract (bad send target, double output)."""


class NonTermination(RuntimeError):
    """max_rounds exhausted with active nodes remaining."""


NO_PREDICTIONS = None

# A wake round past every round bound: sleep until a message arrives.
NEVER = sys.maxsize


class NodeView(NamedTuple):
    """What a single node is allowed to know before the first round."""

    id: int
    neighbor_ids: tuple[int, ...]
    n: Optional[int]
    d: Optional[int]
    delta: Optional[int]
    prediction: Any = None
    is_root: Optional[bool] = None
    parent: Optional[int] = None


# the outputs of a step that outputs nothing: shared, so read-only
NO_OUTPUTS: Mapping = MappingProxyType({})


class Step:
    """Result of one node's process() call.  Shared, so never edited once
    returned: IDLE, SLEEP and STOP serve every node that they fit."""

    __slots__ = ("outputs", "terminate", "wake")

    def __init__(self, outputs: Mapping = NO_OUTPUTS, terminate: bool = False,
                 wake: Optional[int] = None):
        self.outputs = outputs  # output slot -> value
        self.terminate = terminate
        # next round to step this node if no message reaches it first; None
        # is the next round.  compose and process must do nothing before then.
        # An engine round to the engine, a stage round from a stage run.
        self.wake = wake


IDLE = Step()
SLEEP = Step(wake=NEVER)
STOP = Step(terminate=True)


class NodeBehavior(Protocol):
    def compose(self, rnd: int) -> Mapping[int, Any]: ...
    def process(self, rnd: int, inbox: Mapping[int, Any]) -> Step: ...


class NodeProgram(Protocol):
    def start(self, view: NodeView) -> NodeBehavior: ...


def _line(rnd: int, node: int, event: str, key, value) -> str:
    """The trace line of one event."""
    if event == "SEND":
        return f"{rnd},{node},SEND,{key}:{value!r}"
    if event == "OUTPUT":
        return f"{rnd},{node},OUTPUT,{key}={value!r}"
    return f"{rnd},{node},{event},"


class TraceEvent(NamedTuple):
    """One trace record: a SEND keeps its target and payload as key and
    value, an OUTPUT its slot and value; line() formats them."""

    round: int
    node: int
    event: str  # SEND, OUTPUT, TERMINATE
    key: Any = None
    value: Any = None

    def line(self) -> str:
        return _line(*self)


class Outcome(NamedTuple):
    outputs: dict  # node -> {slot: value}; empty dict = no output
    term_round: dict  # node -> round it terminated
    total_rounds: int
    # (round, node, slot) per output assignment, in trace order; traced or not
    output_log: list[tuple[int, int, Any]]
    trace: Optional[list[TraceEvent]] = None  # events() as TraceEvents, if traced
    # (round, node, outbox) per non-empty outbox, in trace order
    sends: list[tuple[int, int, Mapping]] = ()

    def solution(self, kind: str, g: Graph) -> dict:
        """Outputs reshaped for graphs.validate(); a node that never output
        its value is left out, so validate reports it as INCOMPLETE."""
        if kind == "EDGE_COLORING":
            return {u: dict(self.outputs.get(u, {})) for u in g.nodes}
        return {u: self.outputs[u]["y"] for u in g.nodes
                if "y" in self.outputs.get(u, {})}

    def events(self):
        """(round, node, event, key, value) per trace event, in trace order:
        per round the SENDs by sender, then recipient, then the OUTPUTs in
        process order, then the TERMINATEs in term_round's (ending) order."""
        outputs = self.outputs
        sends, outs = iter(self.sends), iter(self.output_log)
        terms = iter(self.term_round.items())
        send, out, term = next(sends, None), next(outs, None), next(terms, None)
        for rnd in range(1, self.total_rounds + 1):
            while send and send[0] == rnd:
                for v, payload in sorted(send[2].items()):
                    yield rnd, send[1], "SEND", v, payload
                send = next(sends, None)
            while out and out[0] == rnd:
                _, u, slot = out
                yield rnd, u, "OUTPUT", slot, outputs[u][slot]
                out = next(outs, None)
            while term and term[1] == rnd:
                yield rnd, term[0], "TERMINATE", None, None
                term = next(terms, None)

    def trace_lines(self) -> list[str]:
        return list(starmap(_line, self.events()))


def default_max_rounds(g: Graph) -> int:
    return 4 * g.n + 20


def simulate(g: Graph, program: NodeProgram, predictions=NO_PREDICTIONS,
             max_rounds: Optional[int] = None, *, tree: Optional[RootedTree] = None,
             trace: bool = False, crash_schedule: Optional[Mapping[int, set]] = None) -> Outcome:
    """Run the program on every node of g until all nodes terminate.

    crash_schedule maps a round number to the set of nodes forcibly
    terminated at the END of that round (used by fault-injection harnesses;
    a crashed node's outbox for the round is still delivered).
    """
    if max_rounds is None:
        max_rounds = default_max_rounds(g)
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if predictions is not NO_PREDICTIONS:
        missing = [u for u in g.nodes if u not in predictions]
        if missing:
            raise ValueError(f"predictions missing for nodes {missing}")
    n, d, delta, adjacency = g.n, g.d, g.delta, g.adjacency
    make_view = tuple.__new__  # NodeView(...) without its Python-level __new__
    behaviors = {}
    for u in g.nodes:
        pred = None if predictions is NO_PREDICTIONS else predictions[u]
        is_root = parent = None
        if tree is not None:
            p = tree.parent[u]
            is_root = p == ROOT
            parent = None if is_root else p
        behaviors[u] = program.start(make_view(
            NodeView, (u, adjacency[u], n, d, delta, pred, is_root, parent)))
    nbr_sets = g.neighbor_sets
    active = set(g.nodes)
    awake = sorted(active)  # nodes stepped this round, in node order
    asleep: dict[int, int] = {}  # sleeping node -> its wake round
    wakes: dict[int, list] = {}  # finite wake round -> nodes (stale entries allowed)
    outputs: dict[int, dict] = {u: {} for u in g.nodes}
    term_round: dict[int, int] = {}
    output_log: list[tuple[int, int, Any]] = []
    sends: list[tuple[int, int, Mapping]] = []

    rnd = 0
    while active:
        rnd += 1
        if rnd > max_rounds:
            raise NonTermination(f"{len(active)} nodes still active after {max_rounds} rounds")
        if rnd in wakes:
            due = []
            for u in wakes.pop(rnd):
                if asleep.get(u) == rnd:
                    del asleep[u]
                    due.append(u)
            if due:
                awake = sorted(awake + due)
        inboxes: dict[int, dict] = {u: {} for u in awake}
        roused = []  # sleeping recipients of this round's messages
        for u in awake:
            outbox = behaviors[u].compose(rnd)
            if not outbox:
                continue
            if not outbox.keys() <= nbr_sets[u]:
                v = min(outbox.keys() - nbr_sets[u])
                raise ProtocolViolation(f"node {u} sent to non-neighbor {v} in round {rnd}")
            sends.append((rnd, u, outbox))
            for v, payload in outbox.items():
                if v in inboxes:
                    inboxes[v][u] = payload
                elif v in asleep:  # v wakes to process this
                    inboxes[v] = {u: payload}
                    roused.append(v)
        order = awake
        if roused:
            for v in roused:
                del asleep[v]
            order = sorted(awake + roused)
        awake = []
        terminated_now = []
        for u in order:
            step = behaviors[u].process(rnd, inboxes[u])
            if assigned := step.outputs:
                out = outputs[u]
                for slot in sorted(assigned, key=repr) if len(assigned) > 1 else assigned:
                    if slot in out:
                        raise ProtocolViolation(
                            f"node {u} re-assigned output {slot!r} in round {rnd}")
                    out[slot] = assigned[slot]
                    output_log.append((rnd, u, slot))
            if step.terminate:
                terminated_now.append(u)
                continue
            wake = step.wake
            if wake is None or wake <= rnd + 1:
                awake.append(u)
            else:
                asleep[u] = wake
                if wake != NEVER:
                    wakes.setdefault(wake, []).append(u)
        # terminated_now follows order, so it is in node order until crashes
        if crash_schedule and rnd in crash_schedule:
            crashed = [u for u in crash_schedule[rnd]
                       if u in active and u not in terminated_now]
            if crashed:
                terminated_now = sorted(terminated_now + crashed)
                awake = [u for u in awake if u not in crashed]
        for u in terminated_now:
            active.discard(u)
            asleep.pop(u, None)
            term_round[u] = rnd
    total = max(term_round.values(), default=0)
    outcome = Outcome(outputs, term_round, total, output_log, None, sends)
    if trace:
        return outcome._replace(trace=[TraceEvent(*ev) for ev in outcome.events()])
    return outcome

