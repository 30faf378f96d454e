"""Deterministic synchronous round executor (LOCAL model).

Each round, every active node first composes its outbox from its state at
the end of the previous round, then all messages are delivered, then each
active node processes its inbox, may assign output values, and may
terminate.  A node that terminates in round r still has its round-r outbox
delivered.  Each inbox lists its messages in sender order; a round's SEND
events come in sender order too, and each sender's in recipient order.

Waiting nodes cost nothing.  A node's Step may name its next wake round:
until then, its compose and process would do nothing unless a message
reaches it.  (A stage run names a stage round, which the stage driver
shifts to an engine round.)  The engine steps only awake nodes; a
sleeping node is woken in its wake round, or earlier by a message, in
which case only its process runs in that round.  Stepped or not, every
active node is in the same round, so node programs derive their stage
time from rnd, never from the number of calls they got.

A broadcast may hand one payload object to all its recipients, so a
receiver must never mutate a message it gets.  A node's NodeView, a run's
Outcome and each TraceEvent are immutable named tuples.  A traced run
records each event as a TraceEvent that keeps the payload or output value
itself, formatted only by line(), so a sender must never mutate a payload
or an output value after the round it sends or assigns it.

Delivery rests on one invariant: every active node is either awake, and
has an inbox this round, or asleep.  A message to any other node, one
that terminated or crashed, is dropped.
"""

from __future__ import annotations

import sys
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
    """Result of one node's process() call."""

    __slots__ = ("outputs", "terminate", "wake")

    def __init__(self, outputs: Mapping = NO_OUTPUTS, terminate: bool = False,
                 wake: Optional[int] = None):
        self.outputs = outputs  # output slot -> value
        self.terminate = terminate
        # next round to step this node if no message reaches it first; None
        # is the next round.  compose and process must do nothing before then.
        # An engine round to the engine, a stage round from a stage run.
        self.wake = wake


class NodeBehavior(Protocol):
    def compose(self, rnd: int) -> Mapping[int, Any]: ...
    def process(self, rnd: int, inbox: Mapping[int, Any]) -> Step: ...


class NodeProgram(Protocol):
    def start(self, view: NodeView) -> NodeBehavior: ...


class TraceEvent(NamedTuple):
    """One trace record: a SEND keeps its target and payload as key and
    value, an OUTPUT its slot and value; line() formats them."""

    round: int
    node: int
    event: str  # SEND, OUTPUT, TERMINATE
    key: Any = None
    value: Any = None

    def line(self) -> str:
        head = f"{self.round},{self.node},{self.event},"
        if self.event == "SEND":
            return f"{head}{self.key}:{self.value!r}"
        if self.event == "OUTPUT":
            return f"{head}{self.key}={self.value!r}"
        return head


class Outcome(NamedTuple):
    outputs: dict  # node -> {slot: value}; empty dict = no output
    term_round: dict  # node -> round it terminated
    total_rounds: int
    # (round, node, slot) per output assignment, in trace order; traced or not
    output_log: list[tuple[int, int, Any]]
    trace: Optional[list[TraceEvent]] = None

    def solution(self, kind: str, g: Graph) -> dict:
        """Outputs reshaped for graphs.validate(); a node that never output
        its value is left out, so validate reports it as INCOMPLETE."""
        if kind == "EDGE_COLORING":
            return {u: dict(self.outputs.get(u, {})) for u in g.nodes}
        return {u: self.outputs[u]["y"] for u in g.nodes
                if "y" in self.outputs.get(u, {})}

    def trace_lines(self) -> list[str]:
        if self.trace is None:
            raise ValueError("simulation ran without trace enabled")
        return [ev.line() for ev in self.trace]


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
    behaviors = {}
    for u in g.nodes:
        pred = None if predictions is NO_PREDICTIONS else predictions[u]
        is_root = parent = None
        if tree is not None:
            p = tree.parent[u]
            is_root = p == ROOT
            parent = None if is_root else p
        # positional: keyword arguments slow this once-per-node call
        behaviors[u] = program.start(
            NodeView(u, adjacency[u], n, d, delta, pred, is_root, parent))
    nbr_sets = g.neighbor_sets
    active = set(g.nodes)
    awake = sorted(active)  # nodes stepped this round, in node order
    asleep: dict[int, int] = {}  # sleeping node -> its wake round
    wakes: dict[int, list] = {}  # wake round -> nodes (stale entries allowed)
    outputs: dict[int, dict] = {u: {} for u in g.nodes}
    term_round: dict[int, int] = {}
    output_log: list[tuple[int, int, Any]] = []
    events: list[TraceEvent] = [] if trace else None

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
            if events is not None:
                for v, payload in sorted(outbox.items()):
                    events.append(TraceEvent(rnd, u, "SEND", v, payload))
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
            if step.outputs:
                assigned = step.outputs.items()
                if len(assigned) > 1:
                    assigned = sorted(assigned, key=repr)
                out = outputs[u]
                for slot, value in assigned:
                    if slot in out:
                        raise ProtocolViolation(
                            f"node {u} re-assigned output {slot!r} in round {rnd}")
                    out[slot] = value
                    output_log.append((rnd, u, slot))
                    if events is not None:
                        events.append(TraceEvent(rnd, u, "OUTPUT", slot, value))
            if step.terminate:
                terminated_now.append(u)
                continue
            wake = step.wake
            if wake is None or wake <= rnd + 1:
                awake.append(u)
            else:
                asleep[u] = wake
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
            if events is not None:
                events.append(TraceEvent(rnd, u, "TERMINATE"))
    total = max(term_round.values(), default=0)
    return Outcome(outputs, term_round, total, output_log, events)

