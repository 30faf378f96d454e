"""Deterministic synchronous round executor (LOCAL model).

Each round, every active node first composes its outbox from its state at
the end of the previous round, then all messages are delivered, then each
active node processes its inbox, may assign output values, and may
terminate.  A node that terminates in round r still has its round-r outbox
delivered.  Messages addressed to already-terminated nodes are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Protocol

from .graphs import Graph, RootedTree, ROOT


class ProtocolViolation(RuntimeError):
    """A node broke the execution contract (bad send target, double output)."""


class NonTermination(RuntimeError):
    """max_rounds exhausted with active nodes remaining."""


NO_PREDICTIONS = None


@dataclass(frozen=True)
class NodeView:
    """What a single node is allowed to know before the first round."""

    id: int
    neighbor_ids: tuple[int, ...]
    n: Optional[int]
    d: Optional[int]
    delta: Optional[int]
    prediction: Any = None
    is_root: Optional[bool] = None
    parent: Optional[int] = None


@dataclass
class Step:
    """Result of one node's process() call."""

    outputs: dict = field(default_factory=dict)  # output slot -> value
    terminate: bool = False


class NodeBehavior(Protocol):
    def compose(self, rnd: int) -> Mapping[int, Any]: ...
    def process(self, rnd: int, inbox: Mapping[int, Any]) -> Step: ...


class NodeProgram(Protocol):
    def start(self, view: NodeView) -> NodeBehavior: ...


@dataclass(frozen=True)
class TraceEvent:
    round: int
    node: int
    event: str  # SEND, OUTPUT, TERMINATE
    detail: str

    def line(self) -> str:
        return f"{self.round},{self.node},{self.event},{self.detail}"


@dataclass
class Outcome:
    outputs: dict  # node -> {slot: value}; empty dict = no output
    term_round: dict  # node -> round it terminated
    total_rounds: int
    trace: Optional[list[TraceEvent]] = None
    # (round, node, slot) per output assignment, in trace order; traced or not
    output_log: list[tuple[int, int, Any]] = field(default_factory=list)

    def value(self, node: int):
        """Single-slot output value, or None when the node never output."""
        slots = self.outputs.get(node, {})
        return slots.get("y")

    def solution(self, kind: str, g: Graph) -> dict:
        """Outputs reshaped for graphs.validate()."""
        if kind == "EDGE_COLORING":
            return {u: dict(self.outputs.get(u, {})) for u in g.nodes}
        return {u: self.outputs[u]["y"] if "y" in self.outputs.get(u, {}) else None
                for u in g.nodes}

    def undecided(self, g: Graph) -> set:
        """Nodes that terminated (or stopped) without assigning any output."""
        return {u for u in g.nodes if not self.outputs.get(u)}

    def trace_lines(self) -> list[str]:
        if self.trace is None:
            raise ValueError("simulation ran without trace enabled")
        return [ev.line() for ev in self.trace]


def make_views(g: Graph, predictions, tree: Optional[RootedTree] = None,
               expose: tuple = ("n", "d", "delta")) -> dict[int, NodeView]:
    n = g.n if "n" in expose else None
    d = g.d if "d" in expose else None
    delta = g.delta if "delta" in expose else None
    views = {}
    for u in g.nodes:
        pred = None if predictions is NO_PREDICTIONS else predictions[u]
        is_root = parent = None
        if tree is not None:
            p = tree.parent[u]
            is_root = p == ROOT
            parent = None if is_root else p
        views[u] = NodeView(id=u, neighbor_ids=g.neighbors(u), n=n, d=d,
                            delta=delta, prediction=pred, is_root=is_root,
                            parent=parent)
    return views


def default_max_rounds(g: Graph) -> int:
    return 4 * g.n + 20


def simulate(g: Graph, program: NodeProgram, predictions=NO_PREDICTIONS,
             max_rounds: Optional[int] = None, *, tree: Optional[RootedTree] = None,
             trace: bool = False, crash_schedule: Optional[Mapping[int, set]] = None,
             expose: tuple = ("n", "d", "delta")) -> Outcome:
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
    views = make_views(g, predictions, tree, expose)
    behaviors = {u: program.start(views[u]) for u in g.nodes}
    active = set(g.nodes)
    outputs: dict[int, dict] = {u: {} for u in g.nodes}
    term_round: dict[int, int] = {}
    output_log: list[tuple[int, int, Any]] = []
    events: list[TraceEvent] = [] if trace else None
    crash_schedule = crash_schedule or {}

    rnd = 0
    while active:
        rnd += 1
        if rnd > max_rounds:
            raise NonTermination(f"{len(active)} nodes still active after {max_rounds} rounds")
        order = sorted(active)
        inboxes: dict[int, dict] = {u: {} for u in order}
        for u in order:
            outbox = behaviors[u].compose(rnd)
            if not outbox:
                continue
            for v, payload in sorted(outbox.items()):
                if v not in g.adjacency[u]:
                    raise ProtocolViolation(f"node {u} sent to non-neighbor {v} in round {rnd}")
                if events is not None:
                    events.append(TraceEvent(rnd, u, "SEND", f"{v}:{payload!r}"))
                if v in active:
                    inboxes[v][u] = payload
        terminated_now = []
        for u in order:
            step = behaviors[u].process(rnd, inboxes[u])
            if step.outputs:
                for slot, value in sorted(step.outputs.items(), key=repr):
                    if slot in outputs[u]:
                        raise ProtocolViolation(
                            f"node {u} re-assigned output {slot!r} in round {rnd}")
                    outputs[u][slot] = value
                    output_log.append((rnd, u, slot))
                    if events is not None:
                        events.append(TraceEvent(rnd, u, "OUTPUT", f"{slot}={value!r}"))
            if step.terminate:
                terminated_now.append(u)
        for u in sorted(crash_schedule.get(rnd, ())):
            if u in active and u not in terminated_now:
                terminated_now.append(u)
        for u in sorted(terminated_now):
            active.discard(u)
            term_round[u] = rnd
            if events is not None:
                events.append(TraceEvent(rnd, u, "TERMINATE", ""))
    total = max(term_round.values(), default=0)
    return Outcome(outputs=outputs, term_round=term_round, total_rounds=total,
                   trace=events, output_log=output_log)


def snapshot_active(outcome: Outcome, g: Graph, rnd: int) -> set:
    """Nodes not yet terminated at the end of round rnd."""
    if rnd < 0 or rnd > outcome.total_rounds:
        raise ValueError(f"round {rnd} out of range 0..{outcome.total_rounds}")
    return {u for u in g.nodes if outcome.term_round.get(u, rnd + 1) > rnd}
