"""Stages of the node programs for Maximal Matching, (delta+1)-Vertex
Coloring and (2*delta-1)-Edge Coloring, plus the fault-tolerant
Linial-style coloring used as a parallel-template reference.

Matching outputs are the partner's identifier or None (unmatched).
Vertex colors are ints in 1..delta+1, written to slot "y".  Edge colors are
ints in 1..2*delta-1, written to one output slot per incident edge, keyed by
the neighbor's identifier.

Each problem's stages share one decision round, written once:

    _AnnounceRun    matching: a node holding ctx.stored["match"] sends
                    (MATCHED,) to its other active neighbors and outputs
                    its partner; any other node drops its MATCHED neighbors
    _ColorRun       vertex coloring: a node with a pick sends
                    ("COLOR", pick) and outputs it; any other node drops
                    those colors from its palette and the senders
    _ExchangeRun    edge coloring: each endpoint of an uncolored edge
                    sends (tag, committed colors, uncolored neighbors) over
                    it, tag "INFO" after the prediction round, "CLEAN" in
                    the clean-up
    ReductionRun    fault-tolerant coloring (Linial here, GPS in mis.py):
                    ("C", color) every round, the stage's recolor rule, and
                    color + 1 stored, or output, in the last round

Each is a stages.Stage that the problem's stage classes subclass; a
variant of a stage is a subclass that sets one class attribute.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping

from .engine import IDLE, NO_OUTPUTS, STOP, Step
from .measures import check_prediction, edge_predictions
from .stages import Ctx, Stage

MATCHED = "MATCHED"


class EmptyPalette(RuntimeError):
    """A palette ran dry, which the extendability invariant forbids."""


# ---------------------------------------------------------------------------
# maximal matching


class _AnnounceRun(Stage):
    """The announce round: a node holding a match in ctx.stored["match"]
    sends MATCHED to its other active neighbors and outputs its partner;
    any other node drops its MATCHED neighbors."""

    def compose(self, ctx, t):
        partner = ctx.stored.get("match")
        if partner is not None:
            return dict.fromkeys(ctx.active - {partner}, (MATCHED,))
        return {}

    def process(self, ctx, t, inbox):
        partner = ctx.stored.pop("match", None)
        if partner is not None:
            return Step({"y": partner}, terminate=True)
        for s, m in inbox.items():
            if m[0] == MATCHED:
                ctx.active.discard(s)
        return IDLE


class MmInitStage(_AnnounceRun):
    """2-round matching prologue: mutually predicted pairs match, and a
    node all of whose neighbors got matched outputs None."""

    rounds = 2
    rule = "init"

    def __init__(self, ctx):  # the first stage, so ctx.active is fresh
        v = ctx.view
        check_prediction("MAXIMAL_MATCHING", v.id, v.prediction, ctx.active,
                         v.delta)

    def compose(self, ctx, t):
        if t == 1:
            return dict.fromkeys(ctx.active, ("P", ctx.view.prediction))
        return _AnnounceRun.compose(self, ctx, t)

    def process(self, ctx, t, inbox):
        pred = ctx.view.prediction
        if t == 1:
            m = inbox.get(pred)
            if m is not None and m[1] == ctx.view.id:
                ctx.stored["match"] = pred
            return IDLE
        announced = _AnnounceRun.process(self, ctx, t, inbox)
        # every neighbor got matched: ctx.active held all of them until now
        if not (announced.terminate or ctx.active) and (
                self.rule == "init" or pred is None):
            return Step({"y": None}, terminate=True)
        return announced


class MmBaseStage(MmInitStage):
    """MmInitStage whose node outputs None only when its own prediction is
    None too."""

    rule = "base"


class MmCleanupStage(_AnnounceRun):
    """One round: a node holding an unannounced mutual match outputs it."""

    rounds = 1


class MmUniformStage(_AnnounceRun):
    """Groups of three rounds: the local-maximum identifier proposes to its
    smallest active neighbor, proposals are accepted largest-first, and
    matches are announced in the third round."""

    phase_len = 3
    proposed_to = chosen = None
    lonely = False

    def compose(self, ctx, t):
        step = (t - 1) % 3
        if step == 0:
            self.proposed_to = self.chosen = None
            self.lonely = not ctx.active
            if not self.lonely and max(ctx.active) < ctx.view.id:
                self.proposed_to = min(ctx.active)
                return {self.proposed_to: ("PROP",)}
        elif step == 1:
            if self.chosen is not None:
                return {self.chosen: ("ACC",)}
        else:
            return _AnnounceRun.compose(self, ctx, t)
        return {}

    def process(self, ctx, t, inbox):
        step = (t - 1) % 3
        if step == 0:
            if self.lonely:
                return Step({"y": None}, terminate=True)
            proposals = [s for s, m in inbox.items() if m == ("PROP",)]
            if proposals:
                self.chosen = max(proposals)
        elif step == 1:
            # an ACC from the node proposed to, else the proposal accepted
            partner = self.proposed_to if self.proposed_to in inbox else self.chosen
            if partner is not None:
                ctx.stored["match"] = partner
        else:
            announced = _AnnounceRun.process(self, ctx, t, inbox)
            if not (announced.terminate or ctx.active):
                return Step({"y": None}, terminate=True)
            return announced
        return IDLE


# ---------------------------------------------------------------------------
# (delta+1)-vertex coloring


def _vertex_palette(ctx: Ctx) -> set:
    palette = ctx.stored.get("palette")
    if palette is None:  # built once per node, not on every step
        palette = ctx.stored["palette"] = set(range(1, ctx.view.delta + 2))
    return palette


class _ColorRun(Stage):
    """The color round: a node with a pick sends ("COLOR", pick) to its
    active neighbors and outputs it; any other node drops the colors it
    receives from its palette and their senders from ctx.active."""

    pick = None

    def compose(self, ctx, t):
        if self.pick is not None:
            return dict.fromkeys(ctx.active, ("COLOR", self.pick))
        return {}

    def process(self, ctx, t, inbox):
        if self.pick is not None:
            return Step({"y": self.pick}, terminate=True)
        palette = _vertex_palette(ctx)
        for s, m in inbox.items():
            palette.discard(m[1])
            ctx.active.discard(s)
        return IDLE


class VcInitStage(_ColorRun):
    """2-round coloring prologue: a node commits its predicted color when
    every neighbor with the same prediction has a smaller identifier."""

    rounds = 2
    rule = "init"

    def __init__(self, ctx):
        v = ctx.view
        check_prediction("VERTEX_COLORING", v.id, v.prediction, ctx.active,
                         v.delta)

    def compose(self, ctx, t):
        if t == 1:
            return dict.fromkeys(ctx.active, ("P", ctx.view.prediction))
        return _ColorRun.compose(self, ctx, t)

    def process(self, ctx, t, inbox):
        if t == 1:
            pred = ctx.view.prediction
            clashes = [s for s, m in inbox.items() if m[1] == pred]
            if self.rule == "base":
                commit = not clashes
            else:
                commit = all(s < ctx.view.id for s in clashes)
            self.pick = pred if commit else None
            return IDLE
        return _ColorRun.process(self, ctx, t, inbox)


class VcBaseStage(VcInitStage):
    """VcInitStage that commits only a predicted color that differs from
    every neighbor's prediction."""

    rule = "base"


class VcUniformStage(_ColorRun):
    """Each round the local-maximum identifier takes the smallest color left
    in its palette and leaves."""

    phase_len = 1

    def compose(self, ctx, t):
        palette = _vertex_palette(ctx)
        if not palette:
            raise EmptyPalette(f"node {ctx.view.id} has an empty palette")
        self.pick = None
        if not ctx.active or max(ctx.active) < ctx.view.id:
            self.pick = min(palette)
        return _ColorRun.compose(self, ctx, t)


# ---------------------------------------------------------------------------
# Linial-style fault-tolerant (delta+1)-coloring


def _next_prime(x: int) -> int:
    n = max(2, x)
    while True:
        if all(n % p for p in range(2, int(n ** 0.5) + 1)):
            return n
        n += 1


@cache
def _linial_schedule(d: int, delta: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Color-space reduction steps as (q, poly degree) pairs, and the final
    color-space size, computed once per (d, delta).  One step maps colors
    below k to colors below q*q by viewing each color as a degree-t
    polynomial over F_q (q prime, q**(t+1) >= k, q > delta*t) and picking
    an evaluation point that separates the node from all its neighbors."""
    k = d + 1
    steps = []
    while True:
        best = None
        t = 1
        while True:
            q = _next_prime(delta * t + 1)
            while q ** (t + 1) < k:
                q = _next_prime(q + 1)
            if best is None or q * q < best[0] * best[0]:
                best = (q, t)
            if q ** (t + 1) >= k and q == _next_prime(delta * t + 1):
                # larger t can no longer shrink q below delta*t+1
                break
            t += 1
        q, t = best
        if q * q >= k:
            return tuple(steps), k
        steps.append((q, t))
        k = q * q


def linial_rounds(d: int, delta: int) -> int:
    if delta == 0:
        return 1
    steps, k = _linial_schedule(d, delta)
    return max(1, len(steps) + max(0, k - (delta + 1)))


class ReductionRun(Stage):
    """The color reduction, fault tolerant: every round up to its length,
    send ("C", color) to the active neighbors and recolor from the colors
    they sent, by the subclass's recolor(ctx, t, colors); color starts as
    the node's identifier.  The last round stores color + 1 and, unless
    store_only, outputs it.  Past its length it does nothing: the parallel
    template rounds its part-1 budget up to an even length."""

    fault_tolerant = True
    store_only = False

    def __init__(self, ctx):
        self.color = ctx.view.id
        self.last = self.length(ctx.view)

    def compose(self, ctx, t):
        if t > self.last:
            return {}
        return dict.fromkeys(ctx.active, ("C", self.color))

    def process(self, ctx, t, inbox):
        if t > self.last:
            return IDLE
        self.recolor(ctx, t, {s: m[1] for s, m in inbox.items()})
        if t == self.last:
            ctx.stored["color"] = self.color + 1
            if not self.store_only:
                return Step({"y": self.color + 1}, terminate=True)
        return IDLE


def _poly_eval(color: int, q: int, t: int, x: int) -> int:
    value = 0
    for i in range(t + 1):
        value = (value + (color % q) * pow(x, i, q)) % q
        color //= q
    return value


class LinialColoringStage(ReductionRun):
    """Fault-tolerant (delta+1)-coloring: polynomial color-space reduction
    down to O(delta**2) colors, then one color class per round recolors into
    1..delta+1.  Proper on the surviving subgraph at every round."""

    @classmethod
    def length(cls, view):
        return linial_rounds(view.d, view.delta)

    def __init__(self, ctx):
        super().__init__(ctx)
        view = ctx.view
        if view.delta == 0:
            self.steps, self.k_star, self.color = (), 1, 0
        else:
            self.steps, self.k_star = _linial_schedule(view.d, view.delta)

    def recolor(self, ctx, t, colors):
        if t <= len(self.steps):
            q, deg = self.steps[t - 1]
            for x in range(q):
                mine = _poly_eval(self.color, q, deg, x)
                if all(_poly_eval(c, q, deg, x) != mine for c in colors.values()):
                    self.color = x * q + mine
                    break
            else:
                raise AssertionError("no separating evaluation point")
        else:
            j = self.k_star - 1 - (t - len(self.steps) - 1)
            if self.color == j:
                taken = set(colors.values())
                self.color = min(c for c in range(ctx.view.delta + 1)
                                 if c not in taken)


class LinialPart1Stage(LinialColoringStage):
    """LinialColoringStage that only stores its final color: part 1 of the
    parallel MIS template."""

    store_only = True


# ---------------------------------------------------------------------------
# (2*delta-1)-edge coloring


def _edge_state(ctx: Ctx, colored: Mapping = NO_OUTPUTS) -> dict:
    """The node's edge state, built on first use with the edges in colored
    (neighbor -> color) already output."""
    st = ctx.stored.get("edges")
    if st is None:  # built once per node, not on every step
        mine = set(colored.values())  # colors this node has output
        free = set(range(1, max(1, 2 * ctx.view.delta - 1) + 1)) - mine
        uncolored = set(ctx.view.neighbor_ids).difference(colored)
        st = ctx.stored["edges"] = {
            "uncolored": uncolored,
            "palette": {v: set(free) for v in uncolored},
            "mine": mine,
            "two_hop": {},  # uncolored neighbor -> its uncolored neighbors
        }
    return st


class _ExchangeRun(Stage):
    """The exchange round: each endpoint of an uncolored edge sends (tag,
    its committed colors, its uncolored neighbors) over it, and takes the
    colors it receives out of that edge's palette."""

    tag = "INFO"

    def compose(self, ctx, t):
        st = _edge_state(ctx)
        return dict.fromkeys(st["uncolored"], (
            self.tag, sorted(st["mine"]), sorted(st["uncolored"])))

    def process(self, ctx, t, inbox):
        st = _edge_state(ctx)
        for s, (_, cols, unc) in inbox.items():
            st["palette"][s] -= set(cols)
            st["two_hop"][s] = set(unc) - {ctx.view.id}
        return IDLE


class EcBaseStage(_ExchangeRun):
    """2-round edge-coloring prologue: locally distinct predicted colors
    agreed by both endpoints are committed in round 1; round 2 broadcasts
    committed colors and the identifiers needed for the 2-hop rule of the
    measure-uniform stage."""

    rounds = 2

    def __init__(self, ctx):  # no edge-colouring stage edits ctx.active
        v = ctx.view
        self.unique = edge_predictions(v.id, v.prediction, ctx.active, v.delta)

    def compose(self, ctx, t):
        if t == 1:
            return {v: ("PC", c) for v, c in self.unique.items()}
        return _ExchangeRun.compose(self, ctx, t)

    def process(self, ctx, t, inbox):
        if t > 1:
            return _ExchangeRun.process(self, ctx, t, inbox)
        # an edge takes the predicted color that is unique at both endpoints
        outputs = {s: m[1] for s, m in inbox.items()
                   if self.unique.get(s) == m[1]}
        if len(outputs) == len(ctx.view.neighbor_ids):
            return Step(outputs, terminate=True)
        # only a node with an uncolored edge left needs the edge state
        _edge_state(ctx, outputs)
        return Step(outputs)


class EcCleanupStage(_ExchangeRun):
    """One round: endpoints of uncolored edges re-exchange their committed
    colors and uncolored neighbor sets, restoring equal palettes."""

    rounds = 1
    tag = "CLEAN"


class EcProbeStage(Stage):
    """One round standalone substitute for the round-2 exchange of EcBaseStage:
    establishes 2-hop identifier knowledge with everything uncolored."""

    rounds = 1

    def compose(self, ctx, t):
        st = _edge_state(ctx)
        return dict.fromkeys(st["uncolored"], ("INFO", sorted(st["uncolored"])))

    def process(self, ctx, t, inbox):
        st = _edge_state(ctx)
        for s, m in inbox.items():
            st["two_hop"][s] = set(m[1]) - {ctx.view.id}
        return IDLE


class EcUniformStage(Stage):
    """Odd rounds: a node whose identifier beats everything within two
    uncolored hops colors all its uncolored edges with distinct palette
    colors; even rounds broadcast the palette removals."""

    phase_len = 2
    assign = pending = None

    def compose(self, ctx, t):
        st = _edge_state(ctx)
        if t % 2 == 1:
            self.assign = None
            if not st["uncolored"]:
                return {}
            reach = set(st["uncolored"])
            for v in st["uncolored"]:
                reach |= st["two_hop"].get(v, set())
            reach.discard(ctx.view.id)
            if max(reach) < ctx.view.id:
                used = set()
                assign = {}
                for v in sorted(st["uncolored"]):
                    free = st["palette"][v] - used
                    if not free:
                        raise EmptyPalette(
                            f"edge {{{ctx.view.id},{v}}} has an empty palette")
                    assign[v] = min(free)
                    used.add(assign[v])
                self.assign = assign
                return {v: ("TAKE", c) for v, c in assign.items()}
        elif self.pending:
            cols, filled = self.pending
            return dict.fromkeys(st["uncolored"],
                                 ("UPD", sorted(cols), sorted(filled)))
        return {}

    def process(self, ctx, t, inbox):
        st = _edge_state(ctx)
        if t % 2 == 1:
            if self.assign is not None:
                return Step(dict(self.assign), terminate=True)
            if not st["uncolored"]:
                return STOP
            outputs = {}
            got = set()
            for s, m in inbox.items():
                if m[0] == "TAKE":
                    outputs[s] = m[1]
                    got.add(m[1])
                    st["uncolored"].discard(s)
                    st["mine"].add(m[1])
            if outputs and not st["uncolored"]:
                return Step(outputs, terminate=True)
            if outputs:
                for v in st["uncolored"]:
                    st["palette"][v] -= got
                self.pending = (got, set(outputs))
            return Step(outputs)
        if self.pending:
            self.pending = None
        for s, m in inbox.items():
            if m[0] == "UPD":
                _, cols, filled = m
                st["palette"][s] -= set(cols)
                st["two_hop"][s] -= set(filled)
        return IDLE
