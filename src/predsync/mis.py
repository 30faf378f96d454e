"""Stages of the node programs for the Maximal Independent Set problem.

registry.py puts them together into standalone programs, and
templates.py into the four template combinators.  Message vocabulary:

    ("P", x)   round-1 prediction exchange
    "ONE"      the sender joins the independent set (output 1)
    "ZERO"     the sender outputs 0
    "LEAF"     rooted-tree algorithm: the sender is a leaf
    ("C", c)   the sender's current (stored) color

A node with a neighbor in the set (ctx.nbr_one) leaves in the next leave
round (_LeaveRun): it tells its active neighbors ZERO and outputs 0.  The
GPS tree 3-coloring is a problems.ReductionRun, like Linial's coloring, and
the tree part 2 starts with the reveal round (RevealStage).  Each stage
class is also one node's run of it (stages.Stage); a variant of a stage is
a subclass that sets one class attribute.
"""

from __future__ import annotations

from types import MappingProxyType

from .engine import IDLE, SLEEP, ProtocolViolation, Step
from .problems import ReductionRun
from .stages import Ctx, Stage

ONE = "ONE"
ZERO = "ZERO"
LEAF = "LEAF"

# the two terminal results, shared like engine.IDLE, so read-only
JOINED = Step(MappingProxyType({"y": 1}), terminate=True)
LEFT = Step(MappingProxyType({"y": 0}), terminate=True)


def _note(ctx: Ctx, inbox):
    """Record ONE/ZERO notifications."""
    for sender, msg in inbox.items():
        if msg == ONE:
            ctx.nbr_one.add(sender)
            ctx.active.discard(sender)
        elif msg == ZERO:
            ctx.active.discard(sender)


class _LeaveRun(Stage):
    """The leave round: a node with a neighbor in the set tells its active
    neighbors ZERO and outputs 0; any other node notes what it receives."""

    def compose(self, ctx, t):
        if ctx.nbr_one:
            return dict.fromkeys(ctx.active, ZERO)
        return {}

    def process(self, ctx, t, inbox):
        if ctx.nbr_one:
            return LEFT
        _note(ctx, inbox)
        return IDLE


class _JoinRun(_LeaveRun):
    """Phases of two rounds.  Odd rounds: the node joins when the
    subclass's wins(ctx, t) is true and tells its active neighbors ONE.
    wins is False for a candidate that lost and None for a node that is no
    candidate this round.  Even rounds: leave."""

    phase_len = 2
    join = None

    def compose(self, ctx, t):
        if t % 2 == 0:
            return _LeaveRun.compose(self, ctx, t)
        self.join = self.wins(ctx, t)
        if self.join:
            return dict.fromkeys(ctx.active, ONE)
        return {}

    def process(self, ctx, t, inbox):
        if t % 2 == 0:
            return _LeaveRun.process(self, ctx, t, inbox)
        if self.join:
            return JOINED
        if not inbox:
            # a losing candidate keeps losing until a message changes its
            # active neighbors; a node that is no candidate may win later
            return SLEEP if self.join is False else IDLE
        _note(ctx, inbox)
        return IDLE


# ---------------------------------------------------------------------------
# initialization


class MisInitStage(_LeaveRun):
    """3-round pruning prologue.

    The independent set I is the prediction-1 nodes whose prediction-1
    neighbors (if any) all have smaller ids.  Round 2: I joins; round 3:
    leave.  A node outside I sleeps through rounds 2 and 3 unless a
    neighbor joins or leaves; the driver wakes such a sleeper at the next
    stage start, or in round 3 when the init is the final stage.
    """

    # rounds 2 and 3 are leave rounds for all but the joiners: in round 2
    # nobody has a neighbor in the set yet
    rounds = 3
    rule = "init"
    join = False

    def compose(self, ctx, t):
        if t == 1:
            return dict.fromkeys(ctx.active, ("P", ctx.view.prediction))
        if self.join:
            return dict.fromkeys(ctx.active, ONE)
        return _LeaveRun.compose(self, ctx, t)

    def process(self, ctx, t, inbox):
        if t == 1:
            pred = ctx.view.prediction
            same = ctx.stored["same_color"] = {
                s for s, m in inbox.items() if m[1] == pred}
            if pred == 1:  # same is its prediction-1 neighbors
                if self.rule == "base":
                    self.join = not same
                else:
                    self.join = max(same, default=0) < ctx.view.id
            return IDLE if self.join else SLEEP
        if self.join:
            return JOINED
        step = _LeaveRun.process(self, ctx, t, inbox)
        # a non-joiner with no neighbor in the set waits for a message
        return step if step.terminate or ctx.nbr_one else SLEEP


class MisBaseStage(MisInitStage):
    """MisInitStage whose I is the prediction-1 nodes whose neighbors all
    have prediction 0."""

    rule = "base"


# ---------------------------------------------------------------------------
# clean-up


class MisCleanupStage(_LeaveRun):
    """One leave round: every active neighbor of a 1-output node outputs 0."""

    rounds = 1


# ---------------------------------------------------------------------------
# Greedy MIS


class GreedyStage(_JoinRun):
    """Local-maximum-id join each odd round, notified nodes leave each even
    round: the standard algorithm."""

    def wins(self, ctx, t):
        return not ctx.active or max(ctx.active) < ctx.view.id


class GreedyMinStage(GreedyStage):
    """The symmetric local-minimum-id variant, the interleaved template's
    phased reference."""

    def wins(self, ctx, t):
        return not ctx.active or min(ctx.active) > ctx.view.id


# ---------------------------------------------------------------------------
# black/white alternation


class UbwStage(_JoinRun):
    """Greedy MIS phases run alternately on the prediction-1 (black) nodes
    and the prediction-0 (white) nodes.  The joining node notifies all its
    active neighbors regardless of their color, and the even round of each
    phase removes every notified node."""

    def wins(self, ctx, t):
        phase_black = ((t + 1) // 2) % 2 == 1
        if phase_black != (ctx.view.prediction == 1):
            return None
        # rivals: the active neighbors sharing my prediction
        rivals = ctx.active & ctx.stored.get("same_color", set())
        return all(v < ctx.view.id for v in rivals)


class UbwColorProbe(MisInitStage):
    """The initialization's first round alone, so each node learns which
    active neighbors share its prediction (needed when UbwStage runs
    without an initialization that already exchanged predictions)."""

    rounds = 1


# ---------------------------------------------------------------------------
# rooted-tree initialization


class TreeInitStage(MisInitStage):
    """4-round initialization for rooted trees.

    The independent set joined in round 2 is the prediction-1 nodes without
    a prediction-1 parent.  Round 3 settles the nodes notified in round 2
    and lets unnotified prediction-0 nodes without a prediction-0 parent
    join.  Round 4 settles the nodes notified in round 3.  Afterwards every
    active component is monochromatic in the predictions.
    """

    # rounds 2 to 4 are leave rounds for all but the joiners: in round 2
    # nobody has a neighbor in the set yet
    rounds = 4
    rooted = True
    eager = False
    parent_pred = None

    def process(self, ctx, t, inbox):
        view = ctx.view
        if t == 1:
            preds = {s: m[1] for s, m in inbox.items()}
            self.parent_pred = None if view.is_root else preds.get(view.parent)
            self.join = view.prediction == 1 and self.parent_pred != 1
            return IDLE
        if self.join:  # round 2 for black joiners, round 3 for white ones
            return JOINED
        step = _LeaveRun.process(self, ctx, t, inbox)
        if self.eager and ctx.nbr_one:
            return LEFT
        if t == 2:
            self.join = (not ctx.nbr_one and view.prediction == 0
                         and self.parent_pred != 0)
        return step


class TreeInitEagerStage(TreeInitStage):
    """TreeInitStage whose notified nodes output 0 and stop in the round
    the notification arrives, without telling anyone.  That keeps the
    outputs identical but shortens runs (a correctly 3-colorable line
    finishes in 2 rounds); it is only safe standalone, because silent
    terminations leave neighbors' active-set bookkeeping stale for any
    following stage."""

    eager = True


# ---------------------------------------------------------------------------
# rooted-tree measure-uniform MIS

ROOT_MSG = "ROOT"


class TreeUniformStage(_LeaveRun):
    """Every odd round the component roots join the set (notifying their
    children) and the leaves join unless their parent is a root; every even
    round the notified nodes output 0."""

    phase_len = 2
    rooted = True
    role = None

    def compose(self, ctx, t):
        if t % 2 == 0:
            return _LeaveRun.compose(self, ctx, t)
        view = ctx.view
        parent_active = not view.is_root and view.parent in ctx.active
        children = ctx.active - {view.parent}
        if not parent_active:
            self.role = "root"
            return dict.fromkeys(children, ROOT_MSG)
        if not children:
            self.role = "leaf"
            return {view.parent: LEAF}
        self.role = None
        return {}

    def process(self, ctx, t, inbox):
        if t % 2 == 0:
            return _LeaveRun.process(self, ctx, t, inbox)
        if self.role == "root":
            return JOINED
        if self.role == "leaf":
            return LEFT if inbox.get(ctx.view.parent) == ROOT_MSG else JOINED
        # a ROOT sender (my parent) joined the set; a LEAF sender (a child)
        # is about to output 1
        for s in inbox:
            ctx.nbr_one.add(s)
            ctx.active.discard(s)
        return IDLE


# ---------------------------------------------------------------------------
# rooted-tree 3-coloring (Cole-Vishkin reduction plus shift-down)


def _cv_schedule(domain: int) -> tuple[int, int]:
    """(number of bit-reduction rounds, resulting color-space size)."""
    c = max(2, domain)
    steps = 0
    while True:
        nxt = 2 * max(1, (c - 1).bit_length())
        if nxt >= c:
            return steps, c
        c = nxt
        steps += 1


def gps_rounds(d: int) -> int:
    steps, c = _cv_schedule(d + 1)
    return max(1, steps + 2 * max(0, c - 3))


class GpsTreeColoringStage(ReductionRun):
    """Fault-tolerant 3-coloring of a rooted tree.

    Identifier colors are reduced to at most 6 with iterated lowest-
    differing-bit steps, then the colors above 3 are removed with shift-down
    plus recolor pairs.  A node whose parent disappears acts as a root from
    then on, so the coloring of the surviving subgraph stays proper at every
    round.  The final color is output, and stored, at the end.
    """

    rooted = True

    @classmethod
    def length(cls, view):
        return gps_rounds(view.d)

    def __init__(self, ctx):
        super().__init__(ctx)
        self.steps, self.c_star = _cv_schedule(ctx.view.d + 1)

    def recolor(self, ctx, t, colors):
        pc = colors.get(ctx.view.parent)  # None: a root, or the parent is gone
        if t <= self.steps:
            if pc is None:
                i, bit = 0, self.color & 1
            else:
                diff = self.color ^ pc
                i = (diff & -diff).bit_length() - 1
                bit = (self.color >> i) & 1
            self.color = 2 * i + bit
        else:
            k = t - self.steps - 1  # 0-based index into the removal rounds
            if k % 2 == 0:  # shift-down
                if pc is not None:
                    self.color = pc
                else:
                    self.color = min(c for c in (0, 1, 2) if c != self.color)
            else:  # recolor the class being removed
                x = self.c_star - 1 - k // 2
                if self.color == x:
                    taken = set(colors.values())
                    self.color = min(c for c in (0, 1, 2) if c not in taken)


class GpsPart1Stage(GpsTreeColoringStage):
    """GpsTreeColoringStage that only stores its final color: part 1 of the
    rooted-tree parallel template."""

    store_only = True


# ---------------------------------------------------------------------------
# turning a stored coloring into an MIS


def _stored_color(ctx):
    color = ctx.stored.get("color", ctx.view.prediction)
    if not isinstance(color, int):
        raise ProtocolViolation(f"node {ctx.view.id} has no stored color")
    return color


class RevealStage(Stage):
    """One round: exchange locally stored colors with the active neighbors
    and check that the surviving coloring is proper."""

    rounds = 1
    reads_stored_color = True

    def compose(self, ctx, t):
        # per recipient: with no active neighbor, _stored_color never runs
        return {v: ("C", _stored_color(ctx)) for v in ctx.active}

    def process(self, ctx, t, inbox):
        mine = _stored_color(ctx)
        nbr_colors = {s: m[1] for s, m in inbox.items()}
        for s, c in nbr_colors.items():
            if c == mine:
                raise ProtocolViolation(
                    f"stored coloring not proper: nodes {ctx.view.id} and {s}")
        ctx.stored["nbr_colors"] = nbr_colors
        return IDLE


class ColorPart2Stage(_LeaveRun):
    """Produce an MIS from a stored proper (delta+1)-coloring in delta
    rounds: color class i joins in round i, color delta+1 resolves silently
    in the last round."""

    combined = False
    color = None
    join = False

    @classmethod
    def length(cls, view):
        return max(1, view.delta)

    def compose(self, ctx, t):
        delta = ctx.view.delta
        if self.color is None:
            self.color = _stored_color(ctx)
            if not 1 <= self.color <= delta + 1:
                raise ProtocolViolation(
                    f"stored color {self.color} outside 1..{delta + 1}")
        if ctx.nbr_one:
            # leave, silently in the last round
            return _LeaveRun.compose(self, ctx, t) if t < delta else {}
        self.join = self.color == t
        if self.combined and t < delta and self.color > t:
            nbr_colors = ctx.stored.get("nbr_colors", {})
            self.join = (all(nbr_colors.get(v) != t for v in ctx.active)
                         and all(v < ctx.view.id for v in ctx.active))
        if self.join:
            return dict.fromkeys(ctx.active, ONE)
        return {}

    def process(self, ctx, t, inbox):
        if self.join:
            return JOINED
        if t < ctx.view.delta:
            return _LeaveRun.process(self, ctx, t, inbox)
        _note(ctx, inbox)
        return LEFT if ctx.nbr_one else JOINED


class ColorPart2CombinedStage(ColorPart2Stage):
    """ColorPart2Stage that also lets the largest identifier in a
    neighborhood with no active color-i node join, which makes progress
    every other round regardless of delta."""

    combined = True


class TreePart2Stage(RevealStage):
    """Two rounds from a stored proper 3-coloring of a rooted tree to an
    MIS: color 1 joins immediately (its neighbors leave), then color 2
    joins and color 3 keeps whatever remains consistent."""

    # round 1 is the reveal round
    rounds = 2
    color = None

    def compose(self, ctx, t):
        if t == 1:
            self.color = _stored_color(ctx)
            if self.color not in (1, 2, 3):
                raise ProtocolViolation(f"stored color {self.color} outside 1..3")
            return RevealStage.compose(self, ctx, t)
        if self.color == 2:
            nbr_colors = ctx.stored["nbr_colors"]
            return {v: ONE for v in ctx.active if nbr_colors.get(v) == 3}
        return {}

    def process(self, ctx, t, inbox):
        if t == 1:
            RevealStage.process(self, ctx, t, inbox)
            if self.color == 1:
                return JOINED
            for s, c in ctx.stored["nbr_colors"].items():
                if c == 1:
                    ctx.nbr_one.add(s)
                    ctx.active.discard(s)
            return LEFT if ctx.nbr_one else IDLE
        if self.color == 2:
            return JOINED
        return LEFT if any(m == ONE for m in inbox.values()) else JOINED
