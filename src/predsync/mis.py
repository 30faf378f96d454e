"""Node programs for the Maximal Independent Set problem.

All programs are built from stages (see stages.py) so they can run either
standalone or inside the four template combinators.  Message vocabulary:

    ("P", x)   round-1 prediction exchange
    "ONE"      the sender joins the independent set (output 1)
    "ZERO"     the sender outputs 0
    "LEAF"     rooted-tree algorithm: the sender is a leaf
    ("C", c)   the sender's current (stored) color
"""

from __future__ import annotations

from .engine import ProtocolViolation
from .stages import Ctx, FixedStage, Stage, StageRun, StageStep, StagedProgram

ONE = "ONE"
ZERO = "ZERO"
LEAF = "LEAF"


def _note(ctx: Ctx, inbox) -> bool:
    """Record ONE/ZERO notifications; True when some ONE arrived."""
    got_one = False
    for sender, msg in inbox.items():
        if msg == ONE:
            ctx.nbr_one.add(sender)
            ctx.gone(sender)
            got_one = True
        elif msg == ZERO:
            ctx.gone(sender)
    return got_one


# ---------------------------------------------------------------------------
# initialization


class MisInitStage(Stage):
    """3-round pruning prologue.

    rule="base": the independent set I is the prediction-1 nodes whose
    neighbors all have prediction 0.  rule="init": I is the prediction-1
    nodes whose prediction-1 neighbors (if any) all have smaller ids.
    """

    def __init__(self, rule: str = "init"):
        if rule not in ("base", "init"):
            raise ValueError(f"unknown initialization rule {rule!r}")
        self.rule = rule

    def length(self, view):
        return 3

    def start(self, ctx):
        return _MisInitRun(self.rule)


class _MisInitRun(StageRun):
    def __init__(self, rule):
        self.rule = rule
        self.join = False
        self.zero = False

    def compose(self, ctx, t):
        if t == 1:
            return {v: ("P", ctx.view.prediction) for v in ctx.active}
        if t == 2 and self.join:
            return {v: ONE for v in ctx.active}
        if t == 3 and self.zero:
            return {v: ZERO for v in ctx.active}
        return {}

    def process(self, ctx, t, inbox):
        if t == 1:
            preds = {s: m[1] for s, m in inbox.items()}
            ctx.shared["same_color"] = {
                s for s, x in preds.items() if x == ctx.view.prediction}
            if ctx.view.prediction == 1:
                ones = [s for s, x in preds.items() if x == 1]
                if self.rule == "base":
                    self.join = not ones
                else:
                    self.join = all(s < ctx.view.id for s in ones)
            return StageStep()
        if t == 2:
            if self.join:
                return StageStep({"y": 1}, terminate=True)
            self.zero = _note(ctx, inbox)
            return StageStep()
        if self.zero:
            return StageStep({"y": 0}, terminate=True)
        _note(ctx, inbox)
        return StageStep()


def mis_base() -> StagedProgram:
    return StagedProgram([MisInitStage("base")])


def mis_init() -> StagedProgram:
    return StagedProgram([MisInitStage("init")])


# ---------------------------------------------------------------------------
# clean-up


class MisCleanupStage(FixedStage):
    """One round: every active neighbor of a 1-output node outputs 0."""

    def __init__(self):
        super().__init__(1)

    def start(self, ctx):
        return _MisCleanupRun()


class _MisCleanupRun(StageRun):
    def compose(self, ctx, t):
        if ctx.nbr_one:
            return {v: ZERO for v in ctx.active}
        return {}

    def process(self, ctx, t, inbox):
        if ctx.nbr_one:
            return StageStep({"y": 0}, terminate=True)
        _note(ctx, inbox)
        return StageStep()


def mis_cleanup() -> StagedProgram:
    return StagedProgram([MisCleanupStage()])


# ---------------------------------------------------------------------------
# Greedy MIS


class GreedyStage(Stage):
    """Local-extremum-id join each odd round, notified nodes leave each even
    round.  order="max" is the standard algorithm; order="min" is the
    symmetric variant used as a distinct phased reference in tests."""

    phase_len = 2
    extendable_at_phase_end = True

    def __init__(self, order: str = "max"):
        if order not in ("max", "min"):
            raise ValueError(f"unknown order {order!r}")
        self.order = order

    def start(self, ctx):
        return _GreedyRun(self.order)


class _GreedyRun(StageRun):
    def __init__(self, order):
        self.order = order
        self.join = False
        self.zero = False

    def _wins(self, ctx):
        if not ctx.active:
            return True
        rival = max(ctx.active) if self.order == "max" else min(ctx.active)
        return rival < ctx.view.id if self.order == "max" else rival > ctx.view.id

    def compose(self, ctx, t):
        if t % 2 == 1:
            self.join = self._wins(ctx)
            if self.join:
                return {v: ONE for v in ctx.active}
        elif self.zero:
            return {v: ZERO for v in ctx.active}
        return {}

    def process(self, ctx, t, inbox):
        if t % 2 == 1:
            if self.join:
                return StageStep({"y": 1}, terminate=True)
            self.zero = _note(ctx, inbox)
        else:
            if self.zero:
                return StageStep({"y": 0}, terminate=True)
            _note(ctx, inbox)
        return StageStep()


def greedy_mis(order: str = "max") -> StagedProgram:
    return StagedProgram([GreedyStage(order)])


# ---------------------------------------------------------------------------
# black/white alternation


class UbwStage(Stage):
    """Greedy MIS phases run alternately on the prediction-1 (black) nodes
    and the prediction-0 (white) nodes.  The joining node notifies all its
    active neighbors regardless of their color, and the even round of each
    phase removes every notified node."""

    phase_len = 2
    extendable_at_phase_end = True

    def start(self, ctx):
        return _UbwRun(ctx.shared.get("same_color", set()))


class _UbwRun(StageRun):
    def __init__(self, same_color):
        self.join = False
        self.zero = False
        self.same_color = same_color  # active neighbors sharing my prediction

    def compose(self, ctx, t):
        if t % 2 == 1:
            phase_black = ((t + 1) // 2) % 2 == 1
            my_black = ctx.view.prediction == 1
            self.join = False
            if phase_black == my_black:
                rivals = ctx.active & self.same_color
                if all(v < ctx.view.id for v in rivals):
                    self.join = True
                    return {v: ONE for v in ctx.active}
        elif self.zero:
            return {v: ZERO for v in ctx.active}
        return {}

    def process(self, ctx, t, inbox):
        if t % 2 == 1:
            if self.join:
                return StageStep({"y": 1}, terminate=True)
            self.zero = _note(ctx, inbox)
        else:
            if self.zero:
                return StageStep({"y": 0}, terminate=True)
            _note(ctx, inbox)
        return StageStep()


class UbwColorProbe(FixedStage):
    """One exchange round so each node learns which active neighbors share
    its prediction (needed when u_bw runs without an initialization that
    already exchanged predictions)."""

    def __init__(self):
        super().__init__(1)

    def start(self, ctx):
        return _UbwProbeRun()


class _UbwProbeRun(StageRun):
    def compose(self, ctx, t):
        return {v: ("P", ctx.view.prediction) for v in ctx.active}

    def process(self, ctx, t, inbox):
        ctx.shared["same_color"] = {
            s for s, m in inbox.items() if m[1] == ctx.view.prediction}
        return StageStep()


def u_bw() -> StagedProgram:
    return StagedProgram([UbwColorProbe(), UbwStage()])


# ---------------------------------------------------------------------------
# rooted-tree initialization


class TreeInitStage(Stage):
    """4-round initialization for rooted trees.

    The independent set joined in round 2 is the prediction-1 nodes without
    a prediction-1 parent.  Round 3 settles the nodes notified in round 2
    and lets unnotified prediction-0 nodes without a prediction-0 parent
    join.  Round 4 settles the nodes notified in round 3.  Afterwards every
    active component is monochromatic in the predictions.

    eager=True makes notified nodes output 0 and stop in the round the
    notification arrives, without telling anyone.  That keeps the outputs
    identical but shortens runs (a correctly 3-colorable line finishes in 2
    rounds); it is only safe standalone, because silent terminations leave
    neighbors' active-set bookkeeping stale for any following stage.
    """

    def __init__(self, eager: bool = False):
        self.eager = eager

    def length(self, view):
        return 4

    def start(self, ctx):
        return _TreeInitRun(self.eager)


class _TreeInitRun(StageRun):
    def __init__(self, eager):
        self.eager = eager
        self.join = False
        self.white_join = False
        self.got2 = False
        self.got3 = False
        self.parent_pred = None

    def compose(self, ctx, t):
        if t == 1:
            return {v: ("P", ctx.view.prediction) for v in ctx.active}
        if t == 2 and self.join:
            return {v: ONE for v in ctx.active}
        if t == 3 and not self.eager:
            if self.got2:
                return {v: ZERO for v in ctx.active}
            if self.white_join:
                return {v: ONE for v in ctx.active}
        if t == 3 and self.eager and self.white_join:
            return {v: ONE for v in ctx.active}
        if t == 4 and self.got3 and not self.eager:
            return {v: ZERO for v in ctx.active}
        return {}

    def process(self, ctx, t, inbox):
        view = ctx.view
        if t == 1:
            preds = {s: m[1] for s, m in inbox.items()}
            self.parent_pred = None if view.is_root else preds.get(view.parent)
            if view.prediction == 1 and self.parent_pred != 1:
                self.join = True
            return StageStep()
        if t == 2:
            if self.join:
                return StageStep({"y": 1}, terminate=True)
            self.got2 = _note(ctx, inbox)
            if self.got2 and self.eager:
                return StageStep({"y": 0}, terminate=True)
            if not self.got2 and view.prediction == 0 and self.parent_pred != 0:
                self.white_join = True
            return StageStep()
        if t == 3:
            if self.got2:  # courteous mode only; eager already stopped
                return StageStep({"y": 0}, terminate=True)
            if self.white_join:
                return StageStep({"y": 1}, terminate=True)
            self.got3 = _note(ctx, inbox)
            if self.got3 and self.eager:
                return StageStep({"y": 0}, terminate=True)
            return StageStep()
        if self.got3:
            return StageStep({"y": 0}, terminate=True)
        _note(ctx, inbox)
        return StageStep()


def tree_init(eager: bool = False) -> StagedProgram:
    return StagedProgram([TreeInitStage(eager)])


# ---------------------------------------------------------------------------
# rooted-tree measure-uniform MIS

ROOT_MSG = "ROOT"


class TreeUniformStage(Stage):
    """Every odd round the component roots join the set (notifying their
    children) and the leaves join unless their parent is a root; every even
    round the notified nodes output 0."""

    phase_len = 2
    extendable_at_phase_end = True

    def start(self, ctx):
        return _TreeUniformRun()


class _TreeUniformRun(StageRun):
    def __init__(self):
        self.role = None
        self.zero = False

    def compose(self, ctx, t):
        view = ctx.view
        if t % 2 == 1:
            parent_active = not view.is_root and view.parent in ctx.active
            children = ctx.active - {view.parent}
            if not parent_active:
                self.role = "root"
                return {v: ROOT_MSG for v in children}
            if not children:
                self.role = "leaf"
                return {view.parent: LEAF}
            self.role = None
        elif self.zero:
            return {v: ZERO for v in ctx.active}
        return {}

    def process(self, ctx, t, inbox):
        view = ctx.view
        if t % 2 == 1:
            if self.role == "root":
                return StageStep({"y": 1}, terminate=True)
            if self.role == "leaf":
                bit = 0 if inbox.get(view.parent) == ROOT_MSG else 1
                return StageStep({"y": bit}, terminate=True)
            self.zero = False
            for s, m in inbox.items():
                if m == ROOT_MSG:  # my parent joined the set
                    ctx.nbr_one.add(s)
                    ctx.gone(s)
                    self.zero = True
                elif m == LEAF:  # this child is about to output 1
                    ctx.nbr_one.add(s)
                    ctx.gone(s)
                    self.zero = True
        else:
            if self.zero:
                return StageStep({"y": 0}, terminate=True)
            _note(ctx, inbox)
        return StageStep()


def tree_uniform() -> StagedProgram:
    return StagedProgram([TreeUniformStage()])


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


def gps_budget_even(d: int) -> int:
    r = gps_rounds(d)
    return r + (r % 2)


class GpsTreeColoringStage(Stage):
    """Fault-tolerant 3-coloring of a rooted tree.

    Identifier colors are reduced to at most 6 with iterated lowest-
    differing-bit steps, then the colors above 3 are removed with shift-down
    plus recolor pairs.  A node whose parent disappears acts as a root from
    then on, so the coloring of the surviving subgraph stays proper at every
    round.  The final color is stored (store_only) or output at the end.
    """

    fault_tolerant = True

    def __init__(self, store_only: bool = True):
        self.store_only = store_only

    def length(self, view):
        return gps_rounds(view.d)

    def start(self, ctx):
        return _GpsRun(self.store_only)


class _GpsRun(StageRun):
    def __init__(self, store_only):
        self.store_only = store_only
        self.color = None
        self.steps = None
        self.total = None
        self.done = False

    def _setup(self, ctx):
        self.color = ctx.view.id
        self.steps, c = _cv_schedule(ctx.view.d + 1)
        self.total = max(1, self.steps + 2 * max(0, c - 3))
        self.c_star = c

    def compose(self, ctx, t):
        if self.color is None:
            self._setup(ctx)
        if self.done:
            return {}
        return {v: ("C", self.color) for v in ctx.active}

    def process(self, ctx, t, inbox):
        if self.done:
            return StageStep()
        view = ctx.view
        colors = {s: m[1] for s, m in inbox.items()}
        pc = None
        if not view.is_root and view.parent in colors:
            pc = colors[view.parent]
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
        if t >= self.total:
            self.done = True
            ctx.stored["color"] = self.color + 1
            if not self.store_only:
                return StageStep({"y": self.color + 1}, terminate=True)
        return StageStep()


def gps_tree_3coloring() -> StagedProgram:
    return StagedProgram([GpsTreeColoringStage(store_only=False)])


# ---------------------------------------------------------------------------
# turning a stored coloring into an MIS


def _stored_color(ctx):
    color = ctx.stored.get("color", ctx.view.prediction)
    if not isinstance(color, int):
        raise ProtocolViolation(f"node {ctx.view.id} has no stored color")
    return color


class RevealStage(FixedStage):
    """One round: exchange locally stored colors with the active neighbors
    and check that the surviving coloring is proper."""

    def __init__(self):
        super().__init__(1)

    def start(self, ctx):
        return _RevealRun()


class _RevealRun(StageRun):
    def compose(self, ctx, t):
        return {v: ("C", _stored_color(ctx)) for v in ctx.active}

    def process(self, ctx, t, inbox):
        mine = _stored_color(ctx)
        nbr_colors = {s: m[1] for s, m in inbox.items()}
        for s, c in nbr_colors.items():
            if c == mine:
                raise ProtocolViolation(
                    f"stored coloring not proper: nodes {ctx.view.id} and {s}")
        ctx.shared["nbr_colors"] = nbr_colors
        return StageStep()


class ColorPart2Stage(Stage):
    """Produce an MIS from a stored proper (delta+1)-coloring in delta
    rounds: color class i joins in round i, color delta+1 resolves silently
    in the last round.  The combined variant additionally lets the largest
    identifier in a neighborhood with no active color-i node join, which
    makes progress every other round regardless of delta."""

    def __init__(self, combined: bool = False):
        self.combined = combined

    def length(self, view):
        return max(1, view.delta)

    def start(self, ctx):
        return _ColorPart2Run(self.combined)


class _ColorPart2Run(StageRun):
    def __init__(self, combined):
        self.combined = combined
        self.color = None
        self.got_ever = False
        self.got_last = False
        self.plan = None

    def compose(self, ctx, t):
        if self.color is None:
            self.color = _stored_color(ctx)
            delta = ctx.view.delta
            if not 1 <= self.color <= delta + 1:
                raise ProtocolViolation(
                    f"stored color {self.color} outside 1..{delta + 1}")
        delta = ctx.view.delta
        self.plan = None
        if not self.got_ever and self.color == t:
            self.plan = 1
            return {v: ONE for v in ctx.active}
        if self.combined and t < delta and not self.got_ever and self.color > t:
            nbr_colors = ctx.shared.get("nbr_colors", {})
            if all(nbr_colors.get(v) != t for v in ctx.active) \
                    and all(v < ctx.view.id for v in ctx.active):
                self.plan = 1
                return {v: ONE for v in ctx.active}
        if 1 < t < delta and self.got_last:
            self.plan = 0
            return {v: ZERO for v in ctx.active}
        return {}

    def process(self, ctx, t, inbox):
        if self.plan == 1:
            return StageStep({"y": 1}, terminate=True)
        if self.plan == 0:
            return StageStep({"y": 0}, terminate=True)
        got_now = _note(ctx, inbox)
        if t == ctx.view.delta:
            if got_now or self.got_last:
                return StageStep({"y": 0}, terminate=True)
            return StageStep({"y": 1}, terminate=True)
        self.got_last = got_now
        self.got_ever = self.got_ever or got_now
        return StageStep()


def coloring_to_mis_part2(combined: bool = False) -> StagedProgram:
    """Standalone harness form: the stored color is taken from the node's
    prediction, revealed in one round, then resolved in delta rounds."""
    return StagedProgram([RevealStage(), ColorPart2Stage(combined)])


class TreePart2Stage(FixedStage):
    """Two rounds from a stored proper 3-coloring of a rooted tree to an
    MIS: color 1 joins immediately (its neighbors leave), then color 2
    joins and color 3 keeps whatever remains consistent."""

    def __init__(self):
        super().__init__(2)

    def start(self, ctx):
        return _TreePart2Run()


class _TreePart2Run(StageRun):
    def __init__(self):
        self.color = None
        self.nbr_colors = {}

    def compose(self, ctx, t):
        if t == 1:
            self.color = _stored_color(ctx)
            if self.color not in (1, 2, 3):
                raise ProtocolViolation(f"stored color {self.color} outside 1..3")
            return {v: ("C", self.color) for v in ctx.active}
        if self.color == 2:
            return {v: ONE for v in ctx.active
                    if self.nbr_colors.get(v) == 3}
        return {}

    def process(self, ctx, t, inbox):
        if t == 1:
            self.nbr_colors = {s: m[1] for s, m in inbox.items()}
            for s, c in self.nbr_colors.items():
                if c == self.color:
                    raise ProtocolViolation(
                        f"stored coloring not proper: nodes {ctx.view.id} and {s}")
            if self.color == 1:
                return StageStep({"y": 1}, terminate=True)
            for s, c in self.nbr_colors.items():
                if c == 1:
                    ctx.nbr_one.add(s)
                    ctx.gone(s)
            if ctx.nbr_one:
                return StageStep({"y": 0}, terminate=True)
            return StageStep()
        if self.color == 2:
            return StageStep({"y": 1}, terminate=True)
        bit = 0 if any(m == ONE for m in inbox.values()) else 1
        return StageStep({"y": bit}, terminate=True)


def tree_ref_part2() -> StagedProgram:
    """Standalone harness form: the 3-coloring is taken from predictions."""
    return StagedProgram([TreePart2Stage()])
