"""Node programs for Maximal Matching, (delta+1)-Vertex Coloring and
(2*delta-1)-Edge Coloring, plus the fault-tolerant Linial-style coloring
used as a parallel-template reference.

Matching outputs are the partner's identifier or None (unmatched).
Vertex colors are ints in 1..delta+1, written to slot "y".  Edge colors are
ints in 1..2*delta-1, written to one output slot per incident edge, keyed by
the neighbor's identifier.
"""

from __future__ import annotations

from .stages import Ctx, FixedStage, Stage, StageRun, StageStep, StagedProgram

MATCHED = "MATCHED"


class EmptyPalette(RuntimeError):
    """A palette ran dry, which the extendability invariant forbids."""


# ---------------------------------------------------------------------------
# maximal matching


class MmInitStage(Stage):
    """2-round matching prologue: mutually predicted pairs match.

    rule="base" lets a node output None only when its own prediction is
    None and all its neighbors got matched; rule="init" drops the
    own-prediction condition.
    """

    def __init__(self, rule: str = "init"):
        if rule not in ("base", "init"):
            raise ValueError(f"unknown initialization rule {rule!r}")
        self.rule = rule

    def length(self, view):
        return 2

    def start(self, ctx):
        pred = ctx.view.prediction
        if pred is not None and pred not in ctx.view.neighbor_ids:
            raise ValueError(
                f"node {ctx.view.id}: predicted partner {pred!r} is not a neighbor")
        return _MmInitRun(self.rule)


class _MmInitRun(StageRun):
    def __init__(self, rule):
        self.rule = rule
        self.partner = None

    def compose(self, ctx, t):
        pred = ctx.view.prediction
        if t == 1:
            return {v: ("P", pred) for v in ctx.active}
        if t == 2 and self.partner is not None:
            return {v: (MATCHED,) for v in ctx.active if v != self.partner}
        return {}

    def process(self, ctx, t, inbox):
        pred = ctx.view.prediction
        if t == 1:
            preds = {s: m[1] for s, m in inbox.items()}
            if pred is not None and preds.get(pred) == ctx.view.id:
                self.partner = pred
            return StageStep()
        if self.partner is not None:
            return StageStep({"y": self.partner}, terminate=True)
        matched = {s for s, m in inbox.items() if m[0] == MATCHED}
        for s in matched:
            ctx.gone(s)
        all_matched = set(ctx.view.neighbor_ids) <= matched
        if all_matched and (self.rule == "init" or pred is None):
            return StageStep({"y": None}, terminate=True)
        return StageStep()


def mm_base() -> StagedProgram:
    return StagedProgram([MmInitStage("base")])


def mm_init() -> StagedProgram:
    return StagedProgram([MmInitStage("init")])


class MmCleanupStage(FixedStage):
    """One round: a node holding an unannounced mutual match outputs it."""

    def __init__(self):
        super().__init__(1)

    def start(self, ctx):
        return _MmCleanupRun()


class _MmCleanupRun(StageRun):
    def compose(self, ctx, t):
        partner = ctx.stored.get("match")
        if partner is not None:
            return {v: (MATCHED,) for v in ctx.active if v != partner}
        return {}

    def process(self, ctx, t, inbox):
        partner = ctx.stored.pop("match", None)
        if partner is not None:
            return StageStep({"y": partner}, terminate=True)
        for s, m in inbox.items():
            if m[0] == MATCHED:
                ctx.gone(s)
        return StageStep()


def mm_cleanup() -> StagedProgram:
    return StagedProgram([MmCleanupStage()])


class MmUniformStage(Stage):
    """Groups of three rounds: the local-maximum identifier proposes to its
    smallest active neighbor, proposals are accepted largest-first, and
    matches are announced in the third round."""

    phase_len = 3
    extendable_at_phase_end = True

    def start(self, ctx):
        return _MmUniformRun()


class _MmUniformRun(StageRun):
    def __init__(self):
        self.proposed_to = None
        self.chosen = None
        self.partner = None
        self.lonely = False

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
        elif self.partner is not None:
            return {v: (MATCHED,) for v in ctx.active if v != self.partner}
        return {}

    def process(self, ctx, t, inbox):
        step = (t - 1) % 3
        if step == 0:
            if self.lonely:
                return StageStep({"y": None}, terminate=True)
            proposals = [s for s, m in inbox.items() if m == ("PROP",)]
            if proposals:
                self.chosen = max(proposals)
        elif step == 1:
            if self.proposed_to is not None and self.proposed_to in inbox:
                self.partner = self.proposed_to
            elif self.chosen is not None:
                self.partner = self.chosen
            if self.partner is not None:
                ctx.stored["match"] = self.partner
        else:
            if self.partner is not None:
                ctx.stored.pop("match", None)
                return StageStep({"y": self.partner}, terminate=True)
            for s, m in inbox.items():
                if m == (MATCHED,):
                    ctx.gone(s)
            if not ctx.active:
                return StageStep({"y": None}, terminate=True)
        return StageStep()


def mm_uniform() -> StagedProgram:
    return StagedProgram([MmUniformStage()])


# ---------------------------------------------------------------------------
# (delta+1)-vertex coloring


def _vertex_palette(ctx: Ctx) -> set:
    return ctx.stored.setdefault(
        "palette", set(range(1, ctx.view.delta + 2)))


class VcInitStage(Stage):
    """2-round coloring prologue.  rule="base" commits a predicted color
    that differs from every neighbor's prediction; rule="init" also commits
    when every same-prediction neighbor has a smaller identifier."""

    def __init__(self, rule: str = "init"):
        if rule not in ("base", "init"):
            raise ValueError(f"unknown initialization rule {rule!r}")
        self.rule = rule

    def length(self, view):
        return 2

    def start(self, ctx):
        pred = ctx.view.prediction
        if not isinstance(pred, int) or not 1 <= pred <= ctx.view.delta + 1:
            raise ValueError(
                f"node {ctx.view.id}: predicted color {pred!r} out of range")
        _vertex_palette(ctx)
        return _VcInitRun(self.rule)


class _VcInitRun(StageRun):
    def __init__(self, rule):
        self.rule = rule
        self.commit = False

    def compose(self, ctx, t):
        if t == 1:
            return {v: ("P", ctx.view.prediction) for v in ctx.active}
        if self.commit:
            return {v: ("COLOR", ctx.view.prediction) for v in ctx.active}
        return {}

    def process(self, ctx, t, inbox):
        if t == 1:
            clashes = [s for s, m in inbox.items() if m[1] == ctx.view.prediction]
            if self.rule == "base":
                self.commit = not clashes
            else:
                self.commit = all(s < ctx.view.id for s in clashes)
            return StageStep()
        if self.commit:
            return StageStep({"y": ctx.view.prediction}, terminate=True)
        palette = _vertex_palette(ctx)
        for s, m in inbox.items():
            palette.discard(m[1])
            ctx.gone(s)
        return StageStep()


def vc_base() -> StagedProgram:
    return StagedProgram([VcInitStage("base")])


def vc_init() -> StagedProgram:
    return StagedProgram([VcInitStage("init")])


class VcUniformStage(Stage):
    """Each round the local-maximum identifier takes the smallest color left
    in its palette and leaves."""

    phase_len = 1
    extendable_at_phase_end = True

    def start(self, ctx):
        _vertex_palette(ctx)
        return _VcUniformRun()


class _VcUniformRun(StageRun):
    def __init__(self):
        self.pick = None

    def compose(self, ctx, t):
        palette = _vertex_palette(ctx)
        if not palette:
            raise EmptyPalette(f"node {ctx.view.id} has an empty palette")
        self.pick = None
        if not ctx.active or max(ctx.active) < ctx.view.id:
            self.pick = min(palette)
            return {v: ("COLOR", self.pick) for v in ctx.active}
        return {}

    def process(self, ctx, t, inbox):
        if self.pick is not None:
            return StageStep({"y": self.pick}, terminate=True)
        palette = _vertex_palette(ctx)
        for s, m in inbox.items():
            palette.discard(m[1])
            ctx.gone(s)
        return StageStep()


def vc_uniform() -> StagedProgram:
    return StagedProgram([VcUniformStage()])


# ---------------------------------------------------------------------------
# Linial-style fault-tolerant (delta+1)-coloring


def _next_prime(x: int) -> int:
    n = max(2, x)
    while True:
        if all(n % p for p in range(2, int(n ** 0.5) + 1)):
            return n
        n += 1


def _linial_schedule(d: int, delta: int) -> tuple[list[tuple[int, int]], int]:
    """Color-space reduction steps as (q, poly degree) pairs, and the final
    color-space size.  One step maps colors below k to colors below q*q by
    viewing each color as a degree-t polynomial over F_q (q prime, q**(t+1)
    >= k, q > delta*t) and picking an evaluation point that separates the
    node from all its neighbors."""
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
            return steps, k
        steps.append((q, t))
        k = q * q


def linial_rounds(d: int, delta: int) -> int:
    if delta == 0:
        return 1
    steps, k = _linial_schedule(d, delta)
    return max(1, len(steps) + max(0, k - (delta + 1)))


def linial_budget_even(d: int, delta: int) -> int:
    r = linial_rounds(d, delta)
    return r + (r % 2)


def _poly_eval(color: int, q: int, t: int, x: int) -> int:
    value = 0
    for i in range(t + 1):
        value = (value + (color % q) * pow(x, i, q)) % q
        color //= q
    return value


class LinialColoringStage(Stage):
    """Fault-tolerant (delta+1)-coloring: polynomial color-space reduction
    down to O(delta**2) colors, then one color class per round recolors into
    1..delta+1.  Proper on the surviving subgraph at every round."""

    fault_tolerant = True

    def __init__(self, store_only: bool = True):
        self.store_only = store_only

    def length(self, view):
        return linial_rounds(view.d, view.delta)

    def start(self, ctx):
        return _LinialRun(self.store_only)


class _LinialRun(StageRun):
    def __init__(self, store_only):
        self.store_only = store_only
        self.color = None
        self.done = False

    def _setup(self, ctx):
        view = ctx.view
        self.color = view.id
        if view.delta == 0:
            self.steps, self.k_star = [], 1
            self.color = 0
        else:
            self.steps, self.k_star = _linial_schedule(view.d, view.delta)
        self.total = max(1, len(self.steps)
                         + max(0, self.k_star - (view.delta + 1)))

    def compose(self, ctx, t):
        if self.color is None:
            self._setup(ctx)
        if self.done:
            return {}
        return {v: ("C", self.color) for v in ctx.active}

    def process(self, ctx, t, inbox):
        if self.done:
            return StageStep()
        delta = ctx.view.delta
        colors = [m[1] for m in inbox.values()]
        if t <= len(self.steps):
            q, deg = self.steps[t - 1]
            for x in range(q):
                mine = _poly_eval(self.color, q, deg, x)
                if all(_poly_eval(c, q, deg, x) != mine for c in colors):
                    self.color = x * q + mine
                    break
            else:
                raise AssertionError("no separating evaluation point")
        else:
            j = self.k_star - 1 - (t - len(self.steps) - 1)
            if self.color == j:
                taken = set(colors)
                self.color = min(c for c in range(delta + 1) if c not in taken)
        if t >= self.total:
            self.done = True
            ctx.stored["color"] = self.color + 1
            if not self.store_only:
                return StageStep({"y": self.color + 1}, terminate=True)
        return StageStep()


def linial_coloring() -> StagedProgram:
    return StagedProgram([LinialColoringStage(store_only=False)])


# ---------------------------------------------------------------------------
# (2*delta-1)-edge coloring


def _edge_state(ctx: Ctx) -> dict:
    hi = max(1, 2 * ctx.view.delta - 1)
    return ctx.stored.setdefault("edges", {
        "uncolored": set(ctx.view.neighbor_ids),
        "palette": {v: set(range(1, hi + 1)) for v in ctx.view.neighbor_ids},
        "mine": set(),  # colors this node has output
        "two_hop": {},  # uncolored neighbor -> its uncolored neighbors
    })


class EcBaseStage(Stage):
    """2-round edge-coloring prologue: locally distinct predicted colors
    agreed by both endpoints are committed in round 1; round 2 broadcasts
    committed colors and the identifiers needed for the 2-hop rule of the
    measure-uniform stage."""

    def length(self, view):
        return 2

    def start(self, ctx):
        pred = ctx.view.prediction
        hi = max(1, 2 * ctx.view.delta - 1)
        if not isinstance(pred, dict) or set(pred) != set(ctx.view.neighbor_ids):
            raise ValueError(f"node {ctx.view.id}: edge predictions incomplete")
        for v, c in pred.items():
            if not isinstance(c, int) or not 1 <= c <= hi:
                raise ValueError(
                    f"node {ctx.view.id}: predicted color {c!r} out of range")
        _edge_state(ctx)
        return _EcBaseRun()


class _EcBaseRun(StageRun):
    def compose(self, ctx, t):
        st = _edge_state(ctx)
        if t == 1:
            pred = ctx.view.prediction
            tally = {}
            for c in pred.values():
                tally[c] = tally.get(c, 0) + 1
            return {v: ("PC", c) for v, c in pred.items() if tally[c] == 1}
        return {v: ("INFO", sorted(st["mine"]), sorted(st["uncolored"]))
                for v in st["uncolored"]}

    def process(self, ctx, t, inbox):
        st = _edge_state(ctx)
        if t == 1:
            pred = ctx.view.prediction
            tally = {}
            for c in pred.values():
                tally[c] = tally.get(c, 0) + 1
            outputs = {}
            for s, m in inbox.items():
                c = m[1]
                if c == pred[s] and tally[c] == 1:
                    outputs[s] = c
                    st["uncolored"].discard(s)
                    st["mine"].add(c)
            if not st["uncolored"]:
                return StageStep(outputs, terminate=True)
            for v in st["uncolored"]:
                st["palette"][v] -= st["mine"]
            return StageStep(outputs)
        for s, m in inbox.items():
            _, cols, unc = m
            st["palette"][s] -= set(cols)
            st["two_hop"][s] = set(unc) - {ctx.view.id}
        return StageStep()


def ec_base() -> StagedProgram:
    return StagedProgram([EcBaseStage()])


class EcCleanupStage(FixedStage):
    """One round: endpoints of uncolored edges re-exchange their committed
    colors and uncolored neighbor sets, restoring equal palettes."""

    def __init__(self):
        super().__init__(1)

    def start(self, ctx):
        _edge_state(ctx)
        return _EcCleanupRun()


class _EcCleanupRun(StageRun):
    def compose(self, ctx, t):
        st = _edge_state(ctx)
        return {v: ("CLEAN", sorted(st["mine"]), sorted(st["uncolored"]))
                for v in st["uncolored"]}

    def process(self, ctx, t, inbox):
        st = _edge_state(ctx)
        for s, m in inbox.items():
            _, cols, unc = m
            st["palette"][s] -= set(cols)
            st["two_hop"][s] = set(unc) - {ctx.view.id}
        return StageStep()


def ec_cleanup() -> StagedProgram:
    return StagedProgram([EcCleanupStage()])


class EcProbeStage(FixedStage):
    """One round standalone substitute for the ec_base round-2 exchange:
    establishes 2-hop identifier knowledge with everything uncolored."""

    def __init__(self):
        super().__init__(1)

    def start(self, ctx):
        _edge_state(ctx)
        return _EcProbeRun()


class _EcProbeRun(StageRun):
    def compose(self, ctx, t):
        st = _edge_state(ctx)
        return {v: ("INFO", sorted(st["uncolored"])) for v in st["uncolored"]}

    def process(self, ctx, t, inbox):
        st = _edge_state(ctx)
        for s, m in inbox.items():
            st["two_hop"][s] = set(m[1]) - {ctx.view.id}
        return StageStep()


class EcUniformStage(Stage):
    """Odd rounds: a node whose identifier beats everything within two
    uncolored hops colors all its uncolored edges with distinct palette
    colors; even rounds broadcast the palette removals."""

    phase_len = 2
    extendable_at_phase_end = True

    def start(self, ctx):
        _edge_state(ctx)
        return _EcUniformRun()


class _EcUniformRun(StageRun):
    def __init__(self):
        self.assign = None
        self.pending = None

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
            return {v: ("UPD", sorted(cols), sorted(filled))
                    for v in st["uncolored"]}
        return {}

    def process(self, ctx, t, inbox):
        st = _edge_state(ctx)
        if t % 2 == 1:
            if self.assign is not None:
                return StageStep(dict(self.assign), terminate=True)
            if not st["uncolored"]:
                return StageStep(terminate=True)
            outputs = {}
            got = set()
            for s, m in inbox.items():
                if m[0] == "TAKE":
                    outputs[s] = m[1]
                    got.add(m[1])
                    st["uncolored"].discard(s)
                    st["mine"].add(m[1])
            if outputs and not st["uncolored"]:
                return StageStep(outputs, terminate=True)
            if outputs:
                for v in st["uncolored"]:
                    st["palette"][v] -= got
                self.pending = (got, set(outputs))
            return StageStep(outputs)
        if self.pending:
            self.pending = None
        for s, m in inbox.items():
            if m[0] == "UPD":
                _, cols, filled = m
                st["palette"][s] -= set(cols)
                st["two_hop"][s] -= set(filled)
        return StageStep()


def ec_uniform() -> StagedProgram:
    """Standalone harness form: a probe round supplies the 2-hop identifier
    knowledge that ec_base round 2 provides inside templates."""
    return StagedProgram([EcProbeStage(), EcUniformStage()])
