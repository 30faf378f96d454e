"""Per-node stage machinery shared by all node programs.

Every node program is a StagedProgram: stages run back to back by one
driver, the node's Ctx.  A leaf stage is a Stage subclass: the class is
the blueprint, shared by every node and program, and an instance, made by
stage(ctx) when the stage starts, is one node's run.  Per-node state lives
in that run and in the node's Ctx, which persists across stages (so a
later stage can see which neighbors already terminated, which ones joined
an independent set, locally stored colors, and so on).  The templates'
compositions are stages too, objects of a per-call budget or phase:
TruncatedStage, InterleavedStage and ParallelStage.

A run returns the engine's Step, and its wake is a stage round: NEVER for
no work until a message arrives, a finite wake for none before that
round.  Steps are shared (engine.IDLE, SLEEP, STOP; mis.JOINED, LEFT), so
the driver, which derives stage time from the round number, returns a new
Step with the wake shifted, capped at the next stage start (the last round
of a fixed final stage); a message still wakes the node earlier.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from .engine import IDLE, NEVER, STOP, NodeView, ProtocolViolation, Step


class ConfigError(ValueError):
    """A bad config: a value the CLI rejects, or a program or template
    assembled from incompatible components."""


class Stage:
    """One node's run of a stage; the class is the stage's blueprint.
    length(view) -> int, or None for open-ended stages.  The partial output
    of a phased stage is extendable at each phase end.  process returns a
    Step that no code edits, so a shared one such as IDLE serves every
    call it fits.  Class attributes are shared by every node, so each
    default is immutable."""

    rounds: Optional[int] = None  # the fixed length; None: open-ended
    phase_len: Optional[int] = None  # rounds per phase, when phased
    fault_tolerant: bool = False

    @classmethod
    def length(cls, view: NodeView) -> Optional[int]:
        return cls.rounds

    def __init__(self, ctx: Ctx):
        pass

    def compose(self, ctx: Ctx, t: int) -> dict:
        return {}

    def process(self, ctx: Ctx, t: int, inbox: Mapping[int, Any]) -> Step:
        return IDLE


# ---------------------------------------------------------------------------
# the driver


class Ctx:
    """One node's run of a program: the cross-stage knowledge stages share,
    and the driver's state.  Slotted, so a per-node field is deliberate."""

    __slots__ = ("view", "active", "nbr_one", "stored", "stages", "spans",
                 "idx", "before", "end", "cap", "run")

    def __init__(self, view: NodeView, stages, spans):
        self.view = view
        self.active = set(view.neighbor_ids)  # neighbors believed still active
        self.nbr_one = set()  # neighbors that output 1 (MIS)
        self.stored = {}  # unrevealed values and what later stages read
        self.stages = stages
        self.spans = spans  # shared by every node of the run
        if stages:
            self.run = self._enter(0)
        else:
            self.end = self.run = None

    def _enter(self, idx):
        """Stage idx's run, which starts after round self.before.  end is its
        last round, None when open-ended; cap is the latest wake: the next
        stage start, or the final stage's last round."""
        self.idx = idx
        self.before, self.end, self.cap = self.spans[idx]
        return self.stages[idx](self)

    def compose(self, rnd):
        # advance to the stage that round rnd falls in.  process needs no
        # advance: it follows compose, or it is a message to a sleeper,
        # whose wake round never lies past the start of the next stage
        while self.end is not None and rnd > self.end and self.run is not None:
            nxt = self.idx + 1
            self.run = self._enter(nxt) if nxt < len(self.stages) else None
        if self.run is None:
            return {}
        return self.run.compose(self, rnd - self.before)

    def process(self, rnd, inbox):
        if self.run is None:
            # past the final fixed stage: terminate undecided
            return STOP
        step = self.run.process(self, rnd - self.before, inbox)
        if rnd == self.end and self.idx == len(self.stages) - 1:  # stop undecided
            return step if step.terminate else Step(step.outputs, True)
        wake = step.wake
        if wake is not None:
            wake = min(self.before + wake, self.cap)  # as an engine round
            if wake != step.wake:
                return Step(step.outputs, step.terminate, wake)
        return step


class StagedProgram:
    """Run stages back to back.  A stage length reads only n, d and delta
    of the view (or graph) it is given, so every node switches stages in
    the same round, and the lengths are computed once per (n, d, delta)."""

    def __init__(self, stages):
        self.stages = list(stages)
        self._key = self._lengths = self._spans = None

    def lengths(self, view_like) -> tuple:
        """Each stage's length, None for an open-ended final stage.  Kept
        for the last (n, d, delta) seen, so one tuple serves every node of
        a run and its bounds and checkpoints, and so does each stage's
        span for Ctx: (rounds before it, its last round, its cap)."""
        key = (view_like.n, view_like.d, view_like.delta)
        if key != self._key:
            lengths = tuple(s.length(view_like) for s in self.stages)
            if None in lengths[:-1]:
                raise ConfigError("only the final stage may be open-ended")
            spans, before, last = [], 0, len(lengths) - 1
            for idx, ln in enumerate(lengths):
                if ln is None:
                    spans.append((before, None, NEVER))
                else:  # cap: the next stage start, or the last round
                    spans.append((before, before + ln, before + ln + (idx < last)))
                    before += ln
            self._key, self._lengths, self._spans = key, lengths, tuple(spans)
        return self._lengths

    def start(self, view: NodeView):
        if (view.n, view.d, view.delta) != self._key:
            self.lengths(view)
        return Ctx(view, self.stages, self._spans)

    def checkpoints(self, view_like, total_rounds: int) -> list[int]:
        """Rounds at which the global partial output must be extendable."""
        pts, at = {total_rounds}, 0
        for s, ln in zip(self.stages, self.lengths(view_like)):
            # each stage end and phase end up to the run's end, where an
            # open-ended (so final) stage ends
            end = total_rounds if ln is None else at + ln
            if end <= total_rounds:
                pts.add(end)
            if s.phase_len:
                pts.update(range(at + s.phase_len, min(end, total_rounds) + 1,
                                 s.phase_len))
            at = end
        return sorted(pts)


# ---------------------------------------------------------------------------
# composite stages


class TruncatedStage:
    """Run an inner open-ended stage for a fixed number of rounds, then stop."""

    def __init__(self, inner: type[Stage], budget: Callable[[NodeView], int]):
        self.inner = inner
        self.length = budget  # length(view) is the budget
        self.phase_len = inner.phase_len

    def __call__(self, ctx):
        return self.inner(ctx)


class InterleavedStage:
    """Open-ended: blocks of phase rounds of a measure-uniform stage U and
    a phased reference R, U first, each started at its first block.  Every
    block ends a phase of both, so it is this stage's phase."""

    def __init__(self, uniform: type[Stage], reference: type[Stage],
                 phase: int):
        for s, name in ((uniform, "uniform"), (reference, "reference")):
            if not s.phase_len:
                raise ConfigError(f"{name} stage must be phased")
        if phase < 1 or any(phase % s.phase_len for s in (uniform, reference)):
            raise ConfigError("phase budget must be a positive multiple of the stage phase length")
        self.stages = (uniform, reference)
        self.phase_len = phase

    def length(self, view):
        return None

    def __call__(self, ctx):
        return _InterleavedRun(self.stages, self.phase_len)


class _InterleavedRun:
    def __init__(self, stages, phase):
        self.stages = stages  # U, R
        self.phase = phase
        self.runs = [None, None]  # the U and R runs, once started
        self.idle = set()  # runs with no work until a message arrives
        # first stage round past the current block; stage rounds only grow
        self.next_block = 1

    def _enter(self, ctx, t):
        """Make the block that stage round t falls in the current one."""
        block = (t - 1) // self.phase
        self.which = which = block % 2
        run = self.runs[which]
        if run is None:
            run = self.runs[which] = self.stages[which](ctx)
        self.run = run
        # t minus the run's own stage time: the other run's rounds so far
        self.shift = (block - block // 2) * self.phase
        self.next_block = (block + 1) * self.phase + 1

    def compose(self, ctx, t):
        if t >= self.next_block:
            self._enter(ctx, t)
        return self.run.compose(ctx, t - self.shift)

    def process(self, ctx, t, inbox):
        if t >= self.next_block:
            self._enter(ctx, t)
        step = self.run.process(ctx, t - self.shift, inbox)
        if step.terminate:
            return step
        # the runs share ctx, so what one learns may give the other work
        if inbox or step.wake is None:
            self.idle.clear()
        if step.wake is None:
            return step
        self.idle.add(self.which)
        # both idle: only a message brings work; else the other run may
        # have some when its block starts
        wake = NEVER if len(self.idle) == 2 else self.next_block
        return step if wake == step.wake else Step(step.outputs, wake=wake)


class FusedRun:
    """One round of the measure-uniform stage and one round of part 1 of the
    reference per engine round, in two tagged sub-channels of one message."""

    def __init__(self, ctx, uniform, part1):
        self.u = uniform(ctx)
        self.r = part1(ctx)

    def compose(self, ctx, t):
        u_out = self.u.compose(ctx, t)
        r_out = self.r.compose(ctx, t)
        merged = {}
        for nbr in set(u_out) | set(r_out):
            merged[nbr] = {"U": u_out.get(nbr), "R": r_out.get(nbr)}
        return merged

    def process(self, ctx, t, inbox):
        u_in = {s: m["U"] for s, m in inbox.items() if m.get("U") is not None}
        r_in = {s: m["R"] for s, m in inbox.items() if m.get("R") is not None}
        step = self.u.process(ctx, t, u_in)
        if not step.terminate:
            rstep = self.r.process(ctx, t, r_in)
            if rstep.outputs or rstep.terminate:
                raise ProtocolViolation("part 1 must store outputs locally")
        # part 1 works every round, so the fused run is never idle
        return step if step.wake is None else Step(step.outputs, step.terminate)


class ParallelStage:
    """A measure-uniform stage run alongside part 1 of a fault-tolerant
    reference, for part 1's budget of r1(view) rounds."""

    def __init__(self, uniform: type[Stage], part1: type[Stage],
                 r1: Callable[[NodeView], int]):
        if not part1.fault_tolerant:
            raise ConfigError("part 1 of the reference must be fault tolerant")
        self.uniform = uniform
        self.part1 = part1
        self.length = r1  # length(view) is part 1's budget
        self.phase_len = uniform.phase_len

    def __call__(self, ctx):
        return FusedRun(ctx, self.uniform, self.part1)
