"""Per-node stage machinery shared by all node programs.

A node program is assembled from stages.  Each stage blueprint is stateless
and shared between nodes; per-node state lives in a StageRun created by
start() and in the node's Ctx, which persists across stages (so a later
stage can see which neighbors already terminated, which ones joined an
independent set, locally stored colors, and so on).

The drivers compute each run's stage time t from the round number, so a
run that returns StageStep(idle=True) may skip rounds: the driver turns
idle into the engine's wake round, and the run is next called when that
round comes or a message arrives.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from .engine import NEVER, NO_OUTPUTS, NodeView, ProtocolViolation, Step


class ConfigError(ValueError):
    """A template was assembled from incompatible components."""


class Ctx:
    """Cross-stage per-node knowledge."""

    __slots__ = ("view", "active", "nbr_one", "stored", "shared")

    def __init__(self, view: NodeView):
        self.view = view
        self.active = set(view.neighbor_ids)  # neighbors believed still active
        self.nbr_one = set()  # neighbors that output 1 (MIS)
        self.stored = {}  # locally stored (unrevealed) values
        self.shared = {}  # scratch shared between stages

    def gone(self, nbr: int):
        self.active.discard(nbr)


class StageStep:
    __slots__ = ("outputs", "terminate", "idle")

    def __init__(self, outputs: Mapping = NO_OUTPUTS, terminate: bool = False,
                 idle: bool = False):
        self.outputs = outputs
        self.terminate = terminate  # the node is completely finished
        # no work in this run until a message arrives: until then its compose
        # returns nothing and its process with an empty inbox changes nothing
        self.idle = idle


class StageRun:
    def compose(self, ctx: Ctx, t: int) -> dict:
        return {}

    def process(self, ctx: Ctx, t: int, inbox: Mapping[int, Any]) -> StageStep:
        return StageStep()


class Stage:
    """Blueprint. length(view) -> int, or None for open-ended stages.  The
    partial output of a phased stage is extendable at each phase end."""

    phase_len: Optional[int] = None  # rounds per phase, when phased
    fault_tolerant: bool = False

    def length(self, view: NodeView) -> Optional[int]:
        return None

    def start(self, ctx: Ctx) -> StageRun:
        raise NotImplementedError


class FixedStage(Stage):
    def __init__(self, rounds: int):
        self._rounds = rounds

    def length(self, view):
        return self._rounds


# ---------------------------------------------------------------------------
# sequential driver


class StagedBehavior:
    def __init__(self, ctx: Ctx, stages, lengths):
        self.ctx = ctx
        self.stages = stages
        self.lengths = lengths
        self.idx = 0
        self.before = 0  # rounds before the current stage
        self.end = self.lengths[0] if stages else None  # its last round
        self.run = stages[0].start(ctx) if stages else None

    def compose(self, rnd):
        # advance to the stage that round rnd falls in.  process needs no
        # advance: it follows compose, or it is a message to a sleeper,
        # whose wake round never lies past the start of the next stage
        while self.run is not None and self.end is not None and rnd > self.end:
            self.before = self.end
            self.idx += 1
            if self.idx < len(self.stages):
                self.run = self.stages[self.idx].start(self.ctx)
                ln = self.lengths[self.idx]
                self.end = None if ln is None else self.before + ln
            else:
                self.run = None
        if self.run is None:
            return {}
        return self.run.compose(self.ctx, rnd - self.before)

    def process(self, rnd, inbox):
        if self.run is None:
            # past the final fixed stage: terminate undecided
            return Step(terminate=True)
        step = self.run.process(self.ctx, rnd - self.before, inbox)
        last = self.idx == len(self.stages) - 1
        # end of a fixed final stage: undecided node stops here
        terminate = step.terminate or (rnd == self.end and last)
        wake = None
        if step.idle and not terminate:
            # sleep to the next stage, or to the last round of the final one
            wake = NEVER if self.end is None else (
                self.end if last else self.end + 1)
        # positional: keyword arguments double the cost of this hot call
        return Step(step.outputs, terminate, wake)


class _Lengths:
    """Each stage's length, None for an open-ended final stage, for the
    last (n, d, delta) seen.  A length reads only those three, so one
    tuple serves every node of a run and its bounds and checkpoints."""

    def __init__(self, stages):
        self.stages = stages
        self.key = self.lengths = None

    def __call__(self, view_like) -> tuple:
        key = (view_like.n, view_like.d, view_like.delta)
        if key != self.key:
            lengths = tuple(s.length(view_like) for s in self.stages)
            if None in lengths[:-1]:
                raise ConfigError("only the final stage may be open-ended")
            self.key, self.lengths = key, lengths
        return self.lengths


class StagedProgram:
    """Run stages back to back.  A stage length reads only n, d and delta
    of the view (or graph) it is given, so every node switches stages in
    the same round, and the lengths are computed once per (n, d, delta)."""

    def __init__(self, stages):
        self.stages = list(stages)
        self.lengths = _Lengths(self.stages)

    def start(self, view: NodeView):
        return StagedBehavior(Ctx(view), self.stages, self.lengths(view))

    def checkpoints(self, view_like, total_rounds: int) -> list[int]:
        """Rounds at which the global partial output must be extendable."""
        pts = []
        at = 0
        for s, ln in zip(self.stages, self.lengths(view_like)):
            if ln is None:
                if s.phase_len:
                    r = at + s.phase_len
                    while r <= total_rounds:
                        pts.append(r)
                        r += s.phase_len
                break
            at += ln
            if at <= total_rounds:
                pts.append(at)
            if s.phase_len:
                r0 = at - ln
                for r in range(r0 + s.phase_len, min(at, total_rounds) + 1, s.phase_len):
                    pts.append(r)
        if total_rounds not in pts:
            pts.append(total_rounds)
        return sorted(set(pts))


class TruncatedStage(Stage):
    """Run an inner open-ended stage for a fixed number of rounds, then stop."""

    def __init__(self, inner: Stage, budget: Callable[[NodeView], int]):
        self.inner = inner
        self.budget = budget
        self.phase_len = inner.phase_len

    def length(self, view):
        return self.budget(view)

    def start(self, ctx):
        return self.inner.start(ctx)


# ---------------------------------------------------------------------------
# interleaved driver


class InterleavedBehavior:
    def __init__(self, ctx, init_stage, init_len, uniform, reference, phase):
        self.ctx = ctx
        self.init_len = init_len
        self.init_run = init_stage.start(ctx)
        self.uniform = uniform
        self.reference = reference
        self.phase = phase  # rounds of each U or R block
        self.runs = {}
        self.idle = set()  # runs with no work until a message arrives

    def _current(self, rnd):
        """The run that round rnd belongs to, its stage time, and the first
        round of the next block.  Blocks run U, R, U, R, ... after init."""
        if rnd <= self.init_len:
            return "init", self.init_run, rnd, self.init_len + 1
        block, offset = divmod(rnd - self.init_len - 1, self.phase)
        which = "R" if block % 2 else "U"
        if which not in self.runs:
            stage = self.uniform if which == "U" else self.reference
            self.runs[which] = stage.start(self.ctx)
        return (which, self.runs[which], block // 2 * self.phase + offset + 1,
                rnd - offset + self.phase)

    def compose(self, rnd):
        which, run, t, _ = self._current(rnd)
        return run.compose(self.ctx, t)

    def process(self, rnd, inbox):
        which, run, t, next_block = self._current(rnd)
        step = run.process(self.ctx, t, inbox)
        wake = None
        if which == "init":
            if step.idle and not step.terminate:
                wake = next_block  # the first U block
        elif not step.terminate:
            # the runs share ctx, so what one learns may give the other work
            if inbox or not step.idle:
                self.idle.clear()
            if step.idle:
                self.idle.add(which)
                # both idle: only a message brings work; else the other
                # run may have some when its block starts
                wake = NEVER if len(self.idle) == 2 else next_block
        return Step(step.outputs, step.terminate, wake)


class InterleavedProgram:
    """Alternate phases of a measure-uniform stage and a phased reference."""

    def __init__(self, init_stage, uniform, reference, phase: int):
        for s, name in ((uniform, "uniform"), (reference, "reference")):
            if not s.phase_len:
                raise ConfigError(f"{name} stage must be phased")
        if phase < 1 or any(phase % s.phase_len for s in (uniform, reference)):
            raise ConfigError("phase budget must be a positive multiple of the stage phase length")
        self.init_stage = init_stage
        self.uniform = uniform
        self.reference = reference
        self.phase = phase
        self.init_length = _Lengths([init_stage])

    def start(self, view):
        return InterleavedBehavior(Ctx(view), self.init_stage,
                                   self.init_length(view)[0], self.uniform,
                                   self.reference, self.phase)

    def checkpoints(self, view_like, total_rounds):
        init_len = self.init_length(view_like)[0]
        pts = list(range(init_len, total_rounds, self.phase))
        pts.append(total_rounds)
        return sorted(set(pts))


# ---------------------------------------------------------------------------
# parallel driver


class FusedRun(StageRun):
    """One round of the measure-uniform stage and one round of part 1 of the
    reference per engine round, in two tagged sub-channels of one message."""

    def __init__(self, ctx, uniform, part1):
        self.u = uniform.start(ctx)
        self.r = part1.start(ctx)

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
        return StageStep(step.outputs, step.terminate)


class _FusedStage(Stage):
    def __init__(self, uniform, part1, r1):
        self.uniform = uniform
        self.part1 = part1
        self.r1 = r1
        self.phase_len = uniform.phase_len

    def length(self, view):
        return self.r1(view)

    def start(self, ctx):
        return FusedRun(ctx, self.uniform, self.part1)


class ParallelProgram(StagedProgram):
    """Initialization, then a fault-tolerant reference part 1 run in parallel
    with a measure-uniform stage, then (clean-up,) reveal, then part 2."""

    def __init__(self, init_stage, uniform, part1, part2, r1,
                 cleanup: Optional[Stage] = None, reveal: Optional[Stage] = None):
        if not part1.fault_tolerant:
            raise ConfigError("part 1 of the reference must be fault tolerant")
        stages = [init_stage, _FusedStage(uniform, part1, r1), cleanup, reveal, part2]
        super().__init__(s for s in stages if s is not None)
