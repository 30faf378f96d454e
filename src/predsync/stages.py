"""Per-node stage machinery shared by all node programs.

A node program is assembled from stages.  Each stage blueprint is stateless
and shared between nodes; per-node state lives in a StageRun created by
start() and in the node's Ctx, which persists across stages (so a later
stage can see which neighbors already terminated, which ones joined an
independent set, locally stored colors, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from .engine import NodeView, ProtocolViolation, Step


class ConfigError(ValueError):
    """A template was assembled from incompatible components."""


@dataclass
class Ctx:
    """Cross-stage per-node knowledge."""

    view: NodeView
    active: set = field(init=False)  # neighbors believed still active
    nbr_one: set = field(default_factory=set)  # neighbors that output 1 (MIS)
    stored: dict = field(default_factory=dict)  # locally stored (unrevealed) values
    shared: dict = field(default_factory=dict)  # scratch shared between stages

    def __post_init__(self):
        self.active = set(self.view.neighbor_ids)

    def gone(self, nbr: int):
        self.active.discard(nbr)


@dataclass
class StageStep:
    outputs: dict = field(default_factory=dict)
    terminate: bool = False  # the node is completely finished


class StageRun:
    def compose(self, ctx: Ctx, t: int) -> dict:
        return {}

    def process(self, ctx: Ctx, t: int, inbox: Mapping[int, Any]) -> StageStep:
        return StageStep()


class Stage:
    """Blueprint. fixed_length(view) -> int, or None for open-ended stages."""

    phase_len: Optional[int] = None  # rounds per phase, when phased
    extendable_at_phase_end: bool = False
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
    def __init__(self, ctx: Ctx, stages):
        self.ctx = ctx
        self.stages = stages
        self.lengths = [s.length(ctx.view) for s in stages]
        if any(l is None for l in self.lengths[:-1]):
            raise ConfigError("only the final stage may be open-ended")
        self.idx = 0
        self.t = 0  # rounds already spent in current stage
        self.run = stages[0].start(ctx) if stages else None

    def _advance_if_needed(self):
        while self.run is not None and self.lengths[self.idx] is not None \
                and self.t >= self.lengths[self.idx]:
            self.idx += 1
            self.t = 0
            if self.idx < len(self.stages):
                self.run = self.stages[self.idx].start(self.ctx)
            else:
                self.run = None

    def compose(self, rnd):
        self._advance_if_needed()
        if self.run is None:
            return {}
        return self.run.compose(self.ctx, self.t + 1)

    def process(self, rnd, inbox):
        if self.run is None:
            # past the final fixed stage: terminate undecided
            return Step(terminate=True)
        step = self.run.process(self.ctx, self.t + 1, inbox)
        self.t += 1
        out = Step(outputs=step.outputs, terminate=step.terminate)
        if not step.terminate and self.idx == len(self.stages) - 1 \
                and self.lengths[-1] is not None and self.t >= self.lengths[-1]:
            # end of a fixed final stage: undecided node stops here
            out.terminate = True
        return out


class StagedProgram:
    """Run stages back to back.  All fixed lengths must be computable from
    the node view alone, so every node switches stages in the same round."""

    def __init__(self, stages):
        self.stages = list(stages)

    def start(self, view: NodeView):
        return StagedBehavior(Ctx(view), self.stages)

    def checkpoints(self, view_like, total_rounds: int) -> list[int]:
        """Rounds at which the global partial output must be extendable."""
        pts = []
        at = 0
        for s in self.stages:
            ln = s.length(view_like)
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
            if s.phase_len and s.extendable_at_phase_end:
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
        self.extendable_at_phase_end = inner.extendable_at_phase_end

    def length(self, view):
        return self.budget(view)

    def start(self, ctx):
        return self.inner.start(ctx)


# ---------------------------------------------------------------------------
# interleaved driver


class InterleavedBehavior:
    def __init__(self, ctx, init_stage, uniform, reference, budgets):
        self.ctx = ctx
        self.init_len = init_stage.length(ctx.view)
        self.init_run = init_stage.start(ctx)
        self.uniform = uniform
        self.reference = reference
        self.budgets = budgets  # callable(view, i) -> rounds of phase i (1-based)
        self.phase_i = 0
        self.left = 0
        self.mode = None  # "U" or "R"
        self.runs = {}
        self.ts = {"U": 0, "R": 0}
        self.t_init = 0

    def _current(self):
        if self.t_init < self.init_len:
            return ("init", self.init_run)
        if self.left == 0:
            # phases run U(r_1), R(r_1), U(r_2), R(r_2), ...
            if self.mode == "U":
                self.mode = "R"
            else:
                self.mode = "U"
                self.phase_i += 1
            self.left = self.budgets(self.ctx.view, self.phase_i)
            key = self.mode
            stage = self.uniform if key == "U" else self.reference
            if key not in self.runs:
                self.runs[key] = stage.start(self.ctx)
        return (self.mode, self.runs[self.mode])

    def compose(self, rnd):
        which, run = self._current()
        if which == "init":
            return run.compose(self.ctx, self.t_init + 1)
        return run.compose(self.ctx, self.ts[which] + 1)

    def process(self, rnd, inbox):
        which, run = self._current()
        if which == "init":
            step = run.process(self.ctx, self.t_init + 1, inbox)
            self.t_init += 1
        else:
            step = run.process(self.ctx, self.ts[which] + 1, inbox)
            self.ts[which] += 1
            self.left -= 1
        return Step(outputs=step.outputs, terminate=step.terminate)


class InterleavedProgram:
    """Alternate phases of a measure-uniform stage and a phased reference."""

    def __init__(self, init_stage, uniform, reference, budgets=None):
        for s, name in ((uniform, "uniform"), (reference, "reference")):
            if not s.extendable_at_phase_end or not s.phase_len:
                raise ConfigError(f"{name} stage must be phased and extendable at phase ends")
        self.init_stage = init_stage
        self.uniform = uniform
        self.reference = reference
        if budgets is None:
            budgets = lambda view, i: uniform.phase_len
        self.budgets = budgets

    def start(self, view):
        ctx = Ctx(view)
        b = self.budgets
        for s in (self.uniform, self.reference):
            if b(view, 1) % s.phase_len != 0:
                raise ConfigError("phase budget must be a multiple of the stage phase length")
        return InterleavedBehavior(ctx, self.init_stage, self.uniform, self.reference, b)

    def checkpoints(self, view_like, total_rounds):
        pts = []
        at = self.init_stage.length(view_like)
        if at <= total_rounds:
            pts.append(at)
        i = 1
        while at < total_rounds:
            for _ in ("U", "R"):
                at += self.budgets(view_like, i)
                if at <= total_rounds:
                    pts.append(at)
                if at >= total_rounds:
                    break
            i += 1
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
        self.r_crashed = False

    def compose(self, ctx, t):
        u_out = self.u.compose(ctx, t)
        r_out = self.r.compose(ctx, t) if not self.r_crashed else {}
        merged = {}
        for nbr in set(u_out) | set(r_out):
            merged[nbr] = {"U": u_out.get(nbr), "R": r_out.get(nbr)}
        return merged

    def process(self, ctx, t, inbox):
        u_in = {s: m["U"] for s, m in inbox.items() if m.get("U") is not None}
        r_in = {s: m["R"] for s, m in inbox.items() if m.get("R") is not None}
        step = self.u.process(ctx, t, u_in)
        if not step.terminate and not self.r_crashed:
            rstep = self.r.process(ctx, t, r_in)
            if rstep.outputs or rstep.terminate:
                raise ProtocolViolation("part 1 must store outputs locally")
        return step


class _FusedStage(Stage):
    def __init__(self, uniform, part1, r1):
        self.uniform = uniform
        self.part1 = part1
        self.r1 = r1
        self.phase_len = uniform.phase_len
        self.extendable_at_phase_end = uniform.extendable_at_phase_end

    def length(self, view):
        return self.r1(view)

    def start(self, ctx):
        return FusedRun(ctx, self.uniform, self.part1)


class ParallelProgram:
    """Initialization, then a fault-tolerant reference part 1 run in parallel
    with a measure-uniform stage, then (clean-up,) reveal, then part 2."""

    def __init__(self, init_stage, uniform, part1, part2, r1,
                 cleanup: Optional[Stage] = None, reveal: Optional[Stage] = None):
        if not part1.fault_tolerant:
            raise ConfigError("part 1 of the reference must be fault tolerant")
        self.stages = [init_stage, _FusedStage(uniform, part1, r1)]
        if cleanup is not None:
            self.stages.append(cleanup)
        if reveal is not None:
            self.stages.append(reveal)
        self.stages.append(part2)

    def start(self, view):
        return StagedBehavior(Ctx(view), self.stages)

    def checkpoints(self, view_like, total_rounds):
        helper = StagedProgram(self.stages)
        return helper.checkpoints(view_like, total_rounds)
