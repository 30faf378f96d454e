"""Template combinators: assemble an initialization program, a
measure-uniform program, a clean-up program and a reference program into a
single node program.

build_template() returns a TemplateInstance that carries the assembled
program together with everything the bench harness needs to check round
bounds: the consistency constant c, the budget values, and closures for the
degradation and robustness bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import mis, problems
from .engine import default_max_rounds
from .stages import (ConfigError, InterleavedProgram, ParallelProgram, Stage,
                     StagedProgram, TruncatedStage)

TEMPLATES = ("simple", "consecutive", "interleaved", "parallel")


def _f_mis(report: dict) -> int:
    """Greedy round budget on the worst error component."""
    eta1 = report["eta1"]
    eta2 = report.get("eta2")
    if eta2 is None:
        return eta1
    return min(eta1, eta2 + 1)


def _f_mm(report: dict) -> int:
    return 3 * (report["eta1"] // 2)


def _f_vc(report: dict) -> int:
    return report["eta1"]


def _f_ec(report: dict) -> int:
    eta1 = report["eta1"]
    return max(1, 2 * eta1 - 3) if eta1 >= 2 else eta1


_F = {
    "MIS": _f_mis,
    "MAXIMAL_MATCHING": _f_mm,
    "VERTEX_COLORING": _f_vc,
    "EDGE_COLORING": _f_ec,
}


@dataclass
class TemplateInstance:
    problem: str
    template: str
    program: object
    c: int  # rounds used when predictions are correct
    f: Callable[[dict], int]  # error budget from a measure report
    degrading_slack: int = 0
    cleanup_len: int = 0
    r: Optional[Callable] = None  # consecutive truncation budget r(view)
    r1: Optional[Callable] = None  # parallel part-1 budget r1(view)
    part2_len: Optional[Callable] = None
    reveal_len: int = 0
    init_len: int = 0
    phase: Optional[int] = None  # interleaved per-phase budget

    def checkpoints(self, view_like, total_rounds):
        return self.program.checkpoints(view_like, total_rounds)

    def degrading_bound(self, report) -> int:
        """Round bound as a function of the error measures."""
        f = self.f(report)
        if self.template == "simple":
            return self.c + f
        if self.template in ("consecutive", "interleaved"):
            return self.c + 2 * f
        return self.c + f + self.degrading_slack

    def robust_bound(self, view_like, report=None) -> Optional[int]:
        """Round bound independent of prediction quality."""
        if self.template == "consecutive":
            return self.c + 2 * self.r(view_like) + 2 * self.cleanup_len
        if self.template == "interleaved":
            if report is None:
                return None
            f = self.f(report)
            phases = max(1, math.ceil(f / self.phase))
            return self.c + 2 * phases * self.phase
        if self.template == "parallel":
            return (self.init_len + self.r1(view_like) + self.cleanup_len
                    + self.reveal_len + self.part2_len(view_like))
        return None

    def max_rounds(self, g) -> int:
        base = default_max_rounds(g)
        if self.template == "parallel":
            return base + self.r1(g) + self.part2_len(g) + 10
        return base


def _even(x: int) -> int:
    return x + (x % 2)


def _mis_general(template: str, options: dict) -> TemplateInstance:
    init = mis.MisInitStage("init")
    greedy = mis.GreedyStage("max")
    if template == "simple":
        return TemplateInstance("MIS", template,
                                StagedProgram([init, greedy]), c=3, f=_f_mis)
    if template == "consecutive":
        r = options.get("r") or (lambda v: _even(v.n))
        budget = lambda v: r(v) + 1
        prog = StagedProgram([init, TruncatedStage(greedy, budget),
                              mis.MisCleanupStage(), mis.GreedyStage("max")])
        return TemplateInstance("MIS", template, prog, c=3, f=_f_mis,
                                cleanup_len=1, r=r)
    if template == "interleaved":
        phase = int(options.get("phase", 2))
        if phase % 2:
            raise ConfigError("interleaved greedy phases must be even")
        prog = InterleavedProgram(init, greedy, mis.GreedyStage("min"), phase)
        return TemplateInstance("MIS", template, prog, c=3, f=_f_mis,
                                phase=phase)
    r1 = options.get("r1") or (lambda v: problems.linial_budget_even(v.d, v.delta))
    part1 = problems.LinialColoringStage(store_only=True)
    part2 = mis.ColorPart2Stage(combined=True)
    prog = ParallelProgram(init, greedy, part1, part2, r1,
                           reveal=mis.RevealStage())
    return TemplateInstance("MIS", template, prog, c=3, f=_f_mis,
                            degrading_slack=2, r1=r1, reveal_len=1,
                            init_len=3, part2_len=lambda v: max(1, v.delta))


def _mis_tree(template: str, options: dict) -> TemplateInstance:
    init = mis.TreeInitStage(eager=False)
    uniform = mis.TreeUniformStage()
    if template == "simple":
        prog = StagedProgram([init, uniform])
        return TemplateInstance("MIS", template, prog, c=3, f=_f_mis)
    if template == "parallel":
        r1 = options.get("r1") or (lambda v: mis.gps_budget_even(v.d))
        part1 = mis.GpsTreeColoringStage(store_only=True)
        prog = ParallelProgram(init, uniform, part1, mis.TreePart2Stage(), r1)
        return TemplateInstance("MIS", template, prog, c=3, f=_f_mis,
                                degrading_slack=2, r1=r1, init_len=4,
                                part2_len=lambda v: 2)
    raise ConfigError(f"tree variant has no {template!r} template")


def _simple_or_consecutive(problem: str, template: str, init: Stage,
                           uniform: Stage, cleanup: Optional[Stage],
                           default_r: Callable, options: dict,
                           c: int) -> TemplateInstance:
    if template == "simple":
        prog = StagedProgram([init, uniform])
        return TemplateInstance(problem, template, prog, c=c, f=_F[problem])
    if template == "consecutive":
        r = options.get("r") or default_r
        cleanup_len = cleanup.length(None) if cleanup is not None else 0
        budget = lambda v: r(v) + cleanup_len
        stages = [init, TruncatedStage(uniform, budget)]
        if cleanup is not None:
            stages.append(cleanup)
        stages.append(type(uniform)())
        prog = StagedProgram(stages)
        return TemplateInstance(problem, template, prog, c=c, f=_F[problem],
                                cleanup_len=cleanup_len, r=r)
    raise ConfigError(f"{problem} supports simple and consecutive templates only")


def build_template(problem: str, template: str, **options) -> TemplateInstance:
    if template not in TEMPLATES:
        raise ConfigError(f"unknown template {template!r}")
    if problem == "MIS":
        if options.pop("tree", False):
            return _mis_tree(template, options)
        return _mis_general(template, options)
    if problem == "MAXIMAL_MATCHING":
        return _simple_or_consecutive(
            problem, template, problems.MmInitStage("init"),
            problems.MmUniformStage(), problems.MmCleanupStage(),
            lambda v: 3 * ((v.n + 1) // 2), options, c=2)
    if problem == "VERTEX_COLORING":
        return _simple_or_consecutive(
            problem, template, problems.VcInitStage("init"),
            problems.VcUniformStage(), None,
            lambda v: v.n, options, c=2)
    if problem == "EDGE_COLORING":
        return _simple_or_consecutive(
            problem, template, problems.EcBaseStage(),
            problems.EcUniformStage(), problems.EcCleanupStage(),
            lambda v: _even(2 * v.n), options, c=1)
    raise ConfigError(f"unknown problem {problem!r}")
