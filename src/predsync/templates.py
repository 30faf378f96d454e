"""Template combinators: each template is one StagedProgram built from an
initialization, a measure-uniform stage U, a clean-up and a reference.
simple: [init, U].  consecutive: [init, TruncatedStage(U, r + clean-up),
clean-up, U], with no clean-up stage for vertex colouring.  interleaved
(MIS): [init, InterleavedStage(U, greedy, phase)].  parallel (MIS): [init,
ParallelStage(U, part 1, r1), reveal, part 2], with no reveal on trees.

build_template() returns a TemplateInstance: the assembled program, the
consistency constant c, the error budget f and the stages whose lengths its
round bounds and bound verdicts read, so each budget (initialization,
truncation, clean-up, part 1, reveal, part 2, interleaving phase) is
written down once, in the stage that spends it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from . import mis, problems
from .engine import default_max_rounds
from .stages import (ConfigError, InterleavedStage, ParallelStage,
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


class TemplateInstance:
    def __init__(self, template: str, program, c: int,
                 f: Callable[[dict], int], main=None, part2=None):
        self.template = template
        self.program = program
        self.c = c  # rounds used when predictions are correct
        self.f = f  # error budget from a measure report
        self.main = main  # the truncated, interleaved or fused stage
        self.part2 = part2  # the parallel template's last stage

    def bounds(self, g, report) -> tuple[Optional[int], Optional[int]]:
        """(degrading, robust) round bounds of a run on g whose error
        measures are report; None where a bound does not apply.  The
        consecutive robust bound c + 2·main assumes that the budget r
        covers the reference stage: the default budgets do, and the CLI
        never forces r.  With r forced to 1..3 it fails on 212 MM, 7 VC and
        223 EC runs of 1014 (test_consecutive_fallback_on_small_graphs)."""
        c, f = self.c, self.f(report)
        if self.template == "simple":
            return c + f, None
        if self.template == "interleaved":
            # whole U and R blocks until U has had f rounds
            phase = self.main.phase_len
            return c + 2 * f, c + 2 * max(1, math.ceil(f / phase)) * phase
        if self.template == "consecutive":
            # the truncated stage lasts r plus the clean-up
            return c + 2 * f, c + 2 * self.main.length(g)
        # parallel: the fused stage lasts the part-1 budget r1; the
        # degrading bound applies only if f fits inside it
        return ((c + f + 2 if self.main.length(g) >= f else None),
                sum(self.program.lengths(g)))

    def verdicts(self, g, report, rounds: int) -> tuple[str, str, str]:
        """The bound_consistency, bound_degrading and bound_robust cells of
        a run on g that took rounds rounds: "true", "false", or "" where a
        bound does not apply.  Consistency applies when eta1 is 0."""
        cells = ["" if report["eta1"] else str(rounds == self.c).lower()]
        for bound in self.bounds(g, report):
            cells.append("" if bound is None else str(rounds <= bound).lower())
        return tuple(cells)

    def max_rounds(self, g) -> int:
        if self.part2 is None:
            return default_max_rounds(g)
        return (default_max_rounds(g) + self.main.length(g)
                + self.part2.length(g) + 10)


def _even(x: int) -> int:
    return x + (x % 2)


# problem -> (c, f, initialization, uniform stage, clean-up or None, default
# truncation budget r(view) of the consecutive template).  Here and below,
# a leaf stage is its class, shared by every program built from it; only a
# composite stage of a per-call r or phase is built per call
_PARTS = {
    "MIS": (3, _f_mis, mis.MisInitStage, mis.GreedyStage,
            mis.MisCleanupStage, lambda v: _even(v.n)),
    "MAXIMAL_MATCHING": (2, _f_mm, problems.MmInitStage,
                         problems.MmUniformStage, problems.MmCleanupStage,
                         lambda v: 3 * ((v.n + 1) // 2)),
    "VERTEX_COLORING": (2, _f_vc, problems.VcInitStage,
                        problems.VcUniformStage, None, lambda v: v.n),
    "EDGE_COLORING": (1, _f_ec, problems.EcBaseStage,
                      problems.EcUniformStage, problems.EcCleanupStage,
                      lambda v: _even(2 * v.n)),
}


# the parallel MIS template: U fused with Linial part 1, the reveal round
# and part 2
_MIS_FUSED = ParallelStage(mis.GreedyStage, problems.LinialPart1Stage,
                           lambda v: problems.linial_budget_even(v.d, v.delta))
_MIS_PART2 = mis.ColorPart2CombinedStage
_MIS_PARALLEL = ((mis.MisInitStage, _MIS_FUSED, mis.RevealStage, _MIS_PART2),
                 _MIS_FUSED, _MIS_PART2)
# the rooted-tree MIS templates; there is no reveal stage on trees
_TREE_FUSED = ParallelStage(mis.TreeUniformStage, mis.GpsPart1Stage,
                            lambda v: mis.gps_budget_even(v.d))
_MIS_TREE = {
    "simple": ((mis.TreeInitStage, mis.TreeUniformStage), None, None),
    "parallel": ((mis.TreeInitStage, _TREE_FUSED, mis.TreePart2Stage),
                 _TREE_FUSED, mis.TreePart2Stage),
}


def _stages(problem: str, template: str, r: Optional[Callable], phase: int):
    """(stages, main, part2) of a template, as TemplateInstance names them."""
    _, _, init, uniform, cleanup, default_r = _PARTS[problem]
    if template == "simple":
        return (init, uniform), None, None
    if template == "consecutive":
        r = r or default_r
        tail = (cleanup,) if cleanup is not None else ()
        pad = sum(s.rounds for s in tail)
        main = TruncatedStage(uniform, lambda v: r(v) + pad)
        return (init, main, *tail, uniform), main, None
    if problem != "MIS":
        raise ConfigError(
            f"{problem} supports simple and consecutive templates only")
    if template == "interleaved":
        if phase % 2:
            raise ConfigError("interleaved greedy phases must be even")
        main = InterleavedStage(uniform, mis.GreedyMinStage, phase)
        return (init, main), main, None
    return _MIS_PARALLEL


def build_template(problem: str, template: str, *, tree: bool = False,
                   r: Optional[Callable] = None,
                   phase: int = 2) -> TemplateInstance:
    """tree selects the rooted-tree MIS programs, r(view) is the
    consecutive truncation budget, phase the interleaved block length."""
    if template not in TEMPLATES:
        raise ConfigError(f"unknown template {template!r}")
    if problem not in _PARTS:
        raise ConfigError(f"unknown problem {problem!r}")
    if problem == "MIS" and tree:
        if template not in _MIS_TREE:
            raise ConfigError(f"tree variant has no {template!r} template")
        stages, main, part2 = _MIS_TREE[template]
    else:
        stages, main, part2 = _stages(problem, template, r, phase)
    c, f = _PARTS[problem][:2]
    return TemplateInstance(template, StagedProgram(stages), c, f, main,
                            part2)
