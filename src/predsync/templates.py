"""Template combinators: each template is one StagedProgram built from an
initialization, a measure-uniform stage U, a clean-up and a reference.
simple: [init, U].  consecutive: [init, TruncatedStage(U, r + clean-up),
clean-up, U], with no clean-up stage for vertex colouring.  interleaved
(MIS): [init, InterleavedStage(U, greedy, phase)].  parallel (MIS): [init,
ParallelStage(U, part 1, r1), reveal, part 2], with no reveal on trees.

build_template() assembles every template from one row of _PARTS and
returns a TemplateInstance: the program, the consistency constant c and
the error budget f.  Its round bounds read the lengths the program runs
with, so each budget (initialization, truncation, clean-up, part 1,
reveal, part 2, interleaving phase) is written down once, in the stage
that spends it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from . import mis, problems
from .engine import default_max_rounds
from .graphs import PROBLEM_KINDS
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


class TemplateInstance(NamedTuple):
    template: str
    program: StagedProgram
    c: int  # rounds used when predictions are correct
    f: Callable[[dict], int]  # error budget from a measure report

    def bounds(self, g, report) -> tuple[Optional[int], Optional[int]]:
        """(degrading, robust) round bounds of a run on g whose error
        measures are report; None where a bound does not apply.  Stage 1
        is the truncated, interleaved or fused stage.  The consecutive
        robust bound c + 2·lengths[1] assumes that the budget r covers the
        reference stage: the default budgets do, and the CLI never forces
        r.  With r forced to 1..3 it fails on 212 MM, 7 VC and 223 EC runs
        of 1014 (test_consecutive_fallback_on_small_graphs)."""
        c, f = self.c, self.f(report)
        if self.template == "simple":
            return c + f, None
        if self.template == "interleaved":
            # whole U and R blocks until U has had f rounds
            phase = self.program.stages[1].phase_len
            return c + 2 * f, c + 2 * max(1, math.ceil(f / phase)) * phase
        lengths = self.program.lengths(g)
        if self.template == "consecutive":
            # the truncated stage lasts r plus the clean-up
            return c + 2 * f, c + 2 * lengths[1]
        # parallel: the fused stage lasts the part-1 budget r1; the
        # degrading bound applies only if f fits inside it
        return (c + f + 2 if lengths[1] >= f else None), sum(lengths)

    def verdicts(self, g, report, rounds: int) -> tuple[str, str, str]:
        """The bound_consistency, bound_degrading and bound_robust cells of
        a run on g that took rounds rounds: "true", "false", or "" where a
        bound does not apply.  Consistency applies when eta1 is 0."""
        cells = ["" if report["eta1"] else str(rounds == self.c).lower()]
        for bound in self.bounds(g, report):
            cells.append("" if bound is None else str(rounds <= bound).lower())
        return tuple(cells)

    def max_rounds(self, g) -> int:
        if self.template != "parallel":
            return default_max_rounds(g)
        lengths = self.program.lengths(g)  # part 1's r1, and part 2
        return default_max_rounds(g) + lengths[1] + lengths[-1] + 10


def _even(x: int) -> int:
    return x + (x % 2)


# row -> (c, f, initialization, uniform stage, clean-up or None,
# consecutive truncation budget r(view) or None, interleaved reference or
# None, parallel part or None).  A parallel part is (part 1, its budget
# r1(view), the stages after it).  A None r, reference or parallel part
# means the row has no such template.  TREE is MIS on a rooted tree: a
# row, never a problem.  A leaf stage is its class, shared by every
# program built from it; build_template builds only the composite stages,
# once per call
_PARTS = {
    "MIS": (3, _f_mis, mis.MisInitStage, mis.GreedyStage,
            mis.MisCleanupStage, lambda v: _even(v.n), mis.GreedyMinStage,
            (problems.LinialPart1Stage,
             lambda v: _even(problems.linial_rounds(v.d, v.delta)),
             (mis.RevealStage, mis.ColorPart2CombinedStage))),
    "MAXIMAL_MATCHING": (2, _f_mm, problems.MmInitStage,
                         problems.MmUniformStage, problems.MmCleanupStage,
                         lambda v: 3 * ((v.n + 1) // 2), None, None),
    "VERTEX_COLORING": (2, _f_vc, problems.VcInitStage,
                        problems.VcUniformStage, None, lambda v: v.n, None,
                        None),
    "EDGE_COLORING": (1, _f_ec, problems.EcBaseStage,
                      problems.EcUniformStage, problems.EcCleanupStage,
                      lambda v: _even(2 * v.n), None, None),
    "TREE": (3, _f_mis, mis.TreeInitStage, mis.TreeUniformStage, None, None,
             None, (mis.GpsPart1Stage, lambda v: _even(mis.gps_rounds(v.d)),
                    (mis.TreePart2Stage,))),
}


def build_template(problem: str, template: str, *, tree: bool = False,
                   r: Optional[Callable] = None,
                   phase: int = 2) -> TemplateInstance:
    """tree selects the rooted-tree MIS programs, r(view) is the
    consecutive truncation budget, phase the interleaved block length."""
    if template not in TEMPLATES:
        raise ConfigError(f"unknown template {template!r}")
    if problem not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem {problem!r}")
    row = "TREE" if tree and problem == "MIS" else problem
    c, f, init, uniform, cleanup, default_r, reference, parallel = _PARTS[row]
    if template == "simple":
        stages = (init, uniform)
    elif template == "consecutive" and default_r is not None:
        r = r or default_r
        tail = (cleanup,) if cleanup is not None else ()
        pad = sum(s.rounds for s in tail)
        stages = (init, TruncatedStage(uniform, lambda v: r(v) + pad), *tail,
                  uniform)
    elif template == "interleaved" and reference is not None:
        if phase % 2:
            raise ConfigError("interleaved greedy phases must be even")
        stages = (init, InterleavedStage(uniform, reference, phase))
    elif template == "parallel" and parallel is not None:
        part1, r1, after = parallel
        stages = (init, ParallelStage(uniform, part1, r1), *after)
    elif row == "TREE":
        raise ConfigError(f"tree variant has no {template!r} template")
    else:
        raise ConfigError(
            f"{problem} supports simple and consecutive templates only")
    return TemplateInstance(template, StagedProgram(stages), c, f)
