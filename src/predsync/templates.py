"""Template combinators: each template is one StagedProgram built from an
initialization, a measure-uniform stage U, a clean-up and a reference.
simple: [init, U].  consecutive: [init, TruncatedStage(U, r + clean-up),
clean-up, U], with no clean-up stage for vertex colouring.  interleaved
(MIS): [init, InterleavedStage(U, greedy, phase)].  parallel (MIS): [init,
ParallelStage(U, part 1, r1), reveal, part 2], with no reveal on trees.

build_template() returns a TemplateInstance: the assembled program, the
consistency constant c and the error budget f.  Its round bounds are read
from the program's own stage lengths, so each budget (initialization,
truncation, clean-up, part 1, reveal, part 2, interleaving phase) is written
down once, in the stage that spends it.
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
                 f: Callable[[dict], int]):
        self.template = template
        self.program = program
        self.c = c  # rounds used when predictions are correct
        self.f = f  # error budget from a measure report

    def bounds(self, g, report) -> tuple[Optional[int], Optional[int]]:
        """(degrading, robust) round bounds of a run on g whose error
        measures are report; None where a bound does not apply.  The
        consecutive robust bound c + 2·lengths[1] assumes that the budget r
        covers the reference stage: the default budgets do, and the CLI
        never forces r.  With r forced to 1..3 it fails on 212 MM, 7 VC and
        223 EC runs of 1014 (test_consecutive_fallback_on_small_graphs)."""
        c, f = self.c, self.f(report)
        if self.template == "simple":
            return c + f, None
        if self.template == "interleaved":
            # whole U and R blocks until U has had f rounds
            phase = self.program.stages[-1].phase_len
            return c + 2 * f, c + 2 * max(1, math.ceil(f / phase)) * phase
        lengths = self.program.lengths(g)
        if self.template == "consecutive":
            # stages[1] is the truncated uniform stage: r plus the clean-up
            return c + 2 * f, c + 2 * lengths[1]
        # parallel: stages[1] is the fused stage, as long as the part-1
        # budget r1; the degrading bound applies only if f fits inside it
        return (c + f + 2 if lengths[1] >= f else None), sum(lengths)

    def max_rounds(self, g) -> int:
        if self.template != "parallel":
            return default_max_rounds(g)
        lengths = self.program.lengths(g)
        return default_max_rounds(g) + lengths[1] + lengths[-1] + 10


def _even(x: int) -> int:
    return x + (x % 2)


# problem -> (c, f, initialization, uniform stage, clean-up or None, default
# truncation budget r(view) of the consecutive template).  Here and below,
# stages are blueprints, shared by every program built from them; only a
# composite stage of a per-call r or phase is built per call
_PARTS = {
    "MIS": (3, _f_mis, mis.MisInitStage("init"), mis.GreedyStage(),
            mis.MisCleanupStage(), lambda v: _even(v.n)),
    "MAXIMAL_MATCHING": (2, _f_mm, problems.MmInitStage("init"),
                         problems.MmUniformStage(), problems.MmCleanupStage(),
                         lambda v: 3 * ((v.n + 1) // 2)),
    "VERTEX_COLORING": (2, _f_vc, problems.VcInitStage("init"),
                        problems.VcUniformStage(), None, lambda v: v.n),
    "EDGE_COLORING": (1, _f_ec, problems.EcBaseStage(),
                      problems.EcUniformStage(), problems.EcCleanupStage(),
                      lambda v: _even(2 * v.n)),
}


_GREEDY_MIN = mis.GreedyStage("min")  # the interleaved reference
# the parallel MIS template after its initialization: U fused with Linial
# part 1, the reveal round and part 2
_MIS_PARALLEL = (
    ParallelStage(_PARTS["MIS"][3],
                  problems.LinialColoringStage(store_only=True),
                  lambda v: problems.linial_budget_even(v.d, v.delta)),
    mis.RevealStage(), mis.ColorPart2Stage(combined=True))
# the rooted-tree MIS templates; there is no reveal stage on trees
_TREE_INIT = mis.TreeInitStage(eager=False)
_TREE_UNIFORM = mis.TreeUniformStage()
_MIS_TREE = {
    "simple": (_TREE_INIT, _TREE_UNIFORM),
    "parallel": (_TREE_INIT,
                 ParallelStage(_TREE_UNIFORM,
                               mis.GpsTreeColoringStage(store_only=True),
                               lambda v: mis.gps_budget_even(v.d)),
                 mis.TreePart2Stage()),
}


def _program(problem: str, template: str, r: Optional[Callable], phase: int):
    _, _, init, uniform, cleanup, default_r = _PARTS[problem]
    if template == "simple":
        return StagedProgram([init, uniform])
    if template == "consecutive":
        r = r or default_r
        tail = [cleanup] if cleanup is not None else []
        pad = sum(s.length(None) for s in tail)
        return StagedProgram([init, TruncatedStage(uniform,
                                                   lambda v: r(v) + pad),
                              *tail, uniform])
    if problem != "MIS":
        raise ConfigError(
            f"{problem} supports simple and consecutive templates only")
    if template == "interleaved":
        if phase % 2:
            raise ConfigError("interleaved greedy phases must be even")
        return StagedProgram([init, InterleavedStage(uniform, _GREEDY_MIN,
                                                     phase)])
    return StagedProgram([init, *_MIS_PARALLEL])


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
        program = StagedProgram(_MIS_TREE[template])
    else:
        program = _program(problem, template, r, phase)
    c, f = _PARTS[problem][:2]
    return TemplateInstance(template, program, c, f)
