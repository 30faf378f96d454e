"""Template combinators: each template is one StagedProgram built from an
initialization, a measure-uniform stage U, a clean-up and a reference.
simple: [init, U].  consecutive: [init, TruncatedStage(U, r + clean-up),
clean-up, U], with no clean-up stage for vertex colouring.  interleaved
(MIS): [init, InterleavedStage(U, greedy, phase)].  parallel (MIS): [init,
ParallelStage(U, part 1, r1), reveal, part 2], with no reveal on trees.

build_template() assembles every template from one row of _PARTS and
returns a TemplateInstance: the program, the consistency constant c and
the error budget f.  Its account names each round bound's terms, read
from the lengths the program runs with, so each budget is written down
once, in the stage that spends it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from . import mis, problems
from .engine import default_max_rounds
from .graphs import PROBLEM_KINDS
from .stages import (ConfigError, InterleavedStage, ParallelStage,
                     StagedProgram, TruncatedStage)

TEMPLATES = ("simple", "consecutive", "interleaved", "parallel")


def _f_mis(report: dict) -> tuple:
    """The term f: min(eta1, eta2 + 1) greedy rounds, and what it read."""
    eta1, eta2 = report["eta1"], report.get("eta2")
    if eta2 is None or eta1 <= eta2 + 1:
        return f"f(eta1={eta1})", eta1, "repo"
    return f"f(eta2+1={eta2 + 1})", eta2 + 1, "repo"


def _f_eta1(budget: Callable[[int], int], source: str):
    """The term f of an error budget that reads eta1 alone."""
    return lambda report: (f"f(eta1={report['eta1']})",
                           budget(report["eta1"]), source)


_f_mm = _f_eta1(lambda e: 3 * (e // 2), "paper")
_f_vc = _f_eta1(lambda e: e, "paper")
_f_ec = _f_eta1(lambda e: max(1, 2 * e - 3) if e >= 2 else e, "repo")


class TemplateInstance(NamedTuple):
    template: str
    program: StagedProgram
    c: int  # rounds used when predictions are correct
    f: Callable[[dict], tuple]  # error budget term from a measure report

    def account(self, g, report) -> tuple:
        """A run's consistency, degrading and robust bounds on g, given its
        error measures report: each a tuple of (term, rounds, source) whose
        rounds sum to it, or None where it does not apply; source is "repo"
        for the repo's own choices, else "paper" (README, "Round bounds").
        Consistency applies when eta1 is 0.  Stage 1 is the truncated,
        interleaved or fused stage.  The consecutive robust bound assumes
        that r covers the reference stage, as the default r does."""
        c = ("c", self.c, "paper")
        consistency = None if report["eta1"] else (c,)
        f = self.f(report)
        if self.template == "simple":
            return consistency, (c, f), None
        lengths = self.program.lengths(g)
        if self.template == "parallel":
            # the fused stage lasts the part-1 budget r1; the degrading
            # bound applies only if f fits inside it
            return consistency, ((c, f, ("margin", 2, "repo"))
                                 if lengths[1] >= f[1] else None), tuple(zip(
                ("init", "part 1", "reveal")[:len(lengths) - 1] + ("part 2",),
                lengths, ("paper",) * 4))
        twice = (c, ("2" + f[0], 2 * f[1], f[2]))
        if self.template == "interleaved":
            # whole U and R blocks until U has had f rounds
            phase = self.program.stages[1].phase_len
            blocks = max(1, -(-f[1] // phase)) * phase
            return consistency, twice, (c, ("U blocks", blocks, "repo"),
                                        ("R blocks", blocks, "repo"))
        # consecutive: the truncated stage lasts r plus the clean-up, if any
        cleanup = lengths[2:-1]
        return consistency, twice, (
            c, ("2 truncation", 2 * (lengths[1] - sum(cleanup)), "paper"),
            *[("2 clean-up", 2 * rounds, "paper") for rounds in cleanup])

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
