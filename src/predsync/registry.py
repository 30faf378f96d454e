"""Name registry for all standalone node programs addressable from configs.

This is the one place where a standalone program is put together from its
stages.  A leaf stage is its class (stages.Stage), so every program built
from an entry shares it."""

from __future__ import annotations

from . import mis, problems
from .stages import ConfigError, StagedProgram

# name -> (stages, problem kind whose validator applies to its complete output)
PROGRAMS = {
    "mis.base": ((mis.MisBaseStage,), "MIS"),
    "mis.init": ((mis.MisInitStage,), "MIS"),
    "mis.greedy": ((mis.GreedyStage,), "MIS"),
    "mis.cleanup": ((mis.MisCleanupStage,), "MIS"),
    # the stored colour is taken from the prediction, revealed in one
    # round, then resolved in delta rounds
    "mis.color_part2": ((mis.RevealStage, mis.ColorPart2Stage), "MIS"),
    "mis.u_bw": ((mis.UbwColorProbe, mis.UbwStage), "MIS"),
    "mis.tree_init": ((mis.TreeInitStage,), "MIS"),
    "mis.tree_init_eager": ((mis.TreeInitEagerStage,), "MIS"),
    "mis.tree_uniform": ((mis.TreeUniformStage,), "MIS"),
    "mis.tree_gps": ((mis.GpsTreeColoringStage,), "VERTEX_COLORING"),
    # the stored 3-colouring is taken from the prediction
    "mis.tree_part2": ((mis.TreePart2Stage,), "MIS"),
    "mm.base": ((problems.MmBaseStage,), "MAXIMAL_MATCHING"),
    "mm.init": ((problems.MmInitStage,), "MAXIMAL_MATCHING"),
    "mm.uniform": ((problems.MmUniformStage,), "MAXIMAL_MATCHING"),
    "mm.cleanup": ((problems.MmCleanupStage,), "MAXIMAL_MATCHING"),
    "vc.base": ((problems.VcBaseStage,), "VERTEX_COLORING"),
    "vc.init": ((problems.VcInitStage,), "VERTEX_COLORING"),
    "vc.uniform": ((problems.VcUniformStage,), "VERTEX_COLORING"),
    "vc.linial": ((problems.LinialColoringStage,), "VERTEX_COLORING"),
    "ec.base": ((problems.EcBaseStage,), "EDGE_COLORING"),
    # a probe round supplies the 2-hop identifier knowledge that round 2
    # of ec.base provides inside the templates
    "ec.uniform": ((problems.EcProbeStage, problems.EcUniformStage),
                   "EDGE_COLORING"),
    "ec.cleanup": ((problems.EcCleanupStage,), "EDGE_COLORING"),
}


def get_program(name: str):
    """A fresh program of the named stages, and its problem kind."""
    if name not in PROGRAMS:
        raise ConfigError(f"unknown program; known: {', '.join(sorted(PROGRAMS))}")
    stages, kind = PROGRAMS[name]
    return StagedProgram(stages), kind
