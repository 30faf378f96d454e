"""Name registry for all standalone node programs addressable from configs."""

from __future__ import annotations

from . import mis, problems

# name -> (factory, problem kind whose validator applies to its complete output)
PROGRAMS = {
    "mis.base": (mis.mis_base, "MIS"),
    "mis.init": (mis.mis_init, "MIS"),
    "mis.greedy": (mis.greedy_mis, "MIS"),
    "mis.cleanup": (mis.mis_cleanup, "MIS"),
    "mis.color_part2": (mis.coloring_to_mis_part2, "MIS"),
    "mis.u_bw": (mis.u_bw, "MIS"),
    "mis.tree_init": (mis.tree_init, "MIS"),
    "mis.tree_init_eager": (lambda: mis.tree_init(eager=True), "MIS"),
    "mis.tree_uniform": (mis.tree_uniform, "MIS"),
    "mis.tree_gps": (mis.gps_tree_3coloring, "VERTEX_COLORING"),
    "mis.tree_part2": (mis.tree_ref_part2, "MIS"),
    "mm.base": (problems.mm_base, "MAXIMAL_MATCHING"),
    "mm.init": (problems.mm_init, "MAXIMAL_MATCHING"),
    "mm.uniform": (problems.mm_uniform, "MAXIMAL_MATCHING"),
    "mm.cleanup": (problems.mm_cleanup, "MAXIMAL_MATCHING"),
    "vc.base": (problems.vc_base, "VERTEX_COLORING"),
    "vc.init": (problems.vc_init, "VERTEX_COLORING"),
    "vc.uniform": (problems.vc_uniform, "VERTEX_COLORING"),
    "vc.linial": (problems.linial_coloring, "VERTEX_COLORING"),
    "ec.base": (problems.ec_base, "EDGE_COLORING"),
    "ec.uniform": (problems.ec_uniform, "EDGE_COLORING"),
    "ec.cleanup": (problems.ec_cleanup, "EDGE_COLORING"),
}


def get_program(name: str):
    """A fresh instance of the named program, and its problem kind."""
    try:
        factory, kind = PROGRAMS[name]
    except KeyError:
        raise KeyError(f"unknown program {name!r}; known: {sorted(PROGRAMS)}")
    return factory(), kind
