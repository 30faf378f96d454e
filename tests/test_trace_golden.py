"""Golden `predsync run` corpus: stderr (trace and assertion lines), CSV and
exit status of each run below must match the committed files byte for byte.

The files under tests/golden/trace/ were captured before the auditor was
moved onto the engine's output record; those of vc_simple, vc_linial,
tree_gps, ec_uniform and ec_cleanup before the matching, coloring and
edge-coloring rounds were folded into shared runs; all of them, and
tree_parallel_line, before traces were formatted from the engine's send
record instead of a traced second simulation.  The two EC simple
runs exit 1 (bound_degrading fails on a correct output, ROADMAP item 1):
without --trace the trace is dumped after the assertion line, with it
before.
To capture the corpus again, at a commit whose output is trusted, run
`PYTHONPATH=src python tests/test_trace_golden.py`.
"""

import contextlib
import io
from pathlib import Path

import pytest

from predsync.cli import main

GOLDEN = Path(__file__).parent / "golden" / "trace"

_RANDOM = "graph = RANDOM_CONNECTED\nn = 10\np = 0.3\n"
_EC_FAIL = ("graph = RANDOM_CONNECTED\nn = 14\np = 0.3\nproblem = EDGE_COLORING\n"
            "template = simple\nk = 1\nseed = 0\n")

# name -> (config text, extra arguments, expected exit status)
CONFIGS = {
    "mis_simple": (_RANDOM + "problem = MIS\ntemplate = simple\nk = 3\nseed = 1\n",
                   ["--trace"], 0),
    "mis_interleaved": (_RANDOM + "problem = MIS\ntemplate = interleaved\n"
                                  "k = 4\nseed = 2\n", ["--trace"], 0),
    "mis_parallel": (_RANDOM + "problem = MIS\ntemplate = parallel\n"
                               "k = 3\nseed = 0\n", ["--trace"], 0),
    "tree_simple": ("graph = TREE\nn = 12\nproblem = MIS\ntemplate = simple\n"
                    "k = 5\nseed = 1\n", ["--trace"], 0),
    # the smallest line tree whose parallel run reaches mis.TreePart2Stage
    "tree_parallel_line": ("graph = TREE\nn = 30\nshape = line\nproblem = MIS\n"
                           "template = parallel\npattern = ALL_ZEROS\n"
                           "k = 0\nseed = 0\n", ["--trace"], 0),
    "mm_consecutive": (_RANDOM + "problem = MAXIMAL_MATCHING\n"
                                 "template = consecutive\nk = 4\nseed = 1\n",
                       ["--trace"], 0),
    "ec_simple_fail": (_EC_FAIL, [], 1),
    "ec_simple_fail_trace": (_EC_FAIL, ["--trace"], 1),
    "mis_consecutive": (_RANDOM + "problem = MIS\ntemplate = consecutive\n"
                                  "k = 3\nseed = 1\n", ["--trace"], 0),
    "mis_greedy": (_RANDOM + "program = mis.greedy\nk = 3\nseed = 1\n",
                   ["--trace"], 0),
    "mis_u_bw": ("graph = RANDOM_CONNECTED\nn = 14\np = 0.3\n"
                 "program = mis.u_bw\nk = 4\nseed = 2\n", ["--trace"], 0),
    # standalone initialization leaves nodes undecided (exit 1); this seed
    # has nodes leave in both round 3 and round 4
    "tree_init": ("graph = TREE\nn = 12\nprogram = mis.tree_init\n"
                  "k = 9\nseed = 1\n", ["--trace"], 1),
    "tree_uniform": ("graph = TREE\nn = 12\nprogram = mis.tree_uniform\n"
                     "k = 3\nseed = 2\n", ["--trace"], 0),
    "vc_simple": (_RANDOM + "problem = VERTEX_COLORING\ntemplate = simple\n"
                            "k = 6\nseed = 0\n", ["--trace"], 0),
    "vc_linial": ("graph = RANDOM_CONNECTED\nn = 8\np = 0.3\n"
                  "program = vc.linial\nk = 0\nseed = 1\n", ["--trace"], 0),
    "tree_gps": ("graph = TREE\nn = 12\nproblem = VERTEX_COLORING\n"
                 "program = mis.tree_gps\nk = 0\nseed = 1\n", ["--trace"], 0),
    # pins the probe round that stands in for ec.base's exchange round
    "ec_uniform": (_RANDOM + "program = ec.uniform\nk = 0\nseed = 1\n",
                   ["--trace"], 0),
    # the clean-up round alone leaves edges uncolored (exit 1, INCOMPLETE)
    "ec_cleanup": (_RANDOM + "program = ec.cleanup\nk = 2\nseed = 1\n",
                   ["--trace"], 1),
}


def _run(name, tmp_path):
    text, extra, _ = CONFIGS[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / f"{name}.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["run", "--config", str(cfg), "--out", str(out), *extra])
    return status, out.read_bytes(), err.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_golden(name, tmp_path):
    status, csv, stderr = _run(name, tmp_path)
    assert status == CONFIGS[name][2]
    assert csv == (GOLDEN / f"{name}.csv").read_bytes()
    assert stderr == (GOLDEN / f"{name}.stderr").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            status, csv, stderr = _run(name, Path(tmp))
            (GOLDEN / f"{name}.csv").write_bytes(csv)
            (GOLDEN / f"{name}.stderr").write_bytes(stderr)
            print(name, "exit", status, len(stderr.splitlines()), "stderr lines")
