"""Golden `predsync run` corpus: stderr (trace and assertion lines), CSV and
exit status of each run below must match the committed files byte for byte.

The files under tests/golden/trace/ were captured before the auditor was
moved onto the engine's output record.  The two EC simple runs exit 1
(bound_degrading fails on a correct output, ROADMAP item 1): without
--trace the trace is dumped after the assertion line, with it before.
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
    "mm_consecutive": (_RANDOM + "problem = MAXIMAL_MATCHING\n"
                                 "template = consecutive\nk = 4\nseed = 1\n",
                       ["--trace"], 0),
    "ec_simple_fail": (_EC_FAIL, [], 1),
    "ec_simple_fail_trace": (_EC_FAIL, ["--trace"], 1),
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
