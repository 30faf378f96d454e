"""The benchmark still runs against the sources: one traced pass of a
workload reads Outcome.trace, graphs.CapExceeded, Outcome.solution,
graphs.validate and run_one's (row, failures, outcome), so a source change
that breaks one of them fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["mm-vc-ec", "line-allzeros"])
def test_traced_bench_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, done.stdout[-2000:]
