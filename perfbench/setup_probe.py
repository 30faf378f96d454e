"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DIR

Imports predsync.cli, writes the workload's configs into DIR and starts the
first sweep the way a user would.  When the sweep reaches its first run_one
call, the probe notes CLOCK_MONOTONIC in nanoseconds, times the calibration
loop of speed.py, prints both and exits, so the parent can time interpreter
start to first run_one at the reference speed.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from predsync import cli  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402


def _first_run_one(cfg, k, seed):
    reached = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    print(reached, speed.calibrate(), flush=True)
    os._exit(0)


def main() -> int:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    pairs = workloads.write_configs(workload, seed, directory)
    cli.run_one = _first_run_one
    cli.main(["sweep", "--config", str(pairs[0][1]), "--out", os.devnull])
    print("setup probe: sweep returned before its first run", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
