"""In-process A/B timing of two predsync checkouts on one benchmark workload.

Copies each checkout's src/predsync into a temporary directory under its
own package name (predsync_a, predsync_b), so that both load in one
process, and writes the workload's configs with perfbench/workloads.py.
It then alternates full passes of the two sides: a pass calls
cli.main(["sweep", ...]) once per config, with stderr discarded and the
CSV written to a temporary file.  The side that goes first alternates
from pair to pair, so drift in the host's speed falls on both sides.
It prints each side's median pass time, B's change, the quartiles of
A's passes and the pairs that B won, and whether both sides wrote the
same CSV bytes.  It only reads perfbench/.

    python tests/abpass.py PARENT_CHECKOUT . --workload line-allzeros --pairs 40

pytest does not collect this file.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", HERE.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(checkout: Path, name: str, tmp: Path):
    """The cli module of checkout's src/predsync, imported as package name."""
    shutil.copytree(checkout / "src" / "predsync", tmp / name)
    return importlib.import_module(f"{name}.cli")


def _pass(cli, paths, out: Path) -> tuple[float, str]:
    """(seconds, sha256 of the CSVs) of one pass over the configs."""
    gc.collect()
    digest = hashlib.sha256()
    start = perf_counter()
    for path in paths:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["sweep", "--config", str(path), "--out", str(out)])
        digest.update(out.read_bytes())
    return perf_counter() - start, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A, the baseline")
    parser.add_argument("b", type=Path, help="checkout B, the change")
    parser.add_argument("--workload", default="line-allzeros")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        sides = {"A": _load(args.a.resolve(), "predsync_a", tmp),
                 "B": _load(args.b.resolve(), "predsync_b", tmp)}
        paths = [path for _, path in
                 workloads.write_configs(args.workload, args.seed, tmp)]
        out = tmp / "out.csv"
        csv = {side: _pass(cli, paths, out)[1] for side, cli in sides.items()}
        times = {"A": [], "B": []}
        for i in range(args.pairs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                times[side].append(_pass(sides[side], paths, out)[0])
    a, b = (statistics.median(times[side]) for side in "AB")
    q1, _, q3 = statistics.quantiles(times["A"], n=4)
    won = sum(tb < ta for ta, tb in zip(times["A"], times["B"]))
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    print(f"A median {a * 1e3:.2f} ms per pass (quartiles {q1 * 1e3:.2f}"
          f"..{q3 * 1e3:.2f}), B median {b * 1e3:.2f} ms")
    print(f"B passes/s {a / b - 1:+.1%} against A; B won {won}/{args.pairs}"
          f" pairs")
    print("CSV bytes: " + ("identical" if csv["A"] == csv["B"] else "DIFFER"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
