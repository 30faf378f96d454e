"""Which functions under src/predsync no end-to-end config enters.

Runs every config of test_golden.py and test_trace_golden.py through
cli.main, as those tests do (output files in a temporary directory, stderr
captured), and with --bench also the seed-0 configs of every workload in
perfbench/workloads.py, under a sys.settrace hook that records the calls
of code under src/predsync.  Prints each function defined there (lambdas
included) that no config entered, in file and line order, then a count.

    PYTHONPATH=src python tests/traffic.py [--bench]

The trace starts before predsync is imported, so a function that only runs
at import time counts as entered.  pytest does not collect this file.
"""

import argparse
import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "predsync"


def _functions(path: Path) -> list[tuple[int, str]]:
    """(first line, qualified name) of every function and lambda in one
    source file, comprehensions and the module body left out."""
    found, todo = [], [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_name == "<lambda>" or not code.co_name.startswith("<"):
            found.append((code.co_firstlineno, code.co_qualname))
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", action="store_true",
                        help="also run the benchmark workloads' seed-0 configs")
    args = parser.parse_args(argv)
    files = {}  # co_filename -> its name under src/predsync, or None
    entered = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            path = Path(code.co_filename).resolve()
            files[code.co_filename] = path.name if path.parent == SRC else None
        if files[code.co_filename]:
            entered.add((files[code.co_filename], code.co_firstlineno,
                         code.co_qualname))

    sys.settrace(hook)
    try:
        import test_golden  # tests/ is on sys.path when run as a script
        import test_trace_golden
        from predsync import cli
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name in sorted(test_golden.CONFIGS):
                test_golden._sweep(name, tmp)
            for name in sorted(test_trace_golden.CONFIGS):
                test_trace_golden._run(name, tmp)
            if args.bench:
                sys.path.insert(0, str(HERE.parent / "perfbench"))
                import workloads
                for workload in workloads.WORKLOADS:
                    for _, path in workloads.write_configs(workload, 0, tmp):
                        with contextlib.redirect_stderr(io.StringIO()):
                            cli.main(["sweep", "--config", str(path),
                                      "--out", str(tmp / "bench.csv")])
    finally:
        sys.settrace(None)
    unused = total = 0
    for path in sorted(SRC.glob("*.py")):
        for line, qualname in _functions(path):
            total += 1
            if (path.name, line, qualname) not in entered:
                unused += 1
                print(f"{path.stem}.{qualname}  ({path.name}:{line})")
    print(f"# {unused} of {total} functions entered by no config")
    return 0


if __name__ == "__main__":
    sys.exit(main())
