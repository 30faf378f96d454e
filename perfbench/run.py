"""predsync benchmark: runs `predsync sweep` workloads in-process and reports
end-to-end metrics (--trace 0) or a traced per-layer breakdown (--trace 1).

Usage, from the repository root:

    python3 perfbench/run.py --workload mis-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all   # every workload, both modes

A pass calls predsync.cli.main(["sweep", ...]) once per generated config,
with stderr captured; passes repeat until another would end after
--seconds.  End-to-end times are converted to a reference host speed
(speed.py).  Every run's Outcome is re-validated with graphs.validate and
every CSV is checked against the runs that produced it.  The last line of output is one JSON
object: correct, attempted, failed and the metrics named in BENCHMARK.json.
perfbench/README.md describes the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime_ns, perf_counter

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # per pass, and so per stretch of the host's load
CSV_CHECKED = ("k", "seed", "rounds", "valid")


class BenchError(Exception):
    """The benchmark cannot run or its own consistency checks failed."""


def load_program():
    if not (ROOT / "src" / "predsync" / "__init__.py").is_file():
        raise BenchError(f"no predsync sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from predsync import cli, graphs, measures
    return cli, graphs, measures


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


class Sweep:
    """Runs every config of a workload through cli.main, recording when each
    run_one call and each sweep started and ended, and checking what they
    returned.

    Intervals are turned into seconds after the passes, by a function given
    to times() (see speed.py), and each run's and each sweep's figure is its
    median over the passes.  attempted and failed count the distinct runs
    of one pass: every pass repeats the same runs, and a run whose failure
    mark changes between passes is an error."""

    def __init__(self, cli, graphs, pairs, out_dir: Path):
        self.cli, self.graphs, self.pairs = cli, graphs, pairs
        self.out = out_dir / "sweep.csv"
        self.runs = defaultdict(list)  # (config, k, seed) -> [(start, end)]
        self.sweeps = defaultdict(list)  # config -> [(start, end, calls)]
        self.passes = 0
        self.outcomes = {}  # config -> (runs, failing runs)
        self.errors = []  # correctness problems; empty means correct
        self.digests = {}  # config -> sha256 of its CSV
        self._cfg = None
        self._rows = []
        self._calls = []  # (start, end) of each wrapped run_one, checks included

    @property
    def attempted(self) -> int:
        return sum(runs for runs, _ in self.outcomes.values())

    @property
    def failed(self) -> int:
        return sum(failing for _, failing in self.outcomes.values())

    def run_pass(self):
        for cfg, path in self.pairs:
            self.sweep(cfg, path)
        self.passes += 1

    def _timed(self, real):
        def run_one(cfg, k, seed):
            t0 = perf_counter()
            result = real(cfg, k, seed)
            t1 = perf_counter()
            self.runs[workloads.label(self._cfg), k, seed].append((t0, t1))
            self._check_run(k, seed, *result)
            self._calls.append((t0, perf_counter()))
            return result
        return run_one

    def _check_run(self, k, seed, row, failures, outcome):
        g = workloads.graph(self.graphs, self._cfg, seed)
        kind = self._cfg["problem"]
        where = f"{workloads.label(self._cfg)} k={k} seed={seed}"
        violation = self.graphs.validate(kind, g, outcome.solution(kind, g))
        if violation is not None:
            self.errors.append(f"{where}: invalid output: {violation}")
        if row["valid"] != ("VALID" if violation is None else violation.code):
            self.errors.append(f"{where}: row says {row['valid']}")
        if row["rounds"] != outcome.total_rounds:
            self.errors.append(f"{where}: row says {row['rounds']} rounds, "
                               f"outcome {outcome.total_rounds}")
        self._rows.append((k, seed, row["rounds"], row["valid"], bool(failures)))

    def sweep(self, cfg, path):
        """One `predsync sweep` of one config, checked."""
        self._cfg = cfg
        name = workloads.label(cfg)
        planned = workloads.planned_runs(cfg)
        self._rows, self._calls = [], []
        self.out.unlink(missing_ok=True)
        real_run_one = self.cli.run_one
        self.cli.run_one = self._timed(real_run_one)
        t0 = perf_counter()
        try:
            with redirect_stderr(io.StringIO()):
                status = self.cli.main(["sweep", "--config", str(path),
                                        "--out", str(self.out)])
        except Exception as exc:  # a crashing run fails its sweep, not the bench
            status = f"{type(exc).__name__}: {exc}"
        finally:
            self.cli.run_one = real_run_one
        self.sweeps[name].append((t0, perf_counter(), self._calls))
        if status not in (0, 1):  # exit 2 or a crash: the sweep wrote no CSV
            failing = planned
            self.errors.append(f"{name}: sweep ended with {status}")
        else:
            failing = sum(1 for row in self._rows if row[4])
            if status != (1 if failing else 0):
                self.errors.append(f"{name}: exit {status} with {failing} failing runs")
            self._check_csv(name, planned)
        if self.outcomes.setdefault(name, (planned, failing)) != (planned, failing):
            self.errors.append(f"{name}: failing runs differ between passes")

    def _check_csv(self, name, planned):
        if not self.out.is_file():
            self.errors.append(f"{name}: the sweep wrote no CSV")
            return
        data = self.out.read_bytes()
        rows = [line.split(",") for line in data.decode().splitlines()] or [[]]
        want = [(str(k), str(s), str(r), v) for k, s, r, v, _ in self._rows]
        got = None
        if all(c in rows[0] for c in CSV_CHECKED):
            col = [rows[0].index(c) for c in CSV_CHECKED]
            got = [tuple(row[i] for i in col) if len(row) > max(col) else None
                   for row in rows[1:]]
        if len(self._rows) != planned or got != want:
            self.errors.append(f"{name}: CSV rows disagree with the runs")
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            self.errors.append(f"{name}: CSV differs between passes")

    def times(self, seconds) -> tuple[list[float], float]:
        """Each run's median time over the passes, and the time of one pass:
        those plus each sweep's median time outside run_one."""
        if not self.runs:
            raise BenchError("no run completed, so nothing was measured: "
                             + "; ".join(self.errors[:3]))
        runs = [statistics.median(seconds(a, b) for a, b in spans)
                for spans in self.runs.values()]
        outside = [statistics.median(
            seconds(a, b) - sum(seconds(c, d) for c, d in calls)
            for a, b, calls in spans) for spans in self.sweeps.values()]
        return runs, sum(runs) + sum(outside)

    def runs_per_s(self, seconds) -> float:
        runs, pass_s = self.times(seconds)
        return len(runs) / pass_s


def wall(t0: float, t1: float) -> float:
    return t1 - t0


def cycle(seconds: float, steps, least: int = 1):
    """Run every step in turn, at least `least` times, and stop when another
    round would end after `seconds`."""
    start = perf_counter()
    rounds = 0
    while True:
        t0 = perf_counter()
        for step in steps:
            step()
        rounds += 1
        now = perf_counter()
        if rounds >= least and 2 * now - t0 > start + seconds:
            return


def probe_setup(workload: str, seed: int, tmp: Path) -> float:
    """Seconds from a fresh interpreter's start to its first run_one, scaled
    to the reference speed by the calibration the probe runs right after."""
    directory = Path(tempfile.mkdtemp(prefix="probe", dir=tmp))
    t0 = clock_gettime_ns(CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         str(directory)], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
    reached, loop_s = proc.stdout.split()[-2:]
    return (int(reached) - t0) / 1e9 * speed.REFERENCE_S / float(loop_s)


def percentile_ms(samples, q: int) -> tuple[float, int]:
    """The q-th percentile in ms and how many samples lie beyond it."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return value * 1e3, sum(1 for s in samples if s > value)


def end_to_end(args, cli, graphs, pairs, tmp: Path, report: list):
    """Times are reference-speed seconds (see speed.py)."""
    setup = []
    sweep = Sweep(cli, graphs, pairs, tmp)

    def probe():
        setup.append(probe_setup(args.workload, args.seed, tmp))

    with speed.Speedometer() as meter:
        cycle(args.seconds, [sweep.run_pass] + [probe] * SETUP_PROBES, least=2)
    latencies, pass_s = sweep.times(meter.seconds)
    wall_s = sweep.times(wall)[1]
    p50, _ = percentile_ms(latencies, 50)
    p90, beyond = percentile_ms(latencies, 90)
    report.append(f"setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}")
    report.append(f"run latency: {len(latencies)} runs (median of {sweep.passes} "
                  f"passes each), {beyond} beyond p90"
                  + ("" if beyond >= 10 else "; fewer than 10, so p90 is descriptive"))
    report.append(f"one pass: {pass_s:.4f} s at reference speed, {wall_s:.4f} s "
                  f"of wall time (host at {pass_s / wall_s:.0%} of the reference)")
    return sweep, {
        "setup_s": statistics.median(setup),
        "runs_per_s": len(latencies) / pass_s,
        "run_ms_p50": p50,
        "run_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(args, cli, graphs, measures, pairs, tmp: Path, report: list):
    """Each config is swept three times in a row: untraced; with spans only,
    which give the layer times; and with spans plus the node-program proxy,
    which counts node steps and messages and times the node programs.
    Running the three back to back lets them share the host's load."""
    import tracer as tr

    plain = Sweep(cli, graphs, pairs, tmp)
    tracers = {
        "spans": tr.Tracer(cli, measures, graphs, count_nodes=False),
        "nodes": tr.Tracer(cli, measures, graphs, count_nodes=True),
    }
    sweeps = {kind: Sweep(cli, graphs, pairs, tmp) for kind in tracers}

    def one_pass():
        for cfg, path in pairs:
            plain.sweep(cfg, path)
            for kind, tracer in tracers.items():
                tracer.install()
                try:
                    sweeps[kind].sweep(cfg, path)
                finally:
                    tracer.uninstall()
        for sweep in (plain, *sweeps.values()):
            sweep.passes += 1
        for tracer in tracers.values():
            tracer.end_pass()

    cycle(args.seconds, [one_pass])  # no Speedometer: its ticks would add to spans
    spans, nodes = tracers["spans"], tracers["nodes"]
    try:
        metrics = tr.layer_metrics(spans, nodes)
    except AssertionError as exc:  # exact work differed between passes
        raise BenchError(str(exc)) from exc
    for sweep in sweeps.values():
        if sweep.digests != plain.digests:
            plain.errors.append("CSV differs between traced and untraced passes")
        if sweep.outcomes != plain.outcomes:
            plain.errors.append("failing runs differ between traced and untraced passes")
        plain.errors += sweep.errors
    untraced = plain.runs_per_s(wall)
    traced = sweeps["spans"].runs_per_s(wall)
    metrics["trace.runs_per_s"] = traced
    metrics["trace.untraced_runs_per_s"] = untraced
    metrics["trace.overhead_frac"] = untraced / traced - 1
    metrics["trace.node_proxy_overhead_frac"] = untraced / sweeps["nodes"].runs_per_s(wall) - 1
    report.append(f"passes: {plain.passes} of each kind")
    report.append("exact work per pass: " + " ".join(
        f"{k}={v}" for k, v in tr.fingerprint(spans, nodes).items()))
    for title, rows in zip(("run_one's direct calls", "run_one by layer"),
                           spans.breakdown()):
        report.append(f"{title} (s per pass, share of run_one):")
        for name, seconds, share in rows:
            report.append(f"  {name:<26} {seconds:10.4f} {share:7.1%}")
    if spans.missing:
        report.append("not bound in predsync, so their metrics read 0: "
                      + " ".join(sorted(spans.missing)))
    out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.write_spans(out)
    report.append(f"spans: {len(spans.spans)} written to {out.relative_to(ROOT)}")
    return plain, metrics


def run_workload(args, spec: dict) -> int:
    cli, graphs, measures = load_program()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    report = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        pairs = workloads.write_configs(args.workload, args.seed, Path(tmp))
        if args.trace:
            sweep, metrics = per_layer(args, cli, graphs, measures, pairs,
                                       Path(tmp), report)
        else:
            sweep, metrics = end_to_end(args, cli, graphs, pairs, Path(tmp), report)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                         "match BENCHMARK.json")
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    print(f"workload {args.workload}: {why}")
    print(f"seed {args.seed}, seconds {args.seconds}, trace {args.trace}, "
          f"python {platform.python_version()}, "
          f"nproc {len(os.sched_getaffinity(0))}, git {git_sha()}")
    for cfg, _ in pairs:
        print("config " + " ".join(f"{k}={v}" for k, v in cfg.items()))
    print(f"runs attempted {sweep.attempted}, failed {sweep.failed} "
          f"(failed_frac {sweep.failed / sweep.attempted:.4f})")
    for line in report:
        print(line)
    for name, digest in sweep.digests.items():
        print(f"csv sha256 {name} {digest}")
    for problem in sweep.errors[:20]:
        print(f"INCORRECT: {problem}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": not sweep.errors,
        "attempted": sweep.attempted,
        "failed": sweep.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process."""
    summary, status = {}, 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True,
                timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            summary[f"{workload} trace={trace}"] = json.loads(
                proc.stdout.splitlines()[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload == "all":
            return run_all(args)
        return run_workload(args, spec)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
