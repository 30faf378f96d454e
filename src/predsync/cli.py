"""Bench harness: build instances, run templated algorithms, compute error
measures, emit CSV, and check the round bounds of every run.

Commands (all driven by a flat key=value config file):
    predsync run    --config cfg [--trace] [--out csv]   one instance
    predsync sweep  --config cfg [--out csv]             k x seed Cartesian sweep
    predsync verify --config cfg                         validate an outputs file

Exit codes: 0 ok, 1 assertion (bound or validity) failure, 2 config error,
3 program fault.  A run whose simulation raises fails too, unless the
error is a ConfigError: its row has the code of RUN_ERRORS that matches
(else PROGRAM_ERROR) in `valid`, and no rounds or bound verdicts.  Any
other error outside a run exits 3 with its PROGRAM_ERROR message.

KEYS says which commands read each config key, and FLAGS each flag: any
other key or flag is a config error naming it and the command.  run is a
one-run sweep: it reads k and seed where sweep reads k_range and
seed_range, and only run reads --trace.  A Plan resolves a config
once and checks what depends on its values: the graph keys its family
reads, the sizes its generator accepts, and a template's or a standalone
program's keys.  Each seed's instance is built by its first run_one and
shared by its runs.

Each run that ends gets one audit.audit_run pass: one replay of its output
record gives its `valid` code and, for a template, the extendability of
its partial output at each checkpoint.  A run is simulated once: a
printed trace is formatted from its outcome's send and output records.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import measures
from .audit import audit_run
from .engine import NonTermination, ProtocolViolation, simulate
from .graphs import (FAMILIES, ID_SCHEMES, PROBLEM_KINDS, GraphError,
                     RootedTree, _assign_ids, generate, read_graph, validate)
from .problems import EmptyPalette
from .registry import get_program
from .stages import ConfigError
from .templates import TEMPLATES, build_template

BOUNDS = ("bound_consistency", "bound_degrading", "bound_robust")
COLUMNS = ("family", "n", "d", "delta", "problem", "template", "k", "seed",
           "eta1", "eta2", "eta_bw", "eta_t", "eta_H", "rounds", *BOUNDS,
           "valid")

# the collector's young-generation threshold while a command runs: a run
# leaves no reference cycles (test_plan_leaves_no_reference_cycles pins
# this), so young passes would only rescan its live per-node objects
GC_YOUNG_THRESHOLD = 100_000

# errors a run may raise from inside simulate, and the code its row gets;
# any other error but a ConfigError gets PROGRAM_ERROR
RUN_ERRORS = {ProtocolViolation: "PROTOCOL_VIOLATION",
              NonTermination: "NON_TERMINATION",
              EmptyPalette: "EMPTY_PALETTE",
              AssertionError: "ASSERTION"}


def parse_range(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    values = (list(range(int(lo), int(hi) + 1)) if dots
              else [int(x) for x in text.split(",") if x.strip()])
    if not values:
        raise ValueError("empty range")
    return values


def _text(path: str) -> str:
    """A file's text; a file that is not UTF-8 is a config error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc}") from None


def _at_least(low: int, what: str):
    """A parser of an integer that is at least low."""
    def parse(text) -> int:
        if int(text) < low:
            raise ValueError(f"{what} must be >= {low}")
        return int(text)
    return parse


_k = _at_least(0, "k")


def _one_of(names, what: str, fold=str):
    """A parser of one of names, read after fold."""
    def parse(text: str) -> str:
        if fold(text) not in names:
            raise ValueError(f"unknown {what}; known: {', '.join(names)}")
        return fold(text)
    return parse


BUILD = ("run", "sweep")
# key: (parser, the commands that read it, graphs.generate's parameter)
KEYS = {
    "graph": (_one_of(FAMILIES, "graph family", str.upper), BUILD, None),
    "id_scheme": (_one_of(ID_SCHEMES, "id scheme"), BUILD, None),
    "n": (int, BUILD, "n"),
    "p": (float, BUILD, "p"),
    "d": (int, BUILD, "d"),
    "k_rim": (int, BUILD, "k"),  # wheel_fk's rim size
    "rows": (int, BUILD, "rows"),
    "cols": (int, BUILD, "cols"),
    "shape": (_one_of(("random", "line"), "tree shape", str.lower), BUILD,
              "shape"),
    "problem": (_one_of(PROBLEM_KINDS, "problem", str.upper),
                (*BUILD, "verify"), None),
    "template": (_one_of(TEMPLATES, "template"), BUILD, None),
    "phase": (int, BUILD, None),
    "program": (get_program, BUILD, None),
    "pattern": (_one_of(measures.PATTERNS, "pattern"), BUILD, None),
    "max_rounds": (_at_least(1, "max_rounds"), BUILD, None),
    "k": (_k, ("run",), None),
    "seed": (int, ("run",), None),
    "k_range": (lambda t: list(map(_k, parse_range(t))), ("sweep",), None),
    "seed_range": (parse_range, ("sweep",), None),
    "graph_file": (_text, ("verify",), None),
    "outputs_file": (_text, ("verify",), None),
}
# flag: the commands that read it; like a key, any other command rejects it
FLAGS = {"trace": ("run",), "out": BUILD}


def parse_config(path: str, command: str) -> dict:
    """The config's values by key, as text, for keys that command reads."""
    cfg = {}
    for lineno, raw in enumerate(_text(path).splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in s.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if command not in KEYS[key][1]:
            raise ConfigError(f"{key} = {value}: {command} does not read it")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeated")
        cfg[key] = value
    return cfg


def _read(cfg: dict, key: str, default=None, then=None):
    """cfg[key] read by its KEYS parser, then by then if given; default if
    absent.  A ValueError of either is a config error naming the key."""
    if key not in cfg:
        return default
    try:
        value = KEYS[key][0](cfg[key])
        return value if then is None else then(value)
    except ValueError as exc:
        raise ConfigError(f"{key} = {cfg[key]}: "
                          f"{getattr(exc, 'reason', exc)}") from None


class Plan:
    """One config's runs, with the config resolved once; each seed's
    instance is built on first use and lives as long as the plan."""

    def __init__(self, cfg: dict):
        self.family = family = _read(cfg, "graph", "RANDOM_CONNECTED")
        self.id_scheme = _read(cfg, "id_scheme", "SEEDED_PERMUTATION"
                               if family.startswith("RANDOM") else "INCREASING")
        needs = FAMILIES[family][1]
        missing = [key for key, (_, _, param) in KEYS.items()
                   if param in needs and key not in cfg]
        if missing:
            raise ConfigError(f"graph {family} needs {' and '.join(missing)}")
        reads = {*needs, "d"} | ({"shape"} if family == "TREE" else set())
        self.params = {}  # the graph keys' values, by key
        for key, (_, _, param) in KEYS.items():
            if param and key in cfg:
                if param not in reads:
                    raise ConfigError(f"{key} = {cfg[key]}: graph {family} "
                                      f"does not read it")
                self.params[key] = _read(cfg, key)
        if family.startswith("RANDOM") and self.params["n"] < 1:
            raise ConfigError(f"n = {cfg['n']}: random graph needs n >= 1")
        name = cfg.get("program")
        if name is not None:
            for key in ("template", "phase"):
                if key in cfg:
                    raise ConfigError(f"{key} = {cfg[key]}: a standalone "
                                      f"program takes no {key}")
            self.program, kind = _read(cfg, "program")
            # a standalone program is measured as the problem it solves
            self.kind = _read(cfg, "problem", kind)
            if kind != self.kind:
                raise ConfigError(f"problem = {cfg['problem']}: program "
                                  f"{name} solves {kind}")
            self.inst, self.label = None, name
        else:
            self.kind = _read(cfg, "problem", "MIS")
            build = lambda template, **kw: build_template(
                self.kind, template, tree=family == "TREE", **kw)
            # simple, the default, builds for every problem
            self.inst = _read(cfg, "template", None, build) or build("simple")
            if "phase" in cfg:  # so an error of the rebuild is the phase's
                if self.inst.template != "interleaved":
                    raise ConfigError(f"phase = {cfg['phase']}: only the "
                                      f"interleaved template reads it")
                self.inst = _read(cfg, "phase", None, lambda phase: build(
                    "interleaved", phase=phase))
            self.program, self.label = self.inst.program, self.inst.template
        self.pattern = _read(cfg, "pattern")
        self.max_rounds = _read(cfg, "max_rounds")
        self._instances = {}

    def instance(self, seed: int) -> tuple:
        """What the runs of one seed share, built once and never changed:
        (graph, tree or None, measures.reference, and mis_bitmasks of the
        graph for MIS, which is None above its cap, else None)."""
        case = self._instances.get(seed)
        if case is None:
            params = {KEYS[key][2]: v for key, v in self.params.items()}
            try:
                made = generate(self.family, params, self.id_scheme, seed)
            except GraphError as exc:  # sizes the generator rejects
                given = ", ".join(f"{k} = {v}" for k, v in self.params.items())
                raise ConfigError(f"{given}: {exc.reason}") from None
            g, tree = ((made.graph, made) if self.family == "TREE"
                       else (made, None))
            # for a grid, the same draw that graphs.grid places row major
            ids = (_assign_ids(g.n, self.id_scheme, seed, g.d)[0]
                   if self.family == "GRID" else None)
            try:
                ref = measures.reference(
                    self.kind, g, pattern=self.pattern, tree=tree,
                    rows=self.params.get("rows"),
                    cols=self.params.get("cols"), ids=ids)
            except ValueError as exc:  # a given pattern that does not fit
                if self.pattern is None:
                    raise
                raise ConfigError(f"pattern = {self.pattern}: {exc}") from None
            masks = measures.mis_bitmasks(g) if self.kind == "MIS" else None
            case = self._instances[seed] = (g, tree, ref, masks)
        return case

    def inputs(self, k: int, seed: int) -> tuple:
        """What simulate gets for one run: (g, tree, predictions,
        max_rounds)."""
        g, tree, reference, _ = self.instance(seed)
        p = reference if self.pattern is not None else measures.corrupt(
            self.kind, g, reference, k, seed)
        return g, tree, p, (self.max_rounds if self.inst is None
                            else self.max_rounds or self.inst.max_rounds(g))


def _run_error(exc: Exception) -> tuple[str, str]:
    """(valid code, failure message) of an error raised inside simulate.  A
    PROGRAM_ERROR's message names the error's type and the line that
    raised it."""
    for cls, code in RUN_ERRORS.items():
        if isinstance(exc, cls):
            return code, f"{code}: {exc}"
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    where = f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}"
    return "PROGRAM_ERROR", (f"PROGRAM_ERROR: {type(exc).__name__}: {exc} "
                             f"(at {where})")


def run_one(plan: Plan, k: int, seed: int):
    """Execute one instance, untraced; returns (row dict, failure messages,
    outcome).  A run whose simulation raised has outcome None."""
    g, tree, p, max_rounds = plan.inputs(k, seed)
    _, _, _, masks = plan.instance(seed)
    inst = plan.inst
    report = measures.error_report(plan.kind, g, p, tree, masks)
    failures = []
    verdicts = ("", "", "")  # the BOUNDS cells
    unextendable = ()
    try:
        outcome = simulate(g, plan.program, p, max_rounds, tree=tree)
    except ConfigError:
        raise
    except Exception as exc:  # the run fails; the sweep goes on
        outcome = None
        valid, message = _run_error(exc)
        failures.append(message)
    else:
        violation, unextendable = audit_run(
            plan.kind, g, outcome,
            inst.program.checkpoints(g, outcome.total_rounds) if inst else ())
        valid = "VALID" if violation is None else violation.code
        if violation is not None:
            failures.append(f"invalid solution: {valid}")
        if inst is not None:
            verdicts = inst.verdicts(g, report, outcome.total_rounds)
            failures += [f"{name} violated" for name, cell
                         in zip(BOUNDS, verdicts) if cell == "false"]
    failures += [f"not extendable at {msg}" for msg in unextendable]

    row = {
        "family": plan.family, "n": g.n, "d": g.d, "delta": g.delta,
        "problem": plan.kind, "template": plan.label, "k": k, "seed": seed,
        "eta1": report["eta1"], "eta2": report["eta2"],
        "eta_bw": report["eta_bw"], "eta_t": report["eta_t"],
        "eta_H": report["eta_hamming"],
        "rounds": None if outcome is None else outcome.total_rounds,
        **dict(zip(BOUNDS, verdicts)), "valid": valid,
    }
    return row, failures, outcome


def format_csv(rows) -> str:
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else str(row[c])
                              for c in COLUMNS))
    return "\n".join(lines) + "\n"


def _runs(plan: Plan, ks, seeds, out: str, trace: bool = False) -> int:
    """Run every (k, seed), k-major, then write the CSV to out (stdout if
    empty).  A failing run, and every run under trace, prints its trace,
    formatted from its outcome's record, to stderr: after its assertion
    lines, or before them under trace.  A run that raised has none."""
    rows = []
    status = 0
    # a fixed pattern replaces solve-then-corrupt, so k changes nothing in
    # a run: each seed runs once, and its row, failures and trace are
    # repeated for every k with only the k cell changed
    fixed = {}
    for k in ks:
        for seed in seeds:
            if seed in fixed:
                row, failures, traced = fixed[seed]
                row = dict(row, k=k)
            else:
                row, failures, outcome = run_one(plan, k, seed)
                traced = (outcome.trace_lines() if outcome is not None
                          and (trace or failures) else [])
                if plan.pattern is not None:
                    fixed[seed] = row, failures, traced
            rows.append(row)
            failed = [f"ASSERTION FAILED (k={k}, seed={seed}): {msg}"
                      for msg in failures]
            sys.stderr.writelines(f"{text}\n" for text in (
                traced + failed if trace else failed + traced))
            status = 1 if failures else status
    text = format_csv(rows)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return status


def cmd_run(cfg: dict, args) -> int:
    ks, seeds = [_read(cfg, "k", 0)], [_read(cfg, "seed", 0)]
    return _runs(Plan(cfg), ks, seeds, args.out, args.trace)


def cmd_sweep(cfg: dict, args) -> int:
    ks, seeds = _read(cfg, "k_range", [0]), _read(cfg, "seed_range", [0])
    return _runs(Plan(cfg), ks, seeds, args.out)


def cmd_verify(cfg: dict, args) -> int:
    missing = [key for key in ("graph_file", "outputs_file") if key not in cfg]
    if missing:
        raise ConfigError(f"verify needs {' and '.join(missing)}")
    kind = _read(cfg, "problem", "MIS")
    made = _read(cfg, "graph_file", None, read_graph)
    g = made.graph if isinstance(made, RootedTree) else made
    outputs = _read(cfg, "outputs_file", None, lambda text: (
        measures.parse_predictions(kind, text, g.neighbor_sets)))
    if kind == "EDGE_COLORING":
        # a node without a line colours no edge, as in Outcome.solution
        for u in g.nodes:
            outputs.setdefault(u, {})
    violation = validate(kind, g, outputs)
    if violation is None:
        print("VALID")
        return 0
    print(violation)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="predsync",
        description="bench harness for prediction-augmented distributed algorithms")
    parser.add_argument("command", choices=("run", "sweep", "verify"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    threshold = gc.get_threshold()
    gc.set_threshold(GC_YOUNG_THRESHOLD, *threshold[1:])
    try:
        for flag, commands in FLAGS.items():
            if getattr(args, flag) and args.command not in commands:
                raise ConfigError(f"--{flag}: {args.command} does not read it")
        cfg = parse_config(args.config, args.command)
        return globals()[f"cmd_{args.command}"](cfg, args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the config
        print(_run_error(exc)[1], file=sys.stderr)
        return 3
    finally:
        gc.set_threshold(*threshold)


if __name__ == "__main__":
    sys.exit(main())
