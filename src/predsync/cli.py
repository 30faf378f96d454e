"""Bench harness: build instances, run templated algorithms, compute error
measures, emit CSV, and check the round bounds of every run.

Commands (all driven by a flat key=value config file):
    predsync run    --config cfg [--trace] [--out csv]   one instance
    predsync sweep  --config cfg [--out csv]             k x seed Cartesian sweep
    predsync verify --config cfg                         validate an outputs file
    predsync sanity --config cfg                         lower-bound sanity report

Exit codes: 0 ok, 1 assertion (bound or validity) failure, 2 config error.
A run whose simulation raises is a failure too, unless the error is a
ConfigError: its row says which in `valid` (the code of RUN_ERRORS that
matches, else PROGRAM_ERROR), and it has no rounds and no bound verdicts.

A config key that no command reads, or a sweep-only key (k_range,
seed_range) given to run, is a config error naming the key.

A Plan holds one config's runs.  Its constructor resolves the config once:
the graph family, id scheme and the parameters graphs.FAMILIES says the
family reads (any other graph key is a config error), the kind, the program
or TemplateInstance, the CSV label and a configured max_rounds.  Each
seed's instance (graph, tree, the reference that predictions corrupt, and
the MIS sets behind eta_H) is built by the first run_one of that seed with
one graphs.generate call and kept while the plan lives, so a sweep builds
it once and shares it among its k values.  Runs still go k-major, so CSV
rows and stderr keep that order.  A sweep with a fixed pattern runs each
seed once, since k changes nothing there, and repeats its row for every k.

Each run that ends gets one correctness pass, audit.audit_run: one replay
of its output record gives both its `valid` code and, for a template, the
extendability of its partial output at each checkpoint.

Runs are simulated untraced.  A trace is printed only for `run --trace` and
for a failing run, and it comes from replay: the same deterministic run
simulated again with its trace on, and checked against the first run.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import measures
from .audit import audit_run
from .engine import NonTermination, ProtocolViolation, simulate
from .graphs import (FAMILIES, ID_SCHEMES, PROBLEM_KINDS, GraphError,
                     RootedTree, _assign_ids, generate, line, read_graph,
                     validate)
from .problems import EmptyPalette
from .registry import get_program
from .stages import ConfigError
from .templates import TEMPLATES, build_template

BOUNDS = ("bound_consistency", "bound_degrading", "bound_robust")
COLUMNS = ("family", "n", "d", "delta", "problem", "template", "k", "seed",
           "eta1", "eta2", "eta_bw", "eta_t", "eta_H", "rounds", *BOUNDS,
           "valid")

# every key some command reads: run and sweep (instance, program, k and
# seed), verify (problem, graph_file, outputs_file) and sanity (family, n)
CONFIG_KEYS = frozenset((
    "graph", "id_scheme", "n", "p", "d", "k_rim", "rows", "cols", "shape",
    "problem", "template", "phase", "program", "pattern", "max_rounds",
    "k", "seed", "k_range", "seed_range", "graph_file", "outputs_file",
    "family"))


# errors a run may raise from inside simulate, and the code its row gets;
# any other error but a ConfigError gets PROGRAM_ERROR
RUN_ERRORS = {ProtocolViolation: "PROTOCOL_VIOLATION",
              NonTermination: "NON_TERMINATION",
              EmptyPalette: "EMPTY_PALETTE",
              AssertionError: "ASSERTION"}


def parse_config(path: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in s.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def parse_range(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def _read(cfg: dict, key: str, parse, default=None):
    """cfg[key] parsed, or default when the key is absent.  A value that
    parse rejects with a ValueError is a config error naming the key."""
    if key not in cfg:
        return default
    try:
        return parse(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} = {cfg[key]}: {exc}") from None


def _at_least(low: int, what: str):
    """A parser of an integer that is at least low."""
    def parse(text) -> int:
        if int(text) < low:
            raise ValueError(f"{what} must be >= {low}")
        return int(text)
    return parse


_k = _at_least(0, "k")


def _k_range(text: str) -> list[int]:
    return [_k(k) for k in parse_range(text)]


def _one_of(names, what: str, fold=str):
    """A parser of one of names, read after fold, that names them all when
    the value is none of them."""
    def parse(text: str) -> str:
        if fold(text) not in names:
            raise ValueError(f"unknown {what}; known: {', '.join(names)}")
        return fold(text)
    return parse


_problem = _one_of(PROBLEM_KINDS, "problem", str.upper)
_pattern = _one_of(measures.PATTERNS, "pattern")
_family = _one_of(tuple(FAMILIES), "graph family", str.upper)
_id_scheme = _one_of(ID_SCHEMES, "id scheme")
_template = _one_of(TEMPLATES, "template")
# every graph key, with its parser
_GRAPH_KEYS = {"n": int, "p": float, "d": int, "k_rim": int, "rows": int,
               "cols": int, "shape": _one_of(("random", "line"), "tree shape",
                                             str.lower)}


class Plan:
    """One config's runs, with the config resolved once; each seed's
    instance is built on first use and lives as long as the plan."""

    def __init__(self, cfg: dict):
        self.family = family = _read(cfg, "graph", _family, "RANDOM_CONNECTED")
        self.id_scheme = _read(cfg, "id_scheme", _id_scheme, (
            "SEEDED_PERMUTATION" if family.startswith("RANDOM")
            else "INCREASING"))
        # k_rim is the config key of wheel_fk's k
        needs = ["k_rim" if n == "k" else n for n in FAMILIES[family][1]]
        missing = [key for key in needs if key not in cfg]
        if missing:
            raise ConfigError(f"graph {family} needs {' and '.join(missing)}")
        reads = {*needs, "d"} | ({"shape"} if family == "TREE" else set())
        self.params = {}  # generate's params, by parameter name
        for key, parse in _GRAPH_KEYS.items():
            if key in cfg:
                if key not in reads:
                    raise ConfigError(f"{key} = {cfg[key]}: graph {family} "
                                      f"does not read it")
                param = "k" if key == "k_rim" else key
                self.params[param] = _read(cfg, key, parse)
        name = cfg.get("program")
        if name:
            for key in ("template", "phase"):
                if key in cfg:
                    raise ConfigError(f"{key} = {cfg[key]}: a standalone "
                                      f"program takes no {key}")
            self.program, kind = _read(cfg, "program", get_program)
            # a standalone program is measured as the problem it solves
            self.kind = _read(cfg, "problem", _problem, kind)
            if kind != self.kind:
                raise ConfigError(f"problem = {cfg['problem']}: program "
                                  f"{name} solves {kind}")
            self.inst, self.label = None, name
        else:
            self.kind = _read(cfg, "problem", _problem, "MIS")
            build = lambda template, **kw: build_template(
                self.kind, _template(template), tree=family == "TREE", **kw)
            # simple, the default, builds for every problem
            self.inst = _read(cfg, "template", build) or build("simple")
            if "phase" in cfg:  # so an error of the rebuild is the phase's
                if self.inst.template != "interleaved":
                    raise ConfigError(f"phase = {cfg['phase']}: only the "
                                      f"interleaved template reads it")
                self.inst = _read(cfg, "phase", lambda text: build(
                    "interleaved", phase=int(text)))
            self.program, self.label = self.inst.program, self.inst.template
        self.pattern = _read(cfg, "pattern", _pattern)
        self.max_rounds = _read(cfg, "max_rounds", _at_least(1, "max_rounds"))
        self._instances = {}

    def instance(self, seed: int) -> tuple:
        """What the runs of one seed share, built once and never changed:
        (graph, tree or None, measures.reference, and measures.mis_masks of
        the graph for MIS, else None)."""
        case = self._instances.get(seed)
        if case is None:
            made = generate(self.family, self.params, self.id_scheme, seed)
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
            masks = measures.mis_masks(g) if self.kind == "MIS" else None
            case = self._instances[seed] = (g, tree, ref, masks)
        return case

    def inputs(self, k: int, seed: int) -> tuple:
        """What simulate gets for one run: (g, tree, predictions,
        max_rounds)."""
        g, tree, reference, _ = self.instance(seed)
        p = reference if self.pattern is not None else measures.corrupt(
            self.kind, g, reference, k, seed)
        max_rounds = self.max_rounds
        if max_rounds is None and self.inst is not None:
            max_rounds = self.inst.max_rounds(g)
        return g, tree, p, max_rounds


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


def replay(plan: Plan, k: int, seed: int, outcome) -> list[str]:
    """The trace lines of run_one(plan, k, seed), whose outcome is given:
    the run simulated again, traced.  The engine is deterministic, so a
    replay that ends differently is a fault, and it raises.  A run that
    raised (outcome None) has no trace: its replay would raise again."""
    if outcome is None:
        return []
    g, tree, p, max_rounds = plan.inputs(k, seed)
    traced = simulate(g, plan.program, p, max_rounds, tree=tree, trace=True)
    for name in ("outputs", "term_round", "total_rounds", "output_log"):
        if getattr(traced, name) != getattr(outcome, name):
            raise RuntimeError(f"replay of k={k}, seed={seed} differs from "
                               f"its run in {name}")
    return traced.trace_lines()


def _assertions(k: int, seed: int, failures) -> list[str]:
    return [f"ASSERTION FAILED (k={k}, seed={seed}): {msg}" for msg in failures]


def _print_err(lines):
    for text in lines:
        print(text, file=sys.stderr)


def format_csv(rows) -> str:
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else str(row[c])
                              for c in COLUMNS))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_run(cfg: dict, args) -> int:
    for key in ("k_range", "seed_range"):
        if key in cfg:
            raise ConfigError(f"{key} = {cfg[key]}: only sweep reads it; "
                              "run reads k and seed")
    k = _read(cfg, "k", _k, 0)
    seed = _read(cfg, "seed", int, 0)
    plan = Plan(cfg)
    row, failures, outcome = run_one(plan, k, seed)
    _emit(format_csv([row]), args.out)
    trace = replay(plan, k, seed, outcome) if args.trace or failures else []
    failed = _assertions(k, seed, failures)
    _print_err(trace + failed if args.trace else failed + trace)
    return 1 if failures else 0


def cmd_sweep(cfg: dict, args) -> int:
    ks = _read(cfg, "k_range" if "k_range" in cfg else "k", _k_range, [0])
    seeds = _read(cfg, "seed_range" if "seed_range" in cfg else "seed",
                  parse_range, [0])
    if not ks or not seeds:
        raise ConfigError("sweep needs non-empty k_range and seed_range")
    plan = Plan(cfg)
    rows = []
    status = 0
    # a fixed pattern replaces solve-then-corrupt, so k changes nothing in
    # a run: each seed runs once, and its row, failures and trace are
    # repeated for every k with only the k cell changed
    fixed = {}
    for k in ks:
        for seed in seeds:
            if seed in fixed:
                row, failures, trace = fixed[seed]
                row = dict(row, k=k)
            else:
                row, failures, outcome = run_one(plan, k, seed)
                trace = replay(plan, k, seed, outcome) if failures else []
                if plan.pattern is not None:
                    fixed[seed] = row, failures, trace
            rows.append(row)
            if failures:
                _print_err(_assertions(k, seed, failures) + trace)
                status = 1
    _emit(format_csv(rows), args.out)
    return status


def cmd_verify(cfg: dict, args) -> int:
    missing = [key for key in ("graph_file", "outputs_file") if key not in cfg]
    if missing:
        raise ConfigError(f"verify needs {' and '.join(missing)}")
    kind = _read(cfg, "problem", _problem, "MIS")
    made = read_graph(Path(cfg["graph_file"]).read_text())
    g = made.graph if isinstance(made, RootedTree) else made
    text = Path(cfg["outputs_file"]).read_text()
    outputs = measures.parse_predictions(kind, text, g.neighbor_sets)
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


SANITY = {
    # family: (program name, threshold function of n)
    "MIS_LINE": ("mis.greedy", lambda n: (n - 5) / 2),
    "MM_LINE": ("mm.uniform", lambda n: (n - 3) / 2),
    "VC_LINE": ("vc.uniform", lambda n: (n - 3) / 2),
    "EC_LINE": ("ec.uniform", lambda n: (n - 3) / 2),
}


def cmd_sanity(cfg: dict, args) -> int:
    family = _read(cfg, "family", _one_of(tuple(SANITY), "sanity family",
                                          str.upper), "MIS_LINE")
    n = _read(cfg, "n", int, 101)
    name, threshold_fn = SANITY[family]
    g = line(n)
    program, _ = get_program(name)
    outcome = simulate(g, program, max_rounds=4 * n + 20)
    threshold = math.ceil(threshold_fn(n))
    ok = outcome.total_rounds >= threshold
    print(f"{family} n={n} measured={outcome.total_rounds} "
          f"threshold={threshold} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="predsync",
        description="bench harness for prediction-augmented distributed algorithms")
    parser.add_argument("command", choices=("run", "sweep", "verify", "sanity"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        handler = {"run": cmd_run, "sweep": cmd_sweep,
                   "verify": cmd_verify, "sanity": cmd_sanity}[args.command]
        return handler(cfg, args)
    except (ConfigError, GraphError, KeyError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
