"""Spans and exact work counters for the traced benchmark run.

The tracer rebinds public predsync functions at the module names through
which the CLI and the measures module call them, and records one span per
call: name, start, end, parent span and the run_one span it belongs to.
With count_nodes, the node program handed to simulate() is proxied to count
node steps and messages and to time the node programs' compose/process
calls.  No file of the program is edited; uninstall() restores every
binding.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Exact counters that must repeat identically on every pass of a workload.
EXACT = ("cli.run_one.calls", "engine.rounds", "engine.trace_events",
         "measures.base_runs", "graphs.alpha_oracle.calls",
         "graphs.enumerate_mis.calls", "graphs.oracle_capped",
         "audit.checkpoints", "audit.violations")


class _NodeWork:
    __slots__ = ("compose_s", "process_s", "node_steps", "msgs_sent",
                 "msgs_delivered")

    def __init__(self):
        self.compose_s = self.process_s = 0.0
        self.node_steps = self.msgs_sent = self.msgs_delivered = 0


class _CountingBehavior:
    __slots__ = ("_inner", "_work")

    def __init__(self, inner, work):
        self._inner = inner
        self._work = work

    def compose(self, rnd):
        t0 = perf_counter()
        outbox = self._inner.compose(rnd)
        work = self._work
        work.compose_s += perf_counter() - t0
        work.msgs_sent += len(outbox)
        return outbox

    def process(self, rnd, inbox):
        t0 = perf_counter()
        step = self._inner.process(rnd, inbox)
        work = self._work
        work.process_s += perf_counter() - t0
        work.node_steps += 1
        work.msgs_delivered += len(inbox)
        return step


class _CountingProgram:
    def __init__(self, inner, work):
        self._inner = inner
        self._work = work

    def start(self, view):
        return _CountingBehavior(self._inner.start(view), self._work)


class Tracer:
    """Spans and counters for the passes run between install() and
    uninstall().  With count_nodes, simulate() also gets a proxied node
    program; that costs time, so span timings come from a tracer without it."""

    def __init__(self, cli, measures, graphs, count_nodes: bool):
        self._modules = (cli, measures, graphs)
        self.count_nodes = count_nodes
        self.spans = []  # [name, start, end, parent index, run index]
        self._stack = []  # indices of open spans
        self._child = []  # child time accumulated by each open span
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.count = Counter()
        self.work = _NodeWork()
        self.top = defaultdict(float)  # time of run_one's direct children
        self.passes = []  # exact work of each pass
        self._totals = {}
        self._restore = []
        self.missing = set()  # names the program no longer binds
        self._cap = graphs.CapExceeded

    def install(self):
        cli, measures, graphs = self._modules
        self._span(cli, "run_one", "cli.run_one")
        self._span(cli, "format_csv", "cli.format_csv")
        self._span(cli, "generate", "graphs.generate")
        self._span(cli, "validate", "graphs.validate")
        self._span(cli, "build_template", "templates.build_template")
        self._span(cli, "audit_run", "audit.audit_run", self._count_audit)
        self._span(measures, "make_predictions", "measures.make_predictions")
        self._span(measures, "error_report", "measures.error_report")
        # tau_oracle reaches alpha_oracle through the graphs module's own name
        for module in (measures, graphs):
            self._oracle(module, "alpha_oracle", "graphs.alpha_oracle")
        self._oracle(measures, "enumerate_mis", "graphs.enumerate_mis")
        self._simulate(cli, base_runs=False)
        self._simulate(measures, base_runs=True)

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        run = len(self.spans) if name == "cli.run_one" else (
            None if parent is None else self.spans[parent][4])
        self.spans.append([name, perf_counter(), 0.0, parent, run])
        self._stack.append(len(self.spans) - 1)
        self._child.append(0.0)

    def _close(self):
        end = perf_counter()
        span = self.spans[self._stack.pop()]
        span[2] = end
        took = end - span[1]
        name = span[0]
        self.incl[name] += took
        self.self_s[name] += took - self._child.pop()
        self.count[name + ".calls"] += 1
        if self._child:
            self._child[-1] += took
            if self.spans[span[3]][0] == "cli.run_one":
                self.top[name] += took

    def _install(self, module, attr, wrapper):
        real = getattr(module, attr, None)
        if real is None:  # renamed or removed: its layer metrics read 0
            self.missing.add(f"{module.__name__}.{attr}")
            return
        self._restore.append((module, attr, real))
        setattr(module, attr, functools.wraps(real)(wrapper(real)))

    def _span(self, module, attr, name, after=None):
        def wrapper(real):
            def call(*args, **kwargs):
                self._open(name)
                try:
                    result = real(*args, **kwargs)
                finally:
                    self._close()
                if after is not None:
                    after(args, result)
                return result
            return call
        self._install(module, attr, wrapper)

    def _oracle(self, module, attr, name):
        def wrapper(real):
            def call(*args, **kwargs):
                self._open(name)
                try:
                    return real(*args, **kwargs)
                except self._cap:
                    self.count["graphs.oracle_capped"] += 1
                    raise
                finally:
                    self._close()
            return call
        self._install(module, attr, wrapper)

    def _simulate(self, module, base_runs):
        def wrapper(real):
            def call(g, program, *args, **kwargs):
                traced = bool(kwargs.get("trace"))
                if base_runs:
                    self.count["measures.base_runs"] += 1
                self._open("engine.simulate." + ("traced" if traced else "untraced"))
                try:
                    if self.count_nodes:
                        program = _CountingProgram(program, self.work)
                    outcome = real(g, program, *args, **kwargs)
                finally:
                    self._close()
                self.count["engine.rounds"] += outcome.total_rounds
                self.count["engine.trace_events"] += len(outcome.trace or ())
                return outcome
            return call
        self._install(module, "simulate", wrapper)

    def _count_audit(self, args, result):
        outcome, checkpoints = args[2], args[3]
        self.count["audit.checkpoints"] += sum(
            1 for r in checkpoints if r <= outcome.total_rounds)
        self.count["audit.violations"] += len(result)

    def uninstall(self):
        for module, attr, real in reversed(self._restore):
            setattr(module, attr, real)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def exact(self) -> dict:
        """Exact counters so far, node-program work included when counted."""
        counts = {name: self.count[name] for name in EXACT}
        if self.count_nodes:
            counts["engine.node_steps"] = self.work.node_steps
            counts["engine.msgs_sent"] = self.work.msgs_sent
            counts["engine.msgs_delivered"] = self.work.msgs_delivered
        return counts

    def end_pass(self):
        """Record the exact work of the pass that just ended."""
        now = self.exact()
        self.passes.append({k: v - self._totals.get(k, 0) for k, v in now.items()})
        self._totals = now

    def per_pass(self, seconds: float) -> float:
        return seconds / len(self.passes)

    def breakdown(self):
        """run_one's time split by its direct calls, with run_one's own code
        as `cli.run_one.self`, and the same split rolled up by layer: each
        a list of (name, seconds per pass, share of run_one), largest first."""
        total = self.incl["cli.run_one"]
        calls = dict(self.top, **{"cli.run_one.self": self.self_s["cli.run_one"]})
        layers = defaultdict(float)
        for name, seconds in calls.items():
            layers[name.split(".")[0]] += seconds
        return [sorted(((name, self.per_pass(s), _ratio(s, total))
                        for name, s in split.items()), key=lambda row: -row[1])
                for split in (calls, layers)]

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")


def fingerprint(*tracers) -> dict:
    """Exact work of one pass; raises when any two passes differ."""
    merged = {}
    for tracer in tracers:
        for work in tracer.passes:
            for name, value in work.items():
                if merged.setdefault(name, value) != value:
                    raise AssertionError(f"{name} differs between passes: "
                                         f"{merged[name]} vs {value}")
    return merged


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: Tracer, nodes: Tracer) -> dict:
    """Per-layer metrics, times per pass of the workload.  Times come from
    the span tracer; node-program work and its times from the node tracer."""
    fp = fingerprint(spans, nodes)
    per = spans.per_pass
    simulate_s = per(spans.incl["engine.simulate.traced"]
                     + spans.incl["engine.simulate.untraced"])
    compose_s = nodes.per_pass(nodes.work.compose_s)
    process_s = nodes.per_pass(nodes.work.process_s)
    oracle_calls = fp["graphs.alpha_oracle.calls"] + fp["graphs.enumerate_mis.calls"]
    audit_s = per(spans.incl["audit.audit_run"])
    return {
        "measures.error_report.s": per(spans.incl["measures.error_report"]),
        "measures.error_report.self_s": per(spans.self_s["measures.error_report"]),
        "measures.make_predictions.s": per(spans.incl["measures.make_predictions"]),
        "measures.base_runs_per_run": _ratio(fp["measures.base_runs"],
                                             fp["cli.run_one.calls"]),
        "graphs.alpha_oracle.s": per(spans.incl["graphs.alpha_oracle"]),
        "graphs.alpha_oracle.calls": fp["graphs.alpha_oracle.calls"],
        "graphs.enumerate_mis.s": per(spans.incl["graphs.enumerate_mis"]),
        "graphs.enumerate_mis.calls": fp["graphs.enumerate_mis.calls"],
        "graphs.oracle_cap_frac": _ratio(fp["graphs.oracle_capped"], oracle_calls),
        "graphs.generate.s": per(spans.incl["graphs.generate"]),
        "graphs.validate.s": per(spans.incl["graphs.validate"]),
        "engine.simulate.traced_s": per(spans.incl["engine.simulate.traced"]),
        "engine.simulate.untraced_s": per(spans.incl["engine.simulate.untraced"]),
        "engine.self_s": simulate_s - compose_s - process_s,
        "engine.rounds": fp["engine.rounds"],
        "engine.node_steps": fp["engine.node_steps"],
        "engine.msgs_sent": fp["engine.msgs_sent"],
        "engine.msgs_delivered": fp["engine.msgs_delivered"],
        "engine.msgs_dropped": fp["engine.msgs_sent"] - fp["engine.msgs_delivered"],
        "engine.trace_events": fp["engine.trace_events"],
        "engine.ns_per_node_step": _ratio(simulate_s, fp["engine.node_steps"]) * 1e9,
        "stages.compose_s": compose_s,
        "stages.process_s": process_s,
        "audit.audit_run.s": audit_s,
        "audit.checkpoints": fp["audit.checkpoints"],
        "audit.ms_per_checkpoint": _ratio(audit_s, fp["audit.checkpoints"]) * 1e3,
        "audit.violations": fp["audit.violations"],
        "templates.build_template.s": per(spans.incl["templates.build_template"]),
        "cli.run_one.self_s": per(spans.self_s["cli.run_one"]),
        "cli.format_csv.s": per(spans.incl["cli.format_csv"]),
    }
