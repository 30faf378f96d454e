"""The wake-driven engine against stepping every node every round.

The reference runs the same program behind a proxy that drops every wake
hint, so the engine steps every active node in every round; the stage
drivers derive stage time from the round number either way.  Both runs
must agree on outputs, termination rounds, trace and output record.

The same runs also pin that broadcasts may share one payload object among
their recipients: a proxy that hands every recipient its own deep copy
must not change what a run does.  Over every template and registry
program, they pin two sender-side rules: no outbox, payload or output
value changes after its round, since a run's trace is formatted from them
when it ends, and no Step changes once it is returned, so the shared steps
never change; any other Step is new on each call.
"""

import ast
import copy
from pathlib import Path

import pytest

from predsync import engine, measures as M, mis, problems, stages
from predsync.cli import RUN_ERRORS
from predsync.engine import NEVER, NonTermination, ProtocolViolation, Step, simulate
from predsync.graphs import (build_graph, generate, line,
                             random_connected_graph, random_tree, _rng)
from predsync.registry import PROGRAMS as REGISTRY
from predsync.stages import Stage, StagedProgram, TruncatedStage
from predsync.templates import build_template

from helpers import program, undecided, value


class _Counted:
    def __init__(self, inner, counts, keep_wake):
        self.inner = inner
        self.counts = counts
        self.keep_wake = keep_wake

    def compose(self, rnd):
        self.counts["compose"] += 1
        return self.inner.compose(rnd)

    def process(self, rnd, inbox):
        self.counts["process"] += 1
        step = self.inner.process(rnd, inbox)
        if self.keep_wake:
            return step
        return Step(outputs=step.outputs, terminate=step.terminate)


class Proxy:
    """Counts compose and process calls; with keep_wake=False it is the
    every-node-every-round reference."""

    def __init__(self, inner, keep_wake=True):
        self.inner = inner
        self.keep_wake = keep_wake
        self.counts = {"compose": 0, "process": 0}

    def start(self, view):
        return _Counted(self.inner.start(view), self.counts, self.keep_wake)


class _Copying:
    def __init__(self, inner):
        self.inner = inner

    def compose(self, rnd):
        return {v: copy.deepcopy(m) for v, m in self.inner.compose(rnd).items()}

    def process(self, rnd, inbox):
        return self.inner.process(rnd, inbox)


class CopyingProxy:
    """Gives each recipient its own deep copy of every payload, so no two
    recipients of a broadcast share a message object."""

    def __init__(self, inner):
        self.inner = inner

    def start(self, view):
        return _Copying(self.inner.start(view))


def _outcome(program, g, predictions=None, **kwargs):
    try:
        out = simulate(g, program, predictions, **kwargs)
    except (NonTermination, ProtocolViolation) as exc:
        return type(exc), str(exc)
    return (out.outputs, out.term_round, out.total_rounds, out.trace_lines(),
            out.output_log)


def _run(program, keep_wake, g, predictions=None, **kwargs):
    prog = Proxy(program, keep_wake)
    return _outcome(prog, g, predictions, **kwargs), prog.counts


def _same(program, g, predictions=None, **kwargs):
    """Assert both engines agree; returns (wake, reference) process calls."""
    woken, wc = _run(program, True, g, predictions, **kwargs)
    every, ec = _run(program, False, g, predictions, **kwargs)
    assert woken == every
    assert wc["process"] <= ec["process"]
    return wc["process"], ec["process"]


FAMILIES = {
    "LINE": {"n": 14},
    "GRID": {"rows": 3, "cols": 4},
    "WHEEL_FK": {"k": 5},
    "TREE": {"n": 13},
    "RANDOM": {"n": 12, "p": 0.3},
    "RANDOM_CONNECTED": {"n": 12, "p": 0.3},
}
PROGRAMS = [("MIS", t, False) for t in
            ("simple", "consecutive", "interleaved", "parallel")]
PROGRAMS += [("MIS", t, True) for t in ("simple", "parallel")]
PROGRAMS += [(p, t, False) for p in
             ("MAXIMAL_MATCHING", "VERTEX_COLORING", "EDGE_COLORING")
             for t in ("simple", "consecutive")]


PROGRAM_IDS = [f"{p}-{t}{'-tree' if tr else ''}" for p, t, tr in PROGRAMS]


def _template_cases(problem, tree):
    """(graph, rooted tree or None, predictions) over FAMILIES (only TREE
    when tree), seeds 0..2 and k 0, 1, 3, 8, plus ALL_ZEROS for MIS."""
    for family, params in FAMILIES.items():
        if tree and family != "TREE":
            continue
        ids = "SEEDED_PERMUTATION" if family.startswith("RANDOM") else "INCREASING"
        for seed in range(3):
            made = generate(family, params, ids, seed)
            g, rooted = (made.graph, made) if family == "TREE" else (made, None)
            for k in (0, 1, 3, 8):
                yield g, rooted, M.corrupt(problem, g, M.reference(problem, g),
                                           k, seed)
            if problem == "MIS":
                yield g, rooted, M.reference("MIS", g, pattern="ALL_ZEROS")


@pytest.mark.parametrize("problem,template,tree", PROGRAMS, ids=PROGRAM_IDS)
def test_wake_matches_every_round(problem, template, tree):
    saved = 0
    inst = build_template(problem, template, tree=tree)
    for g, rooted, p in _template_cases(problem, tree):
        woken, every = _same(inst.program, g, p, tree=rooted,
                             max_rounds=inst.max_rounds(g))
        saved += every - woken
    if problem == "MIS" and template != "parallel" and not tree:
        assert saved > 0  # greedy nodes did sleep


@pytest.mark.parametrize("problem,template,tree", PROGRAMS, ids=PROGRAM_IDS)
def test_shared_payloads_match_copies(problem, template, tree):
    inst = build_template(problem, template, tree=tree)
    for g, rooted, p in _template_cases(problem, tree):
        kwargs = {"tree": rooted, "max_rounds": inst.max_rounds(g)}
        assert (_outcome(CopyingProxy(inst.program), g, p, **kwargs)
                == _outcome(inst.program, g, p, **kwargs))


def _matrix(name):
    """(program, its cases, max_rounds(g)) of a template, over
    _template_cases, or of a registry program, over FAMILIES at seed 0
    (only TREE for tree programs) and k 0, 2, 5.  The part-2 programs read
    a stored coloring from their predictions."""
    if name in REGISTRY:
        kind = REGISTRY[name][1]
        source = "VERTEX_COLORING" if "part2" in name else kind
        graphs = []
        for family, params in FAMILIES.items():
            made = generate(family, params, "INCREASING", 0)
            if family == "TREE":
                graphs.append((made.graph, made))
            elif "tree" not in name:
                graphs.append((made, None))
        cases = [(g, rooted, M.corrupt(source, g, M.solve(source, g), k, seed))
                 for g, rooted in graphs for k, seed in ((0, 0), (2, 1), (5, 2))]
        return program(name), cases, lambda g: None
    problem, template, tree = PROGRAMS[PROGRAM_IDS.index(name)]
    inst = build_template(problem, template, tree=tree)
    return inst.program, _template_cases(problem, tree), inst.max_rounds


MATRIX = PROGRAM_IDS + sorted(REGISTRY)


class _Early:
    def __init__(self, inner, node, log):
        self.inner = inner
        self.node = node
        self.log = log

    def _lines(self, rnd):
        return self.log.setdefault(rnd, ([], [], []))

    def compose(self, rnd):
        outbox = self.inner.compose(rnd)
        self._lines(rnd)[0].extend(
            engine._line(rnd, self.node, "SEND", v, m)
            for v, m in sorted(outbox.items()))
        return outbox

    def process(self, rnd, inbox):
        step = self.inner.process(rnd, inbox)
        _, outputs, ends = self._lines(rnd)
        outputs.extend(
            engine._line(rnd, self.node, "OUTPUT", s, step.outputs[s])
            for s in sorted(step.outputs, key=repr))
        if step.terminate:
            ends.append(engine._line(rnd, self.node, "TERMINATE", None, None))
        return step


class EarlyProxy:
    """Formats each trace line when its event happens: per round, a SEND
    as its sender composes, then an OUTPUT or a TERMINATE as its node
    processes.  Nodes compose and process in node order, so the lines of
    a run without crashes come out in trace order."""

    def __init__(self, inner):
        self.inner = inner
        self.log = {}  # round -> (SEND, OUTPUT, TERMINATE lines)

    def start(self, view):
        return _Early(self.inner.start(view), view.id, self.log)

    def lines(self):
        return [line for rnd in sorted(self.log) for lines in self.log[rnd]
                for line in lines]


@pytest.mark.parametrize("name", MATRIX)
def test_trace_formatted_late_matches_formatted_early(name):
    """A run keeps its outboxes, payloads and output values, and its trace
    is formatted from them when it ends, so no node may change an outbox
    it returned, nor a sender a payload or value after its round."""
    program, cases, max_rounds = _matrix(name)
    traced = 0
    for g, rooted, p in cases:
        early = EarlyProxy(program)
        try:
            out = simulate(g, early, p, max_rounds(g), tree=rooted)
        except tuple(RUN_ERRORS):
            continue
        assert early.lines() == out.trace_lines()
        traced += 1
    assert traced


def _fields(step):
    return dict(step.outputs), step.terminate, step.wake


class _Recording:
    def __init__(self, inner, returned):
        self.inner = inner
        self.returned = returned

    def compose(self, rnd):
        return self.inner.compose(rnd)

    def process(self, rnd, inbox):
        step = self.inner.process(rnd, inbox)
        self.returned.append((step, _fields(step)))
        return step


class RecordingProxy:
    """Records every Step that process returns, with its fields as they
    were when it was returned."""

    def __init__(self, inner):
        self.inner = inner
        self.returned = []

    def start(self, view):
        return _Recording(self.inner.start(view), self.returned)


SHARED_STEPS = {"IDLE": engine.IDLE, "SLEEP": engine.SLEEP,
                "STOP": engine.STOP, "JOINED": mis.JOINED, "LEFT": mis.LEFT}


def _returned(name):
    """Every Step the runs of a MATRIX entry return, with its fields as
    they were when it was returned, and the program's shared sleep steps
    by wake; all are kept alive, so no two distinct steps share an id."""
    program, cases, max_rounds = _matrix(name)
    prog = RecordingProxy(program)
    for g, rooted, p in cases:
        try:
            simulate(g, prog, p, max_rounds(g), tree=rooted)
        except tuple(RUN_ERRORS):
            pass
    assert prog.returned
    return prog.returned, program._sleeps


@pytest.mark.parametrize("name", MATRIX)
def test_every_process_call_returns_a_new_step(name):
    """A process call returns a new Step unless it returns a shared one:
    one of SHARED_STEPS, or the program's shared sleep step of its wake,
    which a stage driver or a composite run returns for a sleep it
    re-times.  So those are the only steps that two calls can hand out,
    and the only ones that test_no_step_is_edited_after_it_is_returned
    must watch beyond each step's own call."""
    returned, sleeps = _returned(name)
    shared = set(map(id, [*SHARED_STEPS.values(), *sleeps.values()]))
    own = [id(step) for step, _ in returned if id(step) not in shared]
    assert len(set(own)) == len(own)


@pytest.mark.parametrize("name", MATRIX)
def test_no_step_is_edited_after_it_is_returned(name):
    """Steps are shared, IDLE by every node, so no code may edit one once
    it is returned: not the stage driver, the composite runs, nor the
    engine.  Every step still holds the fields it was returned with after
    every run, and so do the shared steps and the shared sleep steps."""
    shared = {key: _fields(step) for key, step in SHARED_STEPS.items()}
    assert shared == {"IDLE": ({}, False, None), "SLEEP": ({}, False, NEVER),
                      "STOP": ({}, True, None), "JOINED": ({"y": 1}, True, None),
                      "LEFT": ({"y": 0}, True, None)}
    returned, sleeps = _returned(name)
    for step, fields in returned:
        assert _fields(step) == fields
    assert {key: _fields(step) for key, step in SHARED_STEPS.items()} == shared
    assert sleeps[NEVER] is engine.SLEEP
    assert all(_fields(step) == ({}, False, wake)
               for wake, step in sleeps.items())


@pytest.mark.parametrize("template,wake,count",
                         [("simple", 4, 6), ("interleaved", 6, 4)])
def test_nodes_sleeping_to_one_round_share_its_step(template, wake, count):
    """A sleep that a stage driver or a composite run re-times returns the
    program's one Step for its wake round.  Under ALL_ZEROS every node of
    a line sleeps in round 1 of the MIS initialization, and the driver
    wakes all 6 in round 4, the first of U.  In the first interleaved U
    block, greedy's round 4, nodes 1..4 lose and hear nothing, so they
    sleep to round 6, where the first R block starts."""
    g = line(6)
    prog = RecordingProxy(build_template("MIS", template).program)
    simulate(g, prog, {u: 0 for u in g.nodes})
    sleeps = [step for step, (_, _, at) in prog.returned if at == wake]
    assert len(sleeps) == count
    assert all(step is sleeps[0] for step in sleeps)


# a Step's parameters, and the source of each default
STEP_DEFAULTS = {"outputs": ("NO_OUTPUTS", "{}"), "terminate": ("False",),
                 "wake": ("None",)}
# the arguments, defaults left out, of each shared step
SHARED_ARGS = [{}, {"wake": "NEVER"}, {"terminate": "True"},
               {"outputs": "{'y': 1}", "terminate": "True"},
               {"outputs": "{'y': 0}", "terminate": "True"}]


def _shared_step_calls(tree):
    """Lines of the Step(...) calls in a module that build a step a shared
    one already is; the definitions of SHARED_STEPS are left out."""
    defined = {id(node.value) for node in tree.body
               if isinstance(node, ast.Assign) and any(
                   getattr(t, "id", None) in SHARED_STEPS for t in node.targets)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                == "Step") or id(node) in defined:
            continue
        given = dict(zip(STEP_DEFAULTS, map(ast.unparse, node.args)))
        given.update((kw.arg, ast.unparse(kw.value)) for kw in node.keywords)
        args = {k: v for k, v in given.items() if v not in STEP_DEFAULTS[k]}
        if args in SHARED_ARGS:
            lines.append(node.lineno)
    return lines


def test_no_stage_builds_a_step_that_is_shared():
    """A Step(...) that equals a shared step allocates on every call for
    nothing, and no run's result would show it, so the sources are read."""
    sample = ast.parse("IDLE = Step()\n"
                       "def process():\n"
                       "    Step(wake=NEVER); Step(NO_OUTPUTS, False)\n"
                       "    Step(terminate=True); Step({'y': 0}, True)\n"
                       "    Step(outputs={'y': 1}, terminate=True)\n"
                       "    Step({'y': 2}, True); Step(wake=5); Step(out)\n")
    assert _shared_step_calls(sample) == [3, 3, 4, 4, 5]
    src = Path(engine.__file__).parent
    found = {f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _shared_step_calls(ast.parse(path.read_text()))}
    assert not found


def _blueprint(stage):
    """A stage copied so that a later change to it shows: a stage class's
    namespace and its bases', or a composite's type and attributes, with its
    inner stages taken apart in turn.  The namespaces are shallow copies,
    which suffices while no class attribute is mutable."""
    if isinstance(stage, type):
        return [(cls, dict(vars(cls))) for cls in stage.__mro__]
    def value(v):
        if isinstance(v, tuple):
            return tuple(map(value, v))
        return _blueprint(v) if isinstance(v, type) else copy.deepcopy(v)
    return type(stage), {k: value(v) for k, v in vars(stage).items()}


def _leaves(stages):
    """The stages that hold no inner stage, inner stages taken apart.  A
    stage is anything with a phase_len: a stage class or a composite."""
    out = []
    for stage in stages:
        inner = [] if isinstance(stage, type) else [
            s for v in vars(stage).values()
            for s in (v if isinstance(v, tuple) else (v,))
            if hasattr(s, "phase_len")]
        out += _leaves(inner) if inner else [stage]
    return out


def test_leaf_stages_are_classes_with_immutable_defaults():
    """Every leaf stage of a registry program or a template is a Stage
    subclass, whose instances are the runs of one node each.  Its class
    attributes are shared by every node, so none is a list, dict or set."""
    progs = [program(name) for name in REGISTRY]
    progs += [build_template(p, t, tree=tr).program for p, t, tr in PROGRAMS]
    for prog in progs:
        for leaf in _leaves(prog.stages):
            assert isinstance(leaf, type) and issubclass(leaf, Stage), leaf
    classes = {cls for module in (mis, problems, stages)
               for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Stage)}
    assert {mis.GreedyStage, problems.ReductionRun, Stage} <= classes
    for cls in classes:
        for key, v in vars(cls).items():
            assert key.startswith("__") or not isinstance(
                v, (list, dict, set)), (cls, key)


@pytest.mark.parametrize("name", MATRIX)
def test_runs_leave_shared_blueprints_unchanged(name):
    """Every program built from the registry or the templates' parts shares
    its stage classes, so a run that changed one would leak into later
    runs.  Each registry program is a new StagedProgram, with its own
    lengths cache; two builds of one template share every leaf stage."""
    if name in REGISTRY:
        first, second = program(name), program(name)
        assert first is not second and first.stages == second.stages
        first.lengths(line(5))
        assert second._key is None
    else:
        problem, template, tree = PROGRAMS[PROGRAM_IDS.index(name)]
        first, second = (build_template(problem, template, tree=tree).program
                         for _ in range(2))
        leaves = _leaves(first.stages)
        assert len(leaves) >= 2 and all(
            a is b for a, b in zip(leaves, _leaves(second.stages), strict=True))
    prog, cases, max_rounds = _matrix(name)
    before = [_blueprint(s) for s in prog.stages]
    for g, rooted, p in cases:
        try:
            simulate(g, prog, p, max_rounds(g), tree=rooted)
        except tuple(RUN_ERRORS):
            pass
    assert [_blueprint(s) for s in prog.stages] == before


@pytest.mark.parametrize("pattern", ["ALL_ZEROS", "ALL_ONES"])
@pytest.mark.parametrize("template",
                         ["simple", "consecutive", "interleaved", "parallel"])
def test_wake_matches_every_round_on_line_patterns(template, pattern):
    g = line(30)
    inst = build_template("MIS", template)
    p = M.reference("MIS", g, pattern=pattern)
    woken, every = _same(inst.program, g, p, max_rounds=inst.max_rounds(g))
    if template != "parallel":  # part 1 of parallel works every round
        assert woken < every // 2


# name -> stages
STANDALONE = {
    "mis_base": REGISTRY["mis.base"][0],
    "mis_init": REGISTRY["mis.init"][0],
    "u_bw": REGISTRY["mis.u_bw"][0],
    "init+u_bw": (mis.MisInitStage, mis.UbwStage),
    "tree_init": REGISTRY["mis.tree_init"][0],
    "tree_uniform": REGISTRY["mis.tree_uniform"][0],
    "color_part2": REGISTRY["mis.color_part2"][0],
    "color_part2_combined": (mis.RevealStage, mis.ColorPart2CombinedStage),
}


def _standalone_cases(name):
    """(graph, rooted tree or None, predictions) over seeds 0..4 and k 0,
    1, 3, 6 on random connected graphs, or random trees for tree programs.
    Part 2 reads its stored coloring from the predictions; a corrupted
    coloring ends in ProtocolViolation, which the runs compared must share."""
    tree = name.startswith("tree")
    kind = "VERTEX_COLORING" if name.startswith("color") else "MIS"
    for seed in range(5):
        if tree:
            rooted = random_tree(8 + seed, seed)
            g = rooted.graph
        else:
            rooted, g = None, random_connected_graph(9 + seed, 0.3, seed)
        for k in (0, 1, 3, 6):
            yield g, rooted, M.corrupt(kind, g, M.reference(kind, g), k, seed)


@pytest.mark.parametrize("name", sorted(STANDALONE))
def test_wake_matches_every_round_standalone(name):
    program = StagedProgram(STANDALONE[name])
    for g, rooted, p in _standalone_cases(name):
        _same(program, g, p, tree=rooted)
    if "u_bw" in name:
        # an all-white line runs greedy one node per phase: a candidate that
        # lost sleeps through the black phases until a neighbor leaves
        g = line(14)
        woken, every = _same(program, g, {u: 0 for u in g.nodes})
        assert woken < every // 2


@pytest.mark.parametrize("name", sorted(STANDALONE))
def test_shared_payloads_match_copies_standalone(name):
    program = StagedProgram(STANDALONE[name])
    for g, rooted, p in _standalone_cases(name):
        assert (_outcome(CopyingProxy(program), g, p, tree=rooted)
                == _outcome(program, g, p, tree=rooted))


def test_init_sleeper_in_final_stage_stops_at_its_end():
    # with all-zero predictions nobody joins: every node sleeps through
    # rounds 2 and 3 of the init, then stops undecided in its last round
    g = line(10)
    p = {u: 0 for u in g.nodes}
    assert _same(program("mis.init"), g, p) == (2 * g.n, 3 * g.n)
    out = simulate(g, program("mis.init"), p)
    assert out.term_round == {u: 3 for u in g.nodes}
    assert undecided(out, g) == set(g.nodes)


def test_sleeper_in_fixed_final_stage_stops_at_its_end():
    # greedy works down an increasing line from node 10, two nodes per
    # phase; nodes 1..4 wait, then stop undecided in the stage's last round
    g = line(10)
    prog = StagedProgram([TruncatedStage(mis.GreedyStage, lambda v: 6)])
    _same(prog, g)
    out = simulate(g, prog)
    assert [out.term_round[u] for u in g.nodes] == [6] * 5 + [5, 4, 3, 2, 1]
    assert undecided(out, g) == {1, 2, 3, 4}


class _AlarmStage:
    """Works in stage round `alarm` only, and before it returns
    Step(wake=alarm).  When final, a node outputs the stage round it
    worked in and terminates; node n is never idle and sends "go" in
    stage round 2, and a message makes a node work at once."""

    phase_len = None
    fault_tolerant = False

    def __init__(self, alarm, rounds=None):
        self.alarm = alarm
        self.rounds = rounds  # None: open-ended, so final

    def length(self, view):
        return self.rounds

    def __call__(self, ctx):
        final = self.rounds is None
        return _AlarmRun(self.alarm, final, final and ctx.view.id == ctx.view.n)


class _AlarmRun:
    def __init__(self, alarm, final, sender):
        self.alarm = alarm
        self.final = final
        self.sender = sender

    def compose(self, ctx, t):
        if self.sender and t == 2:
            return {v: "go" for v in ctx.view.neighbor_ids}
        return {}

    def process(self, ctx, t, inbox):
        if self.sender:
            return Step({"y": t}, terminate=True) if t == 2 else Step()
        if t < self.alarm and not inbox:
            return Step(wake=self.alarm)
        if self.final:
            return Step({"y": t}, terminate=True)
        return Step(wake=NEVER)  # done: sleep to the next stage


@pytest.mark.parametrize("alarm,stepped", [(2, 16), (10, 12)])
def test_stage_round_idle_in_fixed_stage(alarm, stepped):
    """Each node of line(4) sleeps to stage round `alarm` of a 3-round
    first stage, or to the next stage's start when that comes first."""
    g = line(4)
    prog = StagedProgram([_AlarmStage(alarm, rounds=3), _AlarmStage(5)])
    # first stage: 4 process calls in round 1, 4 more in round 2 if the
    # alarm rings there, and none in round 3 either way
    assert _same(prog, g) == (stepped, 26)
    out = simulate(g, prog)
    assert out.term_round == {1: 8, 2: 8, 3: 5, 4: 5}


def test_stage_round_idle_in_open_final_stage():
    """In an open-ended final stage, nodes 1..3 of line(4) sleep to stage
    round 5; node 4's "go" in stage round 2 wakes node 3 at once."""
    g = line(4)
    prog = StagedProgram([_AlarmStage(5)])
    # round 1: 4 calls; round 2: node 4, and node 3 for its message;
    # round 5: nodes 1 and 2
    assert _same(prog, g) == (8, 4 + 4 + 2 + 2 + 2)
    out = simulate(g, prog)
    assert {u: value(out, u) for u in g.nodes} == {1: 5, 2: 5, 3: 2, 4: 2}
    assert out.term_round == {1: 5, 2: 5, 3: 2, 4: 2}


def test_message_to_one_run_wakes_the_other():
    """Interleaved runs share what a node knows, so a message one run
    processes can give the other work.  Node 55 waits in both runs: in U
    for 58, in R for 50.  In round 13 (the second round of the second U
    block, phase 4) 50 leaves, so R, not U, must step 55 at the next R
    block, where it joins."""
    chain = [100, 90, 80, 70, 60, 50, 40, 30, 20, 10, 5]  # U wave reaches 50
    upper = [58] + list(range(200, 210))  # keeps 58 active until after 55 joins
    edges = list(zip(chain, chain[1:])) + list(zip(upper, upper[1:]))
    g = build_graph(sorted(set(chain + upper + [55])),
                    edges + [(55, 50), (55, 58)], 300)
    inst = build_template("MIS", "interleaved", phase=4)
    p = {u: 0 for u in g.nodes}
    _same(inst.program, g, p, max_rounds=inst.max_rounds(g))
    out = simulate(g, inst.program, p, inst.max_rounds(g))
    assert "13,50,SEND,55:'ZERO'" in out.trace_lines()
    assert out.outputs[55] == {"y": 1} and out.term_round[55] == 16


def _crashes(g, seed, label, last):
    r = _rng(seed, label)
    sched = {}
    for u in sorted(g.nodes):
        if r.random() < 0.4:
            sched.setdefault(r.randrange(1, last + 1), set()).add(u)
    return sched


def test_wake_matches_every_round_under_crashes():
    for seed in range(20):
        g = random_connected_graph(6 + seed % 8, 0.35, seed)
        budget = problems.linial_rounds(g.d, g.delta)
        _same(program("vc.linial"), g, max_rounds=budget + 5,
              crash_schedule=_crashes(g, seed, "wake-linial", budget))
        p = M.corrupt("MIS", g, M.reference("MIS", g), 2, seed)
        for template in ("simple", "interleaved", "parallel"):
            inst = build_template("MIS", template)
            _same(inst.program, g, p, max_rounds=inst.max_rounds(g),
                  crash_schedule=_crashes(g, seed, f"wake-{template}", 3 * g.n))
    for seed in range(20):
        t = random_tree(6 + seed % 10, seed)
        budget = mis.gps_rounds(t.graph.d)
        _same(program("mis.tree_gps"), t.graph, tree=t, max_rounds=budget + 5,
              crash_schedule=_crashes(t.graph, seed, "wake-gps", budget))
        inst = build_template("MIS", "parallel", tree=True)
        p = M.corrupt("MIS", t.graph, M.reference("MIS", t.graph), 2, seed)
        _same(inst.program, t.graph, p, tree=t,
              max_rounds=inst.max_rounds(t.graph),
              crash_schedule=_crashes(t.graph, seed, "wake-tree", 2 * t.graph.n))


@pytest.mark.parametrize("template", ["simple", "interleaved"])
def test_waiting_nodes_cost_nothing(template):
    """Greedy MIS on a line with all-zero predictions works one node at a
    time; stepping every node every round made n·rounds process calls."""
    g = line(800)
    inst = build_template("MIS", template)
    prog = Proxy(inst.program)
    out = simulate(g, prog, M.reference("MIS", g, pattern="ALL_ZEROS"),
                   inst.max_rounds(g))
    assert out.total_rounds == 803
    assert prog.counts["process"] <= 20 * g.n


def test_work_fingerprint():
    """Exact calls on one fixed run: a change to them is a change in the
    work the engine does, and must be explained."""
    g = line(30)
    counts = {}
    for template in ("simple", "interleaved"):
        prog = Proxy(build_template("MIS", template).program)
        simulate(g, prog, M.reference("MIS", g, pattern="ALL_ZEROS"))
        counts[template] = prog.counts
    # every node is a non-joiner of the MIS init, asleep in its rounds 2 and 3
    assert counts == {"simple": {"compose": 89, "process": 117},
                      "interleaved": {"compose": 129, "process": 155}}
    # the benchmark's MIS shape: most of a run's work is the initialization
    g = random_connected_graph(18, 0.3, 3, "SEEDED_PERMUTATION")
    p = M.corrupt("MIS", g, M.reference("MIS", g), 10, 3)
    counts = {}
    for template in ("simple", "consecutive", "interleaved", "parallel"):
        prog = Proxy(build_template("MIS", template).program)
        simulate(g, prog, p)
        counts[template] = prog.counts
    assert counts == {"simple": {"compose": 43, "process": 61},
                      "consecutive": {"compose": 43, "process": 61},
                      "interleaved": {"compose": 43, "process": 61},
                      "parallel": {"compose": 44, "process": 61}}
